"""Sustained multi-slot pipeline with overload control.

Every scenario runs its slots through ``BaseScenario.run``: slot N+1
begins ``SLOT_SECONDS`` after slot N, and slot N's state is
released ``retention_slots`` slots later (1 by default: when slot N+1
begins). The real protocol also churns its membership at slot
boundaries, and layer-2 clients keep asking for data whether or not
the serving tier has capacity left. :class:`PipelineScenario` is that
regime:

- **Overlapping phases**: with ``retention_slots`` above 1, slot N's
  fetchers (and its probe retrievals) stay live while slot N+1 runs,
  so work in flight is never yanked at the slot boundary.
- **Churn mid-stream**: at every slot boundary ``churn_fraction`` of
  the nodes depart (fail-silent) and as many join, so nodes disappear
  *while still owing responses* for earlier slots. Views are the
  membership ``view_lag_slots`` slots ago (DHT crawls take about a
  minute, Section 4.1); the builder seeds the current membership.
  ``probes_per_slot=0`` runs churn alone.
- **Overload control end to end**: the bounds of every run — bounded
  transport inboxes (``ScenarioConfig.max_inbox``), retrieval
  admission (``retrieval_admit_rate``), deadline-aware retry/backoff
  (``PandasParams.fetch_retry``) — meet the optional per-node request
  buffer bound (``PandasParams.pending_request_limit``) under
  sustained load; the I5 invariant checks no queue ever exceeds its
  bound.
- **Measured retrieval**: a handful of *probe* ``RetrievalClient``
  instances issue real per-request retrievals each slot, giving
  measured latency percentiles. Serving nodes shed retrieval-class
  requests before sampling ones, so sampling keeps strict priority.

Everything is seeded: two runs with the same config and knobs produce
bit-identical metrics fingerprints (``PipelineReport.fingerprint``),
which is what lets overload behaviour be regression-tested at all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.stats import percentile
from repro.core.assignment import AssignmentIndex
from repro.core.node import PandasNode
from repro.core.retrieval import RetrievalClient, RetrievalResult
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.net.topology import DEFAULT_NODE_PROFILE

__all__ = ["PROBE_BASE_ADDRESS", "PipelineReport", "PipelineScenario"]

# Probe clients live far above any address churn can ever allocate
# (joiners are numbered up from builder_id + 1, one per departure).
PROBE_BASE_ADDRESS = 10_000_000
# each probe asks for PROBE_ROWS full rows, PROBE_DELAY s into its slot
PROBE_DELAY = 1.0
PROBE_ROWS = 1


@dataclass
class PipelineReport:
    """Machine-readable outcome of one sustained pipeline run."""

    slots: int
    deadline_hit_rate: float
    rows: list[dict[str, object]] = field(default_factory=list)
    probe: dict[str, Any] = field(default_factory=dict)
    sheds: dict[str, float] = field(default_factory=dict)
    queue_drops: dict[str, float] = field(default_factory=dict)
    queue_depth_peaks: dict[str, int] = field(default_factory=dict)
    datagrams_overflowed: int = 0
    fingerprint: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "slots": self.slots,
            "deadline_hit_rate": self.deadline_hit_rate,
            "rows": self.rows,
            "probe": self.probe,
            "sheds": self.sheds,
            "queue_drops": self.queue_drops,
            "queue_depth_peaks": self.queue_depth_peaks,
            "datagrams_overflowed": self.datagrams_overflowed,
            "fingerprint": self.fingerprint,
        }


class PipelineScenario(Scenario):
    """Continuous slot pipeline over a churning, overloaded network.

    Knobs (constructor arguments, not ScenarioConfig fields, so the base
    config stays serializable and comparable):

    - ``churn_fraction``: fraction of current nodes replaced at every
      slot boundary, in ``[0, 1)``;
    - ``view_lag_slots``: how many slots behind reality the nodes'
      views run (0 means perfectly fresh views);
    - ``retention_slots``: how many slots of per-node state stay live
      behind the head slot before being released (>= 1);
    - ``probes_per_slot``: measured retrieval probes launched every
      slot (0: none).
    """

    # probe traffic is classed as the ``retrieval`` telemetry layer
    retrieval_floor = PROBE_BASE_ADDRESS

    def __init__(
        self,
        config: ScenarioConfig,
        churn_fraction: float = 0.05,
        view_lag_slots: int = 1,
        retention_slots: int = 2,
        probes_per_slot: int = 2,
    ) -> None:
        if not 0.0 <= churn_fraction < 1.0:
            raise ValueError("churn_fraction must be in [0, 1)")
        if view_lag_slots < 0:
            raise ValueError("view_lag_slots must be non-negative")
        if retention_slots < 1:
            raise ValueError("retention_slots must be at least 1")
        if probes_per_slot < 0:
            raise ValueError("probes_per_slot must be non-negative")
        self.churn_fraction = churn_fraction
        self.view_lag_slots = view_lag_slots
        self.departed: set[int] = set()
        # the membership after each churn, genesis first: crawls read it
        self._membership_history: list[set[int]] = []
        self.retention_slots = retention_slots
        self.probes_per_slot = probes_per_slot
        self.probe_results: list[RetrievalResult] = []
        self._slot_rows: list[dict[str, object]] = []
        super().__init__(config)
        self._next_address = self.builder_id + 1
        self._membership_history.append(set(self.node_ids))
        self.probes: list[RetrievalClient] = []
        if probes_per_slot > 0:
            rng = self.rngs.stream("pipeline-probe-topology")
            for i in range(max(1, min(probes_per_slot, 4))):
                address = PROBE_BASE_ADDRESS + i
                client = RetrievalClient(self.ctx, address)
                self.network.register(
                    address,
                    rng.randrange(self.latency.num_vertices),
                    client.on_datagram,
                    DEFAULT_NODE_PROFILE.up_rate,
                    DEFAULT_NODE_PROFILE.down_rate,
                )
                self.probes.append(client)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def current_members(self) -> set[int]:
        return set(self.node_ids) - self.departed

    def _members(self, slot: int) -> set[int]:
        """The membership while ``slot`` ran, statically dead nodes left out."""
        history = self._membership_history
        return history[min(slot, len(history) - 1)] - self.dead_nodes

    def _apply_churn(self, completed_slot: int) -> None:
        rng = self.rngs.stream("churn", completed_slot)
        members = sorted(self.current_members)
        leave_count = int(round(self.churn_fraction * len(members)))
        if leave_count == 0:
            self._membership_history.append(self.current_members)
            return
        leavers = rng.sample(members, leave_count)
        for leaver in leavers:
            self.departed.add(leaver)
            self.network.kill(leaver)
            if self.overlay is not None:
                # a departed node's dedup ids and mesh edges would
                # otherwise be retained for the whole sustained run
                self.overlay.retire_member(leaver)
        for _ in range(leave_count):
            self._spawn_node()
        # crawls see the post-churn world from now on
        self._membership_history.append(self.current_members)
        # future epochs' custodian indexes must include the joiners
        self._indexes.clear()

    def _spawn_node(self) -> None:
        address = self._next_address
        self._next_address += 1
        vertex = self.rngs.stream("churn-topology").randrange(self.latency.num_vertices)
        self.network.register(
            address,
            vertex,
            self._node_handler(address),
            DEFAULT_NODE_PROFILE.up_rate,
            DEFAULT_NODE_PROFILE.down_rate,
        )
        self.nodes[address] = PandasNode(self.ctx, address, None)
        self.node_ids.append(address)

    def _index_for_epoch(self, epoch: int) -> AssignmentIndex:
        index = self._indexes.get(epoch)
        if index is None:
            # custodianship over the *current* membership: departed
            # nodes keep appearing until peers' views catch up, which
            # is handled by the view filter, but they must not receive
            # fresh custody
            index = AssignmentIndex(self.assignment, epoch, sorted(self.current_members))
            self._indexes[epoch] = index
        return index

    def _begin_slot(self, slot: int) -> None:
        # refresh every live node's view before the slot runs: the
        # membership a crawl finishing view_lag_slots earlier saw
        history = self._membership_history
        view = history[max(0, min(len(history) - 1, slot - self.view_lag_slots))]
        fresh = self.view_lag_slots == 0
        for node_id, node in self.nodes.items():
            if node_id in self.departed:
                continue
            node.view = None if fresh else (view | {node_id})
        self.builder.view = self.current_members
        super()._begin_slot(slot)
        self._launch_probes(slot)

    def _after_slot(self, slot: int) -> None:
        self._record_slot(slot)
        if slot + 1 < self.config.slots:
            # boundary churn happens while the retained slots' fetchers
            # and probes are still live — mid-stream
            self._apply_churn(slot)

    def _end_slot(self, slot: int) -> None:
        super()._end_slot(slot)
        for probe in self.probes:
            probe.drop_slot(slot)

    # ------------------------------------------------------------------
    # measured retrieval probes
    # ------------------------------------------------------------------
    def _launch_probes(self, slot: int) -> None:
        if self.probes_per_slot == 0:
            return
        rng = self.rngs.stream("pipeline-probe", slot)
        ext_rows = self.params.ext_rows
        for i in range(self.probes_per_slot):
            client = self.probes[i % len(self.probes)]
            rows = tuple(sorted(rng.sample(range(ext_rows), min(PROBE_ROWS, ext_rows))))
            self.sim.call_after(
                PROBE_DELAY,
                lambda client=client, rows=rows: self.probe_results.append(
                    client.fetch_lines(slot, rows=rows)
                ),
            )

    # ------------------------------------------------------------------
    # per-slot bookkeeping
    # ------------------------------------------------------------------
    def _record_slot(self, slot: int) -> None:
        shed_total = sum(self.metrics.shed_counts.values())
        row: dict[str, object] = {
            "slot": slot,
            "epoch": self.ctx.epoch_of(slot),
            "live_nodes": len(self._members(slot)),
            "max_queue_depth": self.network.max_queue_depth(),
            "datagrams_overflowed": self.network.datagrams_overflowed,
            "shed_total": shed_total,
        }
        self._slot_rows.append(row)
        self.ctx.emit(
            "pipeline_slot",
            slot=slot,
            live=row["live_nodes"],
            depth=row["max_queue_depth"],
            shed=shed_total,
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _deadline_hits(self) -> dict[int, tuple[int, int]]:
        """Per slot: (members that sampled within the protocol deadline
        ``params.deadline``, members)."""
        deadline = self.params.deadline
        counts: dict[int, tuple[int, int]] = {}
        for slot in self.ctx.slot_starts:
            live = self._members(slot)
            if not live:
                continue
            within = 0
            for node in live:
                times = self.metrics.phase_times.get((slot, node))
                if times and times.sampling is not None and times.sampling <= deadline:
                    within += 1
            counts[slot] = (within, len(live))
        return counts

    def deadline_hit_by_slot(self) -> dict[int, float]:
        """Fraction of each slot's members that sampled within the
        protocol deadline (``params.deadline``)."""
        return {slot: within / live for slot, (within, live) in self._deadline_hits().items()}

    def _probe_summary(self) -> dict[str, Any]:
        completed = sorted(r.elapsed for r in self.probe_results if r.complete)
        # probes with an outcome (its fetcher's end reason, or shed): all
        # of them once run() has retired their slots
        outcomes = Counter(r.reason for r in self.probe_results if r.reason)
        summary: dict[str, Any] = {
            "issued": len(self.probe_results),
            "completed": len(completed),
            "outcomes": dict(sorted(outcomes.items())),
        }
        if completed:
            summary["latency_p50"] = percentile(completed, 50.0)
            summary["latency_p90"] = percentile(completed, 90.0)
            summary["latency_p99"] = percentile(completed, 99.0)
        return summary

    def report(self) -> PipelineReport:
        counts = self._deadline_hits()
        hits = {slot: within / live for slot, (within, live) in counts.items()}
        # pooled over node-slots, as the telemetry and `repro health` count
        member_slots = sum(live for _, live in counts.values())
        within_total = sum(within for within, _ in counts.values())
        overall = within_total / member_slots if member_slots else 0.0
        rows: list[dict[str, object]] = []
        for row in self._slot_rows:
            slot = row["slot"]
            hit = hits.get(slot, 0.0) if isinstance(slot, int) else 0.0
            rows.append(dict(row, deadline_hit=hit))
        return PipelineReport(
            slots=len(self._slot_rows),
            deadline_hit_rate=overall,
            rows=rows,
            probe=self._probe_summary(),
            sheds={k: v for k, v in sorted(self.metrics.shed_counts.items())},
            queue_drops={k: v for k, v in sorted(self.metrics.queue_drop_counts.items())},
            queue_depth_peaks={
                k: int(v) for k, v in sorted(self.metrics.queue_depth_peaks.items())
            },
            datagrams_overflowed=self.network.datagrams_overflowed,
            fingerprint=self.metrics.fingerprint(),
        )
