"""Metric collection for simulation runs.

The paper's evaluation reports, per node and per slot: the times to
seeding / consolidation / sampling, message counts, and traffic volume
(both directions). ``MetricsRecorder`` collects these as flat
counters and event marks keyed by ``(slot, node_id)``; the analysis
layer turns them into CDFs, percentiles and the rows of Table 1.

Protocol events reach it as the first subscriber of the run's event
bus (:mod:`repro.sim.bus`); datagram traffic through the ``Network``
observers that ``BaseScenario._wire_metrics`` installs.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import mean, pstdev
from collections.abc import Hashable, Iterator
from typing import Any, ClassVar

__all__ = ["Counter2D", "MetricsRecorder", "PhaseTimes"]


class Counter2D:
    """A ``(slot, node) -> float`` accumulator with dict ergonomics.

    Storage is a per-slot index (``slot -> node -> value``) so the
    hot extraction paths — :meth:`per_node` and :meth:`values` for one
    slot, called once per slot by every report — touch only that
    slot's entries instead of scanning every (slot, node) pair of the
    whole run.
    """

    def __init__(self) -> None:
        self._per_slot: dict[Hashable, dict[Hashable, float]] = {}
        self._size = 0

    def add(self, slot: Hashable, node: Hashable, amount: float = 1.0) -> None:
        nodes = self._per_slot.get(slot)
        if nodes is None:
            nodes = self._per_slot[slot] = {}
        prev = nodes.get(node)
        if prev is None:
            self._size += 1
            nodes[node] = amount + 0.0  # callers may pass ints; store floats
        else:
            nodes[node] = prev + amount

    def get(self, slot: Hashable, node: Hashable) -> float:
        nodes = self._per_slot.get(slot)
        if nodes is None:
            return 0.0
        return nodes.get(node, 0.0)

    def per_node(self, slot: Hashable) -> dict[Hashable, float]:
        """All values for one slot, keyed by node."""
        return dict(self._per_slot.get(slot, {}))

    def items(self) -> Iterator[tuple[tuple[Hashable, Hashable], float]]:
        """Iterate ``((slot, node), value)`` pairs, flat-dict style."""
        for slot, nodes in self._per_slot.items():
            for node, value in nodes.items():
                yield (slot, node), value

    def values(self, slot: Hashable | None = None) -> list[float]:
        if slot is None:
            return [v for nodes in self._per_slot.values() for v in nodes.values()]
        return list(self._per_slot.get(slot, {}).values())

    def total(self, slot: Hashable | None = None) -> float:
        return sum(self.values(slot))

    def __len__(self) -> int:
        return self._size


@dataclass
class PhaseTimes:
    """Completion timestamps (seconds from slot start) for one node/slot.

    ``None`` means the phase never completed within the simulated
    window — those entries count as deadline misses.
    """

    seeding: float | None = None
    consolidation: float | None = None
    sampling: float | None = None
    block: float | None = None


@dataclass
class MetricsRecorder:
    """Collects everything the evaluation section reports.

    All times are stored relative to the slot start, matching the
    paper's "time from the start of the slot" x-axes. The recorder is
    deliberately dumb — pure storage — so protocol code stays easy to
    audit and the analysis stays in one place.
    """

    phase_times: dict[tuple[Hashable, Hashable], PhaseTimes] = field(default_factory=dict)
    messages_sent: Counter2D = field(default_factory=Counter2D)
    messages_received: Counter2D = field(default_factory=Counter2D)
    bytes_sent: Counter2D = field(default_factory=Counter2D)
    bytes_received: Counter2D = field(default_factory=Counter2D)
    # fetch-phase traffic only (queries + responses, both directions),
    # the quantity plotted in Figures 10, 13b/c and 14b/c
    fetch_messages: Counter2D = field(default_factory=Counter2D)
    fetch_bytes: Counter2D = field(default_factory=Counter2D)
    builder_bytes_sent: dict[Hashable, float] = field(default_factory=lambda: defaultdict(float))
    builder_messages_sent: dict[Hashable, float] = field(default_factory=lambda: defaultdict(float))
    round_stats: dict[tuple[Hashable, Hashable, int], dict[str, float]] = field(
        default_factory=dict
    )
    custom: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # realized fault events by kind (link_drop, duplicate, crash, ...),
    # recorded by the fault injector so fault figures report the actual
    # injected load, not just the configured probabilities
    fault_counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # node-side defense events by kind (resp_unsolicited, cells_invalid,
    # rate_limited, quarantine, ...), recorded by PandasNode's
    # validation layer; adversarial experiments report these alongside
    # fault_counts to show how much hostile traffic was absorbed
    defense_counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # --- overload control ----------------------------------------------
    # Admission-control load shedding by kind (retrieval_admission,
    # pending_shed, ...), bounded-queue drops by reason (overflow, ...),
    # and high-water queue-depth gauges by name.
    shed_counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    queue_drop_counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    queue_depth_peaks: dict[str, float] = field(default_factory=dict)

    # the protocol events the bus (repro.sim.bus) delivers here; the
    # datagram counters above are fed by Network observers instead
    kinds: ClassVar[frozenset[str]] = frozenset(
        {"phase", "fault", "adversary", "defense", "load_shed", "queue_depth", "round_stats"}
    )

    def emit(
        self, kind: str, *, t: float, slot: Hashable = -1, node: Hashable = -1, **data: Any
    ) -> None:
        """Bus entry point: store one protocol event with its writer.

        ``t`` is not stored: phase marks are relative to the slot start
        and arrive as ``at``.
        """
        if kind == "phase":
            self.mark_phase(data["phase"], slot, node, data["at"])
        elif kind in ("fault", "adversary"):
            self.record_fault(data["fault"], data.get("amount", 1.0))
        elif kind == "defense":
            self.record_defense(data["defense"], data["amount"])
        elif kind == "load_shed":
            self.record_shed(data["shed"], data["amount"])
        elif kind == "queue_depth":
            self.observe_queue_depth(data["queue"], data["depth"])
        elif kind == "round_stats":
            self.record_round(slot, node, data.pop("round"), **data)

    # ------------------------------------------------------------------
    # phase completion marks
    # ------------------------------------------------------------------
    def mark_phase(self, phase: str, slot: Hashable, node: Hashable, t: float) -> None:
        """Record ``phase`` (a :class:`PhaseTimes` field) as completed at
        ``t``; the first mark wins."""
        times = self.phase_times.get((slot, node))
        if times is None:
            times = self.phase_times[(slot, node)] = PhaseTimes()
        if getattr(times, phase) is None:
            setattr(times, phase, t)

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def record_send(self, slot: Hashable, node: Hashable, size: int) -> None:
        self.messages_sent.add(slot, node)
        self.bytes_sent.add(slot, node, size)

    def record_receive(self, slot: Hashable, node: Hashable, size: int) -> None:
        self.messages_received.add(slot, node)
        self.bytes_received.add(slot, node, size)

    def record_builder_send(self, slot: Hashable, size: int) -> None:
        self.builder_messages_sent[slot] += 1
        self.builder_bytes_sent[slot] += size

    def record_fault(self, kind: str, amount: float = 1.0) -> None:
        """Count one injected fault or Byzantine action of ``kind``."""
        self.fault_counts[kind] += amount

    def record_defense(self, kind: str, amount: float = 1.0) -> None:
        """Count one node-side defense event of ``kind``."""
        self.defense_counts[kind] += amount

    # ------------------------------------------------------------------
    # overload control (bounded queues, admission, backlog gauges)
    # ------------------------------------------------------------------
    def record_shed(self, kind: str, amount: float = 1.0) -> None:
        """Count load shed by admission control (``kind`` = what/why)."""
        self.shed_counts[kind] += amount

    def record_queue_drop(self, reason: str, amount: float = 1.0) -> None:
        """Count one bounded-queue rejection (e.g. transport overflow)."""
        self.queue_drop_counts[reason] += amount

    def observe_queue_depth(self, gauge: str, depth: float) -> None:
        """Track the high-water mark of a named queue-depth gauge."""
        prev = self.queue_depth_peaks.get(gauge)
        if prev is None or depth > prev:
            self.queue_depth_peaks[gauge] = depth

    # ------------------------------------------------------------------
    # fetching round telemetry (Table 1)
    # ------------------------------------------------------------------
    def record_round(
        self, slot: Hashable, node: Hashable, round_index: int, **stats: float
    ) -> None:
        key = (slot, node, round_index)
        entry = self.round_stats.setdefault(key, defaultdict(float))
        for name, value in stats.items():
            entry[name] += value

    # ------------------------------------------------------------------
    # extraction helpers
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[object, ...]:
        """Canonical, order-independent form of everything recorded.

        Two runs are behaviourally identical iff their snapshots are
        equal — the basis of the cross-run determinism guarantee for
        (faulty) replays.
        """

        def counter(c: Counter2D) -> tuple[object, ...]:
            return tuple(sorted(c.items()))

        return (
            tuple(
                sorted(
                    (key, (t.seeding, t.consolidation, t.sampling, t.block))
                    for key, t in self.phase_times.items()
                )
            ),
            counter(self.messages_sent),
            counter(self.messages_received),
            counter(self.bytes_sent),
            counter(self.bytes_received),
            counter(self.fetch_messages),
            counter(self.fetch_bytes),
            tuple(sorted(self.builder_bytes_sent.items())),
            tuple(sorted(self.builder_messages_sent.items())),
            tuple(
                sorted(
                    (key, tuple(sorted(stats.items())))
                    for key, stats in self.round_stats.items()
                )
            ),
            tuple(sorted(self.custom.items())),
            tuple(sorted(self.fault_counts.items())),
            tuple(sorted(self.defense_counts.items())),
            (
                tuple(sorted(self.shed_counts.items())),
                tuple(sorted(self.queue_drop_counts.items())),
                tuple(sorted(self.queue_depth_peaks.items())),
            ),
        )

    def fingerprint(self) -> str:
        """SHA-256 digest of :meth:`snapshot` for bit-identity checks."""
        return hashlib.sha256(repr(self.snapshot()).encode()).hexdigest()

    def summary(self) -> dict[str, object]:
        """Flat run totals for machine-readable reports (``--json``)."""
        slots = sorted({slot for (slot, _node) in self.phase_times})
        return {
            "slots": slots,
            "nodes_tracked": len({node for (_slot, node) in self.phase_times}),
            "messages_sent": self.messages_sent.total(),
            "messages_received": self.messages_received.total(),
            "bytes_sent": self.bytes_sent.total(),
            "bytes_received": self.bytes_received.total(),
            "fetch_messages": self.fetch_messages.total(),
            "fetch_bytes": self.fetch_bytes.total(),
            "builder_messages": sum(self.builder_messages_sent.values()),
            "builder_bytes": sum(self.builder_bytes_sent.values()),
            "faults": dict(sorted(self.fault_counts.items())),
            "defenses": dict(sorted(self.defense_counts.items())),
            "sheds": dict(sorted(self.shed_counts.items())),
            "queue_drops": dict(sorted(self.queue_drop_counts.items())),
            "queue_depth_peaks": dict(sorted(self.queue_depth_peaks.items())),
        }

    def round_table(self, max_round: int = 4) -> dict[int, dict[str, tuple[float, float]]]:
        """Aggregate round telemetry into Table-1-style (mean, std) rows."""
        per_round: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        for (_slot, _node, rnd), stats in self.round_stats.items():
            if rnd > max_round:
                continue
            for name, value in stats.items():
                per_round[rnd][name].append(value)
        table: dict[int, dict[str, tuple[float, float]]] = {}
        for rnd, stats in sorted(per_round.items()):
            table[rnd] = {
                name: (mean(values), pstdev(values) if len(values) > 1 else 0.0)
                for name, values in stats.items()
            }
        return table
