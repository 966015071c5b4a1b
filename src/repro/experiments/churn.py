"""Churn extension: nodes joining and leaving across slots.

The paper's fault scenarios are static snapshots (a fixed fraction
dead or out-of-view). Real networks *churn*: nodes leave, new nodes
join, and — because views come from periodic DHT crawls that take
about a minute (Section 4.1) — every participant works from a view
that lags reality by some number of slots. This module extends the
scenario driver with exactly that:

- after every slot, ``churn_fraction`` of the current nodes depart
  (fail-silent) and the same number of fresh nodes join;
- each slot, every node's view is the membership as it stood
  ``view_lag_slots`` slots earlier — departed nodes are still being
  queried, joiners are invisible until the next crawl completes;
- the builder, which crawls continuously, seeds the *current*
  membership (new joiners get custody immediately, exactly as the
  deterministic assignment prescribes).

This exercises the same robustness machinery as Figure 15 but in a
dynamic regime the paper leaves as discussion.
"""

from __future__ import annotations


from repro.core.assignment import AssignmentIndex
from repro.core.node import PandasNode
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.net.topology import DEFAULT_NODE_PROFILE

__all__ = ["ChurnScenario"]


class ChurnScenario(Scenario):
    """A PANDAS scenario with per-slot membership turnover.

    Extra knobs (constructor arguments, not ScenarioConfig fields, so
    the base config stays serializable and comparable):

    - ``churn_fraction``: fraction of current nodes replaced after
      every slot (default 0.1);
    - ``view_lag_slots``: how many slots behind reality the nodes'
      views run (default 1; 0 means perfectly fresh views).
    """

    def __init__(
        self,
        config: ScenarioConfig,
        churn_fraction: float = 0.1,
        view_lag_slots: int = 1,
    ) -> None:
        if not 0.0 <= churn_fraction < 1.0:
            raise ValueError("churn_fraction must be in [0, 1)")
        if view_lag_slots < 0:
            raise ValueError("view_lag_slots must be non-negative")
        self.churn_fraction = churn_fraction
        self.view_lag_slots = view_lag_slots
        self.departed: set[int] = set()
        self._membership_history: list[set[int]] = []
        self._next_address: int = 0
        super().__init__(config)
        self._next_address = self.builder_id + 1
        self._membership_history.append(set(self.node_ids))

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def current_members(self) -> set[int]:
        return set(self.node_ids) - self.departed

    def _membership_at(self, slot: int) -> set[int]:
        """Membership as known by a crawl finishing ``view_lag_slots``
        slots before ``slot`` (clamped to genesis)."""
        index = max(0, min(len(self._membership_history) - 1, slot - self.view_lag_slots))
        return self._membership_history[index]

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
            if self.block_overlay is not None:
                # a departed node's dedup ids and mesh edges would
                # otherwise be retained for the whole sustained run
                self.block_overlay.retire_member(leaver)
        for _ in range(leave_count):
            self._spawn_node()
        # crawls see the post-churn world from now on
        self._membership_history.append(self.current_members)
        # future epochs' custodian indexes must include the joiners
        self._indexes.clear()

    def _spawn_node(self) -> int:
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
        return address

    # ------------------------------------------------------------------
    # scenario hooks
    # ------------------------------------------------------------------
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
        # refresh every live node's (lagged) view before the slot runs
        view = self._membership_at(slot)
        fresh = self.view_lag_slots == 0
        for node_id, node in self.nodes.items():
            if node_id in self.departed:
                continue
            node.view = None if fresh else (view | {node_id})
        self.builder.view = self.current_members
        super()._begin_slot(slot)

    def _end_slot(self, slot: int) -> None:
        super()._end_slot(slot)
        self._apply_churn(slot)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def deadline_hit_by_slot(self) -> dict[int, float]:
        """Fraction of each slot's live nodes that sampled within the
        protocol deadline (``params.deadline``)."""
        deadline = self.params.deadline
        history = self._membership_history
        outcome: dict[int, float] = {}
        for slot in self.ctx.slot_starts:
            live = history[min(slot, len(history) - 1)]
            if not live:
                continue
            within = 0
            for node in live:
                times = self.metrics.phase_times.get((slot, node))
                if times and times.sampling is not None and times.sampling <= deadline:
                    within += 1
            outcome[slot] = within / len(live)
        return outcome
