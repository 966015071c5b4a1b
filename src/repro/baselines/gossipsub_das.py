"""GossipSub-based DAS baseline (Section 8.1, Figures 12 & 14).

Custody is partitioned into *units*: unit ``u`` owns rows
``[u*8, (u+1)*8)`` and columns ``[u*8, (u+1)*8)`` (64 units at full
scale). Every node is deterministically hashed to one unit per epoch
and subscribes to that unit's GossipSub channel (~16 members in a
1,000-node network). The builder pushes each line of each unit into
the corresponding channel with fanout 8 — eight copies of every unit,
the same egress budget as PANDAS's redundant strategy — and the
channel's mesh gossip replaces explicit consolidation. The sampling
phase is PANDAS's adaptive fetcher restricted to sample cells, with
candidates drawn from the unit members instead of the row/column
custodians; replies take the fetcher's acceptance chain
(``AdaptiveFetcher.on_reply``) without a reputation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.core.assignment import Custody
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher
from repro.core.messages import CellRequest, CellResponse
from repro.experiments.scenario import BaseScenario
from repro.gossip.pubsub import GossipMessage, GossipOverlay
from repro.net.transport import Datagram
from repro.params import SEEDING_REDUNDANCY
from repro.sim.rng import derive_seed

__all__ = ["UnitAssignment", "GossipDasNode", "GossipDasScenario"]


class UnitAssignment:
    """Deterministic, epoch-seeded node -> unit-of-custody mapping."""

    def __init__(self, params, epoch_seed: int) -> None:
        self.params = params
        self.epoch_seed = epoch_seed
        if params.ext_rows % params.custody_rows or params.ext_cols % params.custody_cols:
            raise ValueError("grid must divide evenly into units")
        self.num_units = params.ext_rows // params.custody_rows

    def unit_of(self, node_id: int) -> int:
        return derive_seed(self.epoch_seed, "unit", node_id) % self.num_units

    def unit_custody(self, unit: int) -> Custody:
        rows_per = self.params.custody_rows
        cols_per = self.params.custody_cols
        rows = tuple(range(unit * rows_per, (unit + 1) * rows_per))
        cols = tuple(range(unit * cols_per, (unit + 1) * cols_per))
        return Custody(rows, cols)

    def unit_of_line(self, line: int) -> int:
        if line < self.params.ext_rows:
            return line // self.params.custody_rows
        return (line - self.params.ext_rows) // self.params.custody_cols


@dataclass
class _PendingRequest:
    src: int
    cells: frozenset[int]
    missing: int


@dataclass
class _GossipSlotState:
    cells: SlotCellState
    fetcher: AdaptiveFetcher
    waiting_by_cell: dict[int, list[_PendingRequest]] = field(default_factory=dict)


class GossipDasNode:
    """A baseline node: custody via channel gossip, sampling via fetcher."""

    def __init__(self, scenario: GossipDasScenario, node_id: int) -> None:
        self.scenario = scenario
        self.node_id = node_id
        self._slots: dict[int, _GossipSlotState] = {}

    # ------------------------------------------------------------------
    def _slot_state(self, slot: int) -> _GossipSlotState:
        state = self._slots.get(slot)
        if state is None:
            state = self._create_slot_state(slot)
            self._slots[slot] = state
        return state

    def _create_slot_state(self, slot: int) -> _GossipSlotState:
        scenario = self.scenario
        ctx = scenario.ctx
        params = ctx.params
        unit = scenario.unit_assignment.unit_of(self.node_id)
        custody = scenario.unit_assignment.unit_custody(unit)
        sample_rng = ctx.rngs.stream("samples", self.node_id, slot)
        samples = sample_rng.sample(range(params.total_cells), params.samples)
        cells = SlotCellState(
            params,
            custody,
            samples,
            on_store=lambda cid: self._on_cell_stored(slot, cid),
        )
        fetcher = AdaptiveFetcher(
            sim=ctx.sim,
            state=cells,
            line_custodians=lambda line: scenario.members_for_line(line),
            send_query=lambda peer, cids: self._send_query(slot, peer, cids),
            rng=ctx.rngs.stream("fetch", self.node_id, slot),
            self_id=self.node_id,
            fetch_custody=False,  # gossip replaces consolidation
            deadline_at=ctx.slot_start(slot) + params.deadline,
        )
        return _GossipSlotState(cells=cells, fetcher=fetcher)

    # ------------------------------------------------------------------
    def on_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if isinstance(payload, GossipMessage):
            self.scenario.overlay.on_datagram(self.node_id, dgram)
        elif isinstance(payload, CellRequest):
            self._on_request(dgram.src, payload)
        elif isinstance(payload, CellResponse):
            self._on_response(dgram.src, payload)

    def on_channel_cells(self, slot: int, cells: tuple[int, ...]) -> None:
        """Cells delivered by the unit channel's gossip (the first
        delivery completes seeding and starts sampling)."""
        state = self._slot_state(slot)
        ctx = self.scenario.ctx
        at = ctx.since_slot_start(slot)
        ctx.emit("phase", slot=slot, node=self.node_id, phase="seeding", at=at)
        state.fetcher.start()
        state.cells.add_cells(cells)
        self._after_cells_changed(slot, state)

    def _on_request(self, src: int, msg: CellRequest) -> None:
        state = self._slot_state(msg.slot)
        held = frozenset(cid for cid in msg.cells if state.cells.has_cell(cid))
        if held:
            self._respond(msg.slot, src, tuple(sorted(held)))
        remainder = msg.cells - held
        if remainder:
            record = _PendingRequest(src, remainder, len(remainder))
            for cid in remainder:
                state.waiting_by_cell.setdefault(cid, []).append(record)

    def _on_cell_stored(self, slot: int, cid: int) -> None:
        state = self._slots.get(slot)
        if state is None:
            return
        waiters = state.waiting_by_cell.pop(cid, None)
        if not waiters:
            return
        for record in waiters:
            record.missing -= 1
            if record.missing == 0:
                self._respond(slot, record.src, tuple(sorted(record.cells)))

    def _on_response(self, src: int, msg: CellResponse) -> None:
        state = self._slots.get(msg.slot)
        if state is not None and state.fetcher.on_reply(src, msg.cells, msg.invalid)[0]:
            self._after_cells_changed(msg.slot, state)

    # ------------------------------------------------------------------
    def _send_query(self, slot: int, peer: int, cells: frozenset[int]) -> None:
        ctx = self.scenario.ctx
        request = CellRequest(slot=slot, epoch=ctx.epoch_of(slot), cells=cells)
        ctx.network.send(self.node_id, peer, request, request.wire_size(ctx.params))

    def _respond(self, slot: int, dst: int, cells: tuple[int, ...]) -> None:
        ctx = self.scenario.ctx
        response = CellResponse(slot=slot, epoch=ctx.epoch_of(slot), cells=cells)
        ctx.network.send(self.node_id, dst, response, response.wire_size(ctx.params))

    def _after_cells_changed(self, slot: int, state: _GossipSlotState) -> None:
        ctx = self.scenario.ctx
        now_rel = ctx.since_slot_start(slot)
        # repeats are dropped by the bus: a phase completes once per node
        if state.cells.consolidation_complete:
            ctx.emit(
                "phase", slot=slot, node=self.node_id, phase="consolidation", at=now_rel
            )
        if state.cells.sampling_complete:
            ctx.emit("phase", slot=slot, node=self.node_id, phase="sampling", at=now_rel)


    def drop_slot(self, slot: int) -> None:
        state = self._slots.pop(slot, None)
        if state is not None:
            state.fetcher.stop()


class GossipDasScenario(BaseScenario):
    """Figures 12/14: DAS over per-unit GossipSub channels."""

    overlay: GossipOverlay

    def _build_participants(self) -> None:
        epoch_seed = self.assignment.beacon.epoch_seed(0)
        self.unit_assignment = UnitAssignment(self.params, epoch_seed)
        self.overlay = GossipOverlay(self.network, self.rngs.stream("gossip-mesh"))
        self.nodes: dict[int, GossipDasNode] = {
            node_id: GossipDasNode(self, node_id) for node_id in self.node_ids
        }
        self._unit_members: dict[int, list[int]] = {
            unit: [] for unit in range(self.unit_assignment.num_units)
        }
        for node_id in self.node_ids:
            self._unit_members[self.unit_assignment.unit_of(node_id)].append(node_id)
        for unit, members in self._unit_members.items():
            self.overlay.create_topic(
                ("unit", unit),
                members,
                handler=self._make_channel_handler(),
            )

    def _make_channel_handler(self) -> Callable[[int, GossipMessage], None]:
        def handler(member: int, message: GossipMessage) -> None:
            self.nodes[member].on_channel_cells(message.slot, message.payload)

        return handler

    def members_for_line(self, line: int) -> list[int]:
        return self._unit_members[self.unit_assignment.unit_of_line(line)]

    def _node_handler(self, node_id: int) -> Callable[[Datagram], None]:
        return lambda dgram: self.nodes[node_id].on_datagram(dgram)

    def _begin_slot(self, slot: int) -> None:
        """Builder publishes each unit's lines into its channel (fanout
        ``SEEDING_REDUNDANCY``, 8).

        Each cell is published through its *owning* line's unit (the
        same parity rule as PANDAS seeding), so the total egress is
        ``SEEDING_REDUNDANCY`` x the extended blob — the equal-budget
        comparison of Figure 12.
        Every line still receives exactly half its cells, which the
        2D code reconstructs locally.
        """
        from repro.core.seeding import owned_cells_of_line

        params = self.params
        for unit in range(self.unit_assignment.num_units):
            custody = self.unit_assignment.unit_custody(unit)
            for line in custody.lines(params.ext_rows):
                cells = tuple(owned_cells_of_line(line, params))
                payload_size = len(cells) * params.cell_bytes
                self.overlay.publish(
                    publisher=self.builder_id,
                    topic=("unit", unit),
                    msg_id=(slot, line),
                    payload=cells,
                    payload_size=payload_size,
                    slot=slot,
                    fanout=SEEDING_REDUNDANCY,
                )
