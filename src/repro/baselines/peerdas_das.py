"""PeerDAS column-subnet baseline (consensus-specs `DataColumnSidecar`).

The comparison the Ethereum community actually wants next to PANDAS is
PeerDAS (EIP-7594): the extended blob is split into *columns*, each
column travels as one sidecar over a gossip subnet, custody is a pure
function of the node id (custody-group style, epoch-independent), and
nodes accept a block once every subnet they sample for the slot has
delivered its columns. This module models that protocol on the same
harness as the GossipSub and DHT baselines so Figures 12/14 become a
four-way matrix under one bandwidth budget.

What the model includes, mapped to the spec:

- ``DATA_COLUMN_SIDECAR_SUBNET_COUNT`` (32) subnets (reduced grids
  with fewer extended columns use one subnet per column), with
  ``column -> subnet`` by modulo, one GossipSub topic per subnet built
  on :class:`repro.gossip.pubsub.GossipOverlay` with the D_hi-style
  ``degree_cap`` bound;
- ``CUSTODY_REQUIREMENT`` custody subnets derived from the node id
  alone — re-derivable by any peer without handshakes, and stable
  across epochs, exactly like custody groups computed from the NodeID;
- subnet sampling (``SAMPLES_PER_SLOT`` expressed in subnets): each
  slot a node must observe its custody subnets plus extra per-epoch
  sampled subnets, and subscribes to all of them;
- a ``DataColumnSidecarByRoot``-style req/resp fallback: a node whose
  sampled subnets are still incomplete ``FALLBACK_AFTER`` seconds into
  the slot pulls missing columns directly from custodians of those
  subnets, retrying every ``FALLBACK_INTERVAL`` until the slot window
  closes.
  Req/resp runs over the reliable transport path (libp2p streams, not
  gossip datagrams);
- the builder publishes every column sidecar into its subnet with
  fanout ``SEEDING_REDUNDANCY`` (8), i.e. exactly the 8x extended-blob
  egress budget the other baselines get.

Deliberately out of scope (documented for the figure captions): KZG
batch-verification cost per sidecar, supernode reconstruction of
missing columns from >=50% of columns, DAS on libp2p scoring/IDONTWANT
control traffic, and validator-count-scaled custody (every node runs
the minimum custody here).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.core.assignment import Custody, cells_of_line
from repro.core.custody import SlotCellState
from repro.experiments.scenario import BaseScenario
from repro.gossip.pubsub import DEFAULT_DEGREE_CAP, GossipMessage, GossipOverlay
from repro.net.transport import Datagram
from repro.params import MESSAGE_OVERHEAD_BYTES, SEEDING_REDUNDANCY, SLOT_SECONDS, PandasParams
from repro.sim.rng import derive_seed

__all__ = [
    "SubnetAssignment",
    "DataColumnsByRootRequest",
    "DataColumnsByRootResponse",
    "PeerDasNode",
    "PeerDasScenario",
]

# The spec's values, under its names. Extended columns are spread over
# DATA_COLUMN_SIDECAR_SUBNET_COUNT gossip subnets (column -> subnet by
# modulo); every node custodies CUSTODY_REQUIREMENT subnets, derived
# from its node id alone (custody-group style; epoch-independent), and
# must observe SAMPLES_PER_SLOT subnets per slot, counted in subnets
# here: its custody subnets plus extra sampled ones.
DATA_COLUMN_SIDECAR_SUBNET_COUNT = 32
CUSTODY_REQUIREMENT = 4
SAMPLES_PER_SLOT = 8
# the ByRoot fallback starts this long into the slot and repeats at
# this interval until the slot window closes (the model's values, not
# the spec's)
FALLBACK_AFTER = 2.0
FALLBACK_INTERVAL = 0.4
# ByRoot request framing: the beacon block root anchoring the request
# plus one subnet-column index per requested column.
BLOCK_ROOT_BYTES = 32
COLUMN_ID_BYTES = 8


class SubnetAssignment:
    """Column -> subnet layout plus per-node custody/sampled subnets.

    Custody subnets are derived from the node id *only* (the spec's
    custody groups are a pure function of the NodeID), so any peer can
    compute any other peer's custody without interaction and the
    assignment never rotates. The extra sampled subnets rotate with the
    epoch seed, mirroring per-slot subnet sampling.
    """

    def __init__(self, params: PandasParams, epoch_seed: int) -> None:
        self.params = params
        self.epoch_seed = epoch_seed
        self.num_subnets = min(DATA_COLUMN_SIDECAR_SUBNET_COUNT, params.ext_cols)
        if self.num_subnets < 1:
            raise ValueError("need at least one column subnet")
        self.custody_count = min(CUSTODY_REQUIREMENT, self.num_subnets)
        self.sample_count = min(SAMPLES_PER_SLOT, self.num_subnets)
        if self.sample_count < self.custody_count:
            raise ValueError("sampled subnets must cover custody subnets")

    def subnet_of_column(self, col: int) -> int:
        return col % self.num_subnets

    def columns_of_subnet(self, subnet: int) -> list[int]:
        return list(range(subnet, self.params.ext_cols, self.num_subnets))

    def custody_subnets(self, node_id: int) -> tuple[int, ...]:
        """Epoch-independent custody subnets of ``node_id``."""
        rng = random.Random(derive_seed(0, "peerdas-custody", node_id))
        return tuple(sorted(rng.sample(range(self.num_subnets), self.custody_count)))

    def sampled_subnets(self, node_id: int) -> tuple[int, ...]:
        """Custody subnets plus the node's extra sampled subnets."""
        custody = self.custody_subnets(node_id)
        extra_needed = self.sample_count - len(custody)
        if extra_needed <= 0:
            return custody
        pool = [s for s in range(self.num_subnets) if s not in custody]
        rng = random.Random(derive_seed(self.epoch_seed, "peerdas-sample", node_id))
        extra = rng.sample(pool, extra_needed)
        return tuple(sorted(custody + tuple(extra)))

    def custody_columns(self, node_id: int) -> tuple[int, ...]:
        return tuple(
            col
            for subnet in self.custody_subnets(node_id)
            for col in self.columns_of_subnet(subnet)
        )

    def sampled_columns(self, node_id: int) -> tuple[int, ...]:
        return tuple(
            col
            for subnet in self.sampled_subnets(node_id)
            for col in self.columns_of_subnet(subnet)
        )


@dataclass(frozen=True)
class DataColumnsByRootRequest:
    """``DataColumnSidecarsByRoot``: pull named columns from a custodian."""

    slot: int
    epoch: int
    columns: frozenset[int]

    def wire_size(self, params: PandasParams) -> int:
        return (
            MESSAGE_OVERHEAD_BYTES
            + BLOCK_ROOT_BYTES
            + len(self.columns) * COLUMN_ID_BYTES
        )


@dataclass(frozen=True)
class DataColumnsByRootResponse:
    """Full column sidecars the serving custodian actually holds."""

    slot: int
    epoch: int
    columns: tuple[int, ...]

    def wire_size(self, params: PandasParams) -> int:
        return MESSAGE_OVERHEAD_BYTES + (
            len(self.columns) * params.ext_rows * params.cell_bytes
        )


@dataclass
class _PeerDasSlotState:
    cells: SlotCellState
    sampled_columns: tuple[int, ...]
    fallback_wave: int = 0
    # (column, peer) pairs already asked, so waves prefer fresh custodians
    queried: set[tuple[int, int]] = field(default_factory=set)


class PeerDasNode:
    """One PeerDAS node: subnet gossip custody plus ByRoot fallback."""

    def __init__(self, scenario: PeerDasScenario, node_id: int) -> None:
        self.scenario = scenario
        self.node_id = node_id
        self._slots: dict[int, _PeerDasSlotState] = {}
        self._dropped: set[int] = set()

    # ------------------------------------------------------------------
    def _slot_state(self, slot: int) -> _PeerDasSlotState:
        state = self._slots.get(slot)
        if state is None:
            state = self._create_slot_state(slot)
            self._slots[slot] = state
        return state

    def _create_slot_state(self, slot: int) -> _PeerDasSlotState:
        scenario = self.scenario
        params = scenario.ctx.params
        subnets = scenario.subnets
        custody_cols = subnets.custody_columns(self.node_id)
        sampled_cols = subnets.sampled_columns(self.node_id)
        extra_cols = [c for c in sampled_cols if c not in set(custody_cols)]
        # Custody columns are tracked as custody lines; the extra sampled
        # subnets' columns are the "samples" — the node accepts the slot
        # once both are complete. Columns always arrive whole (sidecars),
        # so the line-reconstruction path never fires: PeerDAS columns
        # are not erasure-coded along their own axis.
        samples = [
            cid
            for col in extra_cols
            for cid in cells_of_line(params.ext_rows + col, params.ext_rows, params.ext_cols)
        ]
        cells = SlotCellState(params, Custody((), custody_cols), samples)
        return _PeerDasSlotState(cells=cells, sampled_columns=sampled_cols)

    # ------------------------------------------------------------------
    def on_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if isinstance(payload, GossipMessage):
            self.scenario.overlay.on_datagram(self.node_id, dgram)
        elif isinstance(payload, DataColumnsByRootRequest):
            self._on_request(dgram.src, payload)
        elif isinstance(payload, DataColumnsByRootResponse):
            self._on_response(payload)

    def on_column(self, slot: int, column: int) -> None:
        """One column sidecar delivered by its subnet's gossip."""
        if slot in self._dropped:
            return  # straggler from a retired slot; don't resurrect state
        state = self._slot_state(slot)
        ctx = self.scenario.ctx
        at = ctx.since_slot_start(slot)
        ctx.emit("phase", slot=slot, node=self.node_id, phase="seeding", at=at)
        params = ctx.params
        state.cells.add_cells(
            cells_of_line(params.ext_rows + column, params.ext_rows, params.ext_cols)
        )
        self._after_cells_changed(slot, state)

    def _on_request(self, src: int, msg: DataColumnsByRootRequest) -> None:
        """Serve the full columns we hold; the rest stays unanswered.

        ByRoot semantics: the responder returns the sidecars it has.
        The requester's next fallback wave re-queries elsewhere for
        anything missing, so there is no pending-reply buffering here.
        """
        state = self._slots.get(msg.slot)
        if state is None:
            return
        held = tuple(
            col for col in sorted(msg.columns) if self._column_complete(state, col)
        )
        if not held:
            return
        response = DataColumnsByRootResponse(
            slot=msg.slot, epoch=msg.epoch, columns=held
        )
        ctx = self.scenario.ctx
        ctx.network.send(
            self.node_id, src, response, response.wire_size(ctx.params), reliable=True
        )

    def _on_response(self, msg: DataColumnsByRootResponse) -> None:
        state = self._slots.get(msg.slot)
        if state is None:
            return
        ctx = self.scenario.ctx
        params = ctx.params
        at = ctx.since_slot_start(msg.slot)
        ctx.emit("phase", slot=msg.slot, node=self.node_id, phase="seeding", at=at)
        for col in msg.columns:
            state.cells.add_cells(
                cells_of_line(params.ext_rows + col, params.ext_rows, params.ext_cols)
            )
        self._after_cells_changed(msg.slot, state)

    def _after_cells_changed(self, slot: int, state: _PeerDasSlotState) -> None:
        ctx = self.scenario.ctx
        now_rel = ctx.since_slot_start(slot)
        # repeats are dropped by the bus: a phase completes once per node
        if state.cells.consolidation_complete:
            ctx.emit(
                "phase", slot=slot, node=self.node_id, phase="consolidation", at=now_rel
            )
        # "sampling done" is block acceptance: every sampled subnet's
        # columns held (custody included), not just the extra samples
        if state.cells.complete:
            ctx.emit("phase", slot=slot, node=self.node_id, phase="sampling", at=now_rel)

    # ------------------------------------------------------------------
    # ByRoot fallback waves
    # ------------------------------------------------------------------
    def check_fallback(self, slot: int, window_end: float) -> None:
        if slot in self._dropped:
            return
        # _slot_state, not _slots.get: a node whose subnets delivered
        # nothing at all is exactly the node that must fall back
        state = self._slot_state(slot)
        if not state.cells.complete:
            self._request_missing(slot, state)
        scenario = self.scenario
        if scenario.sim.now + FALLBACK_INTERVAL < window_end:
            scenario.sim.call_after(
                FALLBACK_INTERVAL, lambda: self.check_fallback(slot, window_end)
            )

    def _column_complete(self, state: _PeerDasSlotState, col: int) -> bool:
        """All cells of ``col`` held.

        ``SlotCellState.line_complete`` only tracks *custody* lines;
        the extra sampled subnets' columns are plain sample cells, so
        completeness is checked by membership for both kinds.
        """
        params = self.scenario.ctx.params
        return state.cells.has_all(
            cells_of_line(params.ext_rows + col, params.ext_rows, params.ext_cols)
        )

    def _missing_columns(self, state: _PeerDasSlotState) -> list[int]:
        return [
            col
            for col in state.sampled_columns
            if not self._column_complete(state, col)
        ]

    def _request_missing(self, slot: int, state: _PeerDasSlotState) -> None:
        scenario = self.scenario
        ctx = scenario.ctx
        rng = ctx.rngs.stream("peerdas-fallback", self.node_id, slot)
        # later waves widen the pull: 1 custodian per missing column at
        # first, up to 3 once earlier waves came back empty
        redundancy = min(1 + state.fallback_wave, 3)
        state.fallback_wave += 1
        by_peer: dict[int, set[int]] = {}
        for col in self._missing_columns(state):
            subnet = scenario.subnets.subnet_of_column(col)
            custodians = [
                peer
                for peer in scenario.subnet_custodians(subnet)
                if peer != self.node_id
            ]
            if not custodians:
                continue
            fresh = [p for p in custodians if (col, p) not in state.queried]
            pool = fresh if len(fresh) >= redundancy else custodians
            picks = rng.sample(pool, min(redundancy, len(pool)))
            for peer in picks:
                state.queried.add((col, peer))
                by_peer.setdefault(peer, set()).add(col)
        for peer in sorted(by_peer):
            request = DataColumnsByRootRequest(
                slot=slot,
                epoch=ctx.epoch_of(slot),
                columns=frozenset(by_peer[peer]),
            )
            ctx.network.send(
                self.node_id,
                peer,
                request,
                request.wire_size(ctx.params),
                reliable=True,
            )

    def drop_slot(self, slot: int) -> None:
        self._slots.pop(slot, None)
        self._dropped.add(slot)


class PeerDasScenario(BaseScenario):
    """Figures 12/14: DAS over PeerDAS column subnets + ByRoot fallback.

    Byzantine nodes model *withholding*: they sit in the meshes but
    their datagram handler swallows everything, so they neither forward
    sidecars nor answer ByRoot pulls — the PeerDAS failure mode that
    subnet sampling plus fallback is meant to ride out.
    """

    overlay: GossipOverlay

    def _build_participants(self) -> None:
        epoch_seed = self.assignment.beacon.epoch_seed(0)
        self.subnets = SubnetAssignment(self.params, epoch_seed)
        self.overlay = GossipOverlay(
            self.network,
            self.rngs.stream("peerdas-mesh"),
            degree_cap=DEFAULT_DEGREE_CAP,
        )
        self.nodes: dict[int, PeerDasNode] = {
            node_id: PeerDasNode(self, node_id) for node_id in self.node_ids
        }
        self._subnet_members: dict[int, list[int]] = {
            subnet: [] for subnet in range(self.subnets.num_subnets)
        }
        self._subnet_custodians: dict[int, list[int]] = {
            subnet: [] for subnet in range(self.subnets.num_subnets)
        }
        for node_id in self.node_ids:
            for subnet in self.subnets.sampled_subnets(node_id):
                self._subnet_members[subnet].append(node_id)
            for subnet in self.subnets.custody_subnets(node_id):
                self._subnet_custodians[subnet].append(node_id)
        handler = self._make_subnet_handler()
        for subnet, members in self._subnet_members.items():
            self.overlay.create_topic(("col-subnet", subnet), members, handler=handler)

    def _make_subnet_handler(self) -> Callable[[int, GossipMessage], None]:
        def handler(member: int, message: GossipMessage) -> None:
            self.nodes[member].on_column(message.slot, message.payload)

        return handler

    def subnet_custodians(self, subnet: int) -> list[int]:
        """Nodes custodying ``subnet`` (the ByRoot fallback's targets)."""
        return self._subnet_custodians[subnet]

    def _node_handler(self, node_id: int) -> Callable[[Datagram], None]:
        # late-bound: handlers are registered before the Byzantine
        # roster is resolved
        def handler(dgram: Datagram) -> None:
            if node_id in self.byzantine:
                # withholding adversary: receives and drops everything
                return
            self.nodes[node_id].on_datagram(dgram)

        return handler

    def _begin_slot(self, slot: int) -> None:
        """Builder publishes every column sidecar into its subnet.

        Columns partition the grid, so fanout ``SEEDING_REDUNDANCY``
        makes the total egress ``SEEDING_REDUNDANCY`` x the extended
        blob — the same budget the PANDAS/GossipSub/DHT baselines get.
        """
        params = self.params
        window_end = slot * SLOT_SECONDS + SLOT_SECONDS
        column_bytes = params.ext_rows * params.cell_bytes
        for col in range(params.ext_cols):
            subnet = self.subnets.subnet_of_column(col)
            self.overlay.publish(
                publisher=self.builder_id,
                topic=("col-subnet", subnet),
                msg_id=(slot, "col", col),
                payload=col,
                payload_size=column_bytes,
                slot=slot,
                fanout=SEEDING_REDUNDANCY,
            )
        for node_id in self.node_ids:
            if node_id in self.dead_nodes or node_id in self.byzantine:
                continue
            node = self.nodes[node_id]
            self.sim.call_after(
                FALLBACK_AFTER,
                lambda node=node: node.check_fallback(slot, window_end),
            )
