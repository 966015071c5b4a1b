"""A miniature hand-wired PANDAS world for node/builder unit tests.

Unlike the full ``Scenario``, this harness exposes every component
directly (nodes dict, builder, context) over a constant-latency,
optionally lossy network — convenient for poking individual message
paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import AssignmentIndex, CellAssignment
from repro.core.builder import Builder
from repro.core.context import ProtocolContext
from repro.core.custody import SlotCellState
from repro.core.node import PandasNode
from repro.core.seeding import RedundantSeeding, SeedingPolicy
from repro.crypto.randao import RandaoBeacon
from repro.net.latency import ConstantLatency
from repro.net.transport import Network
from repro.params import PandasParams
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder
from repro.sim.rng import RngRegistry


def held_cells(state: SlotCellState) -> set[int]:
    """Every cell id ``state`` holds, read through ``has_cell``."""
    return {cid for cid in range(state.params.total_cells) if state.has_cell(cid)}


@dataclass
class MiniWorld:
    sim: Simulator
    network: Network
    ctx: ProtocolContext
    nodes: dict[int, PandasNode]
    builder: Builder
    params: PandasParams

    def run_slot(self, slot: int = 0, window: float = 8.0) -> None:
        start = slot * self.params.slot_duration
        if self.sim.now < start:
            self.sim.run(until=start)
        self.ctx.begin_slot(slot)
        self.builder.seed_slot(slot)
        self.sim.run(until=start + window)


def make_world(
    num_nodes: int = 30,
    params: PandasParams | None = None,
    policy: SeedingPolicy | None = None,
    loss_rate: float = 0.0,
    latency: float = 0.01,
    seed: int = 0,
) -> MiniWorld:
    # dense custody (8 of 32 lines per node) so that every line has
    # custodians even with a few dozen nodes — keeps assertions exact
    params = params or PandasParams(
        base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10
    )
    sim = Simulator()
    rngs = RngRegistry(seed)
    network = Network(
        sim,
        ConstantLatency(latency, num_vertices=num_nodes + 1),
        loss_rate=loss_rate,
        rng=rngs.stream("loss"),
    )
    metrics = MetricsRecorder()
    assignment = CellAssignment(params, RandaoBeacon(seed))
    node_ids = list(range(num_nodes))
    indexes: dict[int, AssignmentIndex] = {}

    def index_for_epoch(epoch: int) -> AssignmentIndex:
        if epoch not in indexes:
            indexes[epoch] = AssignmentIndex(assignment, epoch, node_ids)
        return indexes[epoch]

    ctx = ProtocolContext(
        sim=sim,
        network=network,
        params=params,
        assignment=assignment,
        metrics=metrics,
        rngs=rngs,
        index_for_epoch=index_for_epoch,
        builder_id=num_nodes,
    )
    nodes: dict[int, PandasNode] = {}
    for node_id in node_ids:
        network.register(
            node_id,
            node_id,
            (lambda nid: (lambda dgram: nodes[nid].on_datagram(dgram)))(node_id),
            None,
            None,
        )
        nodes[node_id] = PandasNode(ctx, node_id)
    builder_id = num_nodes
    network.register(builder_id, builder_id, lambda dgram: None, None, None)
    builder = Builder(ctx, builder_id, policy or RedundantSeeding(4))
    return MiniWorld(sim, network, ctx, nodes, builder, params)
