"""Shared test scaffolding.

- ``dense_config`` / ``pipeline_config``: the small dense scenario
  configurations most scenario tests and every replay pin run on;
- ``synthetic_telemetry``: a hand-fed telemetry series;
- ``make_world``: a miniature hand-wired PANDAS world for node/builder
  unit tests. Unlike the full ``Scenario``, it exposes every component
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
from repro.experiments.scenario import ScenarioConfig
from repro.net.latency import ConstantLatency
from repro.net.transport import Network
from repro.obs import Telemetry
from repro.params import SLOT_SECONDS, PandasParams
from repro.sim.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder
from repro.sim.rng import RngRegistry

# every fault kind a single-slot run exercises, Byzantine ones included
FAULTS = "loss=0.1,dup=0.05,crash=2@0.5:1.5,slow=2@0.05,corrupt=0.1,withhold=0.1"


def dense_config(seed=9, **overrides) -> ScenarioConfig:
    """35 nodes on a dense 8x8 base grid (custody 4+4, 8 samples), one slot."""
    defaults = dict(
        num_nodes=35,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(4),
        seed=seed,
        slots=1,
        num_vertices=300,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def pipeline_config(seed=3, **overrides) -> ScenarioConfig:
    """40 nodes, three slots, bounded pending records, admission at 50/s."""
    defaults = dict(
        num_nodes=40,
        params=PandasParams(
            base_rows=8,
            base_cols=8,
            custody_rows=4,
            custody_cols=4,
            samples=10,
            pending_request_limit=256,
            retrieval_admit_rate=50.0,
        ),
        policy=RedundantSeeding(4),
        seed=seed,
        slots=3,
        num_vertices=500,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def synthetic_telemetry() -> Telemetry:
    """A small, hand-fed series with every family kind exercised.

    Events go through a bus to a recorder and the series, on a
    simulator that never runs, so the exposition depends only on this
    code — the golden file pins the byte layout, not a protocol run.
    """
    sim, recorder, tel = Simulator(), MetricsRecorder(), Telemetry(cadence=0.5)
    tel.set_run_info(nodes=3, slots=1, slot_duration=12.0, deadline=4.0, seed=1)
    tel.install(sim, recorder, dict, builder_id=3, retrieval_floor=100)
    bus = EventBus(sim, [recorder, tel])
    bus.emit("phase", slot=0, node=0, phase="seeding", at=0.25)
    bus.emit("phase", slot=0, node=0, phase="sampling", at=1.5)
    bus.emit("phase", slot=0, node=1, phase="sampling", at=3.0)
    # past the 4 s deadline
    bus.emit("phase", slot=0, node=2, phase="sampling", at=9.0)
    bus.emit("fetch_reply", round=1, latency=0.125)
    bus.emit("fetch_reply", round=7, latency=2.0)
    bus.emit("load_shed", shed="retrieval_admission", amount=5.0)
    recorder.record_queue_drop("inbox_overflow")
    recorder.record_queue_drop("inbox_overflow")
    bus.emit("queue_depth", queue="pending_requests", depth=12.0)
    bus.emit("fault", node=1, fault="crash")
    bus.emit("defense", defense="quarantine", amount=2.0)
    tel.gauges.update(live_nodes=3.0, inbox_depth_max=7.0)
    # one hand-fed sample row (the simulator never ticks)
    tel.samples.append({"t": 1.0, "inbox_depth_max": 7.0, "live_nodes": 3.0})
    return tel


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
        start = slot * SLOT_SECONDS
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
