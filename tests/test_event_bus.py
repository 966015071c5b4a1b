"""One emission path: every protocol event reaches every subscriber.

Protocol code publishes each event once, on ``ProtocolContext.emit``;
the recorder, the invariant checker, telemetry and the tracer are
subscribers. That the bus reproduces, byte for byte, the fingerprint,
trace and series the separate routes used to produce is pinned in
``tests/golden/pins.json`` (``tests/test_pins.py``).

This file checks what the bus adds: every phase completion the
recorder stores is also a trace ``phase`` record and a telemetry
completion, on PANDAS and on the baselines alike. Then the bus's own
mechanics: subscriber order, unwanted kinds, one phase per (slot, node).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines import GossipDasScenario, PeerDasScenario
from repro.core.retrieval import RetrievalClient
from repro.experiments.scenario import Scenario
from repro.obs import Telemetry, TraceRecorder
from repro.sim.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder
from tests.helpers import dense_config, make_world


# ----------------------------------------------------------------------
# what the bus adds: one phase record per completion, on every system
# ----------------------------------------------------------------------
PHASE_RUNS = {
    "pandas": lambda **kw: Scenario(dense_config(**kw)),
    "pandas-block": lambda **kw: Scenario(
        dense_config(include_block_gossip=True, **kw)
    ),
    "gossipsub": lambda **kw: GossipDasScenario(dense_config(**kw)),
    "peerdas": lambda **kw: PeerDasScenario(dense_config(**kw)),
}


@pytest.mark.parametrize("name", sorted(PHASE_RUNS))
def test_every_phase_completion_reaches_every_subscriber(name):
    tracer = TraceRecorder()
    telemetry = Telemetry()
    scenario = PHASE_RUNS[name](tracer=tracer, telemetry=telemetry).run()
    traced = Counter(e.data["phase"] for e in tracer.events if e.kind == "phase")
    recorded = Counter(
        phase
        for times in scenario.metrics.phase_times.values()
        for phase in ("seeding", "consolidation", "sampling", "block")
        if getattr(times, phase) is not None
    )
    counted = Counter(
        {
            phase: int(value)
            for phase, value in telemetry.children("phase_completions_total")
        }
    )
    assert recorded  # the run completed phases at all
    assert traced == recorded
    assert counted == recorded
    if name == "pandas-block":
        assert recorded["block"] == len(scenario.node_ids)


def test_retrieval_client_shed_is_traced():
    world = make_world(num_nodes=30)
    tracer = TraceRecorder(kinds=["load_shed"])
    world.ctx.events.subscribe(tracer)
    client = RetrievalClient(world.ctx, 1000, max_concurrent=1, defer_limit=0)
    world.network.register(1000, 0, client.on_datagram, None, None)
    world.run_slot(0, window=0.01)
    client.fetch_lines(0, rows=(0,))
    client.fetch_lines(0, rows=(1,))  # no room to run or wait: shed
    assert world.ctx.metrics.shed_counts["retrieval_client"] == 1.0
    assert [e.data["shed"] for e in tracer.events] == ["retrieval_client"]


# ----------------------------------------------------------------------
# the bus itself
# ----------------------------------------------------------------------
def test_subscribers_see_events_in_order_with_the_clock():
    sim = Simulator()
    seen = []

    class Probe:
        kinds = frozenset({"fault"})

        def __init__(self, label):
            self.label = label

        def emit(self, kind, *, t, slot=-1, node=-1, **data):
            seen.append((self.label, kind, t, slot, node, data))

    bus = EventBus(sim, [Probe("a")])
    bus.subscribe(Probe("b"))
    sim.call_at(1.5, lambda: bus.emit("fault", node=3, fault="crash"))
    sim.run()
    assert seen == [
        ("a", "fault", 1.5, -1, 3, {"fault": "crash"}),
        ("b", "fault", 1.5, -1, 3, {"fault": "crash"}),
    ]


def test_kinds_nobody_consumes_are_not_wanted():
    bus = EventBus(Simulator(), [MetricsRecorder()])
    assert bus.wants("phase")
    assert not bus.wants("cells_ingest")
    bus.subscribe(TraceRecorder(kinds=["cells_ingest"]))
    assert bus.wants("cells_ingest")
    assert not bus.wants("net_send")


def test_a_phase_completes_once_per_slot_and_node():
    metrics = MetricsRecorder()
    tracer = TraceRecorder()
    bus = EventBus(Simulator(), [metrics, tracer])
    bus.emit("phase", slot=0, node=4, phase="sampling", at=1.0)
    bus.emit("phase", slot=0, node=4, phase="sampling", at=2.0)
    bus.emit("phase", slot=1, node=4, phase="sampling", at=3.0)
    bus.emit("phase", slot=0, node=4, phase="seeding", at=0.5)
    assert [e.data["at"] for e in tracer.events] == [1.0, 3.0, 0.5]
    assert metrics.phase_times[(0, 4)].sampling == 1.0
