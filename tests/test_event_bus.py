"""One emission path: every protocol event reaches every subscriber.

Protocol code publishes each event once, on ``ProtocolContext.emit``;
the recorder, the invariant checker, telemetry and the tracer are
subscribers. This file pins that the bus reproduces the three outputs
the separate routes used to produce, byte for byte:

- the recorder fingerprint (``MetricsRecorder.fingerprint()``);
- the full-kind JSONL trace, once the records the bus *adds* are
  filtered out (:func:`parent_view` states the filter);
- the telemetry series written by ``write_series_jsonl``;
- the Prometheus exposition written by ``prometheus_text``.

The first three digests were recorded with the separate routes, on
five runs with tracer and telemetry both attached; the exposition
digests, and the ``pipeline-aggregate`` run that sets the aggregate
retrieval gauges, were recorded on the telemetry registry before it
became a fixed family table. They do not depend on the hash seed. A
change that moves one changed what a run records.

The second half checks what the bus adds: every phase completion the
recorder stores is now a trace ``phase`` record and a telemetry
completion, on PANDAS and on the baselines alike.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter

import pytest

from repro.baselines import GossipDasScenario, PeerDasScenario
from repro.core.retrieval import RetrievalClient
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario
from repro.faults.plan import FaultPlan
from repro.obs import JsonlSink, Telemetry, TraceRecorder
from repro.obs.export import prometheus_text, write_series_jsonl
from repro.sim.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder
from tests.helpers import make_world
from tests.test_obs_telemetry import dense_config, pipeline_config

FAULTS = "loss=0.1,dup=0.05,crash=2@0.5:1.5,slow=2@0.05,corrupt=0.1,withhold=0.1"

# the trace catalog before the bus: records of any other kind are new
PARENT_KINDS = frozenset(
    {
        "net_send", "net_deliver", "net_drop", "fault", "seed_slot",
        "seed_recv", "cells_ingest", "phase", "defense", "fetch_start",
        "fetch_round", "query_issue", "query_response", "query_timeout",
        "query_cancel", "query_late_reply", "query_recycle",
        "retry_backoff", "retry_abandoned", "fetch_done",
        "queue_overflow", "load_shed", "sweep_point", "pipeline_slot",
    }
)

# name -> (scenario factory, is a baseline,
#          (fingerprint, trace, series, exposition))
RUNS = {
    "pandas": (
        lambda **kw: Scenario(dense_config(**kw)),
        False,
        (
            "383191c86dc6acea043df90fedcb599931762dbd26ea2eaf4853aeecec6ffef7",
            "7ecc278d35b50aefabfd5001a45d558d0850e0e60d3a0b65edc96a4e7893e62a",
            "a727539505a0075ddebeccd0fe30b9bed8b10d700e40d9ac159287ec776f30bd",
            "bb3f02a7118bb386ffec63cec5567fc432e3b4a100d734cd4a1c7a0c195baa17",
        ),
    ),
    "faults": (
        lambda **kw: Scenario(
            dense_config(
                faults=FaultPlan.parse(FAULTS), check_invariants=True, **kw
            )
        ),
        False,
        (
            "fdb3851d063664b3fb266359b2c9fd123b13a1039b7ea77427056bd8a28d50ec",
            "fdf9bb7bc4e79c84ff29c2aa385e9a3da6fd797143fe2ec605bf9e6fe201b0f8",
            # re-pinned when the health denominator became every live
            # node (the meta header's expected_samples: 48 -> 60)
            "fcd3c8c1060a8ec9677605366f897e49826901d0a90d09073f2f61439ba758b2",
            "45e10403d4b5265c4ae9a047dee68bb2f32772225972c265120cdc9b4576efbf",
        ),
    ),
    "block": (
        lambda **kw: Scenario(dense_config(include_block_gossip=True, **kw)),
        False,
        (
            "859bb91fe95f12c752ba86c65b2a6b1116864a92562242b0b0a68a57d580e545",
            "b9458bfe14593344ad0d28c17ee31f3a8ba0b9172ac4c04a28a5cc8dce0c3dc6",
            "9dba03201df2db382c6d8b366cccebe2ae7224e597c4743a87efaaba049beebe",
            "1acdd8d8eab6484d18251bfbc8c1595d530b370b60106da6d7ec037acfe0a370",
        ),
    ),
    "gossipsub": (
        lambda **kw: GossipDasScenario(dense_config(**kw)),
        True,
        (
            "56e5e3da590c7f7888cef57653c47be5bdc5e97f9c3a8a9f9cb7f200bfa02f88",
            "a29929528e53aa7c3e0a6b5fea6d04368368fd3e7eae2ba9a62132aa526afd9f",
            "74b444e4a47e9a06cca9025e1d138c4ff8997f4bddfae3511c93b81348e38f1a",
            "2c0405df59a41522274ae7ade6cb7874cf6dfa9764b563f2c3a01896dc74143a",
        ),
    ),
    "pipeline": (
        lambda **kw: PipelineScenario(
            pipeline_config(check_invariants=True, **kw), churn_fraction=0.1
        ),
        False,
        (
            "d2e6c6e90da8a9709f770c18dba4a0c3f906c2401202ffe96a4263b4cf50905e",
            "4e4d09ddf7212469c7e4380a4679cc3d7a3c4134d931af07d343a687c27fa89d",
            "41d79f442541db70e0a6c1b82c67b391751f9f26d45135f4d777d6f1353e0501",
            "8467923adde0f48de403c14fb9361c39c8c4d961e3f8200c51ad644b9a7f7579",
        ),
    ),
    "pipeline-aggregate": (
        lambda **kw: PipelineScenario(
            pipeline_config(check_invariants=True, **kw),
            churn_fraction=0.1,
            service_rate=400.0,
            client_rate=(100.0, 800.0),
            max_backlog=1000.0,
        ),
        False,
        (
            "d2e6c6e90da8a9709f770c18dba4a0c3f906c2401202ffe96a4263b4cf50905e",
            "4e4d09ddf7212469c7e4380a4679cc3d7a3c4134d931af07d343a687c27fa89d",
            "0a3c1c760091f4e652f01d018aaeccdbc650fb4f8d6af0162a9b92c358e64c05",
            "dd31eb823c5c604f08d25d4485de0efd88ed34d9815e10fc36a150f0dda36234",
        ),
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parent_view(record: dict, baseline: bool) -> bool:
    """True for trace records the separate routes also wrote.

    Three kinds of record are new with the bus and filtered out:
    ``phase`` records of baselines and of ``block`` marks (never traced
    before), ``load_shed`` records of the retrieval client's shed
    (counted but never traced before), and records of kinds added to
    the catalog with the bus.
    """
    kind = record["kind"]
    if kind not in PARENT_KINDS:
        return False
    if kind == "phase":
        return not baseline and record["phase"] != "block"
    if kind == "load_shed":
        return record["shed"] != "retrieval_client"
    return True


def observed_run(name: str, tmp_path) -> tuple[str, str, str, str]:
    make, baseline, _pins = RUNS[name]
    buf = io.StringIO()
    tracer = TraceRecorder(sinks=[JsonlSink(buf)])
    telemetry = Telemetry()
    scenario = make(tracer=tracer, telemetry=telemetry).run()
    tracer.close()
    lines = [
        line
        for line in buf.getvalue().splitlines(keepends=True)
        if parent_view(json.loads(line), baseline)
    ]
    series = tmp_path / "series.jsonl"
    write_series_jsonl(telemetry, series)
    return (
        scenario.metrics.fingerprint(),
        sha256("".join(lines)),
        sha256(series.read_text(encoding="utf-8")),
        sha256(prometheus_text(telemetry)),
    )


# ----------------------------------------------------------------------
# the pins: the bus reproduces the separate routes byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(RUNS))
def test_bus_reproduces_fingerprint_trace_and_series(name, tmp_path):
    fingerprint, trace, series, exposition = observed_run(name, tmp_path)
    pinned = RUNS[name][2]
    assert fingerprint == pinned[0], "recorder fingerprint moved"
    assert trace == pinned[1], "trace differs beyond the records the bus adds"
    assert series == pinned[2], "telemetry series moved"
    assert exposition == pinned[3], "Prometheus exposition moved"


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
