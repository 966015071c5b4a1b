"""The tracing layer's core guarantees.

The hard requirement (ISSUE: observability) is behavior-neutrality:
a traced run must be bit-identical to an untraced one, pinned here by
``MetricsRecorder.fingerprint()`` equality. The rest of the file
covers the recorder mechanics — kind filtering, memory or sink, never
both — and the serialized formats (JSONL, Chrome trace_event).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.experiments.scenario import Scenario
from repro.obs import KINDS, QUERY_TERMINAL_KINDS, JsonlSink, TraceRecorder
from repro.obs.sinks import chrome_trace
from repro.sim.bus import EventBus
from repro.sim.engine import Simulator
from tests.helpers import dense_config


# ----------------------------------------------------------------------
# recorder mechanics
# ----------------------------------------------------------------------
def test_recorder_with_a_sink_keeps_no_events():
    """A recorder keeps its events in memory or streams them, never both."""
    buf = io.StringIO()
    streamed = TraceRecorder(sink=JsonlSink(buf))
    kept = TraceRecorder()
    for rec in (streamed, kept):
        for i in range(12):
            rec.emit("phase", t=float(i), node=i)
    assert streamed.accepted == kept.accepted == 12
    assert streamed.events == []
    assert [e.node for e in kept.events] == list(range(12))
    assert [json.loads(line)["node"] for line in buf.getvalue().splitlines()] == list(range(12))


def test_kind_filtering_rejects_before_recording():
    rec = TraceRecorder(kinds=["query_issue"])
    assert rec.enabled("query_issue")
    assert not rec.enabled("net_send")
    rec.emit("net_send", t=0.0)
    rec.emit("query_issue", t=0.0, req=1)
    assert rec.accepted == 1
    assert [e.kind for e in rec.events] == ["query_issue"]


def test_reserved_payload_fields_rejected():
    """t/slot/node/kind are named parameters of emit(), so a payload
    cannot shadow them — the call itself is rejected."""
    rec = TraceRecorder()
    with pytest.raises(TypeError):
        rec.emit("phase", t=0.0, **{"kind": "sneaky"})


def test_request_ids_are_monotonic():
    bus = EventBus(Simulator())
    assert [bus.next_request_id() for _ in range(3)] == [1, 2, 3]


# ----------------------------------------------------------------------
# serialized formats
# ----------------------------------------------------------------------
def test_jsonl_sink_writes_flat_records():
    buf = io.StringIO()
    rec = TraceRecorder(sink=JsonlSink(buf))
    rec.emit("query_issue", t=0.25, slot=0, node=3, req=1, peer=9, round=1, cells=4)
    rec.close()
    record = json.loads(buf.getvalue())
    assert record == {
        "t": 0.25,
        "slot": 0,
        "node": 3,
        "kind": "query_issue",
        "req": 1,
        "peer": 9,
        "round": 1,
        "cells": 4,
    }


def test_chrome_trace_schema_and_span_pairing():
    """Every record carries the trace_event required fields; query
    lifecycle events pair up as async begin/end spans per request id."""
    rec = TraceRecorder()
    scenario = Scenario(dense_config(tracer=rec)).run()
    assert scenario.metrics.phase_times  # the run did something
    document = chrome_trace(e.to_dict() for e in rec.events)
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    begins, ends = {}, {}
    for record in document["traceEvents"]:
        assert {"name", "ph", "ts", "pid", "tid", "args"} <= set(record)
        assert record["ph"] in ("b", "e", "i")
        if record["ph"] in ("b", "e"):
            assert record["name"] == "query"
            assert record["id"].startswith("0x")
            side = begins if record["ph"] == "b" else ends
            side[record["id"]] = side.get(record["id"], 0) + 1
    assert begins  # queries were traced
    assert begins == ends  # every span opened is closed exactly once
    assert all(count == 1 for count in begins.values())


def test_traced_runs_are_byte_identical():
    """Two identically-seeded traced runs serialize the same JSONL."""

    def run() -> str:
        buf = io.StringIO()
        rec = TraceRecorder(sink=JsonlSink(buf))
        Scenario(dense_config(tracer=rec)).run()
        rec.close()
        return buf.getvalue()

    first, second = run(), run()
    assert first  # non-empty trace
    assert first == second


# ----------------------------------------------------------------------
# the neutrality guarantee
# ----------------------------------------------------------------------
def test_tracing_is_behavior_neutral():
    """fingerprint() is bit-identical with tracing on or off."""
    plain = Scenario(dense_config()).run().metrics.fingerprint()
    traced = (
        Scenario(dense_config(tracer=TraceRecorder()))
        .run()
        .metrics.fingerprint()
    )
    assert plain == traced


def test_tracing_neutral_under_faults():
    faults = "loss=0.1,dup=0.05,crash=2@0.5:1.5,slow=2@0.05"
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.parse(faults)
    plain = Scenario(dense_config(faults=plan)).run().metrics.fingerprint()
    rec = TraceRecorder()
    traced = (
        Scenario(dense_config(faults=FaultPlan.parse(faults), tracer=rec))
        .run()
        .metrics.fingerprint()
    )
    assert plain == traced
    assert any(e.kind == "fault" for e in rec.events)  # the injector really was traced


class CallCounter:
    """A call-counting ``SimProfiler``, attached the way the benchmark's
    span profiler is (``ScenarioConfig.profiler``)."""

    def __init__(self) -> None:
        self.events = 0

    def run(self, callback, *args) -> None:
        self.events += 1
        callback(*args)


def test_profiling_is_behavior_neutral():
    plain = Scenario(dense_config()).run().metrics.fingerprint()
    profiler = CallCounter()
    profiled = (
        Scenario(dense_config(profiler=profiler)).run().metrics.fingerprint()
    )
    assert plain == profiled
    assert profiler.events > 0


def test_all_emitted_kinds_are_documented():
    """Whatever a full traced run emits must appear in the catalog."""
    rec = TraceRecorder()
    Scenario(dense_config(tracer=rec)).run()
    assert {e.kind for e in rec.events} <= set(KINDS)
    assert QUERY_TERMINAL_KINDS <= set(KINDS)
