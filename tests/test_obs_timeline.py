"""Timeline reconstruction: timelines, rankings, the causal report."""

from __future__ import annotations

from repro.core.seeding import RedundantSeeding
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.obs import JsonlSink, TraceRecorder
from repro.obs.timeline import (
    build_timelines,
    causal_report,
    load_trace,
    phase_completions,
    slowest_nodes,
    trace_report,
)
from repro.params import PandasParams


def traced_scenario(seed=9, **overrides):
    rec = TraceRecorder()
    defaults = dict(
        num_nodes=35,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(4),
        seed=seed,
        slots=1,
        num_vertices=300,
        tracer=rec,
    )
    defaults.update(overrides)
    scenario = Scenario(ScenarioConfig(**defaults)).run()
    return scenario, [e.to_dict() for e in rec.events]


def test_build_timelines_groups_and_orders():
    events = [
        {"t": 2.0, "slot": 0, "node": 1, "kind": "phase"},
        {"t": 1.0, "slot": 0, "node": 1, "kind": "seed_recv"},
        {"t": 0.5, "slot": 0, "node": 2, "kind": "seed_recv"},
        {"t": 0.0, "slot": -1, "node": -1, "kind": "net_send"},
    ]
    timelines = build_timelines(events)
    assert set(timelines) == {(0, 1), (0, 2), (-1, -1)}
    assert [e["t"] for e in timelines[(0, 1)]] == [1.0, 2.0]


def test_slowest_nodes_ranks_misses_first():
    events = [
        {"t": 1.0, "slot": 0, "node": 1, "kind": "phase", "phase": "sampling", "at": 1.0},
        {"t": 2.0, "slot": 0, "node": 2, "kind": "phase", "phase": "sampling", "at": 2.0},
        # node 3 appears in the slot but never completes sampling
        {"t": 0.1, "slot": 0, "node": 3, "kind": "seed_recv", "at": 0.1},
    ]
    ranked = slowest_nodes(events, slot=0, phase="sampling", count=3)
    assert ranked == [(3, None), (2, 2.0), (1, 1.0)]


def test_phase_completions_from_trace_match_metrics():
    scenario, events = traced_scenario()
    completions = phase_completions(events)
    for (slot, node), times in scenario.metrics.phase_times.items():
        if times.sampling is None:
            continue
        traced = completions.get((slot, node), {}).get("sampling")
        assert traced is not None
        assert abs(traced - times.sampling) < 1e-9


def test_causal_report_explains_a_node():
    scenario, events = traced_scenario()
    ranked = slowest_nodes(events, slot=0, phase="sampling", count=1)
    node, _at = ranked[0]
    lines = causal_report(events, 0, node)
    text = "\n".join(lines)
    assert "seed:" in text
    assert "cells:" in text
    assert "round 1 at" in text
    assert "why:" in text
    assert "peer(s) queried" in text


def test_trace_report_returns_the_slowest_nodes_causal_lines():
    """``repro trace --report`` prints these lines itself, so the report
    no longer depends on the benchmark's report buffer or on running
    under pytest."""
    _scenario, events = traced_scenario()
    lines = trace_report(events, slot=0, count=2)
    (slowest, _at), _second = slowest_nodes(events, slot=0, phase="sampling", count=2)
    assert lines[:2] == [
        "trace report: slot 0, slowest by sampling",
        "  query lifecycle: OK",
    ]
    assert lines[4] == f"  -- node {slowest} causal timeline --"
    assert lines[5:] == ["  " + line for line in causal_report(events, 0, slowest)]
    assert trace_report([], slot=0)[-1] == "  (no node events in this slot)"


def test_causal_report_elides_long_round_tails():
    events = []
    for rnd in range(1, 30):
        events.append(
            {
                "t": rnd * 0.1,
                "slot": 0,
                "node": 7,
                "kind": "fetch_round",
                "round": rnd,
                "targets": 1,
                "queries": 1,
            }
        )
    lines = causal_report(events, 0, 7)
    round_lines = [ln for ln in lines if ln.startswith("round ")]
    assert len(round_lines) == 10
    assert any("more round(s)" in ln for ln in lines)


def test_load_trace_round_trips_jsonl(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    rec = TraceRecorder(sinks=[JsonlSink(path)])
    defaults = dict(
        num_nodes=35,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(4),
        seed=9,
        slots=1,
        num_vertices=300,
        tracer=rec,
    )
    Scenario(ScenarioConfig(**defaults)).run()
    rec.close()
    loaded = load_trace(path)
    live = [e.to_dict() for e in rec.events]
    assert loaded == live
