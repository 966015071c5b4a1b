"""Telemetry export formats and the run-health SLO analyzer.

The JSONL series is the contract between a run and ``repro health``:
typed records, deterministic order, lossless round-trip. The
Prometheus exposition is pinned by a golden file so the byte layout
never drifts silently. The analyzer itself is exercised end to end on
a real pipeline run (PASS) and on synthetic series built to violate
each threshold (FAIL with the right reason).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario
from repro.faults.plan import FaultPlan
from repro.obs import SloThresholds, Telemetry
from repro.obs.export import (
    SERIES_SCHEMA,
    prometheus_text,
    series_records,
    write_prometheus,
    write_series_jsonl,
)
from repro.obs.health import analyze, analyze_file, format_report
from repro.obs.sinks import read_jsonl
from tests.helpers import FAULTS, dense_config, pipeline_config, synthetic_telemetry
from tests.pins import EXPOSITION_FILE, UPDATE


def pipeline_with_telemetry(tmp_path: Path) -> tuple[Path, Telemetry]:
    tel = Telemetry()
    PipelineScenario(pipeline_config(telemetry=tel), churn_fraction=0.1).run()
    path = tmp_path / "series.jsonl"
    write_series_jsonl(tel, path)
    return path, tel


# ----------------------------------------------------------------------
# JSONL series
# ----------------------------------------------------------------------
def test_series_records_are_typed_and_ordered():
    tel = synthetic_telemetry()
    records = series_records(tel)
    assert records[0]["type"] == "meta"
    assert records[0]["schema"] == SERIES_SCHEMA
    assert records[0]["nodes"] == 3
    kinds = [r["type"] for r in records[1:]]
    # sample rows come first, then final state sorted by name
    assert kinds[0] == "sample"
    assert "sample" not in kinds[1:]
    names = [r["name"] for r in records[2:]]
    assert names == sorted(names)


def test_series_round_trips_through_jsonl(tmp_path):
    tel = synthetic_telemetry()
    path = tmp_path / "series.jsonl"
    count = write_series_jsonl(tel, path)
    back = read_jsonl(path)
    assert len(back) == count
    assert back == json.loads(
        json.dumps(series_records(tel), sort_keys=True, default=float)
    )


def test_pipeline_series_contains_samples_and_layers(tmp_path):
    path, tel = pipeline_with_telemetry(tmp_path)
    records = read_jsonl(path)
    samples = [r for r in records if r["type"] == "sample"]
    assert len(samples) == len(tel.samples)
    assert samples == sorted(samples, key=lambda r: r["t"])
    layers = {
        r["labels"]["layer"]
        for r in records
        if r["type"] == "counter" and r["name"] == "bytes_sent_total"
    }
    assert "seed" in layers
    assert "fetch" in layers
    assert "retrieval" in layers  # the probe clients


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_prometheus_exposition_matches_golden_file():
    text = prometheus_text(synthetic_telemetry())
    assert text == EXPOSITION_FILE.read_text(encoding="utf-8"), (
        "Prometheus exposition drifted from the golden file. If the "
        f"change is intentional, regenerate with:\n  {UPDATE}"
    )


def test_prometheus_buckets_are_cumulative_with_inf(tmp_path):
    tel = synthetic_telemetry()
    out = tmp_path / "metrics.prom"
    write_prometheus(tel, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    sampling = [
        line
        for line in lines
        if line.startswith("repro_phase_latency_seconds_bucket")
        and 'phase="sampling"' in line
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in sampling]
    assert counts == sorted(counts)  # cumulative
    assert sampling[-1].rsplit(" ", 1) == [
        'repro_phase_latency_seconds_bucket{phase="sampling",le="+Inf"}',
        "3",
    ]
    assert any(
        line == 'repro_phase_latency_seconds_count{phase="sampling"} 3'
        for line in lines
    )


def test_prometheus_is_deterministic_across_builds():
    assert prometheus_text(synthetic_telemetry()) == prometheus_text(
        synthetic_telemetry()
    )


# ----------------------------------------------------------------------
# the SLO analyzer
# ----------------------------------------------------------------------
def test_health_passes_on_a_healthy_pipeline_run(tmp_path):
    path, _tel = pipeline_with_telemetry(tmp_path)
    report = analyze_file(path)
    assert report.passed, report.reasons
    assert report.deadline_hit_rate == 1.0
    assert report.expected_samples == 120  # 3 slots x 40 live nodes
    assert set(report.phases) >= {"seeding", "consolidation", "sampling"}
    for entry in report.phases.values():
        assert entry["p50"] <= entry["p99"]
    assert report.queue_depth_p99 is not None
    lines = format_report(report)
    assert lines[0] == "verdict: PASS"
    assert any("deadline-hit rate" in line for line in lines)


def test_health_fails_below_deadline_floor():
    report = analyze(series_records(synthetic_telemetry()))
    # 2 of 3 sampling completions hit the 4 s deadline -> 0.667 < 0.9
    assert not report.passed
    assert report.deadline_hit_rate == pytest.approx(2 / 3)
    assert any("deadline-hit rate" in r for r in report.reasons)
    assert format_report(report)[0] == "verdict: FAIL"


def test_health_threshold_knobs():
    records = series_records(synthetic_telemetry())
    lenient = SloThresholds(min_deadline_hit_rate=0.5)
    assert analyze(records, lenient).passed
    shed_capped = SloThresholds(min_deadline_hit_rate=0.5, max_shed_total=1.0)
    report = analyze(records, shed_capped)
    assert not report.passed
    assert any("total shed" in r for r in report.reasons)
    assert report.shed_total == 5.0
    assert report.sheds == {"retrieval_admission": 5.0}
    assert report.queue_drops == {"inbox_overflow": 2.0}


def test_health_queue_depth_ceiling(tmp_path):
    path, _tel = pipeline_with_telemetry(tmp_path)
    report = analyze_file(
        path, SloThresholds(max_queue_depth_p99=0.0)
    )
    assert not report.passed
    assert any("queue-depth p99" in r for r in report.reasons)


def test_health_expected_samples_denominator():
    tel = synthetic_telemetry()
    tel.finalize(expected_samples=4)
    report = analyze(series_records(tel))
    # 2 hits over the *expected* population of 4, not the 3 completions
    assert report.expected_samples == 4
    assert report.deadline_hit_rate == pytest.approx(0.5)


@pytest.mark.parametrize("faults", ["corrupt=0.3", "withhold=0.3", FAULTS])
def test_health_deadline_hit_rate_is_the_live_node_share(faults):
    # the hit counter counts Byzantine nodes too, so the denominator
    # must be every live node; with only honest ones it exceeded 1
    tel = Telemetry()
    plan = FaultPlan.parse(faults)
    scenario = Scenario(dense_config(num_nodes=60, faults=plan, telemetry=tel)).run()
    assert scenario.byzantine
    report = analyze(series_records(tel))
    deadline = scenario.params.deadline
    within = sum(
        1
        for (_slot, node), times in scenario.metrics.phase_times.items()
        if node not in scenario.dead_nodes
        and times.sampling is not None
        and times.sampling <= deadline
    )
    live = len(scenario.ctx.slot_starts) * scenario.live_node_count
    assert report.expected_samples == live
    assert report.deadline_hit_rate <= 1.0
    assert report.deadline_hit_rate == within / live


def test_health_overload_onset_slot():
    tel = Telemetry()
    tel.set_run_info(slot_duration=12.0, deadline=4.0)
    tel.emit("phase", t=1.0, slot=0, node=0, phase="sampling", at=1.0)
    # fabricate sample rows: clean during slot 0, shed appears in slot 2
    records = series_records(tel)
    records.insert(1, {"type": "sample", "t": 3.0, "values": {}})
    records.insert(
        2,
        {
            "type": "sample",
            "t": 26.0,
            "values": {"shed_total{kind=retrieval_admission}": 4.0},
        },
    )
    report = analyze(records)
    assert report.overload_onset_slot == 2


def test_health_empty_series_fails_loudly():
    report = analyze([])
    assert not report.passed
    assert any("no telemetry samples" in r for r in report.reasons)
    assert any("no sampling completions" in r for r in report.reasons)
