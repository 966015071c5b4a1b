"""The telemetry layer's core guarantees.

The hard requirement is the same contract the trace layer carries: a
telemetered run must be bit-identical to a bare one. The replay pins
check it (``tests/test_pins.py`` runs every pinned run, PANDAS,
baselines and pipelines, with telemetry attached and without). This
file covers the fixed family table (deterministic histograms, one declared label
per family, counters read from the recorder), the cadence sampler, the
traffic-layer classifier and the heartbeat's wall-clock isolation.
"""

from __future__ import annotations

import io
import re

import pytest

from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario
from repro.obs import Heartbeat, Histogram, Telemetry
from repro.obs.export import series_records
from repro.obs.telemetry import (
    DEPTH_BOUNDS,
    FAMILIES,
    RECORDED,
    TIME_BOUNDS,
    flat_name,
    pow2_bounds,
)
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder
from tests.helpers import dense_config, pipeline_config


# ----------------------------------------------------------------------
# deterministic histograms
# ----------------------------------------------------------------------
def test_pow2_bounds_are_exact_doublings():
    bounds = pow2_bounds(0.25, 4.0)
    assert bounds == (0.25, 0.5, 1.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        pow2_bounds(0.0, 1.0)
    with pytest.raises(ValueError):
        pow2_bounds(4.0, 2.0)


def test_standard_bounds_cover_the_protocol_ranges():
    # one simulator tick up to past the 12 s slot; depth 1 .. 2^16
    assert TIME_BOUNDS[0] == 1.0 / 1024.0
    assert TIME_BOUNDS[-1] >= 16.0
    assert DEPTH_BOUNDS[0] == 1.0
    assert DEPTH_BOUNDS[-1] >= 65536.0


def test_histogram_bucketing_edges():
    hist = Histogram(bounds=(1.0, 2.0, 4.0))
    hist.observe(1.0)   # v <= 1.0 -> bucket 0
    hist.observe(1.5)   # 1.0 < v <= 2.0 -> bucket 1
    hist.observe(2.0)   # boundary is inclusive -> bucket 1
    hist.observe(100.0)  # overflow bucket
    assert hist.counts == [1, 2, 0, 1]
    assert hist.count == 4
    assert hist.sum == pytest.approx(104.5)


def test_histogram_quantiles_are_order_independent():
    values = [0.01, 3.0, 0.2, 0.2, 1.5, 0.04, 8.0, 0.9]
    forward = Histogram()
    backward = Histogram()
    for v in values:
        forward.observe(v)
    for v in reversed(values):
        backward.observe(v)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert forward.quantile(q) == backward.quantile(q)


def test_histogram_quantile_monotone_and_clamped():
    hist = Histogram(bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 9.0, 9.0):
        hist.observe(v)
    previous = None
    for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        estimate = hist.quantile(q)
        if previous is not None:
            assert estimate >= previous
        previous = estimate
    # overflow bucket clamps to the top boundary
    assert hist.quantile(1.0) == 4.0
    assert Histogram().quantile(0.5) is None


def test_histogram_round_trips_through_parts():
    hist = Histogram(bounds=(1.0, 2.0))
    for v in (0.5, 1.5, 1.5, 9.0):
        hist.observe(v)
    d = hist.to_dict()
    rebuilt = Histogram.from_parts(d["bounds"], d["counts"], d["sum"])
    assert rebuilt.counts == hist.counts
    assert rebuilt.count == hist.count
    assert rebuilt.quantile(0.5) == hist.quantile(0.5)


# ----------------------------------------------------------------------
# the family table
# ----------------------------------------------------------------------
def installed(**layers) -> tuple[Telemetry, MetricsRecorder]:
    """A telemetry series installed on an idle simulator."""
    tel, recorder = Telemetry(), MetricsRecorder()
    tel.install(Simulator(), recorder, dict, **layers)
    return tel, recorder


def test_counter_gauge_histogram_basics():
    tel, _recorder = installed(builder_id=100)
    tel.emit("net_send", t=0.0, node=100, dst=1, size=100, payload="SeedMessage")
    tel.emit("net_send", t=0.0, node=100, dst=2, size=50, payload="SeedMessage")
    tel.emit("phase", t=0.5, slot=0, node=1, phase="sampling", at=0.5)
    tel.gauges["live_nodes"] = 40.0
    assert tel.children("bytes_sent_total") == [("seed", 150.0)]
    assert tel.children("live_nodes") == [(None, 40.0)]
    [(phase, hist)] = tel.children("phase_latency_seconds")
    assert phase == "sampling"
    assert hist.count == 1


def test_label_set_must_match_exactly():
    # one fixed label per family: every exported record carries exactly
    # the label its family declares (none for a gauge)
    tel = Telemetry()
    Scenario(dense_config(telemetry=tel)).run()
    for record in series_records(tel)[1:]:
        if record["type"] == "sample":
            continue
        label = FAMILIES[record["name"]][2]
        assert list(record["labels"]) == ([] if label is None else [label])


def test_families_declare_each_exported_series():
    assert Telemetry.kinds == {"net_send", "phase", "fetch_reply", "queue_depth"}
    for name, (kind, help_text, _label) in FAMILIES.items():
        assert kind in ("counter", "gauge", "histogram")
        assert help_text
        assert re.fullmatch(r"[a-z_]+", name)
    # the recorder-backed families are labelled counters
    for name in RECORDED:
        assert FAMILIES[name][0] == "counter"
        assert FAMILIES[name][2] is not None
    tel = Telemetry()
    PipelineScenario(pipeline_config(telemetry=tel), churn_fraction=0.1).run()
    records = series_records(tel)[1:]
    exported = {r["name"]: r["type"] for r in records if r["type"] != "sample"}
    assert exported == {name: FAMILIES[name][0] for name in exported}
    assert "queue_depth" in exported
    # counters only grow from one sample row to the next
    rows = [r["values"] for r in records if r["type"] == "sample"]
    for before, after in zip(rows, rows[1:]):
        for key, value in before.items():
            if FAMILIES[key.split("{")[0]][0] == "counter":
                assert after[key] >= value


def test_recorded_counters_are_read_from_the_recorder():
    tel, recorder = installed()
    assert tel.children("fault_total") == []
    recorder.emit("fault", t=0.0, node=1, fault="crash")
    recorder.emit("defense", t=0.0, defense="quarantine", amount=2.0)
    recorder.record_queue_drop("inbox_overflow")
    assert tel.children("fault_total") == [("crash", 1.0)]
    assert tel.children("defense_total") == [("quarantine", 2.0)]
    assert tel.children("queue_drops_total") == [("inbox_overflow", 1.0)]


def test_flat_name_formatting():
    assert flat_name("x", None, None) == "x"
    assert flat_name("x", "a", "1") == "x{a=1}"


def test_invalid_cadence_and_names_rejected():
    with pytest.raises(ValueError):
        Telemetry(cadence=0.0)
    with pytest.raises(KeyError):
        Telemetry().children("not_a_family")


# ----------------------------------------------------------------------
# traffic-layer classification
# ----------------------------------------------------------------------
def test_layer_classification():
    tel, _recorder = installed(builder_id=100, retrieval_floor=10_000_000)
    assert tel._layer(100, 1, "CellRequest") == "seed"
    assert tel._layer(1, 2, "SeedMessage") == "seed"
    assert tel._layer(1, 2, "GossipMessage") == "gossip"
    assert tel._layer(1, 2, "CellRequest") == "fetch"
    assert tel._layer(10_000_001, 2, "CellRequest") == "retrieval"
    assert tel._layer(2, 10_000_001, "CellResponse") == "retrieval"
    assert tel._layer(2, 3, "CellResponse") == "fetch"
    assert tel._layer(1, 2, "Unknown") == "other"


def test_net_send_events_count_by_layer():
    tel, _recorder = installed(builder_id=100)
    tel.emit("net_send", t=0.0, slot=0, node=100, dst=1, size=40, payload="SeedMessage")
    tel.emit("net_send", t=0.1, slot=0, node=1, dst=2, size=10, payload="CellRequest")
    assert tel.children("messages_sent_total") == [("fetch", 1.0), ("seed", 1.0)]
    assert tel.children("bytes_sent_total") == [("fetch", 10.0), ("seed", 40.0)]


# ----------------------------------------------------------------------
# the cadence sampler
# ----------------------------------------------------------------------
def test_sampler_rows_follow_the_cadence():
    tel = Telemetry(cadence=0.25)
    config = dense_config(telemetry=tel)
    scenario = Scenario(config).run()
    assert scenario.telemetry is tel
    assert tel.finalized
    # 12 s slot window at 0.25 s cadence: ~48 rows, plus the finalize
    # row if sim time moved past the last tick
    assert len(tel.samples) >= 48
    times = [row["t"] for row in tel.samples]
    assert times == sorted(times)
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(d == 0.25 for d in deltas[:-1])
    # every row carries the standard gauges and flat counter series
    row = tel.samples[-1]
    assert "events_processed" in row
    assert "live_nodes" in row
    assert any(k.startswith("bytes_sent_total{layer=") for k in row)


def test_sampler_counts_expected_population():
    tel = Telemetry()
    scenario = Scenario(dense_config(telemetry=tel)).run()
    assert tel.meta["expected_samples"] == scenario.live_node_count
    assert tel.meta["nodes"] == 35
    assert tel.meta["slots"] == 1
    assert tel.deadline == scenario.params.deadline


def test_telemetry_cannot_be_installed_twice():
    tel = Telemetry()
    Scenario(dense_config(telemetry=tel)).run()
    with pytest.raises(RuntimeError):
        Scenario(dense_config(telemetry=tel))


def test_phase_tap_mirrors_recorder_counts():
    tel = Telemetry()
    scenario = Scenario(dense_config(telemetry=tel)).run()
    recorded = sum(
        1
        for times in scenario.metrics.phase_times.values()
        if times.sampling is not None
    )
    sampling = dict(tel.children("phase_latency_seconds"))["sampling"]
    assert sampling.count == recorded
    completions = dict(tel.children("phase_completions_total"))
    assert completions["sampling"] == recorded


def test_fetch_round_latency_observed():
    tel = Telemetry()
    Scenario(dense_config(telemetry=tel)).run()
    children = tel.children("fetch_round_latency_seconds")
    total = sum(hist.count for _key, hist in children)
    assert total > 0


# ----------------------------------------------------------------------
# behavior neutrality: tests/test_pins.py replays every pinned run with
# telemetry attached and without; here, the series itself replays
# ----------------------------------------------------------------------
def test_two_telemetered_runs_produce_identical_series():
    rows = []
    for _ in range(2):
        tel = Telemetry()
        Scenario(dense_config(telemetry=tel)).run()
        rows.append(tel.samples)
    assert rows[0] == rows[1]


# ----------------------------------------------------------------------
# heartbeat (wall clock stays in obs/progress.py)
# ----------------------------------------------------------------------
def test_heartbeat_first_call_arms_then_beats():
    stream = io.StringIO()
    beat = Heartbeat(interval_s=0.0, stream=stream)
    beat.maybe_beat(1.0, 100, expected_end=12.0)
    assert beat.beats == 0  # arming call only
    beat.maybe_beat(2.0, 250, expected_end=12.0)
    assert beat.beats == 1
    line = stream.getvalue()
    assert "sim t=2.00s" in line
    assert "events=250" in line
    assert "ev/s" in line


def test_heartbeat_respects_interval():
    stream = io.StringIO()
    beat = Heartbeat(interval_s=3600.0, stream=stream)
    for i in range(5):
        beat.maybe_beat(float(i), i * 10)
    assert beat.beats == 0
    assert stream.getvalue() == ""
    with pytest.raises(ValueError):
        Heartbeat(interval_s=-1.0)


def test_heartbeat_rides_the_sampler():
    stream = io.StringIO()
    tel = Telemetry(heartbeat=Heartbeat(interval_s=0.0, stream=stream))
    Scenario(dense_config(telemetry=tel)).run()
    assert tel.heartbeat.beats > 0
    assert "[heartbeat +" in stream.getvalue()


def test_heartbeat_does_not_change_the_fingerprint():
    plain = Scenario(dense_config()).run().metrics.fingerprint()
    tel = Telemetry(heartbeat=Heartbeat(interval_s=0.0, stream=io.StringIO()))
    beating = Scenario(dense_config(telemetry=tel)).run().metrics.fingerprint()
    assert plain == beating
