"""The telemetry layer's core guarantees.

The hard requirement (ISSUE: observability) is the same contract the
trace layer carries: a telemetered run must be bit-identical to a bare
one, pinned by ``MetricsRecorder.fingerprint()`` equality across the
PANDAS scenario, a baseline, and the sustained pipeline. The rest of
the file covers the registry mechanics (deterministic histograms,
label validation, idempotent registration), the cadence sampler, the
traffic-layer classifier and the heartbeat's wall-clock isolation.
"""

from __future__ import annotations

import io

import pytest

from repro.baselines import GossipDasScenario
from repro.core.seeding import RedundantSeeding
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.obs import Heartbeat, Histogram, Telemetry
from repro.obs.telemetry import (
    DEPTH_BOUNDS,
    TIME_BOUNDS,
    flat_name,
    pow2_bounds,
)
from repro.params import PandasParams, RetryPolicy


def dense_config(seed=9, **overrides):
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


def pipeline_config(seed=3, **overrides):
    defaults = dict(
        num_nodes=40,
        params=PandasParams(
            base_rows=8,
            base_cols=8,
            custody_rows=4,
            custody_cols=4,
            samples=10,
            fetch_retry=RetryPolicy(),
            pending_request_limit=256,
            retrieval_admit_rate=50.0,
        ),
        policy=RedundantSeeding(4),
        seed=seed,
        slots=3,
        num_vertices=500,
        max_inbox=4096,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


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


def test_histogram_merge_requires_matching_bounds():
    a = Histogram(bounds=(1.0, 2.0))
    b = Histogram(bounds=(1.0, 2.0))
    a.observe(0.5)
    b.observe(3.0)
    a.merge(b)
    assert a.count == 2
    assert a.counts == [1, 0, 1]
    with pytest.raises(ValueError):
        a.merge(Histogram(bounds=(1.0, 4.0)))


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
# registry mechanics
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    tel = Telemetry()
    tel.inc("bytes_sent_total", 100.0, layer="seed")
    tel.inc("bytes_sent_total", 50.0, layer="seed")
    tel.set_gauge("live_nodes", 40.0)
    tel.observe("phase_latency_seconds", 0.5, phase="sampling")
    assert tel.metrics["bytes_sent_total"].value(layer="seed") == 150.0
    assert tel.metrics["live_nodes"].value() == 40.0
    assert tel.metrics["phase_latency_seconds"].child(phase="sampling").count == 1


def test_label_set_must_match_exactly():
    tel = Telemetry()
    with pytest.raises(ValueError):
        tel.metrics["bytes_sent_total"].inc(1.0, wrong="x")
    with pytest.raises(ValueError):
        tel.metrics["bytes_sent_total"].inc(1.0)  # missing the layer label


def test_counter_rejects_negative_increment():
    tel = Telemetry()
    with pytest.raises(ValueError):
        tel.inc("bytes_sent_total", -1.0, layer="seed")


def test_registration_idempotent_but_kind_conflicts_raise():
    tel = Telemetry()
    a = tel.counter("custom_total", "help", ("k",))
    b = tel.counter("custom_total", "other help", ("k",))
    assert a is b
    with pytest.raises(ValueError):
        tel.gauge("custom_total")
    with pytest.raises(ValueError):
        tel.counter("custom_total", labels=("other",))


def test_kind_mismatch_on_use_raises():
    tel = Telemetry()
    with pytest.raises(TypeError):
        tel.metrics["live_nodes"].inc(1.0)
    with pytest.raises(TypeError):
        tel.metrics["bytes_sent_total"].set(1.0, layer="seed")


def test_flat_name_formatting():
    assert flat_name("x", (), ()) == "x"
    assert flat_name("x", ("a", "b"), ("1", "2")) == "x{a=1,b=2}"


def test_invalid_cadence_and_names_rejected():
    with pytest.raises(ValueError):
        Telemetry(cadence=0.0)
    tel = Telemetry()
    with pytest.raises(ValueError):
        tel.counter("9starts_with_digit")
    with pytest.raises(ValueError):
        tel.counter("has-dash")


# ----------------------------------------------------------------------
# traffic-layer classification
# ----------------------------------------------------------------------
def test_layer_classification():
    tel = Telemetry()
    tel.configure_layers(builder_id=100, retrieval_floor=10_000_000)
    assert tel._layer(100, 1, "CellRequest") == "seed"
    assert tel._layer(1, 2, "SeedMessage") == "seed"
    assert tel._layer(1, 2, "GossipMessage") == "gossip"
    assert tel._layer(1, 2, "CellRequest") == "fetch"
    assert tel._layer(10_000_001, 2, "CellRequest") == "retrieval"
    assert tel._layer(2, 10_000_001, "CellResponse") == "retrieval"
    assert tel._layer(2, 3, "CellResponse") == "fetch"
    assert tel._layer(1, 2, "Unknown") == "other"


def test_net_send_events_count_by_layer():
    tel = Telemetry()
    tel.configure_layers(builder_id=100)
    tel.emit("net_send", t=0.0, slot=0, node=100, dst=1, size=40, payload="SeedMessage")
    tel.emit("net_send", t=0.1, slot=0, node=1, dst=2, size=10, payload="CellRequest")
    assert tel.metrics["messages_sent_total"].value(layer="seed") == 1.0
    assert tel.metrics["bytes_sent_total"].value(layer="seed") == 40.0
    assert tel.metrics["bytes_sent_total"].value(layer="fetch") == 10.0


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
    assert tel.meta["expected_samples"] == scenario.honest_live_count
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
    sampling = tel.metrics["phase_latency_seconds"].child(phase="sampling")
    assert sampling is not None
    assert sampling.count == recorded
    assert tel.metrics["phase_completions_total"].value(phase="sampling") == recorded


def test_fetch_round_latency_observed():
    tel = Telemetry()
    Scenario(dense_config(telemetry=tel)).run()
    metric = tel.metrics["fetch_round_latency_seconds"]
    total = sum(hist.count for _key, hist in metric.samples())
    assert total > 0


# ----------------------------------------------------------------------
# behavior neutrality: the hard requirement
# ----------------------------------------------------------------------
def test_pandas_fingerprint_identical_with_telemetry():
    """fingerprint() is bit-identical with telemetry on or off."""
    plain = Scenario(dense_config()).run().metrics.fingerprint()
    telemetered = (
        Scenario(dense_config(telemetry=Telemetry())).run().metrics.fingerprint()
    )
    assert plain == telemetered


def test_baseline_fingerprint_identical_with_telemetry():
    plain = GossipDasScenario(dense_config()).run().metrics.fingerprint()
    telemetered = (
        GossipDasScenario(dense_config(telemetry=Telemetry()))
        .run()
        .metrics.fingerprint()
    )
    assert plain == telemetered


def test_pipeline_fingerprint_identical_with_telemetry():
    plain = PipelineScenario(pipeline_config(), churn_fraction=0.1).run()
    telemetered = PipelineScenario(
        pipeline_config(telemetry=Telemetry()), churn_fraction=0.1
    ).run()
    assert plain.report().fingerprint == telemetered.report().fingerprint
    assert telemetered.telemetry.samples  # and the sampler actually ran


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
