"""compare.py verdicts on hand-made result pairs."""

import copy
import json

import pytest

import compare
from harness.layers import PER_LAYER_METRICS
from harness.measure import END_TO_END_METRICS
from harness.schema import Benchmark

BENCHMARK = Benchmark.load()


def summary(median, lo=None, hi=None, n=3):
    return {"median": median, "min": median if lo is None else lo,
            "max": median if hi is None else hi, "n": n}


def result(**overrides):
    """A one-workload result file in run.py's shape, every metric 100."""
    end_to_end = {metric: summary(100.0) for metric in END_TO_END_METRICS}
    end_to_end.update(overrides)
    run = {"fingerprint": "f" * 64, "counts": {"sim.engine.events": 1000}}
    per_layer = dict.fromkeys(PER_LAYER_METRICS, 1.0)
    return {
        "seed": 7,
        "smoke": False,
        "workloads": {
            "slot-300": {
                "timed": {"end_to_end": end_to_end, "runs": [run]},
                "traced": {"run": {"per_layer": per_layer}},
            }
        },
    }


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        # identical
        (summary(10.0), summary(10.0), "lower", 0.1, "same"),
        # 5% slower, tight ranges that overlap, bound 10%
        (summary(10.0, 9.9, 10.3), summary(10.5, 10.2, 10.6), "lower", 0.1, "same"),
        # 20% slower, disjoint
        (summary(10.0, 9.9, 10.1), summary(12.0, 11.9, 12.1), "lower", 0.1, "worse"),
        # every run of B faster than every run of A
        (summary(10.0, 9.9, 10.1), summary(9.0, 8.9, 9.1), "lower", 0.1, "better"),
        # medians 15% apart but both sides spread 30% and overlap
        (summary(10.0, 8.5, 11.5), summary(11.5, 10.0, 13.0), "lower", 0.1, "unresolved"),
        # wide spread but B entirely better: resolved in B's favour
        (summary(10.0, 9.0, 12.0), summary(7.0, 6.0, 8.0), "lower", 0.1, "better"),
        # higher-is-better metric that dropped 5% with a 2% bound
        (summary(0.99), summary(0.94), "higher", 0.02, "worse"),
        # higher-is-better metric that rose
        (summary(0.90), summary(0.95), "higher", 0.02, "better"),
        # disjoint and worse, but inside the bound
        (summary(10.0, 9.9, 10.1), summary(10.5, 10.4, 10.6), "lower", 0.1, "same"),
    ],
)
def test_verdict(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound) == expected


def test_identical_files_agree():
    lines, worse = compare.compare(result(), result(), BENCHMARK)
    assert not worse
    text = "\n".join(lines)
    assert "worse" not in text and "unresolved" not in text
    assert "every simulated metric and count of slot-300 is identical" in text
    assert sum(" same" in line for line in lines) == len(END_TO_END_METRICS)


def test_regression_beyond_the_bound_is_worse_and_fails(tmp_path, capsys):
    slow = result(slot_cpu_s=summary(130.0, 129.0, 131.0))
    lines, worse = compare.compare(result(), slow, BENCHMARK)
    assert worse
    (row,) = [line for line in lines if line.strip().startswith("slot_cpu_s")]
    assert row.rstrip().endswith("worse") and "+30.00%" in row

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result()))
    b.write_text(json.dumps(slow))
    assert compare.main([str(a), str(b)]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a)]) == 2


def test_moved_behaviour_is_listed_even_inside_the_bound():
    moved = result(sampling_p50_ms=summary(100.5))
    moved["workloads"]["slot-300"]["timed"]["runs"][0]["counts"]["sim.engine.events"] = 1001
    moved["workloads"]["slot-300"]["timed"]["runs"][0]["fingerprint"] = "e" * 64
    moved["workloads"]["slot-300"]["traced"]["run"]["per_layer"]["core.custody.cells_new"] = 2.0
    # a host-time per-layer metric may differ freely
    moved["workloads"]["slot-300"]["traced"]["run"]["per_layer"]["core.custody.self_s"] = 9.0
    lines, worse = compare.compare(result(), moved, BENCHMARK)
    assert not worse  # 0.5% is inside the bound: same, but reported
    text = "\n".join(lines)
    assert "behaviour moved on slot-300 (4 exact values differ)" in text
    for needle in ("sampling_p50_ms: 100.0 -> 100.5", "sim.engine.events: 1000 -> 1001",
                   "fingerprint:", "core.custody.cells_new: 1.0 -> 2.0"):
        assert needle in text
    assert "core.custody.self_s" not in text


def test_different_seeds_are_called_out_and_disjoint_workloads_reported():
    other = copy.deepcopy(result())
    other["seed"] = 11
    lines, _ = compare.compare(result(), other, BENCHMARK)
    assert lines[0].startswith("note: A is seed 7")
    other["workloads"] = {"dead-400": other["workloads"].pop("slot-300")}
    lines, worse = compare.compare(result(), other, BENCHMARK)
    assert not worse and "no workload appears in both files" in lines
