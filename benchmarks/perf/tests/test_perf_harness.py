"""End-to-end self-tests of the runner at --smoke scale (60 nodes on a
1/32 grid): a few seconds for everything."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness.layers import EXACT_PER_LAYER, PER_LAYER_METRICS
from harness.measure import END_TO_END_METRICS
from harness.schema import REPO_ROOT, Benchmark
from harness.workloads import WORKLOADS

RUN = REPO_ROOT / "benchmarks" / "perf" / "run.py"
SMOKE_WORKLOADS = ("dead-400", "pipeline-260x3")


def run_py(*args, cwd=REPO_ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One smoke suite run: 2 timed + 1 traced run of two workloads."""
    out = tmp_path_factory.mktemp("suite") / "result.json"
    args = ["--smoke", "--repeats", "2", "--out", str(out)]
    for name in SMOKE_WORKLOADS:
        args += ["--workload", name]
    done = run_py(*args)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text()), out


def test_benchmark_json_meets_the_contract_limits():
    raw = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert raw["paths"] == ["benchmarks/perf"]
    assert raw["command"] == ["python3", "benchmarks/perf/run.py"]
    assert 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16 and 1 <= len(raw["per_layer"]) <= 128
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = []
    for w in raw["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in raw["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in raw["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in raw["end_to_end"] + raw["per_layer"]:
        assert unit.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(name.fullmatch(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in raw["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in raw["end_to_end"])


def test_benchmark_json_and_harness_name_the_same_things():
    benchmark = Benchmark.load()
    assert list(benchmark.workloads) == list(WORKLOADS)
    assert {n: m["unit"] for n, m in benchmark.end_to_end.items()} == END_TO_END_METRICS
    assert {n: m["unit"] for n, m in benchmark.per_layer.items()} == PER_LAYER_METRICS
    assert EXACT_PER_LAYER <= set(PER_LAYER_METRICS)


def test_suite_prints_every_metric_and_passes_its_checks(suite):
    stdout, result, _ = suite
    assert result["checks_ok"] and "all checks passed" in stdout
    assert "FAIL" not in stdout
    for name in SMOKE_WORKLOADS:
        assert f"== {name} (seed 7, smoke scale) ==" in stdout
    for metric in list(END_TO_END_METRICS) + list(PER_LAYER_METRICS):
        assert stdout.count(f"  {metric} ") == len(SMOKE_WORKLOADS), metric
    assert {"python", "numpy", "nproc", "cpu_model", "load1_at_start"} <= set(result["host"])


def test_result_validates_against_benchmark_json(suite):
    _, result, _ = suite
    benchmark = Benchmark.load()
    for name in SMOKE_WORKLOADS:
        entry = result["workloads"][name]
        assert set(entry["timed"]["end_to_end"]) == set(benchmark.end_to_end)
        assert set(entry["traced"]["run"]["per_layer"]) == set(benchmark.per_layer)
        assert len(entry["timed"]["runs"]) == 2
        assert entry["timed"]["end_to_end"]["setup_s"]["n"] == 4  # 2 set-up-only + 2 timed
        for run in entry["timed"]["runs"]:
            assert set(run["metrics"]) == set(benchmark.end_to_end)
            assert run["calibration_s"] > 0 and run["load1"] >= 0
        assert all(c["ok"] for c in entry["checks"])
    assert result["workloads"]["pipeline-260x3"]["traced"]["run"]["per_layer"][
        "core.retrieval.probes_issued"
    ] == 24


def test_wrappers_exist_only_in_the_traced_child(suite):
    _, result, _ = suite
    for name in SMOKE_WORKLOADS:
        entry = result["workloads"][name]
        assert [run["wrappers_installed"] for run in entry["timed"]["runs"]] == [0, 0]
        traced = entry["traced"]["run"]
        assert traced["wrappers_installed"] >= 40 and traced["wrappers_missing"] == []


def test_tracing_is_behaviour_neutral(suite):
    _, result, _ = suite
    for name in SMOKE_WORKLOADS:
        entry = result["workloads"][name]
        timed, traced = entry["timed"]["runs"], entry["traced"]["run"]
        assert {run["fingerprint"] for run in timed} == {traced["fingerprint"]}
        assert all(run["counts"] == traced["counts"] for run in timed)


def test_self_times_sum_to_the_traced_total(suite):
    _, result, _ = suite
    for name in SMOKE_WORKLOADS:
        traced = result["workloads"][name]["traced"]["run"]
        buckets = traced["buckets"]
        total = buckets["experiments.driver"]["total_s"]
        assert sum(b["self_s"] for b in buckets.values()) == pytest.approx(total, rel=1e-6)
        assert total <= traced["run_wall_s"]
        assert sum(traced["layer_shares"].values()) == pytest.approx(total / traced["run_wall_s"], rel=1e-6)
        # event spans: one per executed event, all of them mapped to a layer
        assert sum(s["calls"] for s in traced["sites"].values()) == traced["counts"]["sim.engine.events"]
        assert "unmapped" not in buckets


def test_sampled_spans_nest(suite):
    _, _, out = suite
    for name in SMOKE_WORKLOADS:
        path = out.with_suffix(f".{name}.trace.jsonl")
        header, *spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert header["workload"] == name and header["sample_every"] == 64
        assert header["spans"] == len(spans) > 0
        by_id = {(s["trace"], s["span"]): s for s in spans}
        assert len(by_id) == len(spans)
        roots = [s for s in spans if s["parent"] == 0]
        assert {s["trace"] % 64 for s in roots} == {1}  # events 1, 65, 129, ...
        assert all(":" in s["name"] for s in roots)  # roots are event spans
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"]:
                parent = by_id[(s["trace"], s["parent"])]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


@pytest.mark.parametrize("trace, names", [("0", END_TO_END_METRICS), ("1", PER_LAYER_METRICS)])
def test_contract_invocation_prints_one_json_object_last(tmp_path, trace, names):
    done = run_py(
        "--workload", "slot-300", "--seed", "3", "--seconds", "0.2", "--trace", trace,
        "--smoke", "--out", str(tmp_path / "r.json"),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 60
    assert {n: m["unit"] for n, m in last["metrics"].items()} == names
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    if trace == "0":
        # --seconds keeps adding timed runs until that much was measured
        assert last["attempted"] > 60
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_without_printing_a_result_where_the_simulator_is_absent(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        REPO_ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    done = run_py(
        "--workload", "slot-300", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=Path("benchmarks/perf/run.py"),
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
