"""The repo benchmark: run workloads, print every metric, check outputs.

    python3 benchmarks/perf/run.py                  # everything (~8 min)
    python3 benchmarks/perf/run.py --workload dead-400 --repeats 5
    python3 benchmarks/perf/run.py --smoke          # 60-node self-test scale

Without ``--trace`` each selected workload gets ``--repeats`` timed runs
and then one traced run, every end-to-end and per-layer metric is
printed by name with its unit, the correctness checks run, and a result
file is written under ``benchmarks/perf/results/``.

With ``--trace 0|1`` (how ``BENCHMARK.json``'s command is driven) one
workload is measured one way — timed runs for the end-to-end metrics,
or the traced run for the per-layer metrics — and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Every run is a fresh child interpreter, one at a time, so
``peak_rss_mb`` is per run and allocator state never carries over.
The exit code is non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

from harness.layers import PER_LAYER_METRICS
from harness.measure import END_TO_END_METRICS
from harness.schema import HOST_METRICS, REPO_ROOT, Benchmark, check, name_problems
from harness.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
SRC = REPO_ROOT / "src"

# set-up is measured this many times besides the timed runs' own
SETUP_ONLY_RUNS = 2
# the contract allows one invocation 180 s; the longest child
# (slot-500 traced) takes ~70 s on the reference box
CHILD_TIMEOUT_S = 170
MAX_UNATTRIBUTED_SHARE = 0.05


def spawn(workload: str, seed: int, smoke: bool, mode: str, trace_path: Path | None = None) -> dict[str, Any]:
    """Run one child to completion and return what it printed."""
    job = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "mode": mode,
        "trace_path": str(trace_path) if trace_path else None,
        "spawned_at": time.time(),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # subprocess.run kills the child and waits for it on timeout
    done = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(job)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} run of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_info() -> dict[str, Any]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "load1_at_start": os.getloadavg()[0],
    }


def summarize(values: list[float]) -> dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# ----------------------------------------------------------------------
# measuring one workload
# ----------------------------------------------------------------------
def measure_timed(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """Set-up-only runs, then timed runs until both ``--repeats`` runs
    and ``--seconds`` of measured run time have accumulated."""
    setups = [
        spawn(name, args.seed, args.smoke, "setup")["setup_s"]
        for _ in range(SETUP_ONLY_RUNS)
    ]
    runs: list[dict[str, Any]] = []
    measured_s = 0.0
    while len(runs) < args.repeats or measured_s < args.seconds:
        run = spawn(name, args.seed, args.smoke, "timed")
        runs.append(run)
        measured_s += run["run_wall_s"]
    setups += [run["metrics"]["setup_s"] for run in runs]
    end_to_end = {
        metric: summarize(
            setups if metric == "setup_s" else [run["metrics"][metric] for run in runs]
        )
        for metric in END_TO_END_METRICS
    }
    first = runs[0]
    expected = WORKLOADS[name].expected_node_slots(args.smoke)
    checks = [
        check(
            "attempted node-slots equal the expected honest live population",
            all(run["sizes"]["attempted"] == expected for run in runs),
            f"expected {expected}, runs report {[run['sizes']['attempted'] for run in runs]}",
        ),
        check(
            "no span wrapper is installed in a timed run",
            all(run["wrappers_installed"] == 0 for run in runs),
        ),
    ]
    if len(runs) > 1:
        checks += same_behaviour(first, runs[1:], f"{len(runs)} timed runs")
    return {"runs": runs, "end_to_end": end_to_end, "checks": checks}


def same_behaviour(first: dict[str, Any], others: list[dict[str, Any]], what: str) -> list[dict[str, Any]]:
    """Fingerprint, every shared count and every simulated metric must
    repeat exactly: same inputs, same behaviour, traced or not."""
    simulated = [m for m in END_TO_END_METRICS if m not in HOST_METRICS]
    moved = sorted(
        {
            key
            for other in others
            for key in first["counts"]
            if other["counts"][key] != first["counts"][key]
        }
        | {
            metric
            for other in others
            for metric in simulated
            if other["metrics"][metric] != first["metrics"][metric]
        }
    )
    return [
        check(
            f"fingerprint identical across {what}",
            all(other["fingerprint"] == first["fingerprint"] for other in others),
            first["fingerprint"][:16],
        ),
        check(
            f"counts and simulated metrics identical across {what}",
            not moved,
            ", ".join(moved),
        ),
    ]


def measure_traced(name: str, args: argparse.Namespace, trace_path: Path) -> dict[str, Any]:
    run = spawn(name, args.seed, args.smoke, "traced", trace_path)
    expected = WORKLOADS[name].expected_node_slots(args.smoke)
    unattributed = run["per_layer"]["bench.unattributed_share"]
    checks = run["trace_checks"] + [
        check(
            "attempted node-slots equal the expected honest live population",
            run["sizes"]["attempted"] == expected,
            f"expected {expected}, run reports {run['sizes']['attempted']}",
        ),
        check(
            f"bench.unattributed_share <= {MAX_UNATTRIBUTED_SHARE}",
            unattributed <= MAX_UNATTRIBUTED_SHARE,
            f"{unattributed:.4f}",
        ),
    ]
    return {"run": run, "checks": checks, "trace_file": trace_path.name}


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def print_end_to_end(timed: dict[str, Any], benchmark: Benchmark) -> None:
    sizes = timed["runs"][0]["sizes"]
    notes = {
        "deadline_hit_share": f"{sizes['within_deadline']}/{sizes['attempted']} node-slots",
        "sampling_p50_ms": f"over {sizes['sampled']} node-slots that sampled",
        "sampling_p95_ms": f"over {sizes['sampled']} node-slots that sampled",
        "consolidation_p95_ms": f"over {sizes['consolidated']} node-slots that consolidated",
    }
    print(f"  {'end-to-end':<26}{'median':>12}{'min':>12}{'max':>12}  n  unit      bound")
    for metric, unit in END_TO_END_METRICS.items():
        s = timed["end_to_end"][metric]
        bound = benchmark.end_to_end[metric]["bound"]
        print(
            f"  {metric:<26}{s['median']:>12.4f}{s['min']:>12.4f}{s['max']:>12.4f}"
            f"  {s['n']}  {unit:<9} {bound:<6.1%} {notes.get(metric, '')}"
        )


def print_per_layer(traced: dict[str, Any]) -> None:
    run = traced["run"]
    print(f"  {'per-layer (traced run)':<40}{'value':>16}  unit")
    for metric, unit in PER_LAYER_METRICS.items():
        value = run["per_layer"][metric]
        shown = f"{value:>16.0f}" if unit == "count" else f"{value:>16.4f}"
        print(f"  {metric:<40}{shown}  {unit}")
    shares = "  ".join(f"{layer} {share:.1%}" for layer, share in run["layer_shares"].items())
    print(f"  self-time share of the traced run by layer: {shares}")


def print_checks(checks: list[dict[str, Any]]) -> None:
    for c in checks:
        detail = f" ({c['detail']})" if c["detail"] else ""
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}{detail}")


# ----------------------------------------------------------------------
# the two ways of running
# ----------------------------------------------------------------------
def derived_metrics(workloads: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Numbers that need more than one run: tracing overhead per
    workload, and how slot-500 scales against slot-300 (1.67x the
    population; a layer whose ratio is above that is superlinear)."""
    out: dict[str, float] = {}
    for name, entry in workloads.items():
        traced_cpu = entry["traced"]["run"]["metrics"]["slot_cpu_s"]
        timed_cpu = entry["timed"]["end_to_end"]["slot_cpu_s"]["median"]
        out[f"bench.trace_overhead_ratio.{name}"] = traced_cpu / timed_cpu
    small, large = workloads.get("slot-300"), workloads.get("slot-500")
    if small and large:
        for key, metric in (("cpu", "slot_cpu_s"), ("rss", "peak_rss_mb")):
            out[f"scale.{key}_ratio"] = (
                large["timed"]["end_to_end"][metric]["median"]
                / small["timed"]["end_to_end"][metric]["median"]
            )
        out["scale.events_ratio"] = (
            large["timed"]["runs"][0]["counts"]["sim.engine.events"]
            / small["timed"]["runs"][0]["counts"]["sim.engine.events"]
        )
        small_layers = small["traced"]["run"]["layer_shares"]
        large_layers = large["traced"]["run"]["layer_shares"]
        small_wall = small["traced"]["run"]["run_wall_s"]
        large_wall = large["traced"]["run"]["run_wall_s"]
        for layer, share in small_layers.items():
            if layer in large_layers and share > 0:
                out[f"scale.{layer}_self_ratio"] = (
                    large_layers[layer] * large_wall / (share * small_wall)
                )
    return out


def run_suite(args: argparse.Namespace, stamp: str, out_path: Path) -> bool:
    workloads: dict[str, dict[str, Any]] = {}
    ok = True
    for name in args.workload:
        print(f"== {name} (seed {args.seed}{', smoke scale' if args.smoke else ''}) ==", flush=True)
        timed = measure_timed(name, args)
        traced = measure_traced(name, args, out_path.with_suffix(f".{name}.trace.jsonl"))
        checks = timed["checks"] + traced["checks"]
        checks += same_behaviour(timed["runs"][0], [traced["run"]], "the timed runs and the traced run")
        print_end_to_end(timed, args.benchmark)
        print_per_layer(traced)
        print_checks(checks)
        ok = ok and all(c["ok"] for c in checks)
        workloads[name] = {"timed": timed, "traced": traced, "checks": checks}
    derived = derived_metrics(workloads)
    print("== derived ==")
    for key, value in derived.items():
        print(f"  {key:<44}{value:>10.3f}  ratio")
    write_result(out_path, args, stamp, {"workloads": workloads, "derived": derived, "checks_ok": ok})
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'}; wrote {out_path}")
    return ok


def run_one(args: argparse.Namespace, stamp: str, out_path: Path) -> bool:
    """One workload, one kind of run, contract JSON on the last line."""
    (name,) = args.workload
    print(f"== {name} (seed {args.seed}, trace {args.trace}) ==", flush=True)
    if args.trace:
        traced = measure_traced(name, args, out_path.with_suffix(f".{name}.trace.jsonl"))
        print_per_layer(traced)
        checks, payload = traced["checks"], {"traced": traced}
        attempted = traced["run"]["sizes"]["attempted"]
        metrics = {
            metric: {"value": traced["run"]["per_layer"][metric], "unit": unit}
            for metric, unit in PER_LAYER_METRICS.items()
        }
    else:
        timed = measure_timed(name, args)
        print_end_to_end(timed, args.benchmark)
        checks, payload = timed["checks"], {"timed": timed}
        attempted = sum(run["sizes"]["attempted"] for run in timed["runs"])
        metrics = {
            metric: {"value": timed["end_to_end"][metric]["median"], "unit": unit}
            for metric, unit in END_TO_END_METRICS.items()
        }
    print_checks(checks)
    ok = all(c["ok"] for c in checks)
    write_result(out_path, args, stamp, {"workloads": {name: {**payload, "checks": checks}}, "checks_ok": ok})
    # an operation is one simulated node-slot; a deadline miss is the
    # simulated protocol's outcome (deadline_hit_share), a failure is
    # simulation work whose outputs did not check out
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": attempted,
                "failed": 0 if ok else attempted,
                "metrics": metrics,
            }
        )
    )
    return ok


def write_result(path: Path, args: argparse.Namespace, stamp: str, body: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    result = {
        "schema": 1,
        "stamp": stamp,
        "seed": args.seed,
        "smoke": args.smoke,
        "host": args.host,
        **body,
    }
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed runs per workload (default 3, or 1 with --trace)",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep adding timed runs until this much run time is measured",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="one workload, one kind of run, JSON result on the last line",
    )
    parser.add_argument("--out", type=Path, default=None, help="result file (default results/<stamp>.json)")
    parser.add_argument("--smoke", action="store_true", help="60 nodes on a 1/32 grid: harness self-test scale")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator source at {SRC}", file=sys.stderr)
        return 2
    args.benchmark = Benchmark.load()
    # what is reported and what BENCHMARK.json declares must be the same
    # names with the same units, or later claims cannot name their metric
    problems = (
        name_problems(END_TO_END_METRICS, args.benchmark.end_to_end)
        + name_problems(PER_LAYER_METRICS, args.benchmark.per_layer)
    )
    if list(args.benchmark.workloads) != list(WORKLOADS):
        problems.append(f"workloads {list(args.benchmark.workloads)} declared, {list(WORKLOADS)} implemented")
    if problems:
        print("run.py: BENCHMARK.json and the harness disagree:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    args.workload = args.workload or list(WORKLOADS)
    if args.trace is not None and len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    if args.repeats is None:
        args.repeats = 3 if args.trace is None else 1
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    args.host = host_info()

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + f"-{os.getpid()}"
    out_path = args.out or RESULTS / f"{stamp}.json"
    runner = run_suite if args.trace is None else run_one
    return 0 if runner(args, stamp, out_path) else 1


if __name__ == "__main__":
    sys.exit(main())
