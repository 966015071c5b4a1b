"""DetSan: a runtime determinism sanitizer for simulation scenarios.

reprolint proves properties of the *text*; DetSan tests the *process*.
It runs a scenario several times under perturbed-but-contract-legal
conditions and demands that every run lands on the identical metrics
fingerprint:

- **hash-seed sweep** — each run in a fresh subprocess with a
  different ``PYTHONHASHSEED``, the exact perturbation that turns any
  surviving set-order dependence into observable divergence;
- **telemetry toggle** — observation must never perturb the observed.

The default matrix is therefore four runs per scenario: three hash
seeds, then telemetry on under the first of them.

Every run also records a structured trace
(:class:`repro.obs.events.TraceRecorder` → JSONL), so a fingerprint
mismatch is reported as a *first-divergence event diff* — the index
and both versions of the first event where the runs disagree — instead
of just two hashes.

CLI::

    repro detsan                         # both scenarios, default matrix
    repro detsan --scenario pandas-100 --hash-seeds 0,1,2
    python -m repro.analysis.detsan --json

Exit status: 0 when every fingerprint matches, 1 on divergence,
2 on usage errors. The module doubles as its own subprocess worker
(``--worker``): the parent re-invokes ``sys.executable -m
repro.analysis.detsan --worker ...`` with ``PYTHONHASHSEED`` pinned in
the child environment, because the hash seed is frozen at interpreter
start and cannot be changed in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "DetSanReport",
    "Divergence",
    "RunResult",
    "SCENARIOS",
    "Variant",
    "default_variants",
    "diff_traces",
    "run",
    "run_scenario_once",
]

DEFAULT_HASH_SEEDS = (0, 1, 2)


# ----------------------------------------------------------------------
# scenario registry
# ----------------------------------------------------------------------
def _run_pandas_100(telemetry: bool, trace_path: str | None):
    """The PR-5 acceptance scenario: 100 nodes, loss + crashes + a partition."""
    from repro.core.seeding import RedundantSeeding
    from repro.experiments.scenario import Scenario, ScenarioConfig
    from repro.faults.plan import CrashWindow, FaultPlan, PartitionWindow
    from repro.params import PandasParams

    tracer, sink = _make_tracer(trace_path)
    config = ScenarioConfig(
        num_nodes=100,
        params=PandasParams(
            base_rows=16, base_cols=16, custody_rows=2, custody_cols=2, samples=10
        ),
        policy=RedundantSeeding(4),
        seed=11,
        slots=1,
        num_vertices=1000,
        faults=FaultPlan(
            loss=0.05,
            crashes=(CrashWindow(crash_at=1.0, restart_at=2.0, count=2),),
            partitions=(PartitionWindow(start=1.0, duration=0.5, fraction=0.2),),
        ),
        check_invariants=True,
        telemetry=_make_telemetry(telemetry),
        tracer=tracer,
    )
    scenario = Scenario(config).run()
    _close_sink(sink)
    return scenario.metrics.fingerprint(), scenario.sim.events_processed


def _run_pipeline_3(telemetry: bool, trace_path: str | None):
    """A 3-slot sustained pipeline with churn (the PR-7 subsystem)."""
    from repro.core.seeding import RedundantSeeding
    from repro.experiments.pipeline import PipelineScenario
    from repro.experiments.scenario import ScenarioConfig
    from repro.params import PandasParams

    tracer, sink = _make_tracer(trace_path)
    config = ScenarioConfig(
        num_nodes=60,
        params=PandasParams.reduced(32),
        policy=RedundantSeeding(4),
        seed=7,
        slots=3,
        num_vertices=600,
        telemetry=_make_telemetry(telemetry),
        tracer=tracer,
    )
    scenario = PipelineScenario(config, churn_fraction=0.1).run()
    _close_sink(sink)
    return scenario.metrics.fingerprint(), scenario.sim.events_processed


SCENARIOS: dict[str, Callable[..., tuple[str, int]]] = {
    "pandas-100": _run_pandas_100,
    "pipeline-3": _run_pipeline_3,
}


def _make_telemetry(enabled: bool):
    if not enabled:
        return None
    from repro.obs.telemetry import Telemetry

    return Telemetry()


def _make_tracer(trace_path: str | None):
    if trace_path is None:
        return None, None
    from repro.obs.events import TraceRecorder
    from repro.obs.sinks import JsonlSink

    sink = JsonlSink(trace_path)
    # capacity=1: the JSONL sink sees every event in order; the
    # in-memory tail is irrelevant here and would double peak RSS
    return TraceRecorder(capacity=1, sinks=(sink,)), sink


def _close_sink(sink) -> None:
    if sink is not None:
        sink.close()


# ----------------------------------------------------------------------
# perturbation matrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Variant:
    """One perturbed-but-contract-legal run configuration."""

    name: str
    telemetry: bool = False
    hash_seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.name}/hashseed={self.hash_seed}"


def default_variants(hash_seeds: tuple[int, ...] = DEFAULT_HASH_SEEDS) -> list[Variant]:
    """Hash-seed sweep of the baseline, plus one telemetry-on run."""
    seeds = hash_seeds or DEFAULT_HASH_SEEDS
    variants = [Variant(name="baseline", hash_seed=s) for s in seeds]
    variants.append(Variant(name="telemetry-on", telemetry=True, hash_seed=seeds[0]))
    return variants


@dataclass
class RunResult:
    variant: Variant
    fingerprint: str
    events_processed: int
    trace_path: str


@dataclass
class Divergence:
    """A fingerprint mismatch, pinpointed to its first differing event."""

    scenario: str
    baseline: RunResult
    deviant: RunResult
    event_index: int | None = None
    baseline_event: dict[str, Any] | None = None
    deviant_event: dict[str, Any] | None = None

    def describe(self) -> str:
        lines = [
            f"{self.scenario}: fingerprint diverged under {self.deviant.variant.label}",
            f"  baseline {self.baseline.variant.label}: "
            f"{self.baseline.fingerprint} ({self.baseline.events_processed} events)",
            f"  deviant  {self.deviant.variant.label}: "
            f"{self.deviant.fingerprint} ({self.deviant.events_processed} events)",
        ]
        if self.event_index is not None:
            lines.append(f"  first divergence at trace event #{self.event_index}:")
            lines.append(f"    baseline: {json.dumps(self.baseline_event, sort_keys=True)}")
            lines.append(f"    deviant:  {json.dumps(self.deviant_event, sort_keys=True)}")
        else:
            lines.append("  traces are identical (divergence is outside traced events)")
        return "\n".join(lines)


@dataclass
class DetSanReport:
    """All runs plus any divergences, for --json output."""

    scenarios: dict[str, list[RunResult]] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "scenarios": {
                name: [
                    {
                        "variant": r.variant.label,
                        "fingerprint": r.fingerprint,
                        "events_processed": r.events_processed,
                    }
                    for r in runs
                ]
                for name, runs in self.scenarios.items()
            },
            "divergences": [d.describe() for d in self.divergences],
        }


# ----------------------------------------------------------------------
# first-divergence diff
# ----------------------------------------------------------------------
def diff_traces(
    baseline_path: str, deviant_path: str
) -> tuple[int, dict[str, Any], dict[str, Any]] | None:
    """(index, baseline event, deviant event) of the first difference.

    Streams both JSONL files in lockstep; returns None when they are
    identical (the divergence then lies outside traced events — e.g.
    a metric with no trace mirror).
    """
    sentinel = {"kind": "<end of trace>"}
    with open(baseline_path, encoding="utf-8") as fa, open(
        deviant_path, encoding="utf-8"
    ) as fb:
        for index, (line_a, line_b) in enumerate(_zip_longest_lines(fa, fb)):
            event_a = json.loads(line_a) if line_a is not None else sentinel
            event_b = json.loads(line_b) if line_b is not None else sentinel
            if event_a != event_b:
                return index, event_a, event_b
    return None


def _zip_longest_lines(fa, fb):
    while True:
        line_a = fa.readline()
        line_b = fb.readline()
        if not line_a and not line_b:
            return
        yield (line_a or None), (line_b or None)


# ----------------------------------------------------------------------
# subprocess worker protocol
# ----------------------------------------------------------------------
def _worker_main(args: argparse.Namespace) -> int:
    """Child-process entry: run one variant, print a JSON result line."""
    runner = SCENARIOS[args.scenario]
    fingerprint, events = runner(
        telemetry=bool(args.telemetry),
        trace_path=args.trace_out or None,
    )
    json.dump({"fingerprint": fingerprint, "events_processed": events}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _spawn(scenario: str, variant: Variant, trace_path: str) -> RunResult:
    """Run one variant in a subprocess with its hash seed pinned."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(variant.hash_seed)
    # the child must resolve `repro` exactly as this process does
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    cmd = [
        sys.executable,
        "-m",
        "repro.analysis.detsan",
        "--worker",
        "--scenario",
        scenario,
        "--telemetry",
        "1" if variant.telemetry else "0",
        "--trace-out",
        trace_path,
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"detsan worker failed for {scenario} [{variant.label}] "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
        )
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    return RunResult(
        variant=variant,
        fingerprint=payload["fingerprint"],
        events_processed=payload["events_processed"],
        trace_path=trace_path,
    )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_scenario_once(
    scenario: str,
    variant: Variant,
    trace_dir: str,
    index: int,
) -> RunResult:
    trace_path = os.path.join(trace_dir, f"{scenario}-{index}.jsonl")
    return _spawn(scenario, variant, trace_path)


def _check_scenario(
    scenario: str,
    variants: list[Variant],
    trace_dir: str,
    report: DetSanReport,
    echo: Callable[[str], None],
) -> None:
    runs: list[RunResult] = []
    for index, variant in enumerate(variants):
        result = run_scenario_once(scenario, variant, trace_dir, index)
        runs.append(result)
        echo(
            f"  {variant.label:<28} fingerprint={result.fingerprint} "
            f"events={result.events_processed}"
        )
    report.scenarios[scenario] = runs
    baseline = runs[0]
    for deviant in runs[1:]:
        if deviant.fingerprint == baseline.fingerprint:
            continue
        divergence = Divergence(scenario=scenario, baseline=baseline, deviant=deviant)
        located = diff_traces(baseline.trace_path, deviant.trace_path)
        if located is not None:
            divergence.event_index, divergence.baseline_event, divergence.deviant_event = located
        report.divergences.append(divergence)


def _parse_hash_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad hash-seed list {text!r}") from exc
    if not seeds:
        raise argparse.ArgumentTypeError("at least one hash seed is required")
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro detsan",
        description=(
            "Run scenarios under perturbed-but-contract-legal conditions "
            "(PYTHONHASHSEED sweep, telemetry on/off) and fail with a "
            "first-divergence event diff if any metrics fingerprint moves."
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario to sanitize (repeatable; default: all)",
    )
    parser.add_argument(
        "--hash-seeds",
        type=_parse_hash_seeds,
        default=DEFAULT_HASH_SEEDS,
        metavar="S0,S1,...",
        help="comma-separated PYTHONHASHSEED values (default: 0,1,2)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument(
        "--keep-traces",
        metavar="DIR",
        default=None,
        help="write per-run JSONL traces under DIR instead of a temp dir",
    )
    # worker protocol (internal)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--telemetry", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", default=None, help=argparse.SUPPRESS)
    return parser


def run(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.worker:
        if not args.scenario or len(args.scenario) != 1:
            parser.error("--worker requires exactly one --scenario")
        args.scenario = args.scenario[0]
        return _worker_main(args)

    scenarios = args.scenario or sorted(SCENARIOS)
    variants = default_variants(args.hash_seeds)
    report = DetSanReport()
    echo = (lambda _line: None) if args.json else print

    def sweep(trace_dir: str) -> None:
        for scenario in scenarios:
            echo(f"detsan: {scenario} ({len(variants)} runs)")
            _check_scenario(scenario, variants, trace_dir, report, echo)

    if args.keep_traces is not None:
        os.makedirs(args.keep_traces, exist_ok=True)
        sweep(args.keep_traces)
    else:
        with tempfile.TemporaryDirectory(prefix="detsan-") as trace_dir:
            sweep(trace_dir)

    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif report.ok:
        total = sum(len(runs) for runs in report.scenarios.values())
        print(f"detsan: OK — {total} run(s), all fingerprints identical")
    else:
        for divergence in report.divergences:
            print(divergence.describe(), file=sys.stderr)
        print(
            f"detsan: FAIL — {len(report.divergences)} divergence(s)",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(run())
