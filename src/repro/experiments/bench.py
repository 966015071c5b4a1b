"""Engine benchmark runner: the recorded perf trajectory of the repo.

``python -m repro bench`` runs full PANDAS slots at a list of node
scales and writes a ``BENCH_<n>.json`` snapshot: wall-clock seconds
per slot, simulator events executed, events/sec, the metrics
fingerprint of every run (so a perf number can never silently come
from *different behaviour*), and the tracing-overhead ratio. Snapshots
are committed next to the code they measure; together they form the
scale-up record demanded by the roadmap's 20k-node goal.

Regression policy (enforced by the CI perf-smoke job via ``--check``):
a run whose events/sec falls more than 25% below the committed
baseline for the same scale fails. Fingerprints must match the
baseline exactly when both record them — a faster-but-different run is
a behaviour change, not an optimization, and must update the replay
pins deliberately.

All timing uses ``time.perf_counter`` — wall clock never feeds
simulated state, which keeps this module allowlisted for the RL002
determinism rule the same way the callback profiler is.
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.obs.events import TraceRecorder
from repro.obs.telemetry import Telemetry
from repro.params import PandasParams

__all__ = [
    "PRE_SCALE_UP_BASELINE",
    "bench_scale",
    "measure_trace_overhead",
    "measure_telemetry_overhead",
    "next_bench_path",
    "run_bench",
    "check_against_baseline",
]

SCHEMA_VERSION = 1

# The last measurement of the engine before the scale-up refactors
# (slotted node state, shared candidate sets, hot-path fixes): one
# full-parameter 1,000-node PANDAS slot, seed 7. The calendar queue,
# batched transport and numpy candidate scan that the same refactors
# added were later deleted as within noise or slower (DESIGN.md §4).
# Kept here so every snapshot reports its speedup against a fixed,
# documented origin rather than a moving target.
PRE_SCALE_UP_BASELINE: dict[str, float] = {
    "nodes": 1000,
    "wall_s": 897.07,
    "events": 5_871_957,
    "events_per_sec": 6_545.69,
}


def bench_scale(
    nodes: int,
    seed: int = 7,
    reduced: int = 0,
    slot_window: float = 12.0,
) -> dict[str, Any]:
    """Run one full PANDAS slot at ``nodes`` and measure it."""
    params = PandasParams.reduced(reduced) if reduced else PandasParams.full()
    config = ScenarioConfig(
        num_nodes=nodes, params=params, seed=seed, slots=1, slot_window=slot_window
    )
    start = time.perf_counter()
    scenario = Scenario(config).run()
    wall = time.perf_counter() - start
    events = scenario.sim.events_processed
    return {
        "nodes": nodes,
        "reduced": reduced,
        "seed": seed,
        "wall_s": round(wall, 3),
        "events": events,
        "events_per_sec": round(events / wall, 2) if wall > 0 else 0.0,
        "fingerprint": scenario.metrics.fingerprint(),
    }


def _overhead_pair(
    make_plain: Callable[[], ScenarioConfig],
    make_instrumented: Callable[[], ScenarioConfig],
    repeats: int,
) -> tuple[float, float]:
    """Median-ratio plain/instrumented wall-clock pair.

    A single-shot comparison can swing ±25% on a busy host, and wall
    times drift within a process (CPU quota burn-down, cache
    pressure), so the two configurations run as adjacent pairs —
    drift hits both sides of a pair roughly equally — and the pair
    whose ratio is the median across ``repeats`` is reported. The
    returned walls always come from one real pair, so the recorded
    ratio is exactly ``instrumented / plain`` of the recorded times.
    """
    pairs = []
    for _ in range(max(1, repeats)):
        walls = []
        for make_config in (make_plain, make_instrumented):
            start = time.perf_counter()
            Scenario(make_config()).run()
            walls.append(time.perf_counter() - start)
        pairs.append((walls[0], walls[1]))
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    return pairs[len(pairs) // 2]


def measure_trace_overhead(
    nodes: int = 100, seed: int = 7, repeats: int = 5
) -> dict[str, float]:
    """Wall-clock ratio of a traced run over an untraced one.

    Uses the in-memory ring buffer (no sink I/O) so the number isolates
    the cost of event *emission*, the part protocol code pays.
    """
    plain, traced = _overhead_pair(
        lambda: ScenarioConfig(num_nodes=nodes, seed=seed, slots=1),
        lambda: ScenarioConfig(
            num_nodes=nodes, seed=seed, slots=1, tracer=TraceRecorder()
        ),
        repeats,
    )
    return {
        "nodes": nodes,
        "plain_wall_s": round(plain, 3),
        "traced_wall_s": round(traced, 3),
        "overhead_ratio": round(traced / plain, 3) if plain > 0 else 0.0,
    }


def measure_telemetry_overhead(
    nodes: int = 100, seed: int = 7, repeats: int = 5
) -> dict[str, float]:
    """Wall-clock ratio of a telemetered run over a plain one.

    The telemetered side runs the full observability stack: metrics
    tap, per-datagram layer accounting and the cadence sampler — the
    cost a long sustained run pays for its health report.
    """
    plain, telemetered = _overhead_pair(
        lambda: ScenarioConfig(num_nodes=nodes, seed=seed, slots=1),
        lambda: ScenarioConfig(
            num_nodes=nodes, seed=seed, slots=1, telemetry=Telemetry()
        ),
        repeats,
    )
    return {
        "nodes": nodes,
        "plain_wall_s": round(plain, 3),
        "telemetry_wall_s": round(telemetered, 3),
        "overhead_ratio": round(telemetered / plain, 3) if plain > 0 else 0.0,
    }


def run_bench(
    scales: list[int],
    seed: int = 7,
    reduced: int = 0,
    trace_overhead: bool = True,
    telemetry_overhead: bool = True,
) -> dict[str, Any]:
    """Measure every scale and assemble one snapshot document."""
    results = [bench_scale(nodes, seed=seed, reduced=reduced) for nodes in scales]
    report: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scales": results,
        "pre_scale_up_baseline": PRE_SCALE_UP_BASELINE,
    }
    for row in results:
        if row["nodes"] == PRE_SCALE_UP_BASELINE["nodes"] and not row["reduced"]:
            row["speedup_vs_pre_scale_up"] = round(
                PRE_SCALE_UP_BASELINE["wall_s"] / row["wall_s"], 2
            )
    if trace_overhead:
        report["trace_overhead"] = measure_trace_overhead(seed=seed)
    if telemetry_overhead:
        report["telemetry_overhead"] = measure_telemetry_overhead(seed=seed)
    return report


def next_bench_path(root: Path) -> Path:
    """First unused ``BENCH_<n>.json`` path under ``root``."""
    n = 1
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def check_against_baseline(
    report: dict[str, Any],
    baseline_path: Path,
    max_regression: float = 0.25,
    max_obs_overhead: float = 1.25,
) -> list[str]:
    """Compare a fresh report against a committed snapshot.

    Returns a list of human-readable failures: a missing or unreadable
    baseline snapshot (a gate pointed at nothing must fail loudly, not
    silently pass or crash), events/sec more than ``max_regression``
    below the baseline at the same (nodes, reduced) scale, a changed
    fingerprint for an identical configuration, or a *fresh* telemetry
    overhead ratio above ``max_obs_overhead`` — telemetry must stay
    cheap enough to leave on for sustained runs, so the gate bounds it
    absolutely rather than relative to the baseline. ``trace_overhead``
    is recorded for the trajectory but not gated: full per-event trace
    emission is a debugging mode, not an always-on tax. Scales present
    in only one of the two documents are ignored.
    """
    if not baseline_path.exists():
        return [
            f"baseline snapshot {baseline_path} does not exist — run "
            f"`repro bench` and commit the BENCH_<n>.json it writes"
        ]
    try:
        baseline = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        return [f"baseline snapshot {baseline_path} is not valid JSON: {exc}"]
    base_rows = {
        (row["nodes"], row.get("reduced", 0), row.get("seed", 7)): row
        for row in baseline.get("scales", [])
    }
    failures: list[str] = []
    for row in report.get("scales", []):
        key = (row["nodes"], row.get("reduced", 0), row.get("seed", 7))
        base = base_rows.get(key)
        if base is None:
            continue
        floor = base["events_per_sec"] * (1.0 - max_regression)
        if row["events_per_sec"] < floor:
            failures.append(
                f"{key[0]} nodes: {row['events_per_sec']:.0f} events/s is more than "
                f"{max_regression:.0%} below baseline {base['events_per_sec']:.0f}"
            )
        if (
            "fingerprint" in base
            and base["fingerprint"] != row["fingerprint"]
        ):
            failures.append(
                f"{key[0]} nodes: fingerprint {row['fingerprint'][:12]}… differs from "
                f"baseline {base['fingerprint'][:12]}… — behaviour changed"
            )
    overhead = report.get("telemetry_overhead")
    if overhead is not None:
        ratio = overhead.get("overhead_ratio", 0.0)
        if ratio > max_obs_overhead:
            failures.append(
                f"telemetry_overhead: measured ratio {ratio:.3f}x exceeds "
                f"the {max_obs_overhead:.2f}x observability budget"
            )
    return failures
