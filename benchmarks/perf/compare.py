"""Compare two result files of run.py: did B get worse than A?

    python3 benchmarks/perf/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
ranges, the change of the median, the bound from ``BENCHMARK.json`` and
a verdict:

- ``worse``      B's median is worse than A's by more than the bound;
- ``better``     every run of B reads better than every run of A;
- ``unresolved`` the ranges overlap and the run-to-run spread of either
                 side is wider than the bound — more runs are needed,
                 this is *not* "unchanged";
- ``same``       anything else: within the bound.

Simulated metrics and counts repeat exactly for a fixed seed, so any
difference there is behaviour that moved; each one is listed. Exits
non-zero on any ``worse`` row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from harness.layers import EXACT_PER_LAYER
from harness.schema import HOST_METRICS, Benchmark

__all__ = ["compare", "main", "verdict"]


def verdict(a: dict[str, float], b: dict[str, float], better: str, bound: float) -> str:
    """``a``/``b`` are median/min/max summaries of one metric."""
    sign = 1.0 if better == "lower" else -1.0  # oriented: larger = worse
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    a_best, a_worst = sorted((sign * a["min"], sign * a["max"]))
    b_best, b_worst = sorted((sign * b["min"], sign * b["max"]))
    overlap = b_best <= a_worst and a_best <= b_worst
    spread = max(
        (a["max"] - a["min"]) / abs(a["median"]),
        (b["max"] - b["min"]) / abs(b["median"]),
    )
    if overlap and spread > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if b_worst < a_best:
        return "better"
    return "same"


def _fmt(summary: dict[str, float]) -> str:
    return (
        f"{summary['median']:>11.4f} [{summary['min']:.4f}..{summary['max']:.4f}]"
        f" n={summary['n']}"
    )


def compare(a: dict[str, Any], b: dict[str, Any], benchmark: Benchmark) -> tuple[list[str], bool]:
    """(report lines, any row worse)."""
    lines: list[str] = []
    worse = False
    if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
        lines.append(
            f"note: A is seed {a['seed']} smoke={a['smoke']}, B is seed {b['seed']} "
            f"smoke={b['smoke']}: simulated metrics and counts are expected to differ"
        )
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        moved: list[str] = []
        if "timed" in wa and "timed" in wb:
            lines.append(f"== {name} ==")
            for metric, spec in benchmark.end_to_end.items():
                sa, sb = wa["timed"]["end_to_end"][metric], wb["timed"]["end_to_end"][metric]
                outcome = verdict(sa, sb, spec["better"], spec["bound"])
                worse = worse or outcome == "worse"
                change = (sb["median"] - sa["median"]) / abs(sa["median"])
                exact = metric not in HOST_METRICS
                if exact and (sa["median"], sa["min"], sa["max"]) != (sb["median"], sb["min"], sb["max"]):
                    moved.append(f"{metric}: {sa['median']!r} -> {sb['median']!r}")
                lines.append(
                    f"  {metric:<26}{_fmt(sa)}  {_fmt(sb)}  {change:>+8.2%}"
                    f"  bound {spec['bound']:.1%}  {outcome}"
                )
            ra, rb = wa["timed"]["runs"][0], wb["timed"]["runs"][0]
            if ra["fingerprint"] != rb["fingerprint"]:
                moved.append(f"fingerprint: {ra['fingerprint'][:16]} -> {rb['fingerprint'][:16]}")
            moved += _differences(ra["counts"], rb["counts"], ra["counts"])
        if "traced" in wa and "traced" in wb:
            moved += _differences(
                wa["traced"]["run"]["per_layer"], wb["traced"]["run"]["per_layer"], EXACT_PER_LAYER
            )
        if moved:
            lines.append(f"  behaviour moved on {name} ({len(moved)} exact values differ):")
            lines += [f"    {entry}" for entry in sorted(set(moved))]
        else:
            lines.append(f"  every simulated metric and count of {name} is identical")
    if not shared:
        lines.append("no workload appears in both files")
    return lines, worse


def _differences(a: dict[str, float], b: dict[str, float], names) -> list[str]:
    return [f"{n}: {a[n]!r} -> {b[n]!r}" for n in names if a[n] != b[n]]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args)
    lines, worse = compare(a, b, Benchmark.load())
    print(f"A = {args[0]}\nB = {args[1]}")
    print("\n".join(lines))
    print("verdict: " + ("WORSE on at least one row" if worse else "no row is worse"))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
