"""Paper-vs-measured reporting for the benchmark harness.

Holds the reference numbers the paper reports (Section 8) and prints
each experiment's measured distributions next to them. Absolute
values are not expected to match — the substrate is a simulator at a
reduced population — but the *shape* must: orderings between
policies/systems, deadline hit-rates, and crossover directions.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.stats import Distribution

__all__ = [
    "PAPER",
    "format_distribution_row",
    "print_header",
    "print_row",
    "print_block",
    "shape_checks",
]


# Reference values transcribed from the paper (1,000-node deployment
# unless noted). Times in seconds.
PAPER: dict[str, dict[str, float]] = {
    # Figure 9d time-to-sampling per policy
    "fig9d.minimal": {"max": 3.341, "p99": 2.303, "median": 1.235, "within4s": 1.0},
    "fig9d.single": {"max": 3.062, "p99": 2.068, "median": 1.122, "within4s": 1.0},
    "fig9d.redundant": {"max": 3.009, "p99": 2.020, "median": 0.882, "within4s": 1.0},
    # Figure 9c consolidation from slot start (medians)
    "fig9c.minimal": {"median": 1.178},
    "fig9c.single": {"median": 1.072},
    "fig9c.redundant": {"median": 0.869},
    # Figure 9b consolidation from seeding (max / P99)
    "fig9b.minimal": {"max": 2.213, "p99": 1.756},
    "fig9b.single": {"max": 2.046, "p99": 1.595},
    "fig9b.redundant": {"max": 1.985, "p99": 1.558},
    # Figure 9a seeding (max / P99)
    "fig9a.minimal": {"max": 0.700, "p99": 0.698},
    "fig9a.single": {"max": 0.819, "p99": 0.705},
    "fig9a.redundant": {"max": 0.936, "p99": 0.715},
    # builder egress per policy (bytes)
    "egress.minimal": {"bytes": 36.6e6},
    "egress.single": {"bytes": 149e6},
    "egress.redundant": {"bytes": 1208e6},
    # Figure 10 max fetch traffic per node (bytes, both directions)
    "fig10.minimal": {"max_bytes": 2.26e6},
    "fig10.single": {"max_bytes": 2.0e6},
    "fig10.redundant": {"max_bytes": 1.99e6},
    # Figure 11 constant-fetching time-to-sampling
    "fig11.constant": {"max": 4.129, "p99": 3.513, "median": 1.546},
    "fig11.adaptive": {"max": 3.009, "p99": 2.020, "median": 0.882},
    # Figure 12 at 1,000 nodes
    "fig12.pandas": {"mean": 0.882, "within4s": 1.0, "msgs": 1613},
    "fig12.gossipsub": {"mean": 3.660, "within4s": 0.76, "msgs": 2370},
    "fig12.dht": {"within4s": 0.83, "msgs": 3021},
    # Figure 13: PANDAS scaling (fraction within 4 s)
    "fig13.10000": {"within4s": 1.0},
    "fig13.20000": {"within4s": 0.90},
    # Figure 15 fraction of nodes sampling within 4 s (10,000 nodes)
    "fig15.dead": {"0.0": 0.92, "0.2": 0.83, "0.4": 0.74, "0.6": 0.45, "0.8": 0.27},
    "fig15.oov": {"0.0": 0.92, "0.2": 0.83, "0.4": 0.67, "0.6": 0.47, "0.8": 0.25},
}


def format_distribution_row(
    label: str,
    dist: Distribution,
    deadline: float | None = 4.0,
    paper_key: str | None = None,
) -> str:
    """One aligned row: measured stats plus the paper's reference."""
    if dist.count == 0:
        return f"{label:<28} (no samples)"
    import math

    median = dist.median
    p99 = dist.p99
    parts = [
        f"{label:<28}",
        f"median={median * 1e3:7.0f}ms" if not math.isnan(median) else "median=   miss",
        f"p99={'miss' if p99 == math.inf else f'{p99 * 1e3:.0f}ms':>8}",
    ]
    if deadline is not None:
        parts.append(f"within{deadline:.0f}s={100 * dist.fraction_within(deadline):5.1f}%")
    if paper_key and paper_key in PAPER:
        ref = PAPER[paper_key]
        ref_bits = []
        if "median" in ref:
            ref_bits.append(f"median={ref['median'] * 1e3:.0f}ms")
        if "p99" in ref:
            ref_bits.append(f"p99={ref['p99'] * 1e3:.0f}ms")
        if "within4s" in ref:
            ref_bits.append(f"within4s={100 * ref['within4s']:.0f}%")
        if ref_bits:
            parts.append("| paper: " + " ".join(ref_bits))
    return " ".join(parts)


# Emitted lines are buffered so the benchmark conftest can replay them
# in pytest's terminal summary (per-test stdout is captured and thrown
# away for passing tests); outside pytest they print immediately.
_BUFFER: list = []


def drain_buffer() -> list:
    """Return and clear all report lines emitted so far."""
    lines = list(_BUFFER)
    _BUFFER.clear()
    return lines


def _print_line(text: str) -> None:
    import os
    import sys

    _BUFFER.append(text)
    if "PYTEST_CURRENT_TEST" not in os.environ:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()


def print_header(title: str) -> None:
    _print_line("")
    _print_line("=" * 78)
    _print_line(title)
    _print_line("=" * 78)


def print_row(text: str) -> None:
    _print_line("  " + text)


def print_block(text: str) -> None:
    """Emit a multi-line block (e.g. an ASCII CDF) indented."""
    for line in text.splitlines():
        _print_line("  " + line)


def shape_checks(checks: Iterable[tuple]) -> None:
    """Print PASS/FAIL for each (description, bool) shape assertion."""
    for description, passed in checks:
        print_row(f"[{'PASS' if passed else 'FAIL'}] {description}")

