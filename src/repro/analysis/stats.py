"""Distribution helpers: CDFs, percentiles, deadline statistics.

The evaluation section reports results as CDFs over nodes ("fraction
of nodes" vs time), P99/median/max values, and deadline-completion
fractions. These helpers centralize that arithmetic, treating ``None``
entries (phases that never completed in the simulated window) as
misses rather than dropping them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

__all__ = ["percentile", "Distribution", "summarize"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values, q in [0, 100]."""
    if not sorted_values:
        raise ValueError("empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    frac = rank - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


@dataclass
class Distribution:
    """A sample of completion values, possibly with misses (None)."""

    values: list[float]
    misses: int = 0

    @staticmethod
    def from_optional(samples: Iterable[float | None]) -> Distribution:
        values: list[float] = []
        misses = 0
        for sample in samples:
            if sample is None:
                misses += 1
            else:
                values.append(sample)
        values.sort()
        return Distribution(values, misses)

    @property
    def count(self) -> int:
        return len(self.values) + self.misses

    @property
    def mean(self) -> float:
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    @property
    def median(self) -> float:
        return self.quantile(50.0)

    @property
    def p99(self) -> float:
        return self.quantile(99.0)

    @property
    def max(self) -> float:
        return self.values[-1] if self.values else math.nan

    @property
    def min(self) -> float:
        return self.values[0] if self.values else math.nan

    def quantile(self, q: float) -> float:
        """Percentile over the *full* population; misses count as +inf."""
        if not self.values and self.misses == 0:
            return math.nan
        rank = q / 100.0 * self.count
        if rank > len(self.values):
            return math.inf
        if not self.values:
            return math.inf
        return percentile(self.values, min(100.0, 100.0 * rank / len(self.values)))

    def fraction_within(self, deadline: float) -> float:
        """Fraction of the population completing by ``deadline``."""
        if self.count == 0:
            return math.nan
        within = sum(1 for value in self.values if value <= deadline)
        return within / self.count

    def cdf(self, points: int = 100) -> list[tuple[float, float]]:
        """(time, cumulative fraction of population) pairs for plotting."""
        if not self.values:
            return []
        step = max(1, len(self.values) // points)
        series = [
            (self.values[i], (i + 1) / self.count)
            for i in range(0, len(self.values), step)
        ]
        if series[-1][0] != self.values[-1]:
            series.append((self.values[-1], len(self.values) / self.count))
        return series


def summarize(dist: Distribution, deadline: float | None = None) -> str:
    """One-line human summary used by the bench harness output."""
    if dist.count == 0:
        return "no samples"

    def ms(label: str, value: float) -> str:
        # an infinite quantile, or no max at all, falls among the misses
        return f"{label}={value * 1e3:.0f}ms" if math.isfinite(value) else f"{label}=miss"

    parts = [
        f"n={dist.count}",
        ms("median", dist.median),
        ms("p99", dist.p99),
        ms("max", dist.max),
    ]
    if deadline is not None:
        parts.append(f"within {deadline:.0f}s: {100 * dist.fraction_within(deadline):.1f}%")
    return " ".join(parts)
