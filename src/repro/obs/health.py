"""Post-run SLO analysis: from a telemetry series to a verdict.

``repro health`` consumes the JSONL series written by
:func:`repro.obs.export.write_series_jsonl` and answers the paper's
operational question — did this run hold its service levels? — with a
machine-readable report:

- **sampling deadline-hit rate**: exact deadline-hit counters over the
  expected per-slot sample population (Fig 9's headline number);
- **per-phase p50/p99**: rebuilt from the deterministic phase-latency
  histograms, the Fig 9 decomposition of where slot time went;
- **queue-depth p99**: over the sampled ``inbox_depth_max`` series —
  the backlog dynamic ROADMAP item 5 names as the pipeline's headline;
- **shed rate and overload onset**: total load shed by kind, plus the
  first slot in which any shed/drop/overflow signal became non-zero.

The verdict is ``pass`` unless a configured threshold is violated;
each violation contributes one human-readable reason. The analyzer is
pure post-processing over the exported records — it can run on a file
from another machine, long after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.sinks import read_jsonl
from repro.obs.telemetry import Histogram
from repro.params import SLOT_SECONDS

__all__ = [
    "HealthReport",
    "SloThresholds",
    "analyze",
    "analyze_file",
    "format_report",
]


@dataclass(frozen=True)
class SloThresholds:
    """What "healthy" means. ``None`` disables a criterion."""

    min_deadline_hit_rate: float = 0.9
    max_queue_depth_p99: float | None = None
    max_shed_total: float | None = None


@dataclass
class HealthReport:
    """Machine-readable outcome of one health analysis."""

    verdict: str  # "pass" | "fail"
    reasons: list[str] = field(default_factory=list)
    deadline_hit_rate: float | None = None
    expected_samples: int = 0
    completions: int = 0
    deadline_hits: int = 0
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    queue_depth_p99: float | None = None
    shed_total: float = 0.0
    sheds: dict[str, float] = field(default_factory=dict)
    queue_drops: dict[str, float] = field(default_factory=dict)
    overload_onset_slot: int | None = None
    samples: int = 0
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "reasons": self.reasons,
            "deadline_hit_rate": self.deadline_hit_rate,
            "expected_samples": self.expected_samples,
            "completions": self.completions,
            "deadline_hits": self.deadline_hits,
            "phases": self.phases,
            "queue_depth_p99": self.queue_depth_p99,
            "shed_total": self.shed_total,
            "sheds": self.sheds,
            "queue_drops": self.queue_drops,
            "overload_onset_slot": self.overload_onset_slot,
            "samples": self.samples,
            "meta": self.meta,
        }


def _series_percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank-with-interpolation percentile over a raw series."""
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _counter_values(
    records: list[dict[str, Any]], name: str
) -> dict[tuple[tuple[str, str], ...], float]:
    out: dict[tuple[tuple[str, str], ...], float] = {}
    for record in records:
        if record.get("type") in ("counter", "gauge") and record.get("name") == name:
            key = tuple(sorted(record.get("labels", {}).items()))
            out[key] = float(record.get("value", 0.0))
    return out


def analyze(
    records: list[dict[str, Any]], thresholds: SloThresholds | None = None
) -> HealthReport:
    """Analyze exported series records against the SLO thresholds."""
    thresholds = thresholds if thresholds is not None else SloThresholds()
    meta = next(
        (r for r in records if r.get("type") == "meta"), {}
    )
    sample_rows = [r for r in records if r.get("type") == "sample"]
    report = HealthReport(verdict="pass", samples=len(sample_rows), meta=dict(meta))
    report.meta.pop("type", None)

    # --- deadline-hit rate (exact counters, not histogram estimates) --
    completions = _counter_values(records, "phase_completions_total")
    hits = _counter_values(records, "phase_deadline_hits_total")
    sampling_key = (("phase", "sampling"),)
    report.completions = int(completions.get(sampling_key, 0.0))
    report.deadline_hits = int(hits.get(sampling_key, 0.0))
    expected = int(meta.get("expected_samples", 0) or 0)
    if expected <= 0:
        expected = report.completions
    report.expected_samples = expected
    if expected > 0:
        report.deadline_hit_rate = report.deadline_hits / expected

    # --- per-phase latency percentiles from the histograms ------------
    for record in records:
        if (
            record.get("type") == "histogram"
            and record.get("name") == "phase_latency_seconds"
        ):
            phase = record.get("labels", {}).get("phase", "?")
            hist = Histogram.from_parts(
                record["bounds"], record["counts"], record.get("sum", 0.0)
            )
            entry: dict[str, float] = {"count": float(hist.count)}
            p50 = hist.quantile(0.5)
            p99 = hist.quantile(0.99)
            if p50 is not None:
                entry["p50"] = p50
            if p99 is not None:
                entry["p99"] = p99
            report.phases[phase] = entry

    # --- queue depth p99 over the sampled series ----------------------
    depth_series = [
        float(row["values"]["inbox_depth_max"])
        for row in sample_rows
        if "inbox_depth_max" in row.get("values", {})
    ]
    report.queue_depth_p99 = _series_percentile(depth_series, 0.99)

    # --- shed accounting and overload onset ---------------------------
    for key, value in _counter_values(records, "shed_total").items():
        label = dict(key).get("kind", "?")
        report.sheds[label] = value
    for key, value in _counter_values(records, "queue_drops_total").items():
        label = dict(key).get("reason", "?")
        report.queue_drops[label] = value
    report.shed_total = sum(report.sheds.values())
    slot_duration = float(meta.get("slot_duration") or SLOT_SECONDS)
    for row in sample_rows:
        values = row.get("values", {})
        overload = sum(
            v
            for k, v in values.items()
            if k.startswith("shed_total")
            or k.startswith("queue_drops_total")
            or k == "inbox_overflows"
        )
        if overload > 0:
            report.overload_onset_slot = int(row["t"] // slot_duration)
            break

    # --- verdict ------------------------------------------------------
    if not sample_rows:
        report.reasons.append("no telemetry samples recorded")
    if report.deadline_hit_rate is None:
        report.reasons.append("no sampling completions recorded")
    elif report.deadline_hit_rate < thresholds.min_deadline_hit_rate:
        report.reasons.append(
            f"sampling deadline-hit rate {report.deadline_hit_rate:.3f} below "
            f"the {thresholds.min_deadline_hit_rate:.3f} floor"
        )
    if (
        thresholds.max_queue_depth_p99 is not None
        and report.queue_depth_p99 is not None
        and report.queue_depth_p99 > thresholds.max_queue_depth_p99
    ):
        report.reasons.append(
            f"queue-depth p99 {report.queue_depth_p99:.0f} above the "
            f"{thresholds.max_queue_depth_p99:.0f} ceiling"
        )
    if (
        thresholds.max_shed_total is not None
        and report.shed_total > thresholds.max_shed_total
    ):
        report.reasons.append(
            f"total shed {report.shed_total:.0f} above the "
            f"{thresholds.max_shed_total:.0f} ceiling"
        )
    if report.reasons:
        report.verdict = "fail"
    return report


def analyze_file(
    path: str | Path, thresholds: SloThresholds | None = None
) -> HealthReport:
    return analyze(read_jsonl(path), thresholds)


def format_report(report: HealthReport) -> list[str]:
    """Human-readable report lines for the CLI."""
    lines = [f"verdict: {report.verdict.upper()}"]
    for reason in report.reasons:
        lines.append(f"  !! {reason}")
    if report.deadline_hit_rate is not None:
        lines.append(
            f"  deadline-hit rate  {report.deadline_hit_rate:.3f} "
            f"({report.deadline_hits}/{report.expected_samples})"
        )
    for phase in sorted(report.phases):
        entry = report.phases[phase]
        p50 = entry.get("p50")
        p99 = entry.get("p99")
        if p50 is not None and p99 is not None:
            lines.append(
                f"  {phase:<14}     p50 {p50 * 1e3:.0f} ms, p99 {p99 * 1e3:.0f} ms "
                f"(n={int(entry['count'])})"
            )
    if report.queue_depth_p99 is not None:
        lines.append(f"  queue-depth p99    {report.queue_depth_p99:.0f}")
    if report.sheds:
        shed = ", ".join(f"{k}={v:.0f}" for k, v in sorted(report.sheds.items()))
        lines.append(f"  shed               {shed}")
    if report.queue_drops:
        drops = ", ".join(
            f"{k}={v:.0f}" for k, v in sorted(report.queue_drops.items())
        )
        lines.append(f"  queue drops        {drops}")
    if report.overload_onset_slot is not None:
        lines.append(f"  overload onset     slot {report.overload_onset_slot}")
    lines.append(f"  samples            {report.samples} rows")
    return lines
