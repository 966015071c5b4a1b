"""Telemetry export: JSONL time series + Prometheus text exposition.

One run produces one JSONL series file with typed records, written in
a deterministic order (meta header, then sample rows in time order,
then the final counter/gauge/histogram state sorted by name and label
key). ``repro health`` consumes exactly this file; tests byte-compare
it across runs.

The Prometheus text format is for humans and off-the-shelf tooling
(promtool, Grafana's explore view): the same final state rendered in
the standard exposition syntax, with cumulative ``_bucket`` rows, a
``+Inf`` bucket, ``_sum``/``_count``, and sorted families — pinned by
a golden-file test so the byte layout never drifts silently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.telemetry import FAMILIES, Histogram, Telemetry

__all__ = [
    "SERIES_SCHEMA",
    "prometheus_text",
    "series_records",
    "write_prometheus",
    "write_series_jsonl",
]

SERIES_SCHEMA = 1


def series_records(telemetry: Telemetry) -> list[dict[str, Any]]:
    """The run's full series as a list of typed, JSON-ready records."""
    meta: dict[str, Any] = {
        "type": "meta",
        "schema": SERIES_SCHEMA,
        "cadence": telemetry.cadence,
        "ticks": telemetry.ticks,
    }
    meta.update(telemetry.meta)
    records: list[dict[str, Any]] = [meta]
    for row in telemetry.samples:
        values = {k: v for k, v in row.items() if k != "t"}
        records.append({"type": "sample", "t": row["t"], "values": values})
    for name in sorted(FAMILIES):
        kind, _help, label = FAMILIES[name]
        for key, value in telemetry.children(name):
            record: dict[str, Any] = {
                "type": kind,
                "name": name,
                "labels": {} if label is None else {label: key},
            }
            if kind == "histogram":
                record.update(value.to_dict())
            else:
                record["value"] = value
            records.append(record)
    return records


def write_series_jsonl(telemetry: Telemetry, path: str | Path) -> int:
    """Write the series file; returns the number of records written."""
    records = series_records(telemetry)
    with open(str(path), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=float) + "\n")
    return len(records)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    """Canonical number formatting: integers bare, floats via repr."""
    as_int = int(value)
    if value == as_int and abs(value) < 1e15:
        return str(as_int)
    return repr(value)


def _label_str(label: str | None, key: str | None, extra: str = "") -> str:
    parts = [] if label is None else [f'{label}="{key}"']
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _histogram_lines(
    full: str, label: str | None, key: str | None, hist: Histogram
) -> list[str]:
    lines: list[str] = []
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.counts, strict=False):
        cumulative += count
        labels = _label_str(label, key, f'le="{_fmt(bound)}"')
        lines.append(f"{full}_bucket{labels} {cumulative}")
    labels = _label_str(label, key, 'le="+Inf"')
    lines.append(f"{full}_bucket{labels} {hist.count}")
    base = _label_str(label, key)
    lines.append(f"{full}_sum{base} {_fmt(hist.sum)}")
    lines.append(f"{full}_count{base} {hist.count}")
    return lines


def prometheus_text(telemetry: Telemetry, prefix: str = "repro_") -> str:
    """Final series state in the Prometheus text exposition format.

    Families with no recorded children are omitted; everything else is
    emitted sorted by family name and label key, so two identical runs
    produce byte-identical expositions.
    """
    lines: list[str] = []
    for name in sorted(FAMILIES):
        children = telemetry.children(name)
        if not children:
            continue
        kind, help_text, label = FAMILIES[name]
        full = prefix + name
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        for key, value in children:
            if kind == "histogram":
                lines.extend(_histogram_lines(full, label, key, value))
            else:
                lines.append(f"{full}{_label_str(label, key)} {_fmt(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    telemetry: Telemetry, path: str | Path, prefix: str = "repro_"
) -> None:
    Path(path).write_text(prometheus_text(telemetry, prefix=prefix), encoding="utf-8")
