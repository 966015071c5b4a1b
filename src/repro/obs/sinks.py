"""The trace file: JSONL writing and reading, and the Chrome conversion.

:class:`JsonlSink` is the recorder's one sink; :func:`read_jsonl` reads
back any JSONL file the repo writes (a trace or a telemetry series),
and :func:`chrome_trace` converts a trace's flat records to a Chrome
``trace_event`` document. Both writers are deterministic byte
producers: two behaviorally identical runs write identical files,
which is what lets the test suite diff whole traces.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import IO, Any

from repro.obs.events import QUERY_TERMINAL_KINDS, RESERVED_FIELDS, TraceEvent

__all__ = ["JsonlSink", "chrome_trace", "read_jsonl"]


class JsonlSink:
    """One JSON object per line, flat schema (``t/slot/node/kind`` + payload)."""

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            # long-lived sink: the handle outlives this scope and is
            # released by close()
            self._file: IO[str] = open(target, "w", encoding="utf-8")  # noqa: SIM115
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self._closed = False

    def handle(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._file.write("\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns:
            self._file.close()


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL file back into one dict per non-blank line.

    A line that is not a JSON object raises ``ValueError`` naming its
    line number.
    """
    records: list[dict[str, Any]] = []
    with open(str(path), encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {number}: {exc.msg}") from None
            if not isinstance(record, dict):
                raise ValueError(f"line {number}: not a JSON object")
            records.append(record)
    return records


def chrome_trace(records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Chrome ``trace_event`` document (chrome://tracing, Perfetto).

    Mapping: ``pid`` is the slot (&ge;0, else 0), ``tid`` the node, and
    ``ts`` the simulated time in microseconds. Query-lifecycle events
    become async ``"b"``/``"e"`` pairs keyed by the request id, so each
    outstanding query renders as a span on its node's track; everything
    else is an instant event (``"i"``, thread-scoped).
    """
    events: list[dict[str, Any]] = []
    for record in records:
        kind = record["kind"]
        slot, node = record["slot"], record["node"]
        event: dict[str, Any] = {
            "name": kind,
            "ts": round(record["t"] * 1e6, 3),
            "pid": slot if slot >= 0 else 0,
            "tid": node if node >= 0 else 0,
            "args": {k: v for k, v in record.items() if k not in RESERVED_FIELDS},
        }
        req: int | None = record.get("req")
        if kind == "query_issue" and req is not None:
            event.update(name="query", cat="query", ph="b", id=f"0x{req:x}")
        elif kind in QUERY_TERMINAL_KINDS and req is not None:
            event.update(name="query", cat="query", ph="e", id=f"0x{req:x}")
        else:
            event.update(cat=kind.split("_", 1)[0], ph="i", s="t")
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
