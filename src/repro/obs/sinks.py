"""Trace sinks: in-memory, JSONL files, Chrome ``trace_event`` JSON.

:func:`read_jsonl` reads back any JSONL file the repo writes: a trace
from :class:`JsonlSink` or a telemetry series.

Sinks receive every accepted event as it is emitted (streaming), so a
file trace is complete even when the recorder's ring buffer has
evicted the beginning of the run. All sinks are deterministic byte
producers: two behaviorally identical runs write identical files,
which is what lets the test suite diff whole traces.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any

from repro.obs.events import QUERY_TERMINAL_KINDS, TraceEvent

__all__ = ["MemorySink", "JsonlSink", "ChromeTraceSink", "read_jsonl"]


class MemorySink:
    """Keeps every accepted event (unbounded — for tests and reports)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        """Nothing to release."""


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
        self.lines_written = 0
        self._closed = False

    def handle(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._file.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns:
            self._file.close()


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL file back into one dict per non-blank line."""
    with open(str(path), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class ChromeTraceSink:
    """Chrome ``trace_event`` JSON for chrome://tracing / Perfetto.

    Mapping: ``pid`` is the slot (&ge;0, else 0), ``tid`` the node, and
    ``ts`` the simulated time in microseconds. Query-lifecycle events
    become async ``"b"``/``"e"`` pairs keyed by the request id, so each
    outstanding query renders as a span on its node's track; everything
    else is an instant event (``"i"``, thread-scoped).
    """

    def __init__(self, target: str | IO[str]) -> None:
        self._target = target
        self._events: list[dict[str, Any]] = []
        self._closed = False

    def handle(self, event: TraceEvent) -> None:
        record: dict[str, Any] = {
            "name": event.kind,
            "ts": round(event.t * 1e6, 3),
            "pid": event.slot if event.slot >= 0 else 0,
            "tid": event.node if event.node >= 0 else 0,
            "args": dict(event.data),
        }
        req: int | None = event.data.get("req")
        if event.kind == "query_issue" and req is not None:
            record.update(name="query", cat="query", ph="b", id=f"0x{req:x}")
        elif event.kind in QUERY_TERMINAL_KINDS and req is not None:
            record.update(name="query", cat="query", ph="e", id=f"0x{req:x}")
        else:
            record.update(cat=event.kind.split("_", 1)[0], ph="i", s="t")
        self._events.append(record)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        document = {"traceEvents": self._events, "displayTimeUnit": "ms"}
        if isinstance(self._target, str):
            with open(self._target, "w", encoding="utf-8") as fh:
                json.dump(document, fh, separators=(",", ":"))
        else:
            json.dump(document, self._target, separators=(",", ":"))
            self._target.flush()
