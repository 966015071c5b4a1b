"""Nested spans recorded around calls into the program.

A span is (name, start, end, parent). Spans are aggregated in memory
as they close — per name (calls, total, self) and per caller->callee
edge — and raw spans are kept only for a counter-based sample of
simulator events, to be written out after the run ends.

A span's *self* time is its duration minus the durations of the spans
opened directly inside it, so self times over all names partition the
time covered by top-level spans exactly.

The recorder's own bookkeeping between a child's ``end`` stamp and the
parent's next instruction is charged to the parent's self time; the
traced-to-untraced CPU ratio the runner reports bounds that error.
Millions of spans are opened per run, so the wrapper closure binds its
aggregate once and keeps no per-span object (~0.7 us per span).
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable
from typing import Any

__all__ = ["EventSpans", "SpanRecorder", "SpanStats"]

# Recorder state every wrapper closure shares. One list, because a
# constant-index load or store on a list is the cheapest mutable state
# a closure can reach, and a span only needs to save and restore the
# first three slots around its callee (no per-span allocation).
_CHILDREN = 0  # seconds spent in spans directly inside the open one
_CURRENT = 1  # name of the open span, None outside any
_CURRENT_ID = 2  # its id within a sampled trace
_TRACE = 3  # id of the sampled trace being kept, 0 for none
_NEXT_ID = 4


class SpanStats:
    """Aggregate of every closed span of one name."""

    __slots__ = ("calls", "total_s", "self_s", "parents")

    def __init__(self) -> None:
        # name of the enclosing span -> [calls, seconds]
        self.parents: dict[str | None, list[float]] = {}
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.parents.clear()


class SpanRecorder:
    """Span aggregates. Single-threaded, like the simulator."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # raw spans of sampled traces: (trace, span, parent, name, start, end)
        self.sampled: list[tuple[int, int, int, str, float, float]] = []
        self._state: list[Any] = [0.0, None, 0, 0, 0]

    def stats_for(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not measured).

        Aggregates are zeroed in place: wrappers hold on to theirs.
        """
        if self._state[_CURRENT] is not None:
            raise RuntimeError("reset inside an open span")
        for stats in self.stats.values():
            stats.clear()
        self.sampled.clear()
        self._state[_CHILDREN] = 0.0

    @property
    def edges(self) -> dict[tuple[str, str], list[float]]:
        """(parent name, child name) -> [calls, seconds]."""
        return {
            (parent, child): edge
            for child, stats in self.stats.items()
            for parent, edge in stats.parents.items()
            if parent is not None
        }

    def keep_trace(self, trace_id: int) -> None:
        """Keep the raw spans opened from now on under ``trace_id``
        (0 stops keeping them)."""
        self._state[_TRACE] = trace_id

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        tally: Callable[[tuple[Any, ...], Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span called ``name``.

        ``tally(args, result)`` runs after the span closed, so counting
        work at the boundary is not charged to the callee.
        """
        state = self._state
        stats = self.stats_for(name)
        parents = stats.parents
        clock = self.clock
        sampled = self.sampled

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            outer_children = state[0]
            parent = state[1]
            state[0] = 0.0
            state[1] = name
            if state[3]:
                parent_id = state[2]
                state[4] = state[2] = span_id = state[4] + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - state[0]
                state[0] = outer_children + duration
                state[1] = parent
                edge = parents.get(parent)
                if edge is None:
                    parents[parent] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration
                if state[3]:
                    state[2] = parent_id
                    sampled.append((state[3], span_id, parent_id, name, start, end))
            if tally is not None:
                tally(args, result)
            return result

        span._perf_span = name  # type: ignore[attr-defined]
        return span

    def add_leaf(self, name: str, start: float, end: float) -> None:
        """Account a childless span the caller timed itself, inside
        whatever span is open (outside any it is not recorded) — for
        work that arrives as separate start/stop notifications
        (garbage-collector pauses)."""
        state = self._state
        if state[_CURRENT] is None:
            return
        duration = end - start
        stats = self.stats_for(name)
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration
        state[_CHILDREN] += duration
        edge = stats.parents.setdefault(state[_CURRENT], [0, 0.0])
        edge[0] += 1
        edge[1] += duration
        if state[_TRACE]:
            state[_NEXT_ID] += 1
            self.sampled.append(
                (state[_TRACE], state[_NEXT_ID], state[_CURRENT_ID], name, start, end)
            )

    # ------------------------------------------------------------------
    def covered_s(self) -> float:
        """Seconds inside any span (= sum of self times)."""
        return sum(stats.self_s for stats in self.stats.values())

    def write_sampled(self, path: str, header: dict[str, Any]) -> None:
        """One JSON object per line: the header, then one per raw span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for trace, span, parent, name, start, end in self.sampled:
                out.write(
                    json.dumps(
                        {
                            "trace": trace,
                            "span": span,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _invoke(callback: Callable[..., Any], *args: Any) -> None:
    callback(*args)


class EventSpans:
    """A ``SimProfiler``: one root span per executed simulator event.

    The span is named by the event's callback site
    (``module:qualname``, what ``repro profile`` reports); which layer
    a site belongs to is decided when metrics are derived, not here.
    Every ``sample_every``-th event, counted from the first, opens a
    sampled trace whose raw spans are kept.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        site_of: Callable[[Callable[..., Any]], str],
        sample_every: int = 64,
    ) -> None:
        self.recorder = recorder
        self.site_of = site_of
        self.sample_every = sample_every
        self.events = 0
        self._spans: dict[Any, Callable[..., None]] = {}

    def run(self, callback: Callable[..., Any], *args: Any) -> None:
        target: Any = callback
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        # every SpanRecorder.wrap closure shares one code object
        target = getattr(target, "__wrapped__", target)
        key = getattr(target, "__code__", None) or type(target)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = self.recorder.wrap(self.site_of(callback), _invoke)
        sampled = self.events % self.sample_every == 0
        self.events += 1
        if not sampled:
            span(callback, *args)
            return
        self.recorder.keep_trace(self.events)
        try:
            span(callback, *args)
        finally:
            self.recorder.keep_trace(0)
