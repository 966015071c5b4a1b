"""Discrete-event simulation engine.

The engine is the base substrate for every experiment in this
reproduction: it provides a virtual clock (in seconds, float), an
event queue and cancellable timers. Protocol logic is written as plain
callbacks, mirroring the one-way, connectionless (UDP) style of
PANDAS: nothing blocks, everything is timer- or message-driven.

Determinism: two runs with the same seeds execute events in the same
order. Pending events live in one binary heap of ``(time, seq, event)``
entries; ties on the timestamp are broken by a monotonically
increasing sequence number assigned at scheduling time, so the pop
order is the total order on ``(time, seq)``.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Protocol

__all__ = [
    "collector_paused",
    "Event",
    "SimProfiler",
    "Simulator",
    "SimulationError",
]

# A queue entry is (time, seq, event); comparisons never reach the
# Event because seq is unique.
_Entry = tuple[float, int, "Event"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off while a run executes.

    A run creates no reference cycles (DESIGN.md, "Memory and the
    collector"): per-slot state is freed by reference counting at
    ``drop_slot``, so every collection inside a run walks a heap of
    ~10^5 live containers per node to find nothing. The drivers that
    own a run end to end enter this around the whole of it, slot
    set-up and retirement included.

    The collector's prior state is restored on exit, also when the run
    raises: nested use is fine, and a caller who had already disabled
    the collector finds it still disabled. Nothing is collected on
    exit — the scenario's own cyclic object graph is reclaimed by the
    restored collector once the caller drops it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SimProfiler(Protocol):
    """What :meth:`Simulator.set_profiler` accepts.

    ``run`` must invoke ``callback(*args)`` exactly once. The
    benchmark's ``EventSpans`` (``benchmarks/perf/harness/spans.py``)
    is the implementation the per-layer ledger uses; it names sites
    with :func:`repro.obs.profiler.callback_site`.
    """

    def run(self, callback: Callable[..., object], *args: object) -> None: ...


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A scheduled callback.

    Events order by ``(time, seq)`` so the queue is deterministic.
    ``cancelled`` events stay queued but are skipped when popped (lazy
    deletion), which keeps cancellation O(1). ``args`` are passed to
    the callback when it fires — hot paths schedule bound methods with
    arguments instead of allocating a fresh closure per event.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., object],
        args: tuple[object, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call repeatedly."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __lt__(self, other: Event) -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}{state})"


class Simulator:
    """A minimal, fast discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.call_after(0.4, lambda: print(sim.now))
        sim.run()

    The clock unit is the second; all PANDAS timings in the paper
    (400 ms rounds, 4 s deadline, 12 s slots) map naturally.
    """

    def __init__(self) -> None:
        self._queue: list[_Entry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        # opt-in profiling hook (SimProfiler): when set, every
        # executed callback is routed through profiler.run(callback).
        # Wall-clock only — simulated time and event order are untouched.
        self._profiler: SimProfiler | None = None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for instrumentation)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled)."""
        return len(self._queue)

    def iter_pending(self) -> Iterator[Event]:
        """Iterate over queued events (including cancelled ones).

        Order is unspecified — this is an inspection hook for
        invariant checkers, not an execution preview.
        """
        return (entry[2] for entry in self._queue)

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> SimProfiler | None:
        return self._profiler

    def set_profiler(self, profiler: SimProfiler | None) -> None:
        """Attach (or detach, with None) a :class:`SimProfiler`."""
        self._profiler = profiler

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(
        self, when: float, callback: Callable[..., object], *args: object
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``.

        Scheduling in the past raises ``SimulationError``: silent
        time-travel is a classic source of non-reproducible runs.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when:.6f}, now is {self._now:.6f}"
            )
        seq = next(self._seq)
        event = Event(when, seq, callback, args)
        heapq.heappush(self._queue, (when, seq, event))
        return event

    def call_after(
        self, delay: float, callback: Callable[..., object], *args: object
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next active event. Returns False when idle."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            event = entry[2]
            if event.cancelled:
                continue
            self._now = entry[0]
            self._events_processed += 1
            if self._profiler is None:
                event.callback(*event.args)
            else:
                self._profiler.run(event.callback, *event.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` on return even if the queue drained earlier, so that
        code reading ``sim.now`` observes the full window.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                entry = heappop(queue)
                event = entry[2]
                # Single cancelled-discard path: a popped cancelled
                # event is dropped no matter where the run stops, so
                # the until/max_events boundaries never resurrect it.
                if event.cancelled:
                    continue
                if (until is not None and entry[0] > until) or (
                    max_events is not None and executed >= max_events
                ):
                    # Re-queue under the same (time, seq): order of the
                    # remaining events is untouched.
                    heapq.heappush(queue, entry)
                    break
                self._now = entry[0]
                self._events_processed += 1
                executed += 1
                if self._profiler is None:
                    event.callback(*event.args)
                else:
                    self._profiler.run(event.callback, *event.args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        The tie-break sequence counter restarts too, so a reset
        simulator schedules events with the same ``(time, seq)`` keys
        — and therefore the same execution order — as a fresh one.
        """
        self._queue.clear()
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
