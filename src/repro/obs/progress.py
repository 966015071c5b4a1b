"""Wall-clock heartbeat: live progress for long runs.

A 20k-node slot executes millions of events over many minutes with no
output at all. The heartbeat fixes that: the telemetry sampler calls
:meth:`Heartbeat.maybe_beat` on every sim-time tick, and the heartbeat
decides — on the *wall* clock — whether enough real time has passed to
print one progress line (simulated time, events/sec, ETA).

This is the product's only wall-clock consumer, kept in its own
module so the RL002 allowlist can cover exactly this file: wall-clock
readings gate printing and feed the printed rates, and never reach
simulated state.
The sim-time cadence of the *calls* comes from the deterministic
sampler; two runs differ only in what lands on stderr.
"""

from __future__ import annotations

import sys
import time
from typing import IO

__all__ = ["Heartbeat"]


class Heartbeat:
    """Rate-limited progress line writer (default: stderr).

    ``interval_s`` is wall-clock seconds between lines; ``0`` prints on
    every tick after the first (tests). The first call only arms the
    baseline — rates need a delta.
    """

    def __init__(self, interval_s: float = 10.0, stream: IO[str] | None = None) -> None:
        if interval_s < 0.0:
            raise ValueError(f"interval_s must be >= 0, got {interval_s!r}")
        self.interval_s = interval_s
        self._stream: IO[str] = stream if stream is not None else sys.stderr
        self._started_wall: float | None = None
        self._last_wall: float | None = None
        self._last_events = 0
        self._last_sim = 0.0
        self.beats = 0

    def maybe_beat(
        self,
        sim_now: float,
        events_processed: int,
        expected_end: float | None = None,
    ) -> None:
        """Print a progress line if ``interval_s`` wall seconds passed."""
        now = time.perf_counter()
        if self._last_wall is None:
            self._started_wall = now
            self._last_wall = now
            self._last_events = events_processed
            self._last_sim = sim_now
            return
        wall_dt = now - self._last_wall
        if wall_dt < self.interval_s:
            return
        event_rate = (
            (events_processed - self._last_events) / wall_dt if wall_dt > 0 else 0.0
        )
        sim_rate = (sim_now - self._last_sim) / wall_dt if wall_dt > 0 else 0.0
        parts = [
            f"sim t={sim_now:.2f}s",
            f"events={events_processed}",
            f"{event_rate:,.0f} ev/s",
        ]
        if expected_end is not None and sim_rate > 0.0:
            eta = (expected_end - sim_now) / sim_rate
            if eta >= 0.0:
                parts.append(f"ETA {eta:.0f}s")
        started = self._started_wall if self._started_wall is not None else now
        self._stream.write(f"[heartbeat +{now - started:.0f}s] " + "  ".join(parts) + "\n")
        flush = getattr(self._stream, "flush", None)
        if flush is not None:
            flush()
        self._last_wall = now
        self._last_events = events_processed
        self._last_sim = sim_now
        self.beats += 1
