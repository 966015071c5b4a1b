"""Observability: structured event tracing, timelines and profiling.

The paper's evaluation is built from aggregate distributions, which is
what :mod:`repro.sim.metrics` captures. Debugging *why* one node
missed the 4 s sampling deadline needs the sequence instead: which
queries went out in which Algorithm-1 round, which timed out, which
peer was quarantined, which cell arrived via reconstruction. This
package provides that layer:

- :mod:`repro.obs.events` — ``TraceRecorder``, a zero-RNG structured
  event log kept in memory or streamed to a file, and ``KINDS``, the
  catalog of every event the run's bus (:mod:`repro.sim.bus`) carries;
- :mod:`repro.obs.sinks` — ``JsonlSink``, the trace file writer;
  ``read_jsonl``, the one reader for traces and telemetry series; and
  ``chrome_trace``, the converter to Chrome ``trace_event`` JSON for
  about://tracing timelines;
- :mod:`repro.obs.timeline` — the query lifecycle check and the
  slowest-node "why did sampling take X ms" causal report behind
  ``repro trace``;
- :mod:`repro.obs.profiler` — ``callback_site``, the ``module:qualname``
  name of a simulator callback, for profilers attached with
  ``Simulator.set_profiler``;
- :mod:`repro.obs.telemetry` — the run-health series: one fixed
  family table (counters, gauges, deterministic histograms; faults,
  defenses, sheds and queue drops read from the recorder) with its
  sim-time cadence sampler;
- :mod:`repro.obs.export` — JSONL time series and Prometheus text
  exposition of a run's telemetry;
- :mod:`repro.obs.health` — the post-run SLO analyzer behind
  ``repro health``;
- :mod:`repro.obs.progress` — the wall-clock heartbeat progress line
  for long runs (the one RL002-allowlisted module).

Tracer and telemetry subscribe to the run's event bus after the
metrics recorder and the invariant checker, and are strictly
behavior-neutral: recorders never consume protocol RNG streams, and telemetry's sampler events are
read-only, so ``MetricsRecorder.fingerprint()`` is bit-identical with
observation on or off (enforced by tests/test_obs_trace.py and
tests/test_obs_telemetry.py).
"""

from repro.obs.events import KINDS, QUERY_TERMINAL_KINDS, TraceEvent, TraceRecorder
from repro.obs.health import HealthReport, SloThresholds
from repro.obs.progress import Heartbeat
from repro.obs.sinks import JsonlSink
from repro.obs.telemetry import Histogram, Telemetry

__all__ = [
    "KINDS",
    "QUERY_TERMINAL_KINDS",
    "TraceEvent",
    "TraceRecorder",
    "JsonlSink",
    "Telemetry",
    "Histogram",
    "Heartbeat",
    "HealthReport",
    "SloThresholds",
]
