"""Callback-site names for host-time profiling of simulator runs.

Every piece of protocol logic in this repository runs as a simulator
callback, so naming each *callback site* (``module:qualname`` of the
scheduled function) maps a run's host time onto code: transport
delivery, verify dispatch, fetcher rounds, gossip heartbeats — each
shows up as its own site.

The host-time profiler itself is whatever ``SimProfiler`` is attached
with ``Simulator.set_profiler`` (or ``ScenarioConfig.profiler``); the
benchmark's per-layer ledger (``benchmarks/perf``) is the one that
claims are judged by. The hook is behavior-neutral: it wraps each
callback without touching simulated time, RNG streams or event
order, so a profiled run is bit-identical to an unprofiled one.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Any

__all__ = ["callback_site"]


def callback_site(callback: Callable[..., Any]) -> str:
    """``module:qualname`` of the function behind a callback.

    Unwraps ``functools.partial`` chains and bound methods so that the
    site names the code that runs, not the wrapper. Non-function
    callables fall back to their type.
    """
    target: Any = callback
    while isinstance(target, functools.partial):
        target = target.func
    target = getattr(target, "__func__", target)
    module = getattr(target, "__module__", None)
    qualname = getattr(target, "__qualname__", None)
    if module is None or qualname is None:
        cls = type(target)
        return f"{cls.__module__}:{cls.__qualname__}"
    return f"{module}:{qualname}"
