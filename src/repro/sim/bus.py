"""The event bus: one emission path for protocol events.

Protocol code publishes each event once, ``ProtocolContext.emit(kind,
slot=..., node=..., **data)``. The bus stamps the simulated time and
hands it to a fixed, ordered list of subscribers — the metrics
recorder, then the invariant checker, telemetry and the tracer when a
run has them — each through one method with ``TraceRecorder.emit``'s
signature. A subscriber's ``kinds`` names what it consumes (``None``:
everything). Two things are decided here once, not per subscriber:

- a phase completes once per (slot, node): repeats of a (phase, slot,
  node) — a restarted node re-completing a phase — are dropped;
- :meth:`EventBus.wants` lets a hot call site skip building an event
  that no subscriber consumes.

Datagram accounting stays on the ``Network`` observer lists (DESIGN.md
§4).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from typing import Any

from repro.sim.engine import Simulator

__all__ = ["EventBus"]


class EventBus:
    """Fan-out of protocol events to subscribers, in subscription order."""

    __slots__ = ("_sim", "_subscribers", "_routes", "_completed", "_request_ids")

    def __init__(self, sim: Simulator, subscribers: Iterable[Any] = ()) -> None:
        self._sim = sim
        self._subscribers: list[Any] = list(subscribers)
        # kind -> emit methods of the subscribers consuming it
        self._routes: dict[str, tuple[Callable[..., object], ...]] = {}
        self._completed: set[tuple[str, int, int]] = set()
        self._request_ids = itertools.count(1)

    def subscribe(self, *subscribers: Any) -> None:
        """Append subscribers; they receive events after the existing ones."""
        self._subscribers.extend(subscribers)
        self._routes.clear()

    def _route(self, kind: str) -> tuple[Callable[..., object], ...]:
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = tuple(
                sub.emit for sub in self._subscribers if sub.kinds is None or kind in sub.kinds
            )
        return route

    def wants(self, kind: str) -> bool:
        """True when some subscriber consumes ``kind``."""
        route = self._routes.get(kind)
        return bool(self._route(kind) if route is None else route)

    def emit(self, kind: str, *, slot: int = -1, node: int = -1, **data: Any) -> None:
        """Deliver one event, stamped with the current simulated time."""
        route = self._routes.get(kind)
        if route is None:
            route = self._route(kind)
        if not route:
            return
        if kind == "phase":
            key = (data["phase"], slot, node)
            if key in self._completed:
                return
            self._completed.add(key)
        t = self._sim.now
        for handler in route:
            handler(kind, t=t, slot=slot, node=node, **data)

    def next_request_id(self) -> int:
        """Run-wide monotonic id for the query lifecycle (no RNG)."""
        return next(self._request_ids)
