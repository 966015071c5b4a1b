"""Structured trace events and the ring-buffered recorder.

A trace is an append-only sequence of :class:`TraceEvent` records —
``(t, slot, node, kind, data)``. The recorder is the last subscriber of
the run's event bus (:mod:`repro.sim.bus`), so it sees every protocol
event the node, fetcher, builder, baselines, fault injector,
adversaries and pipeline publish, plus the datagram flow the scenario
bridges from the transport. It is pure observation: it never consumes
an RNG stream, never schedules a simulator event and never mutates
protocol state, which is what makes tracing behavior-neutral (the
fingerprint-equality guarantee).

Volume control is two-layered so tracing a 1,000-node run stays
bounded:

- **per-kind filtering**, fixed at construction: the bus routes only
  the ``kinds`` the recorder accepts, and hot call sites ask the bus
  first, so disabled kinds cost no argument marshalling;
- a **ring buffer** (``capacity`` events) for the in-memory tail;
  streaming sinks (JSONL, Chrome) still see every accepted event, so a
  file trace is complete even when the ring has evicted the start.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping
from typing import Any

__all__ = [
    "FETCH_DONE_REASONS",
    "KINDS",
    "QUERY_TERMINAL_KINDS",
    "RESERVED_FIELDS",
    "TraceEvent",
    "TraceRecorder",
]


# The documented catalog of every kind the event bus carries
# (EXPERIMENTS.md "Observability"; reprolint RL004 checks emitters
# against it). The recorder accepts unknown kinds — the catalog is a
# contract for consumers (timeline, tests), not a straitjacket.
KINDS: Mapping[str, str] = {
    # transport (bridged from the Network observer lists by the scenario)
    "net_send": "datagram left a sender's NIC (src=node, dst, size, payload)",
    "net_deliver": "datagram handed to the receiver, verified (node=dst, src, size, payload); "
    "it arrived at t - cells x cell_verify_seconds (PANDAS node) or at t (other receivers)",
    "net_drop": "datagram lost (reason: loss|dead|dead_late|fault)",
    # fault injection (repro.faults.injector) and adversaries
    "fault": "injected fault realized (fault kind, victim where known)",
    "adversary": "a Byzantine node misbehaved (fault: byz_* action, amount)",
    # builder (repro.core.builder)
    "seed_slot": "builder finished pushing one slot's seed burst (messages, bytes)",
    # node (repro.core.node); phase also from the baselines and block gossip
    "seed_recv": "first seed parcel with cells arrived at a node",
    "cells_ingest": "cells stored (source: seed|response; new, reconstructed)",
    "phase": "first completion of a phase (phase: seeding|consolidation|sampling|block; at)",
    "defense": "validation layer dropped/limited something (defense kind, amount)",
    # fetcher (repro.core.fetching) — the query lifecycle
    "fetch_start": "Algorithm 1 started for one (node, slot)",
    "fetch_round": "one fetching round planned (round, targets, queries, cells)",
    "query_issue": "QUERYCELLS sent (req, peer, round, cells) — opens req",
    "query_response": "reply accounted (req, peer, new, late, usable) — closes req",
    "query_timeout": "round expired with no reply (req, peer, round) — closes req",
    "query_cancel": "fetcher ended first (req, peer, round) — closes req",
    "query_late_reply": "reply for an already-closed req (peer, new)",
    "query_recycle": "exhausted pool re-opened peers (pool, count)",
    "retry_backoff": "exhausted-pool retry wave backed off (round, wave, delay)",
    "fetch_done": "Algorithm 1 finished (success, reason: FETCH_DONE_REASONS)",
    "fetch_reply": "a queried peer's reply was accounted (round, latency since round start)",
    "round_stats": "one round's Table-1 totals, published when the slot is retired",
    # overload control (net.transport bounds, node admission, retrieval)
    "queue_overflow": "bounded transport inbox dropped a datagram (node, src, size)",
    "load_shed": "admission control shed work (node, shed, amount)",
    "queue_depth": "a bounded queue's depth observed (queue, depth)",
    # experiment layer
    "sweep_point": "sweep moved to the next configuration (label)",
    "pipeline_slot": "sustained pipeline finished one slot (slot, live, depth, shed)",
}

# A query opened by ``query_issue`` terminates in exactly one of these
# (the lifecycle-completeness invariant checked by the test suite).
QUERY_TERMINAL_KINDS = frozenset({"query_response", "query_timeout", "query_cancel"})

# A ``fetch_start`` is closed by exactly one ``fetch_done``, whose
# ``reason`` is one of these (invariant I6, repro.faults.invariants):
# complete (success), exhausted (out of rounds), starved (no custodian
# left to ask even after recycling), abandoned (the retry policy refused
# a wave: deadline or wave budget spent), stopped (crash or slot
# retirement ended it from outside).
FETCH_DONE_REASONS = ("complete", "exhausted", "starved", "abandoned", "stopped")

# Top-level field names of the serialized (flat) event; payload keys
# must not collide with them.
RESERVED_FIELDS = ("t", "slot", "node", "kind")


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``slot``/``node`` are ``-1`` when the event has no such context
    (e.g. a datagram without a slot-carrying payload).
    """

    t: float
    slot: int
    node: int
    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Flat dict form used by every serializing sink."""
        out: dict[str, Any] = {
            "t": self.t,
            "slot": self.slot,
            "node": self.node,
            "kind": self.kind,
        }
        out.update(self.data)
        return out


class TraceRecorder:
    """Ring-buffered, zero-RNG structured event log.

    ``capacity`` bounds the in-memory tail (``None`` = unbounded);
    ``kinds`` restricts recording to the given kind names (``None`` =
    everything); ``sinks`` receive every accepted event in emission
    order, before any eviction.
    """

    def __init__(
        self,
        capacity: int | None = 1 << 20,
        kinds: Iterable[str] | None = None,
        sinks: Iterable[Any] = (),
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        # the bus routes only these kinds here (None: every kind)
        self.kinds: frozenset[str] | None = frozenset(kinds) if kinds is not None else None
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._sinks: list[Any] = list(sinks)
        self.accepted = 0
        self.filtered = 0
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def enabled(self, kind: str) -> bool:
        """True when events of ``kind`` would be recorded."""
        return self.kinds is None or kind in self.kinds

    def emit(
        self, kind: str, *, t: float, slot: int = -1, node: int = -1, **data: Any
    ) -> TraceEvent | None:
        """Record one event; returns it, or None when filtered out."""
        if not self.enabled(kind):
            self.filtered += 1
            return None
        # payload keys cannot collide with RESERVED_FIELDS: those are
        # named parameters, so Python rejects duplicates at the call
        event = TraceEvent(t=t, slot=slot, node=node, kind=kind, data=data)
        self._buffer.append(event)
        self.accepted += 1
        self.counts[kind] += 1
        for sink in self._sinks:
            sink.handle(event)
        return event

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """The in-memory tail, oldest first."""
        return list(self._buffer)

    @property
    def evicted(self) -> int:
        """Accepted events no longer in the ring buffer."""
        return self.accepted - len(self._buffer)

    def close(self) -> None:
        """Flush and close every sink (idempotent per sink contract)."""
        for sink in self._sinks:
            sink.close()

    def kind_table(self) -> list[tuple[str, int]]:
        """(kind, count) rows, most frequent first, ties by name."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
