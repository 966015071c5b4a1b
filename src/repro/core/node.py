"""The PANDAS node process (Sections 6.2-6.3).

A node custodies its assigned rows/columns, consolidates the cells it
was not directly seeded, samples 73 random cells, and serves incoming
queries. All behaviour is reactive:

- a **seed parcel** from the builder stores cells, hands the
  consolidation-boost maps it carries to the fetcher, and starts
  fetching (consolidation + sampling share one adaptive fetcher);
- a **cell request** is answered immediately with the requested cells
  already held; the remainder is buffered and answered in one deferred
  reply once all of it is available (no NACK; if the cells never
  arrive, the requester silently times out and retries elsewhere).
  A request for a slot whose seed has not arrived arms the 400 ms
  fallback timer, after which fetching starts without seed data;
- a **cell response** feeds the fetcher and may complete
  consolidation/sampling, which is recorded in the metrics relative
  to the slot start.

Because transport is one-way UDP with no authentication beyond the
proposer's seed signature, every inbound message crosses a validation
layer before touching protocol state (the Byzantine defenses of the
threat model):

- seed parcels must come from the slot's builder;
- requests and responses pass a per-peer token bucket;
- every ingested cell is verified against the slot's KZG commitment:
  the transport delivers a seed parcel or cell response, observers
  first, ``cell_verify_seconds`` per cell after its downlink end, and
  drops it if the node was down in between (:mod:`repro.net.transport`);
- a response for a slot without live state is stale or unsolicited;
  any other goes through the slot fetcher's acceptance chain
  (``AdaptiveFetcher.on_reply``): right peer, right cells, and cells
  that verify — corrupt cells are dropped, never stored;
- all of the above feeds a per-peer :class:`ReputationLedger`, held by
  every slot's fetcher, whose score steers Algorithm 1's peer scoring
  and quarantines the worst offenders for the rest of the epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from functools import partial

from repro.core.context import ProtocolContext
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher
from repro.core.messages import (
    PRIORITY_RETRIEVAL,
    CellRequest,
    CellResponse,
    SeedMessage,
)
from repro.core.reputation import ReputationLedger, TokenBucket
from repro.net.transport import Datagram
from repro.params import CONSOLIDATION_TIMER
from repro.sim.engine import Event

__all__ = ["PandasNode"]

# the fewest buckets a node's table holds before _admit sweeps it
_BUCKET_SWEEP_FLOOR = 16

# the RoundStats fields published per round when a slot is retired
_TABLE1_COLUMNS = (
    "messages_sent", "cells_requested", "replies_in_round", "replies_after_round",
    "cells_in_round", "cells_after_round", "duplicates", "reconstructed",
)


@dataclass(slots=True)
class _PendingRequest:
    """A buffered query remainder, answered once fully servable.

    ``priority`` is the request's traffic class; under a
    ``pending_request_limit`` retrieval-class records are shed first.
    ``shed``/``done`` records stay in the per-cell waiter lists (lazy
    removal — evicting them eagerly would cost O(cells) per shed) and
    are skipped when their cells arrive.
    """

    src: int
    cells: frozenset[int]
    missing: int
    priority: int = 0
    shed: bool = False
    done: bool = False


@dataclass(slots=True)
class _SlotState:
    """Everything a node keeps for one slot."""

    cells: SlotCellState
    fetcher: AdaptiveFetcher
    # the per-cell stored hook for this slot; attached to
    # SlotCellState.on_store only while waiting_by_cell is non-empty so
    # bulk ingest pays nothing when no query is buffered (the common case)
    store_sink: Callable[[int], None]
    # cell id -> buffered requests still waiting on it; each stored
    # cell resolves its waiters in O(waiters), never a full rescan
    waiting_by_cell: dict[int, list[_PendingRequest]] = field(default_factory=dict)
    # live (not done, not shed) buffered records — the I5-bounded depth
    pending_count: int = 0
    # live retrieval-class records in admission order; the eviction
    # queue when a sampling-class request needs room under the limit
    pending_retrieval: list[_PendingRequest] = field(default_factory=list)
    # fires at the sampling deadline: buffered request remainders for
    # this slot can no longer be answered usefully, so they are dropped
    # instead of accumulating for the rest of the run
    expiry_timer: Event | None = None
    seed_received: bool = False
    # lines whose seed datagram arrived (the builder sends one per
    # line); a set, so a duplicated datagram is not counted twice
    seed_lines_seen: set[int] = field(default_factory=set)
    fallback_timer: Event | None = None
    consolidation_marked: bool = False
    sampling_marked: bool = False



class PandasNode:
    """One full node participating in custody, consolidation, sampling."""

    def __init__(
        self,
        ctx: ProtocolContext,
        node_id: int,
        view: set[int] | None = None,
    ) -> None:
        self.ctx = ctx
        self.node_id = node_id
        self.view = view  # None means a complete, consistent view
        self._slots: dict[int, _SlotState] = {}
        # Byzantine defenses (module docstring): reputation, per-peer
        # inbound rate limiting, and slots already retired by drop_slot
        # (late replies for those are stale, not hostile).
        params = ctx.params
        self.reputation = ReputationLedger()
        self._buckets: dict[int, TokenBucket] = {}
        # _admit sweeps the table before it grows past this size
        self._bucket_sweep_at = _BUCKET_SWEEP_FLOOR
        # aggregate admission bucket over *all* inbound retrieval-class
        # requests (the load-shedding priority lane: sampling traffic
        # never passes through it)
        self._retrieval_bucket = TokenBucket(
            params.retrieval_admit_rate, params.retrieval_admit_burst
        )
        self._retired: set[int] = set()
        ctx.network.endpoint(node_id).verify_cost = self._verify_cost

    # ------------------------------------------------------------------
    # slot state
    # ------------------------------------------------------------------
    def _slot_state(self, slot: int) -> _SlotState:
        state = self._slots.get(slot)
        if state is None:
            state = self._create_slot_state(slot)
            self._slots[slot] = state
        return state

    def _create_slot_state(self, slot: int) -> _SlotState:
        ctx = self.ctx
        params = ctx.params
        epoch = ctx.epoch_of(slot)
        custody = ctx.assignment.custody(self.node_id, epoch)
        sample_rng = ctx.rngs.stream("samples", self.node_id, slot)
        samples = sample_rng.sample(range(params.total_cells), params.samples)
        # the stored-cell sink starts detached: it only matters while a
        # buffered query is waiting, and attaching it lazily keeps the
        # bulk ingest path free of per-cell callback overhead
        store_sink = partial(self._on_cell_stored, slot)
        cells = SlotCellState(params, custody, samples, on_store=None)

        index = ctx.index_for_epoch(epoch)
        view = self.view

        line_custodians: Callable[[int], list[int]] = index.custodians
        if view is not None:
            # the view-filtered custodian list of a line is static for
            # the whole epoch; memoize it instead of re-filtering on
            # every fetch round
            custodian_cache: dict[int, list[int]] = {}

            def view_custodians(line: int) -> list[int]:
                got = custodian_cache.get(line)
                if got is None:
                    got = custodian_cache[line] = index.custodians(line, view)
                return got

            line_custodians = view_custodians

        # epoch rollover: decay reputation counters, end quarantines
        self.reputation.observe_epoch(epoch)
        fetcher = AdaptiveFetcher(
            sim=ctx.sim,
            state=cells,
            line_custodians=line_custodians,
            send_query=partial(self._send_query, slot, epoch),
            rng=ctx.rngs.stream("fetch", self.node_id, slot),
            self_id=self.node_id,
            reputation=self.reputation,
            deadline_at=ctx.slot_start(slot) + params.deadline,
            events=ctx.events,
            slot=slot,
        )
        return _SlotState(cells=cells, fetcher=fetcher, store_sink=store_sink)

    # ------------------------------------------------------------------
    # protocol events (repro.sim.bus)
    # ------------------------------------------------------------------
    def _defense(self, kind: str, amount: float = 1.0, *, slot: int) -> None:
        """Publish one defense action."""
        self.ctx.emit("defense", slot=slot, node=self.node_id, defense=kind, amount=amount)

    def _shed(self, kind: str, amount: float = 1.0, slot: int = -1) -> None:
        """Publish one load-shedding action."""
        self.ctx.emit("load_shed", slot=slot, node=self.node_id, shed=kind, amount=amount)

    # ------------------------------------------------------------------
    # message dispatch (validation layer)
    # ------------------------------------------------------------------
    def on_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        ctx = self.ctx
        if isinstance(payload, SeedMessage):
            # the proposer's signature binds the builder identity
            # (Section 6.1): a seed parcel from anyone else is forged
            if ctx.builder_id is not None and dgram.src != ctx.builder_id:
                self.reputation.record_unsolicited(dgram.src)
                self._defense("seed_forged", slot=payload.slot)
                return
            self._on_seed(dgram.src, payload)
        elif isinstance(payload, CellRequest):
            if not self._admit(dgram.src):
                self._defense("rate_limited", slot=payload.slot)
                return
            if (
                payload.priority == PRIORITY_RETRIEVAL
                and not self._retrieval_bucket.allow(ctx.sim.now)
            ):
                self._shed("retrieval_admission", slot=payload.slot)
                return
            self._on_request(dgram.src, payload)
        elif isinstance(payload, CellResponse):
            if not self._admit(dgram.src):
                self._defense("rate_limited", slot=payload.slot)
                return
            self._on_response(dgram.src, payload)

    def _admit(self, src: int) -> bool:
        """Per-peer token bucket over inbound request/response traffic.

        A table that has reached its sweep mark is pruned before it
        takes a new bucket, and the mark is then set to twice what
        survived: like a dict's own growth rule, the sweeps cost
        amortized O(1) per new bucket, and the table holds at most
        twice the buckets that were drained at its last sweep.
        """
        bucket = self._buckets.get(src)
        if bucket is None:
            if len(self._buckets) >= self._bucket_sweep_at:
                self._prune_buckets()
            params = self.ctx.params
            bucket = TokenBucket(params.inbound_msg_rate, params.inbound_msg_burst)
            self._buckets[src] = bucket
        return bucket.allow(self.ctx.sim.now)

    def _prune_buckets(self) -> None:
        """Drop every bucket that is full again, and reset the sweep mark.

        A bucket full at ``now`` is indistinguishable from the fresh one
        ``_admit`` would create: refill clamps both to ``burst`` and the
        next ``allow`` stamps the same ``_last``. The drained ones go to
        a new dict, since deleting entries would not shrink the old table.
        """
        now = self.ctx.sim.now
        self._buckets = {
            src: bucket for src, bucket in self._buckets.items() if not bucket.full_at(now)
        }
        self._bucket_sweep_at = max(2 * len(self._buckets), _BUCKET_SWEEP_FLOOR)

    def _verify_cost(self, payload: object) -> float:
        """Seconds of KZG verification before any of ``payload`` is acted on.

        Every carried cell is checked against the slot commitment, so a
        node being fed garbage pays in latency as well as bandwidth.
        """
        if isinstance(payload, (SeedMessage, CellResponse)):
            return self.ctx.params.cell_verify_seconds * len(payload.cells)
        return 0.0

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------
    def _on_seed(self, _src: int, msg: SeedMessage) -> None:
        slot = msg.slot
        state = self._slot_state(slot)
        ctx = self.ctx
        if msg.cells and not state.seed_received:
            state.seed_received = True
            at = ctx.since_slot_start(slot)
            ctx.emit("seed_recv", slot=slot, node=self.node_id, at=at)
            ctx.emit("phase", slot=slot, node=self.node_id, phase="seeding", at=at)
        state.seed_lines_seen.add(msg.line)
        for line_boost in msg.boost:
            state.fetcher.add_boost(line_boost)
            # the builder's own-parcel declarations: these cells are
            # already inbound through this burst, so the fetcher must
            # never request them from peers
            own = line_boost.seeded.get(self.node_id)
            if own:
                state.fetcher.add_inbound(line_boost.line, own)
        if msg.cells:
            new, reconstructed = state.cells.add_cells(msg.cells)
            if ctx.events.wants("cells_ingest"):
                ctx.emit(
                    "cells_ingest", slot=slot, node=self.node_id, source="seed",
                    count=len(msg.cells), new=new, reconstructed=reconstructed,
                )
            state.fetcher.note_external_cells(reconstructed)
        if len(state.seed_lines_seen) >= msg.total_messages:
            # full seed set received: start consolidation + sampling on
            # the real deficits (Figure 5's trigger)
            if state.fallback_timer is not None:
                state.fallback_timer.cancel()
                state.fallback_timer = None
            state.fetcher.start()
        elif not state.fetcher.started:
            # cover loss of the remaining seed datagrams: re-arm the
            # consolidation timer on every arrival so it fires only
            # after the seed stream has gone quiet
            if state.fallback_timer is not None:
                state.fallback_timer.cancel()
            state.fallback_timer = ctx.sim.call_after(
                CONSOLIDATION_TIMER,
                lambda: self._fallback_start(slot),
            )
        self._after_cells_changed(slot, state)

    # ------------------------------------------------------------------
    # serving queries
    # ------------------------------------------------------------------
    def _on_request(self, src: int, msg: CellRequest) -> None:
        slot = msg.slot
        state = self._slot_state(slot)
        if not state.seed_received and not state.fetcher.started and state.fallback_timer is None:
            # a request for a slot we have no seed for: arm the 400 ms
            # fallback, then consolidate/sample without seed data
            state.fallback_timer = self.ctx.sim.call_after(
                CONSOLIDATION_TIMER,
                lambda: self._fallback_start(slot),
            )
        has_cell = state.cells.has_cell
        held = frozenset(cid for cid in msg.cells if has_cell(cid))
        if held:
            self._respond(slot, msg.epoch, src, tuple(sorted(held)))
        remainder = msg.cells - held
        if remainder:
            # buffer the remainder for a deferred reply — but only
            # until the sampling deadline: after it, the requester has
            # already failed or succeeded for this slot, so the buffer
            # would be dead weight until the end of the run
            params = self.ctx.params
            elapsed = self.ctx.since_slot_start(slot)
            if elapsed >= params.deadline:
                self._defense("pending_expired", len(remainder), slot=slot)
                return
            limit = params.pending_request_limit
            if limit is not None and state.pending_count >= limit:
                if not self._make_pending_room(state, msg.priority, slot):
                    return
            if state.expiry_timer is None:
                state.expiry_timer = self.ctx.sim.call_after(
                    params.deadline - elapsed, lambda: self._expire_pending(slot)
                )
            record = _PendingRequest(src, remainder, len(remainder), msg.priority)
            state.pending_count += 1
            self.ctx.emit(
                "queue_depth", slot=slot, node=self.node_id,
                queue="pending_requests", depth=state.pending_count,
            )
            if msg.priority == PRIORITY_RETRIEVAL:
                state.pending_retrieval.append(record)
            for cid in remainder:
                state.waiting_by_cell.setdefault(cid, []).append(record)
            # waiters exist now: route stored cells through the sink
            state.cells.on_store = state.store_sink

    def _make_pending_room(
        self, state: _SlotState, priority: int, slot: int
    ) -> bool:
        """Enforce ``pending_request_limit``; returns True if admitted.

        Retrieval-class load is shed first: an incoming retrieval
        remainder at a full buffer is dropped outright, while an
        incoming sampling-class remainder evicts the oldest live
        retrieval record to make room. Only when no retrieval record
        is left does sampling traffic itself get shed — client load
        can fill the buffer, but it can never crowd out the sampling
        traffic the consensus timebound depends on.
        """
        if priority != PRIORITY_RETRIEVAL:
            queue = state.pending_retrieval
            while queue:
                victim = queue.pop(0)
                if victim.shed or victim.done:
                    continue  # lazily discarded tombstone
                victim.shed = True
                state.pending_count -= 1
                self._shed("pending_evicted", slot=slot)
                return True
        self._shed(
            "pending_retrieval" if priority == PRIORITY_RETRIEVAL else "pending_sampling",
            slot=slot,
        )
        return False

    def _expire_pending(self, slot: int) -> None:
        """Drop buffered request remainders at the sampling deadline."""
        state = self._slots.get(slot)
        if state is None:
            return
        state.expiry_timer = None
        if not state.waiting_by_cell:
            return
        expired = {
            id(rec): rec
            for recs in state.waiting_by_cell.values()
            for rec in recs
            if not rec.shed and not rec.done
        }
        if expired:
            self._defense("pending_expired", len(expired), slot=slot)
        state.waiting_by_cell.clear()
        state.pending_count = 0
        state.pending_retrieval.clear()
        state.cells.on_store = None

    def _fallback_start(self, slot: int) -> None:
        state = self._slot_state(slot)
        state.fallback_timer = None
        state.fetcher.start()

    def _respond(self, slot: int, epoch: int, dst: int, cells: tuple[int, ...]) -> None:
        response = CellResponse(slot=slot, epoch=epoch, cells=cells)
        self.ctx.network.send(
            self.node_id, dst, response, response.wire_size(self.ctx.params)
        )

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def _on_response(self, src: int, msg: CellResponse) -> None:
        """Ingest one verified CellResponse.

        A response for a slot without live state never creates any: it
        is stale after ``drop_slot``, else unsolicited. Any other goes
        through the slot fetcher's acceptance chain
        (``AdaptiveFetcher.on_reply``).
        """
        slot = msg.slot
        state = self._slots.get(slot)
        if state is None:
            if slot in self._retired:
                # deferred reply landing after drop_slot: stale, not hostile
                self._defense("resp_stale", slot=slot)
            else:
                self.reputation.record_unsolicited(src)
                self._defense("resp_unsolicited", slot=slot)
            return
        accepted, new, reconstructed = state.fetcher.on_reply(src, msg.cells, msg.invalid)
        if not accepted:
            return
        if self.ctx.events.wants("cells_ingest"):
            self.ctx.emit(
                "cells_ingest", slot=slot, node=self.node_id, source="response",
                peer=src, count=accepted, new=new, reconstructed=reconstructed,
            )
        self._after_cells_changed(slot, state)

    # ------------------------------------------------------------------
    # outgoing queries
    # ------------------------------------------------------------------
    def _send_query(self, slot: int, epoch: int, peer: int, cells: frozenset[int]) -> None:
        request = CellRequest(slot=slot, epoch=epoch, cells=cells)
        self.ctx.network.send(
            self.node_id, peer, request, request.wire_size(self.ctx.params)
        )

    # ------------------------------------------------------------------
    # bookkeeping after any cell arrival
    # ------------------------------------------------------------------
    def _on_cell_stored(self, slot: int, cid: int) -> None:
        """Resolve buffered queries waiting on ``cid`` (deferred replies)."""
        state = self._slots.get(slot)
        if state is None:
            return
        waiters = state.waiting_by_cell.pop(cid, None)
        if waiters:
            epoch = self.ctx.epoch_of(slot)
            for record in waiters:
                if record.shed:
                    continue  # evicted under the pending limit
                record.missing -= 1
                if record.missing == 0:
                    record.done = True
                    state.pending_count -= 1
                    self._respond(slot, epoch, record.src, tuple(sorted(record.cells)))
        if not state.waiting_by_cell:
            # nothing is waiting any more: detach the per-cell sink so
            # subsequent bulk ingest skips the callback entirely
            state.cells.on_store = None

    def _after_cells_changed(self, slot: int, state: _SlotState) -> None:
        ctx = self.ctx
        now_rel = ctx.since_slot_start(slot)
        if not state.consolidation_marked and state.cells.consolidation_complete:
            state.consolidation_marked = True
            ctx.emit(
                "phase", slot=slot, node=self.node_id, phase="consolidation", at=now_rel
            )
        if not state.sampling_marked and state.cells.sampling_complete:
            state.sampling_marked = True
            ctx.emit("phase", slot=slot, node=self.node_id, phase="sampling", at=now_rel)

    # ------------------------------------------------------------------
    # crash / recovery (fault injection)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: lose all volatile per-slot state.

        Every pending timer is cancelled so a crashed node emits
        nothing; co-custodians waiting on its replies time out and
        retry elsewhere, exactly the silent-failure contract of the
        UDP transport.
        """
        for state in self._slots.values():
            if state.fallback_timer is not None:
                state.fallback_timer.cancel()
                state.fallback_timer = None
            if state.expiry_timer is not None:
                state.expiry_timer.cancel()
                state.expiry_timer = None
            state.fetcher.stop()
        self._slots.clear()
        # volatile defense state is lost with the process: reputation
        # and rate-limit memory start fresh
        params = self.ctx.params
        self.reputation = ReputationLedger()
        self._buckets.clear()
        self._bucket_sweep_at = _BUCKET_SWEEP_FLOOR
        self._retrieval_bucket = TokenBucket(
            params.retrieval_admit_rate, params.retrieval_admit_burst
        )

    def restart(self, slot: int) -> None:
        """Recover with empty storage and immediately re-fetch ``slot``.

        A restarted node cannot wait for seed parcels (the builder's
        burst is over); it re-derives fresh samples and starts the
        adaptive fetcher on its full custody deficits, the same path a
        seedless node takes after the 400 ms fallback timer.
        """
        state = self._slot_state(slot)
        state.fetcher.start()

    # ------------------------------------------------------------------
    # introspection for tests and experiments
    # ------------------------------------------------------------------
    def slot_cells(self, slot: int) -> SlotCellState | None:
        state = self._slots.get(slot)
        return state.cells if state is not None else None

    def slot_fetcher(self, slot: int) -> AdaptiveFetcher | None:
        state = self._slots.get(slot)
        return state.fetcher if state is not None else None

    def pending_depth(self, slot: int | None = None) -> int:
        """Live buffered-remainder count (one slot, or the node total).

        The node half of the I5 "no unbounded backlog" invariant: with
        ``pending_request_limit`` configured this may never exceed the
        limit per slot.
        """
        if slot is not None:
            state = self._slots.get(slot)
            return 0 if state is None else state.pending_count
        return sum(state.pending_count for state in self._slots.values())

    def drop_slot(self, slot: int) -> None:
        """Free per-slot state (old blob data is discarded after expiry).

        Publishes the fetcher's per-round totals first — reply/duplicate
        counters keep accumulating until the end of the slot (Table 1's
        in/after-round split).
        """
        state = self._slots.pop(slot, None)
        self._retired.add(slot)
        self._prune_buckets()
        if state is not None:
            for stats in state.fetcher.rounds:
                columns = {name: getattr(stats, name) for name in _TABLE1_COLUMNS}
                self.ctx.emit(
                    "round_stats", slot=slot, node=self.node_id, round=stats.index, **columns
                )
            state.fetcher.stop()
            if state.fallback_timer is not None:
                state.fallback_timer.cancel()
            if state.expiry_timer is not None:
                state.expiry_timer.cancel()
