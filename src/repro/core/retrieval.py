"""Layer-2 client retrieval of blob data (Section 4.2's third goal).

PANDAS's primary objective includes that "layer-2 clients can easily
retrieve blob data": a rollup participant who wants the actual bytes —
to recompute state or build a fraud proof — asks the custodians of
the rows (or columns) that carry its batch. ``RetrievalClient`` reuses
the adaptive fetcher with the requested lines as synthetic custody, so
retrieval inherits the same redundancy-escalation and reconstruction
behaviour as consolidation, without the client being a custodian of
anything itself. Replies take the node's acceptance chain
(``AdaptiveFetcher.on_reply``), without a reputation ledger.

Admission control rides on top for the sustained pipeline
(``max_concurrent`` / ``defer_limit``): concurrent retrievals beyond
the cap wait in a bounded FIFO defer queue; past the bound they are
shed immediately (``result.shed``, the callback fires at once) instead
of queueing forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.core.assignment import Custody
from repro.core.context import ProtocolContext
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher
from repro.core.messages import PRIORITY_RETRIEVAL, CellRequest, CellResponse
from repro.net.transport import Datagram

__all__ = ["RetrievalClient", "RetrievalResult"]


@dataclass
class RetrievalResult:
    """Outcome of one retrieval request.

    ``reason`` is its fetcher's end reason (``FETCH_DONE_REASONS``;
    ``stopped`` also for a deferred request whose slot was dropped), or
    ``shed`` when admission control rejected the request before any
    query was sent (the defer queue was full; the callback fires at
    once). None while it runs or waits.
    """

    slot: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    cells: set[int] = field(default_factory=set)
    elapsed: float = 0.0
    reason: str | None = None

    @property
    def complete(self) -> bool:
        return self.reason == "complete"

    @property
    def shed(self) -> bool:
        return self.reason == "shed"


class RetrievalClient:
    """A layer-2 participant fetching specific rows/columns of a blob.

    The client must be registered on the network (it sends requests
    and receives responses) but holds no custody and answers nothing.
    """

    def __init__(
        self,
        ctx: ProtocolContext,
        client_id: int,
        view: set[int] | None = None,
        max_concurrent: int = 4,
        defer_limit: int = 8,
    ) -> None:
        if max_concurrent <= 0:
            raise ValueError(f"max_concurrent must be positive, got {max_concurrent}")
        if defer_limit < 0:
            raise ValueError(f"defer_limit must be non-negative, got {defer_limit}")
        self.ctx = ctx
        self.client_id = client_id
        self.view = view
        # Admission control: at most ``max_concurrent`` retrievals run
        # at once; the next ``defer_limit`` wait in FIFO order; anything
        # beyond that is shed immediately rather than queued forever
        # (the client half of the I5 backlog bound).
        self.max_concurrent = max_concurrent
        self.defer_limit = defer_limit
        self._running = 0
        self._deferred: list[tuple[RetrievalResult, Callable[[RetrievalResult], None]]] = []
        # slot -> the fetchers started for it, until drop_slot
        self._active: dict[int, list[AdaptiveFetcher]] = {}

    # ------------------------------------------------------------------
    def fetch_lines(
        self,
        slot: int,
        rows: Sequence[int] = (),
        cols: Sequence[int] = (),
        callback: Callable[[RetrievalResult], None] = lambda result: None,
    ) -> RetrievalResult:
        """Retrieve complete rows/columns of the slot's extended blob.

        The callback fires once every requested line is complete
        (received or erasure-reconstructed). The returned result object
        is updated in place as cells arrive. Under admission control a
        request may instead be deferred (starts when a running one
        finishes) or shed (``result.shed``, callback fires at once).
        """
        if not rows and not cols:
            raise ValueError("nothing to retrieve")
        result = RetrievalResult(
            slot=slot, rows=tuple(sorted(rows)), cols=tuple(sorted(cols))
        )
        if self._running < self.max_concurrent:
            self._start(result, callback)
        elif len(self._deferred) < self.defer_limit:
            self._deferred.append((result, callback))
            self.ctx.emit(
                "queue_depth", slot=slot, node=self.client_id,
                queue="retrieval_deferred", depth=len(self._deferred),
            )
        else:
            result.reason = "shed"
            self.ctx.emit(
                "load_shed", slot=slot, node=self.client_id,
                shed="retrieval_client", amount=1.0,
            )
            callback(result)
        return result

    def _start(
        self, result: RetrievalResult, callback: Callable[[RetrievalResult], None]
    ) -> None:
        ctx = self.ctx
        params = ctx.params
        slot = result.slot
        epoch = ctx.epoch_of(slot)
        custody = Custody(rows=result.rows, cols=result.cols)

        # no samples: the fetcher's completion test is the lines' alone
        state = SlotCellState(params, custody, samples=(), on_store=result.cells.add)
        index = ctx.index_for_epoch(epoch)
        view = self.view
        started_at = ctx.sim.now
        self._running += 1

        def on_done(_success: bool) -> None:
            result.reason = fetcher.reason
            result.elapsed = ctx.sim.now - started_at
            self._running -= 1
            callback(result)
            self._drain_deferred()

        active = self._active.setdefault(slot, [])
        # no deadline: the client waits on the lines whenever they come,
        # so its fetcher recycles on the round tick (DESIGN.md 2.1 (8))
        fetcher = AdaptiveFetcher(
            sim=ctx.sim,
            state=state,
            line_custodians=lambda line: index.custodians(line, view),
            send_query=lambda peer, cells: self._send_query(slot, epoch, peer, cells),
            rng=ctx.rngs.stream("retrieval", self.client_id, slot, len(active)),
            self_id=self.client_id,
            on_done=on_done,
            events=ctx.events,
            slot=slot,
        )
        active.append(fetcher)
        fetcher.start()

    def _drain_deferred(self) -> None:
        """Start deferred retrievals while slots are free (FIFO order)."""
        while self._deferred and self._running < self.max_concurrent:
            result, callback = self._deferred.pop(0)
            self._start(result, callback)

    def drop_slot(self, slot: int) -> None:
        """Stop ``slot``'s retrievals, deferred ones included, and forget them.

        Each ends ``stopped``; a running one frees its ``max_concurrent``
        slot, which may start a deferred retrieval of another slot.
        """
        deferred, self._deferred = self._deferred, []
        for result, callback in deferred:
            if result.slot == slot:
                result.reason = "stopped"
                callback(result)
            else:
                self._deferred.append((result, callback))
        for fetcher in self._active.pop(slot, ()):
            fetcher.stop()

    @property
    def queue_depth(self) -> int:
        """Live admission backlog (running + deferred)."""
        return self._running + len(self._deferred)

    # ------------------------------------------------------------------
    def on_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if not isinstance(payload, CellResponse):
            return
        # a reply names no request: each running fetcher keeps what it asked
        for fetcher in self._active.get(payload.slot, ()):
            if not fetcher.finished:
                fetcher.on_reply(dgram.src, payload.cells, payload.invalid)

    def _send_query(self, slot: int, epoch: int, peer: int, cells: frozenset[int]) -> None:
        # retrieval-class traffic: serving nodes shed it before sampling
        # traffic under overload (see PandasNode.on_datagram)
        request = CellRequest(
            slot=slot, epoch=epoch, cells=cells, priority=PRIORITY_RETRIEVAL
        )
        self.ctx.network.send(
            self.client_id, peer, request, request.wire_size(self.ctx.params)
        )
