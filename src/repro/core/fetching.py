"""Adaptive fetching (Section 7, Algorithm 1, Figure 8).

One fetcher per node per slot drives both consolidation and sampling.
It proceeds in rounds; round ``i`` has timeout ``t_i`` (400, 200, then
100 ms) and redundancy ``k_i`` (1, 2, 4, 6, 8, then 10):

1. **Targeting** — the round's cell set F holds every missing sample
   plus, per incomplete custody line, the *deficit*: just enough
   missing cells to reach the Reed-Solomon reconstruction threshold
   (half of the line), net of cells the builder declared as already
   in flight to this node, preferring cells the consolidation-boost
   map locates at a peer. Fetching whole lines instead would cost
   ~4.5 MB per node; deficit targeting reproduces both the paper's
   ~2 MB traffic ceiling (Figure 10) and Table 1's requested-cell
   profile with zero round-1 duplicates.
2. **Scoring** — every queryable peer gets the number of its custody
   cells in F; peers in the boost map get ``cb_boost`` extra per
   still-missing seeded cell, an overwhelming advantage that steers
   early queries to peers that already *hold* cells rather than peers
   that must consolidate first.
3. **Planning** — peers are scanned in decreasing score order; each is
   planned a query for its cells of interest still lacking ``k_i``
   planned requests, until every cell in F reaches redundancy ``k_i``
   or peers run out.
4. **Execution** — queries go out as one-way UDP datagrams; the peer
   set shrinks (a peer is asked again only once every custodian has
   been and its round expired, DESIGN.md 2.1); the fetcher sleeps
   ``t_i`` and starts the next round, or ends through ``_finish`` with
   one of ``repro.obs.events.FETCH_DONE_REASONS``.

A round is planned, then applied: ``plan_round`` decides steps 1-3, the
recycle passes and the backoff wave as one :class:`RoundPlan`, changing
nothing but the per-line pick memo and the RNG; ``_run_round`` sweeps the
expired queries (their evidence moves the weights the plan scores with),
plans, and applies the plan as step 4.

A fetch with a deadline (a node's slot start + ``params.deadline``)
starts no round at or after it and backs its recycle waves off by
``params.fetch_retry``; one without (a retrieval probe) recycles on the
round tick until it completes or runs out of rounds (DESIGN.md 2.1 (8)).

Responses can arrive in *any* later round (queried nodes buffer what
they cannot serve yet and never NACK); per-round telemetry (Table 1)
distinguishes replies received before and after their round's timeout.
Every reply enters through ``on_reply``, the one acceptance chain of
every fetcher (node, retrieval probe, GossipSub baseline): it keeps
only cells this peer was asked for and that pass verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Set
from typing import Any

from repro.core.custody import SlotCellState
from repro.core.reputation import ReputationLedger
from repro.core.seeding import LineBoost
from repro.params import MAX_CELLS_PER_QUERY
from repro.sim.bus import EventBus
from repro.sim.engine import Event, Simulator

__all__ = ["AdaptiveFetcher", "RoundPlan", "RoundStats", "plan_queries", "score_peers"]

_NO_CELLS: frozenset[int] = frozenset()


@dataclass(slots=True)
class RoundStats:
    """Telemetry for one fetching round (the columns of Table 1)."""

    index: int
    started_at: float = 0.0
    deadline: float = 0.0
    messages_sent: int = 0
    cells_requested: int = 0
    replies_in_round: int = 0
    replies_after_round: int = 0
    cells_in_round: int = 0
    cells_after_round: int = 0
    duplicates: int = 0
    reconstructed: int = 0
    targets: int = 0


@dataclass(slots=True)
class _Query:
    """What one fetcher asked one peer this slot (the query ledger).

    ``cells`` holds every cell asked, a re-query's appended; ``round`` is
    the latest query's. ``replied`` and ``reported`` (timeout evidence
    sent) hold for the slot; ``pooled``: recycled, back in the candidate
    pool until asked again; ``req``: the open lifecycle request id.
    """

    round: int
    cells: tuple[int, ...]
    replied: bool = False
    reported: bool = False
    pooled: bool = False
    req: int | None = None


@dataclass(frozen=True, slots=True)
class RoundPlan:
    """One round of Algorithm 1, decided (``AdaptiveFetcher.plan_round``).

    ``queries``: the (peer, cells) pairs to send, in order; ``recycled``:
    the recycle passes that re-opened an exhausted pool, each a pool name
    (``query_recycle``'s) and its peers; ``wave``: the backoff delay when
    the recycled peers wait for a retry wave instead of being asked now;
    ``timeout``: t_i; ``targets``: |F|; ``end``: why the fetch ends with
    this round (None: it goes on).
    """

    queries: tuple[tuple[int, frozenset[int]], ...] = ()
    recycled: tuple[tuple[str, tuple[int, ...]], ...] = ()
    wave: float | None = None
    timeout: float = 0.0
    targets: int = 0
    end: str | None = None

    @property
    def cells_requested(self) -> int:
        return sum(len(cells) for _peer, cells in self.queries)


def score_peers(
    candidate_cells: Mapping[int, Set[int]],
    boost: Mapping[int, Set[int]],
    cb_boost: float,
    weights: dict[int, float] | None = None,
) -> dict[int, float]:
    """Algorithm 1 lines 4-9: cells-of-interest count plus boost.

    ``boost`` maps a peer to the round's targets the builder seeded to
    it (the consolidation-boost map already intersected with F).

    ``weights`` (peer -> multiplier in ``(0, 1]``, default 1.0) folds
    per-peer reputation into the score: a peer that served corrupt
    cells or stalled past round deadlines is out-scored by clean peers
    holding the same cells, so queries drain away from it even before
    quarantine removes it outright.
    """
    scores: dict[int, float] = {}
    for peer, cells in candidate_cells.items():
        score = float(len(cells))
        boosted = boost.get(peer)
        if boosted:
            score += len(boosted) * cb_boost
        if weights is not None:
            score *= weights.get(peer, 1.0)
        scores[peer] = score
    return scores


def plan_queries(
    targets: set[int],
    ordered_peers: list[int],
    candidate_cells: Mapping[int, Set[int]],
    redundancy: int,
    max_cells_per_query: int | None = None,
) -> tuple[tuple[int, frozenset[int]], ...]:
    """Algorithm 1 lines 11-17: greedy plan until every cell has k queries.

    ``max_cells_per_query`` caps each query at roughly one seeding
    parcel. Without it the top-scored (boosted) peers would be asked
    for entire line deficits by every co-custodian simultaneously,
    saturating their uplinks; parcel-sized queries spread the load
    across all holders — Table 1's ~12 cells per round-1 message.
    """
    under: set[int] = set(targets)
    planned_count: dict[int, int] = {}
    queries: list[tuple[int, frozenset[int]]] = []
    for peer in ordered_peers:
        if not under:
            break
        interesting = candidate_cells[peer] & under
        if not interesting:
            continue
        if max_cells_per_query is not None and len(interesting) > max_cells_per_query:
            interesting = set(sorted(interesting)[:max_cells_per_query])
        queries.append((peer, frozenset(interesting)))
        for cid in interesting:
            count = planned_count.get(cid, 0) + 1
            planned_count[cid] = count
            if count >= redundancy:
                under.discard(cid)
    return tuple(queries)


class AdaptiveFetcher:
    """Executes Algorithm 1 for one node and one slot.

    Decoupled from the node/transport through callables so the same
    machinery serves PANDAS nodes, baselines and unit tests; the round
    schedule, the retry policy and ``cb_boost`` come from ``state.params``:

    - ``line_custodians(line)``: view-filtered custodians of a line;
    - ``send_query(peer, cells)``: emit one QUERYCELLS datagram;
    - ``on_done(success)``: called once when a started fetcher ends,
      ``stop`` included (``reason`` says why);
    - ``reputation``: the owner's ledger (:mod:`repro.core.reputation`),
      whose weights steer scoring, whose quarantine filters candidates,
      and which ``on_reply`` and the timeout sweep feed with evidence,
      each piece published as a ``defense`` event (None: no reputation);
    - ``deadline_at``: absolute sim time after which no reply is worth
      asking for (None: no deadline, the fetch recycles on the round
      tick);
    - ``events``: the run's bus, for round, query-lifecycle, reply and
      defense events tagged with ``slot`` and ``self_id`` (None: publish
      nothing).
    """

    __slots__ = (
        "sim",
        "state",
        "schedule",
        "line_custodians",
        "send_query",
        "rng",
        "self_id",
        "on_done",
        "fetch_custody",
        "reputation",
        "deadline_at",
        "retry_waves",
        "events",
        "slot",
        "_lifecycle",
        "_reply_latency",
        "boost",
        "inbound",
        "queries",
        "_picked",
        "_awaiting",
        "_silent",
        "rounds",
        "started",
        "reason",
        "_timer",
    )

    def __init__(
        self,
        sim: Simulator,
        state: SlotCellState,
        line_custodians: Callable[[int], Iterable[int]],
        send_query: Callable[[int, frozenset[int]], None],
        rng: random.Random,
        self_id: int,
        on_done: Callable[[bool], None] | None = None,
        fetch_custody: bool = True,
        reputation: ReputationLedger | None = None,
        deadline_at: float | None = None,
        events: EventBus | None = None,
        slot: int = -1,
    ) -> None:
        self.sim = sim
        self.state = state
        self.schedule = state.params.fetch_schedule
        self.line_custodians = line_custodians
        self.send_query = send_query
        self.rng = rng
        self.self_id = self_id
        self.on_done = on_done
        # baselines disable consolidation: fetch samples only and
        # consider the slot done once sampling completes
        self.fetch_custody = fetch_custody
        self.reputation = reputation
        # the retry rule's input (module docstring): with a deadline,
        # exhausted-pool retries wait a seeded jittered backoff between
        # waves, and the fetch is abandoned once the deadline can no
        # longer be met or the wave budget is spent
        self.deadline_at = deadline_at
        self.retry_waves = 0
        # Protocol events. The query lifecycle gives every query a
        # request id at issue time and closes it in exactly one of
        # response/timeout/cancel; it and the per-reply latency are
        # kept only while some subscriber consumes them (the lifecycle
        # opens at query_issue) — pure observation, no RNG, no
        # scheduling, so observed and bare runs behave identically.
        self.events = events
        self.slot = slot
        self._lifecycle = events is not None and events.wants("query_issue")
        self._reply_latency = events is not None and events.wants("fetch_reply")

        # CB(f) of our lines, and per line the cells it seeded to us:
        # the builder's own objects, held by reference and never copied,
        # and let go of when the fetcher finishes (DESIGN.md 4.1)
        self.boost: dict[int, LineBoost] = {}
        self.inbound: dict[int, frozenset[int]] = {}
        # peer -> what we asked it this slot, in the order of each peer's
        # latest query; kept after the fetcher finishes, since the node
        # validates late replies against it until the slot is dropped
        self.queries: dict[int, _Query] = {}
        # custody line -> (held count, trust-inbound flag) and the cells
        # picked for them: recomputed only when the key moves or a map
        # entry arrives (DESIGN.md 4), released with the maps
        self._picked: dict[int, tuple[tuple[int, bool], list[int]]] = {}
        # the open queries, in issue order: awaiting their round's expiry,
        # and expired without a reply and not yet back in the pool
        self._awaiting: dict[int, _Query] = {}
        self._silent: dict[int, _Query] = {}
        self.rounds: list[RoundStats] = []
        self.started = False
        # why the fetch ended (FETCH_DONE_REASONS); None while running
        self.reason: str | None = None
        self._timer: Event | None = None

    # ------------------------------------------------------------------
    # boost map
    # ------------------------------------------------------------------
    def add_boost(self, line_boost: LineBoost) -> None:
        """Keep the builder's CB(f) of one of our lines (idempotent).

        Our own entry stays in the map: we are never our own candidate,
        and the node declares those cells inbound, which
        ``round_targets`` checks before the boost cells. A finished
        fetcher reads neither map, so a late or duplicated first seed
        datagram attaches nothing to it.
        """
        if not self.finished and self.boost.get(line_boost.line) is not line_boost:
            self.boost[line_boost.line] = line_boost
            self._picked = {}

    def add_inbound(self, line: int, cells: frozenset[int]) -> None:
        """The cells of ``line`` the builder declared as seeded to us.

        Kept by reference (the node passes its own entry of the line's
        CB(f)); every cell must lie on ``line``. Excluded from fetch
        targets: re-requesting data already in flight from the builder
        would only manufacture duplicates (Table 1 reports zero round-1
        duplicates).
        """
        if not self.finished and self.inbound.get(line) is not cells:
            self.inbound[line] = cells
            self._picked = {}

    # ------------------------------------------------------------------
    # protocol events (no-ops without a bus)
    # ------------------------------------------------------------------
    def _emit(self, kind: str, **data: Any) -> None:
        events = self.events
        if events is not None:
            events.emit(kind, slot=self.slot, node=self.self_id, **data)

    def _expired(self, query: _Query, now: float) -> bool:
        """Has ``query``'s latest round expired by ``now``? The one expiry test
        of every ledger scan (rounds fire exactly at the previous deadline,
        so expiry is ``deadline <= now``, not strict)."""
        rounds = self.rounds
        return query.round <= len(rounds) and rounds[query.round - 1].deadline <= now

    def _close_queries(self, ending: bool = False) -> None:
        """Close open queries without a usable reply, in issue order.

        First those whose round expired; when the fetcher is ``ending``,
        then the rest. A peer that replied (even unusably) closes as an
        unusable ``query_response``, so it is never double-reported; a
        silent one as ``query_timeout``, or as ``query_cancel`` when the
        fetcher ended before its round expired.
        """
        if not self._lifecycle:
            return
        now = self.sim.now
        for expired in (True, False) if ending else (True,):
            for peer, query in self.queries.items():
                req = query.req
                if req is None or (expired and not self._expired(query, now)):
                    continue
                query.req = None
                if query.replied:
                    self._emit(
                        "query_response", req=req, peer=peer, round=query.round,
                        cells=0, new=0, reconstructed=0, late=expired, usable=False,
                    )
                else:
                    kind = "query_timeout" if expired else "query_cancel"
                    self._emit(kind, req=req, peer=peer, round=query.round)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.reason is not None

    def start(self) -> None:
        """Begin round 1 (idempotent)."""
        if self.started:
            return
        self.started = True
        self._emit("fetch_start", custody=self.fetch_custody)
        self._run_round(1)  # which finishes at once a fetch with nothing to do

    def stop(self) -> None:
        """End the fetch from outside (crash, slot retirement)."""
        self._finish("stopped")

    # ------------------------------------------------------------------
    # round targeting (F of Algorithm 1, deficit-driven)
    # ------------------------------------------------------------------
    def round_targets(self, round_index: int = 1) -> set[int]:
        """Missing samples plus per-line reconstruction deficits.

        Deficits are *net of declared inbound*: cells the builder said
        it is sending us count toward the reconstruction threshold, so
        fetching them from peers would only duplicate the seed stream
        (when the per-node seed share already exceeds half a line, the
        correct fetch volume is zero). Once the schedule settles onto
        its tail timeout (``schedule.settle_round`` — round 3, ~600 ms
        after the burst began, on the default schedule) undelivered
        inbound cells are treated as lost — the 3% UDP loss escape
        hatch — and become fetchable again.

        Within a line, prefer boost-located cells (retrievable *now*),
        then other non-inbound cells, then stale inbound. A missing cell
        of line L counts as inbound (or boost-located) when the inbound
        entry (or CB(f)) of L, or of the line crossing L at that cell,
        names it.

        A line's picks are recomputed only when its held count (cells are
        only ever added) or the trust flag moved, or a map entry arrived.
        """
        state = self.state
        targets = set(state.missing_samples())
        if not self.fetch_custody:
            return targets
        trust_inbound = round_index < self.schedule.settle_round
        picked = self._picked
        for line in state.custody_lines:
            key = (state.line_count(line), trust_inbound)
            memo = picked.get(line)
            if memo is None or memo[0] != key:
                memo = picked[line] = (key, self._pick(line, trust_inbound))
            targets.update(memo[1])
        return targets

    def _pick(self, line: int, trust_inbound: bool) -> list[int]:
        """The cells of custody ``line`` that F asks for (``round_targets``)."""
        state = self.state
        deficit = state.line_deficit(line)
        if deficit <= 0:
            return []
        inbound = self.inbound
        boost_cells = {other: entry.cells for other, entry in self.boost.items()}
        own = inbound.get(line, _NO_CELLS)
        own_crossing = self._crossing_cells(line, inbound)
        located = boost_cells.get(line, _NO_CELLS)
        located_crossing = self._crossing_cells(line, boost_cells)
        boosted_out = []
        plain_out = []
        inbound_cells = []
        for cid in state.missing_in_line(line):
            if cid in own or cid in own_crossing:
                inbound_cells.append(cid)
            elif cid in located or cid in located_crossing:
                boosted_out.append(cid)
            else:
                plain_out.append(cid)
        if trust_inbound:
            deficit = max(0, deficit - len(inbound_cells))
            return (boosted_out + plain_out)[:deficit]
        return (boosted_out + plain_out + inbound_cells)[:deficit]

    def _crossing_cells(self, line: int, by_line: Mapping[int, Set[int]]) -> set[int]:
        """Cells of ``line`` named by the entries of the lines crossing it.

        Every entry's cells lie on its own line (``SeedingPolicy``
        parcels one line at a time), so a crossing line's entry can name
        only the one cell where the two lines meet.
        """
        ext_rows = self.state.params.ext_rows
        ext_cols = self.state.params.ext_cols
        is_row = line < ext_rows
        found: set[int] = set()
        for other, cells in by_line.items():
            if (other < ext_rows) == is_row:
                continue  # parallel to ``line``
            if is_row:
                cid = line * ext_cols + other - ext_rows
            else:
                cid = other * ext_cols + line - ext_rows
            if cid in cells:
                found.add(cid)
        return found

    # ------------------------------------------------------------------
    # rounds: sweep, plan, apply
    # ------------------------------------------------------------------
    def _run_round(self, index: int) -> None:
        """Run round ``index``: sweep the expired queries, plan, apply the
        plan. It ends by scheduling the next round or through ``_finish``,
        never otherwise."""
        self._timer = None
        # lifecycle bookkeeping first so queries that expired at this tick
        # close as timeouts even if the fetcher completes or gives up now
        self._close_queries()
        if self.complete or index >= self.schedule.max_rounds:
            self._finish("complete" if self.complete else "exhausted")
            return
        now = self.sim.now
        if self.deadline_at is not None and now >= self.deadline_at:
            # a reply to a round started now could not count: custody
            # and samples alike stop here
            self._finish("abandoned")
            return

        # queries whose round expired leave ``_awaiting``; the silent ones
        # wait in ``_silent`` for the recycle and are reported as
        # reputation evidence, at most once per slot, in ledger order
        # (``_awaiting`` is in issue order, and a re-query is of a pooled,
        # so already swept, peer). Late (deferred) replies are legitimate
        # protocol behaviour, which is why timeout evidence carries the
        # lowest reputation weight. The sweep precedes the plan: its
        # evidence moves the weights the plan scores with
        awaiting = self._awaiting
        for peer in [peer for peer, query in awaiting.items() if self._expired(query, now)]:
            query = awaiting.pop(peer)
            if not query.replied:
                self._silent[peer] = query
                if not query.reported and self.reputation is not None:
                    query.reported = True
                    self.reputation.record_timeout(peer)
                    self._emit("defense", defense="peer_timeout", amount=1.0)

        plan = self.plan_round(index)

        for pool, peers in plan.recycled:
            for peer in peers:
                self.queries[peer].pooled = True
            self._emit("query_recycle", pool=pool, count=len(peers))
            self._silent.clear()  # spent: a late-answered query waits in the ledger
        if plan.wave is not None:
            self.retry_waves += 1
            self._emit("retry_backoff", round=index, wave=self.retry_waves, delay=plan.wave)
        sent, cells = len(plan.queries), plan.cells_requested
        self.rounds.append(RoundStats(
            index=index, started_at=now, deadline=now + plan.timeout,
            messages_sent=sent, cells_requested=cells, targets=plan.targets,
        ))
        for peer, asked in plan.queries:
            self._issue_query(peer, asked, index)
        self._emit("fetch_round", round=index, targets=plan.targets, queries=sent, cells=cells)
        if plan.end is not None:
            self._finish(plan.end)
        else:  # the next round, or a wave's backed-off round
            delay = plan.timeout if plan.wave is None else plan.wave
            self._timer = self.sim.call_after(delay, self._run_round, index + 1)

    def plan_round(self, index: int) -> RoundPlan:
        """Decide round ``index`` from what the fetcher holds now.

        Changes nothing but the per-line pick memo and the RNG: the backoff
        jitter when a wave is planned, else the tie-break shuffle when
        anyone is asked.

        An empty pool before the settle round may only mean lost inbound
        cells are still trusted: keep ticking. From it on, every custodian
        of the targets was asked and every query expired (a round starts
        at the previous deadline): expired peers return to the pool, silent
        ones first, then those that answered without these cells. A pool
        still empty cannot refill by waiting: the fetch ends ``starved``
        (DESIGN.md 2.1). With a deadline, the recycled peers wait for a
        wave after a jittered exponential backoff. A wave past the budget,
        or one that, at worst-case jitter, leaves no room for its round
        before the deadline, ends the fetch ``abandoned`` and draws nothing.
        """
        schedule = self.schedule
        targets = self.round_targets(index)
        by_line = self._missing_by_line(targets)
        candidates, boosted = self._candidate_cells(targets, by_line, frozenset())
        recycled: list[tuple[str, tuple[int, ...]]] = []
        wave: float | None = None
        end: str | None = None
        if not candidates and index >= schedule.settle_round:
            now = self.sim.now
            deadline_at = self.deadline_at
            policy = self.state.params.fetch_retry
            waves = self.retry_waves
            if deadline_at is not None and (
                waves >= policy.max_waves
                or now + policy.backoff(waves) * (1.0 + policy.jitter)
                + schedule.timeout(index + 1) > deadline_at
            ):
                end = "abandoned"
            else:
                pooled: set[int] = set()
                for pool, ledger, replied_too in (
                    ("unresponsive", self._silent, False),
                    ("responded", self.queries, True),
                ):
                    found = tuple(
                        peer
                        for peer, query in ledger.items()
                        if not query.pooled
                        and peer not in pooled
                        and (replied_too or not query.replied)
                        and self._expired(query, now)
                    )
                    if found:
                        recycled.append((pool, found))
                        pooled.update(found)
                        candidates, boosted = self._candidate_cells(targets, by_line, pooled)
                        if candidates:
                            break
                if not candidates:
                    end = "starved"
                elif deadline_at is not None:
                    wave = policy.backoff(waves)
                    if policy.jitter > 0.0:
                        wave *= 1.0 + policy.jitter * self.rng.random()
                    candidates = {}

        queries: tuple[tuple[int, frozenset[int]], ...] = ()
        if candidates:
            weights = None
            if self.reputation is not None:
                weight = self.reputation.weight
                weights = {peer: weight(peer) for peer in candidates}
            scores = score_peers(candidates, boosted, self.state.params.cb_boost, weights)
            peers = list(candidates)
            self.rng.shuffle(peers)  # unbiased tie-break among equal scores
            peers.sort(key=scores.__getitem__, reverse=True)
            queries = plan_queries(
                targets, peers, candidates, schedule.redundancy_for(index), MAX_CELLS_PER_QUERY
            )
        return RoundPlan(queries, tuple(recycled), wave, schedule.timeout(index), len(targets), end)

    def _issue_query(self, peer: int, cells: frozenset[int], index: int) -> None:
        """Record one query in the ledger, then send it.

        A re-query (of a recycled peer, whose earlier query the sweep at
        the top of ``_run_round`` already closed) appends its cells and
        moves the record to the end: open queries close in issue order.
        """
        query = self.queries.pop(peer, None)
        if query is None:
            query = _Query(index, tuple(cells))
        else:
            query.round = index
            query.cells += tuple(cells)
            query.pooled = False
            self._awaiting.pop(peer, None)
        self.queries[peer] = query
        self._awaiting[peer] = query
        events = self.events if self._lifecycle else None
        if events is not None:
            req = query.req = events.next_request_id()
            self._emit("query_issue", req=req, peer=peer, round=index, cells=len(cells))
        self.send_query(peer, cells)

    def _candidate_cells(
        self, targets: set[int], missing_by_line: dict[int, set[int]], pooled: Set[int]
    ) -> tuple[dict[int, Set[int]], dict[int, frozenset[int]]]:
        """Queryable peers mapped to the cells to ask them for.

        Peers in the consolidation-boost map are offered only the
        cells the builder actually seeded to them — those are
        servable *immediately*; their other custody cells would only
        arrive after the peer's own consolidation. Unboosted peers
        are fallback holders for anything on their lines.

        Also returns those boosted peers' offers on their own (peer ->
        seeded cells among ``targets``): ``score_peers``' boost input.
        ``missing_by_line`` is ``targets`` grouped by line; ``pooled``
        (``_scan_candidates``) names the peers this round recycles.
        """
        candidates = self._scan_candidates(missing_by_line, pooled)
        boosted: dict[int, frozenset[int]] = {}
        if not candidates:
            return candidates, boosted
        for line_boost in self.boost.values():
            for peer, seeded in line_boost.seeded.items():
                if peer in candidates:
                    seeded_targets = seeded & targets
                    if seeded_targets:
                        # a peer sharing two lines with us: union the
                        # (small) intersections, never the seeded sets
                        prior = boosted.get(peer)
                        boosted[peer] = (
                            seeded_targets if prior is None else prior | seeded_targets
                        )
        candidates.update(boosted)
        return candidates, boosted

    def _missing_by_line(self, targets: set[int]) -> dict[int, set[int]]:
        """``targets`` grouped by row and by column, in first-encounter order."""
        missing_by_line: dict[int, set[int]] = {}
        params = self.state.params
        ext_cols = params.ext_cols
        ext_rows = params.ext_rows
        get_line = missing_by_line.get
        for cid in targets:
            row = cid // ext_cols
            bucket = get_line(row)
            if bucket is None:
                missing_by_line[row] = {cid}
            else:
                bucket.add(cid)
            col_line = ext_rows + cid - row * ext_cols
            bucket = get_line(col_line)
            if bucket is None:
                missing_by_line[col_line] = {cid}
            else:
                bucket.add(cid)
        return missing_by_line

    def _scan_candidates(
        self, missing_by_line: dict[int, set[int]], pooled: Set[int]
    ) -> dict[int, Set[int]]:
        """Queryable custodians of the missing lines, with their cells.

        Skips ourselves, peers asked and neither recycled nor in ``pooled``
        (this round's recycle passes), and peers the
        reputation ledger quarantines (each peer is tested once per scan,
        on first encounter, and an asked one never reaches the filter).

        Gathers each peer's missing lines first (first-encounter order),
        then materializes cell sets once per peer: most custodians share
        exactly one line with us, so they can reference the line's
        missing set directly instead of copying it, and multi-line
        unions are computed once per distinct line combination. The
        sets are read-only downstream (plan_queries intersects into
        fresh sets), so sharing is safe — and this turns the dominant
        O(custodians x line_size) copy work into O(custodians).
        """
        peer_lines: dict[int, list[int]] = {}
        exclude = None if self.reputation is None else self.reputation.quarantined
        line_custodians = self.line_custodians
        queries = self.queries
        skip = {self.self_id}
        for line in missing_by_line:
            for peer in line_custodians(line):
                if peer in skip:
                    continue
                lines = peer_lines.get(peer)
                if lines is None:
                    query = queries.get(peer)
                    if (query is not None and not query.pooled and peer not in pooled) or (
                        exclude is not None and exclude(peer)
                    ):
                        skip.add(peer)
                        continue
                    peer_lines[peer] = [line]
                else:
                    lines.append(line)
        candidates: dict[int, Set[int]] = {}
        union_cache: dict[tuple[int, ...], set[int]] = {}
        for peer, lines in peer_lines.items():
            if len(lines) == 1:
                candidates[peer] = missing_by_line[lines[0]]
                continue
            key = tuple(lines)
            cells = union_cache.get(key)
            if cells is None:
                sets = [missing_by_line[line] for line in lines]
                cells = union_cache[key] = set().union(*sets)
            candidates[peer] = cells
        return candidates

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def on_reply(
        self, peer: int, cells: tuple[int, ...], invalid: Set[int]
    ) -> tuple[int, int, int]:
        """The reply-acceptance chain; returns (accepted, new, reconstructed).

        Each step feeds the reputation ledger, if any, as evidence and a
        ``defense`` event: a peer never queried is unsolicited and stores
        nothing; cells never asked of this peer, and cells failing KZG
        verification (``invalid``, ``CellResponse``'s modeling flag), are
        dropped; what survives is credited to the peer and stored
        (``on_response``).
        """
        ledger = self.reputation
        query = self.queries.get(peer)
        if query is None:
            if ledger is not None:
                ledger.record_unsolicited(peer)
                self._emit("defense", defense="resp_unsolicited", amount=1.0)
            return 0, 0, 0
        query.replied = True  # never also a timeout: corrupt is punished once
        asked = query.cells
        requested = [cid for cid in cells if cid in asked]
        good = tuple(cid for cid in requested if cid not in invalid)
        if ledger is not None:
            unrequested = len(cells) - len(requested)
            if unrequested:
                ledger.record_unrequested(peer, unrequested)
                self._emit("defense", defense="cells_unrequested", amount=unrequested)
            bad = len(requested) - len(good)
            if bad:
                ledger.record_invalid(peer, bad)
                self._emit("defense", defense="cells_invalid", amount=bad)
            if good:
                ledger.record_valid(peer, len(good))
        if not good:
            return 0, 0, 0
        new, reconstructed = self.on_response(peer, good)
        return len(good), new, reconstructed

    def note_reply(self, peer: int) -> None:
        """Mark ``peer`` as having answered, with no usable cells.

        The flag ``on_reply`` and ``on_response`` set themselves, for a
        caller that learns of a reply outside that chain.
        """
        query = self.queries.get(peer)
        if query is not None:
            query.replied = True

    def on_response(self, peer: int, cells: tuple[int, ...]) -> tuple[int, int]:
        """Store accepted reply cells; returns (new_cells, reconstructed).

        The last step of ``on_reply``. Updates the custody state so
        duplicate accounting and round attribution stay consistent.
        """
        query = self.queries.get(peer)
        new_count, reconstructed = self.state.add_cells(cells)
        stats = None
        if query is not None:
            query.replied = True
            if query.round <= len(self.rounds):
                stats = self.rounds[query.round - 1]
        late = stats is not None and self.sim.now > stats.deadline
        if stats is not None:
            if self._reply_latency:
                self._emit(
                    "fetch_reply",
                    round=stats.index,
                    latency=self.sim.now - stats.started_at,
                )
            if late:
                stats.replies_after_round += 1
                stats.cells_after_round += new_count
            else:
                stats.replies_in_round += 1
                stats.cells_in_round += new_count
            stats.duplicates += len(cells) - new_count
            stats.reconstructed += reconstructed
        if self._lifecycle:
            if query is not None and query.req is not None:
                req, query.req = query.req, None
                self._emit(
                    "query_response", req=req, peer=peer, round=query.round,
                    cells=len(cells), new=new_count,
                    reconstructed=reconstructed, late=late, usable=True,
                )
            else:
                # the query already closed (timeout sweep or recycle);
                # a legitimate deferred reply, recorded but non-terminal
                self._emit("query_late_reply", peer=peer, cells=len(cells), new=new_count)
        if self.complete:
            self._finish("complete")
        return new_count, reconstructed

    def note_external_cells(self, reconstructed: int) -> None:
        """Seed arrivals reconstruct lines too; attribute to current round."""
        if self.rounds and reconstructed:
            self.rounds[-1].reconstructed += reconstructed
        if self.started and self.complete:
            self._finish("complete")

    @property
    def complete(self) -> bool:
        """Has the fetcher achieved its goal for this slot?"""
        if self.fetch_custody:
            return self.state.complete
        return self.state.sampling_complete

    # ------------------------------------------------------------------
    def _finish(self, reason: str) -> None:
        """End the fetch: the one exit of every fetcher (``reason``: see
        the module docstring; success is ``complete``)."""
        if self.finished:
            return
        self.reason = reason
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.started:
            self._close_queries(ending=True)
            success = reason == "complete"
            self._emit("fetch_done", success=success, reason=reason)
            if self.on_done is not None:
                self.on_done(success)
        self._release()

    def _release(self) -> None:
        # drop the builder's CB(f) objects and every per-round memo: the
        # slot state outlives the fetcher's work (a pipeline retires it
        # slots later), and without this every line's map would too;
        # ``on_done`` has run, and a closure over this fetcher would
        # otherwise keep a reference cycle
        self.on_done = None
        self.boost = {}
        self.inbound = {}
        self._picked = {}
        self._awaiting = {}
        self._silent = {}
