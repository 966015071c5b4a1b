"""Adaptive fetching (Algorithm 1): scoring, planning, rounds."""

from __future__ import annotations

import copy
import random
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Custody, cells_of_line
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher, RoundPlan, RoundStats, plan_queries, score_peers
from repro.core.reputation import ReputationLedger
from repro.core.seeding import SeedParcel, boost_map_for_line
from repro.obs import TraceRecorder
from repro.params import FetchSchedule, PandasParams, RetryPolicy
from repro.sim.bus import EventBus
from repro.sim.engine import Simulator
from tests.pins import ROWS


class TestScoring:
    def test_score_counts_cells_of_interest(self):
        scores = score_peers(
            candidate_cells={10: {1, 2}, 11: {3}},
            boost={},
            cb_boost=10_000,
        )
        assert scores == {10: 2.0, 11: 1.0}

    def test_boost_dominates(self):
        """cb_boost gives an overwhelming advantage (Section 7)."""
        scores = score_peers(
            candidate_cells={10: {1, 2, 3, 4, 5}, 11: {1}},
            boost={11: {1}},
            cb_boost=10_000,
        )
        assert scores[11] > scores[10]

    def test_boost_only_counts_missing_cells(self):
        fetcher, state, _sim, _sent = make_fetcher(custodians={0: [11]})
        fetcher.add_boost(boost_map_for_line([SeedParcel(11, 0, (1, 3))]))
        state.add_cells([1, 3])  # boost cells already held
        targets = fetcher.round_targets()
        candidates, boosted = fetcher._candidate_cells(
            targets, fetcher._missing_by_line(targets), frozenset()
        )
        assert 11 not in boosted
        scores = score_peers(candidates, boosted, cb_boost=10_000)
        assert scores[11] == float(len(candidates[11]))


class TestPlanning:
    def test_single_redundancy_covers_each_cell_once(self):
        plan = plan_queries(
            targets={1, 2, 3},
            ordered_peers=[10, 11],
            candidate_cells={10: {1, 2}, 11: {2, 3}},
            redundancy=1,
        )
        counts = {}
        for _peer, cells in plan:
            for cid in cells:
                counts[cid] = counts.get(cid, 0) + 1
        assert counts == {1: 1, 2: 1, 3: 1}

    def test_higher_redundancy_queries_more_peers(self):
        candidates = {p: {1} for p in range(10)}
        plan1 = plan_queries({1}, list(range(10)), candidates, redundancy=1)
        plan3 = plan_queries({1}, list(range(10)), candidates, redundancy=3)
        assert len(plan1) == 1
        assert len(plan3) == 3

    def test_respects_peer_order(self):
        plan = plan_queries(
            targets={1},
            ordered_peers=[99, 11],
            candidate_cells={99: {1}, 11: {1}},
            redundancy=1,
        )
        assert plan[0][0] == 99

    def test_skips_peers_without_interesting_cells(self):
        plan = plan_queries(
            targets={1},
            ordered_peers=[10, 11],
            candidate_cells={10: {5}, 11: {1}},
            redundancy=1,
        )
        assert [peer for peer, _ in plan] == [11]

    def test_stops_when_covered(self):
        candidates = {p: {1, 2} for p in range(50)}
        plan = plan_queries({1, 2}, list(range(50)), candidates, redundancy=2)
        assert len(plan) == 2

    def test_cells_requested_counts_multiplicity(self):
        candidates = {p: {1} for p in range(3)}
        plan = plan_queries({1}, [0, 1, 2], candidates, redundancy=3)
        assert RoundPlan(plan).cells_requested == 3


class ScriptedLedger:
    """A reputation ledger with scripted verdicts (``weight`` and
    ``quarantined`` as given, which may change over time) that collects
    the timeout evidence it is sent."""

    def __init__(self, weight=lambda peer: 1.0, quarantined=lambda peer: False):
        self.weight = weight
        self.quarantined = quarantined
        self.timeouts = []

    def record_timeout(self, peer):
        self.timeouts.append(peer)


def make_fetcher(params=None, custody=None, samples=(), custodians=None,
                 schedule=None, sim=None, sent=None, **fetcher_kwargs):
    params = params or PandasParams(
        base_rows=8, base_cols=8, custody_rows=1, custody_cols=1, samples=2
    )
    if schedule is not None:
        params = params.with_schedule(schedule)
    custody = custody or Custody(rows=(0,), cols=(3,))
    state = SlotCellState(params, custody, samples)
    sim = sim or Simulator()
    sent = sent if sent is not None else []
    custodians = custodians if custodians is not None else {}

    fetcher = AdaptiveFetcher(
        sim=sim,
        state=state,
        line_custodians=lambda line: custodians.get(line, []),
        send_query=lambda peer, cells: sent.append((sim.now, peer, cells)),
        rng=random.Random(1),
        self_id=999,
        **fetcher_kwargs,
    )
    return fetcher, state, sim, sent


def declare_inbound(fetcher, cells):
    """Declare ``cells`` inbound, each under the first custody line it
    lies on (a cell where two custody lines cross under the row)."""
    state = fetcher.state
    by_line: dict[int, set[int]] = {}
    for cid in cells:
        line = next(line for line in state.lines_of(cid) if line in state.custody_lines)
        by_line.setdefault(line, set()).add(cid)
    for line, group in by_line.items():
        fetcher.add_inbound(line, frozenset(group))


class TestRoundTargets:
    def test_targets_are_deficits_plus_samples(self):
        fetcher, state, _sim, _sent = make_fetcher(samples=[100, 101])
        targets = fetcher.round_targets()
        # row 0 (16 cells) needs 8; col 3 (16 cells) needs 8; +2 samples;
        # cell 3 lies on both custody lines, so the union loses one
        assert len(targets) == 8 + 8 + 2 - 1

    def test_targets_prefer_boosted_cells(self):
        fetcher, state, _sim, _sent = make_fetcher()
        boosted = (4, 5, 6)
        fetcher.add_boost(boost_map_for_line([SeedParcel(77, 0, boosted)]))
        targets = fetcher.round_targets()
        assert set(boosted) <= targets

    def test_crossing_line_entries_reach_the_intersection(self):
        """A row's inbound / boost entry naming the cell where it meets a
        custody column counts for that column's deficit too."""
        row, col_line = 15, 16 + 3
        crossing = row * 16 + 3  # position 15 of column 3: never picked in order
        fetcher, _state, _sim, _sent = make_fetcher(custody=Custody(rows=(row,), cols=(3,)))
        fetcher.add_inbound(row, frozenset({crossing}))
        # both lines count the declared cell against their deficit of 8
        row_picks = [cid for cid in cells_of_line(row, 16, 16) if cid != crossing][:7]
        col_picks = list(cells_of_line(col_line, 16, 16)[:7])
        assert fetcher.round_targets(1) == set(row_picks + col_picks)

        fetcher, _state, _sim, _sent = make_fetcher(custody=Custody(rows=(row,), cols=(3,)))
        fetcher.add_boost(boost_map_for_line([SeedParcel(77, row, (crossing,))]))
        # the located cell goes first on both lines
        row_picks = [crossing] + [c for c in cells_of_line(row, 16, 16) if c != crossing][:7]
        col_picks = [crossing] + list(cells_of_line(col_line, 16, 16)[:7])
        assert fetcher.round_targets(1) == set(row_picks + col_picks)

    def test_targets_shrink_with_held_cells(self):
        fetcher, state, _sim, _sent = make_fetcher()
        state.add_cells([0, 1, 2])
        targets = fetcher.round_targets()
        row_targets = [t for t in targets if t < 16]
        assert len(row_targets) == 8 - 3

    def test_complete_line_contributes_nothing(self):
        fetcher, state, _sim, _sent = make_fetcher()
        state.add_cells(cells_of_line(0, 16, 16))
        assert all(t % 16 == 3 for t in fetcher.round_targets())  # only col 3

    def test_sample_only_mode(self):
        fetcher, state, _sim, _sent = make_fetcher(samples=[40])
        fetcher.fetch_custody = False
        assert fetcher.round_targets() == {40}


class TestScanCandidates:
    """``_scan_candidates``: which custodians are offered which cells."""

    def test_peers_in_first_encounter_order(self):
        custodians = {5: [30, 10, 20], 7: [40, 10, 50]}
        fetcher, _state, _sim, _sent = make_fetcher(custodians=custodians)
        candidates = fetcher._scan_candidates({5: {1, 2}, 7: {3}}, frozenset())
        assert list(candidates) == [30, 10, 20, 40, 50]

    def test_self_queried_and_excluded_peers_skipped(self):
        asked = []

        def exclude(peer):
            asked.append(peer)
            return peer == 20

        custodians = {5: [999, 10, 20, 30], 7: [20, 30, 999, 10, 40]}
        fetcher, _state, _sim, _sent = make_fetcher(
            custodians=custodians, reputation=ScriptedLedger(quarantined=exclude)
        )
        fetcher._issue_query(10, frozenset({1}), 1)
        candidates = fetcher._scan_candidates({5: {1}, 7: {2}}, frozenset())
        assert list(candidates) == [30, 40]
        # self (999) and queried (10) never reach the filter; the rest
        # are asked once each, however many lines they share with us
        assert asked == [20, 30, 40]

    def test_single_line_peer_gets_the_line_set_itself(self):
        fetcher, _state, _sim, _sent = make_fetcher(custodians={5: [10], 7: [11]})
        missing_by_line = {5: {1, 2}, 7: {3}}
        candidates = fetcher._scan_candidates(missing_by_line, frozenset())
        assert candidates[10] is missing_by_line[5]
        assert candidates[11] is missing_by_line[7]

    def test_peers_on_the_same_lines_share_one_union(self):
        custodians = {5: [10, 11, 12], 7: [10, 11]}
        fetcher, _state, _sim, _sent = make_fetcher(custodians=custodians)
        missing_by_line = {5: {1, 2}, 7: {3}}
        candidates = fetcher._scan_candidates(missing_by_line, frozenset())
        assert candidates[10] == {1, 2, 3}
        assert candidates[10] is candidates[11]
        assert candidates[12] is missing_by_line[5]

    def test_peers_the_plan_pools_are_offered_before_their_flag_is_set(self):
        fetcher, _state, _sim, _sent = make_fetcher(custodians={5: [10, 11, 12]})
        for peer in (10, 11):
            fetcher._issue_query(peer, frozenset({1}), 1)
        candidates = fetcher._scan_candidates({5: {1}}, {11})
        assert list(candidates) == [11, 12]
        assert not fetcher.queries[11].pooled


class TestRounds:
    def test_round_schedule_timing(self):
        custodians = {line: [1, 2, 3, 4, 5, 6, 7, 8] for line in range(32)}
        fetcher, state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=1.0)
        times = sorted({t for t, _p, _c in sent})
        # rounds at 0, 0.4, 0.6, then every 0.1
        assert times[0] == pytest.approx(0.0)
        assert times[1] == pytest.approx(0.4)
        assert times[2] == pytest.approx(0.6)
        assert times[3] == pytest.approx(0.7)

    def test_peer_asked_again_only_after_every_custodian_and_its_round(self):
        """The recycle contract: a peer is asked a second time only once
        every custodian has been asked and that peer's round has expired."""
        custodians = {line: list(range(20)) for line in range(32)}
        fetcher, state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=2.0)
        asked_at: dict[int, float] = {}
        for t, peer, _cells in sent:
            if peer in asked_at:
                assert set(asked_at) == set(range(20))
                query_round = next(r for r in fetcher.rounds if r.started_at == asked_at[peer])
                assert query_round.deadline <= t
            asked_at[peer] = t
        assert len(sent) > 20  # and the pool was recycled

    def test_lone_silent_custodian_asked_every_round_until_exhausted(self):
        custodians = {0: [1]}  # a single, forever-silent peer for everything
        fetcher, state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=10.0)
        # rounds 1 and 2 ask once, then the settle round recycles it each round
        assert [t for t, _p, _c in sent] == pytest.approx(
            [r.started_at for r in fetcher.rounds if r.messages_sent]
        )
        assert len(sent) == len(fetcher.rounds) - 1  # round 2 finds nobody
        assert {p for _t, p, _c in sent} == {1}
        assert fetcher.reason == "exhausted" and fetcher._timer is None

    def test_start_idempotent(self):
        fetcher, _state, sim, sent = make_fetcher(custodians={0: [1]})
        fetcher.start()
        fetcher.start()
        sim.run(until=0.01)
        assert len(sent) == 1

    def test_completes_on_response(self):
        done = []
        custodians = {line: [1] for line in range(32)}
        fetcher, state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.on_done = lambda ok: done.append(ok)
        fetcher.start()
        sim.run(until=0.01)
        # deliver everything: both custody lines fully
        cells = cells_of_line(0, 16, 16) + cells_of_line(16 + 3, 16, 16)
        fetcher.on_response(1, tuple(cells))
        assert fetcher.finished
        assert done == [True]

    def test_gives_up_at_max_rounds(self):
        done = []
        schedule = FetchSchedule(timeouts=(0.1,), redundancy=(1,), max_rounds=3)
        custodians = {line: list(range(50)) for line in range(32)}
        fetcher, state, sim, sent = make_fetcher(custodians=custodians, schedule=schedule)
        fetcher.on_done = lambda ok: done.append(ok)
        fetcher.start()
        sim.run(until=5.0)
        assert done == [False]

    def test_round_stats_recorded(self):
        custodians = {line: list(range(8)) for line in range(32)}
        sim = Simulator()
        tracer = TraceRecorder(kinds=["fetch_round"])
        fetcher, state, sim, sent = make_fetcher(
            custodians=custodians, sim=sim, events=EventBus(sim, [tracer]), slot=0
        )
        fetcher.start()
        sim.run(until=0.5)
        rounds = fetcher.rounds
        assert rounds[0].index == 1
        assert rounds[0].messages_sent == len([s for s in sent if s[0] == 0.0])
        assert rounds[0].cells_requested > 0
        # each planned round is also published on the bus
        first = tracer.events[0]
        assert (first.slot, first.node) == (0, 999)
        assert first.data["round"] == 1
        assert first.data["queries"] == rounds[0].messages_sent

    def test_reply_in_vs_after_round_attribution(self):
        custodians = {line: list(range(8)) for line in range(32)}
        fetcher, state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=0.01)
        peer = sent[0][1]
        in_cells = tuple(sent[0][2])[:1]
        fetcher.on_response(peer, in_cells)  # now=0.01 < 0.4 deadline
        assert fetcher.rounds[0].replies_in_round == 1
        sim.run(until=0.5)
        fetcher.on_response(peer, tuple(sent[0][2])[1:2])
        assert fetcher.rounds[0].replies_after_round == 1

    def test_duplicate_accounting(self):
        custodians = {line: list(range(8)) for line in range(32)}
        fetcher, state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=0.01)
        peer = sent[0][1]
        cell = next(iter(sent[0][2]))
        fetcher.on_response(peer, (cell,))
        fetcher.on_response(peer, (cell,))
        assert fetcher.rounds[0].duplicates == 1

    def test_self_never_queried(self):
        custodians = {line: [999, 1] for line in range(32)}  # includes self
        fetcher, state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=0.01)
        assert all(p != 999 for _t, p, _c in sent)


class TestExhaustionAndQuarantine:
    """Robustness extensions: peer recycling, quarantine exclusion,
    honest give-up when the peer pool is exhausted, and timer hygiene."""

    def test_retry_recycles_silent_peers(self):
        custodians = {0: [1]}  # a single, forever-silent custodian
        fetcher, _state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=2.0)
        peers = [p for _t, p, _c in sent]
        # unlike the vanilla queried-once policy, the exhausted pool
        # re-opens the silent peer instead of stalling forever
        assert peers.count(1) > 1

    def test_responded_peer_recycled_as_last_resort(self):
        custodians = {0: [1]}
        fetcher, _state, sim, sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=0.01)
        fetcher.on_response(1, ())  # replied, but served nothing useful
        sim.run(until=2.0)
        peers = [p for _t, p, _c in sent]
        assert peers.count(1) > 1
        assert not fetcher.finished

    def test_retry_exhaustion_gives_up_honestly(self):
        done = []
        schedule = FetchSchedule(timeouts=(0.1,), redundancy=(1,), max_rounds=4)
        fetcher, _state, sim, sent = make_fetcher(custodians={0: [1]}, schedule=schedule)
        fetcher.on_done = lambda ok: done.append(ok)
        fetcher.start()
        sim.run(until=5.0)
        # recycling kept the schedule alive past the vanilla dead-end...
        assert len(sent) > 1
        # ...but max_rounds still terminates it, and the metrics are honest
        assert done == [False]
        assert fetcher.reason == "exhausted"
        assert fetcher._timer is None

    def test_all_peers_quarantined_terminates_schedule(self):
        custodians = {line: [1, 2, 3] for line in range(32)}
        fetcher, _state, sim, sent = make_fetcher(
            custodians=custodians,
            # everyone quarantined
            reputation=ScriptedLedger(quarantined=lambda peer: True),
        )
        fetcher.start()
        sim.run(until=10.0)
        assert sent == []  # no queries ever leave the node
        assert fetcher._timer is None  # and the round schedule stopped
        assert fetcher.reason == "starved"

    def test_every_custodian_quarantined_after_settle_ends_starved(self):
        """Both custodians asked, then quarantined from the settle round
        on: recycling finds nobody, so the fetch ends ``starved`` at once
        rather than waiting silently with no round scheduled."""
        sim = Simulator()
        tracer = TraceRecorder(kinds=["fetch_done"])
        done = []
        fetcher, _state, sim, sent = make_fetcher(
            custodians={0: [1, 2]},
            sim=sim,
            events=EventBus(sim, [tracer]),
            slot=0,
            reputation=ScriptedLedger(quarantined=lambda peer: sim.now >= 0.6),
            on_done=done.append,
        )
        fetcher.start()
        sim.run(until=10.0)
        assert sorted(p for _t, p, _c in sent) == [1, 2]
        assert fetcher.reason == "starved" and done == [False]
        assert len(fetcher.rounds) == 3 and sim.pending == 0
        (end,) = tracer.events
        assert end.data["reason"] == "starved" and end.t == pytest.approx(0.6)

    def test_quarantined_peer_excluded_from_query_plans(self):
        custodians = {line: [12, 13] for line in range(32)}
        fetcher, _state, sim, sent = make_fetcher(
            custodians=custodians,
            reputation=ScriptedLedger(quarantined=lambda peer: peer == 13),
        )
        fetcher.start()
        sim.run(until=2.0)
        peers = {p for _t, p, _c in sent}
        assert 13 not in peers
        assert 12 in peers

    def test_reputation_weight_steers_first_round(self):
        custodians = {0: [1, 2]}  # identical holdings
        fetcher, _state, sim, sent = make_fetcher(
            custodians=custodians,
            reputation=ScriptedLedger(weight=lambda peer: 0.1 if peer == 1 else 1.0),
        )
        fetcher.start()
        sim.run(until=0.01)
        # round 1 (redundancy 1) goes entirely to the clean peer
        assert {p for _t, p, _c in sent} == {2}

    def test_timeout_reported_once_per_peer(self):
        ledger = ReputationLedger()
        fetcher, _state, sim, _sent = make_fetcher(custodians={0: [1]}, reputation=ledger)
        fetcher.start()
        sim.run(until=2.0)
        assert list(ledger.stats) == [1] and ledger.stats[1].timeouts == 1

    def test_no_timer_leak_across_reset(self):
        schedule = FetchSchedule(timeouts=(0.1,), redundancy=(1,), max_rounds=4)
        fetcher, _state, sim, _sent = make_fetcher(
            custodians={0: [1]}, schedule=schedule
        )
        fetcher.start()
        sim.run(until=5.0)
        assert fetcher.finished
        assert sim.pending == 0  # give-up left nothing scheduled
        sim.reset()
        assert sim.pending == 0 and sim.now == 0.0
        # the drained engine hosts a fresh fetcher without interference
        fetcher2, _state2, _sim, sent2 = make_fetcher(
            custodians={0: [7]}, sim=sim
        )
        fetcher2.start()
        sim.run(until=0.01)
        assert [p for _t, p, _c in sent2] == [7]

    def test_stop_mid_flight_cancels_timer(self):
        custodians = {line: list(range(8)) for line in range(32)}
        fetcher, _state, sim, _sent = make_fetcher(custodians=custodians)
        fetcher.start()
        sim.run(until=0.01)
        assert fetcher._timer is not None
        fetcher.stop()
        assert fetcher._timer is None
        sim.run(until=10.0)
        assert sim.pending == 0


class TestQueryLedgerOrder:
    """The ledger keeps one record per peer and moves a re-queried record
    to the end: open queries close in issue order, timeout evidence is
    sent once per peer, and a reply after its query closed is a late
    reply whose cells still count."""

    def test_requeried_peers_close_in_reissue_order(self):
        sim = Simulator()
        tracer = TraceRecorder(
            kinds=["query_issue", "query_timeout", "query_recycle",
                   "query_cancel", "query_late_reply"]
        )

        def weight(peer):
            # peer 1 out-scores peer 2 until t = 0.5, then the reverse
            preferred = 1 if sim.now < 0.5 else 2
            return 1.0 if peer == preferred else 0.5

        ledger = ScriptedLedger(weight=weight)
        fetcher, state, sim, sent = make_fetcher(
            custodians={0: [1, 2]},  # two silent custodians of row 0
            schedule=FetchSchedule(max_rounds=5),
            sim=sim,
            events=EventBus(sim, [tracer]),
            slot=0,
            reputation=ledger,
        )
        fetcher.start()
        sim.run(until=0.85)
        assert fetcher.reason == "exhausted"  # gave up at round 5

        def row(event):
            data = event.data
            if event.kind == "query_recycle":
                return (round(event.t, 6), event.kind, data["pool"], data["count"])
            return (round(event.t, 6), event.kind, data["peer"], data["round"])

        assert [row(event) for event in tracer.events] == [
            (0.0, "query_issue", 1, 1),
            (0.4, "query_timeout", 1, 1),
            (0.4, "query_issue", 2, 2),
            # settle round: both recycled, re-asked in the reverse order
            (0.6, "query_timeout", 2, 2),
            (0.6, "query_recycle", "unresponsive", 2),
            (0.6, "query_issue", 2, 3),
            (0.6, "query_issue", 1, 3),
            # the re-queries close in re-issue order, not first-ask order
            (0.7, "query_timeout", 2, 3),
            (0.7, "query_timeout", 1, 3),
            (0.7, "query_recycle", "unresponsive", 2),
            (0.7, "query_issue", 2, 4),
            (0.7, "query_issue", 1, 4),
            (0.8, "query_timeout", 2, 4),
            (0.8, "query_timeout", 1, 4),
        ]
        assert ledger.timeouts == [1, 2]  # each peer's timeout evidence sent once

        # peer 1 finally answers its first query: every query is closed,
        # so it is a late reply, and its cell is stored all the same
        first_cells = sent[0][2]
        cell = min(first_cells)
        fetcher.on_response(1, (cell,))
        late = tracer.events[-1]
        assert late.kind == "query_late_reply"
        assert (late.data["peer"], late.data["new"]) == (1, 1)
        assert state.has_cell(cell)
        assert fetcher.queries[1].cells[: len(first_cells)] == tuple(first_cells)


def unmemoized(fetcher):
    """A copy of ``fetcher`` that shares its maps, ledger and held cells
    but none of its per-round memos: every answer recomputed."""
    clone = copy.copy(fetcher)
    clone._picked = {}
    clone.state = copy.copy(fetcher.state)
    clone.state._missing_memo = None
    return clone


class TestRoundMemo:
    """A round recomputes only what changed, and plans exactly as a
    recomputation from scratch: the same targets, iterated in the same
    order, and the same plan from the same RNG state (the shuffle reads
    the candidate map in its first-encounter order)."""

    @pytest.mark.parametrize("name", ["dead", "faults", "pipeline", "starved"])
    def test_every_round_matches_a_recomputation(self, name, monkeypatch):
        plan_round = AdaptiveFetcher.plan_round
        seen = Counter()

        def checked_plan(self, index):
            draws = self.rng.getstate()
            plan = plan_round(self, index)
            clone = unmemoized(self)
            clone.rng = random.Random()
            clone.rng.setstate(draws)
            assert plan_round(clone, index) == plan
            assert clone.rng.getstate() == self.rng.getstate()
            assert list(self.round_targets(index)) == list(clone.round_targets(index))
            seen["rounds"] += 1
            seen["settled"] += index >= self.schedule.settle_round
            seen["recycled"] += bool(plan.recycled)
            seen[plan.end] += 1
            ledger = self.reputation
            seen["quarantined"] += ledger is not None and any(
                map(ledger.quarantined, self.queries)
            )
            return plan

        monkeypatch.setattr(AdaptiveFetcher, "plan_round", checked_plan)
        ROWS[name][0]().run()
        # the settle flip is crossed in every config; the faults run
        # quarantines peers, and the dead-peer run's fetchers recycle
        # behind a backoff until the deadline abandons them
        assert seen["settled"] and seen["rounds"] > seen["settled"]
        if name == "faults":
            assert seen["quarantined"]
        if name == "dead":
            assert seen["recycled"] and seen["abandoned"]
        if name == "starved":
            assert seen["starved"] and seen["abandoned"]

    def test_boost_arriving_after_start_is_picked_up(self):
        custody = Custody(rows=(0,), cols=(3,))
        fetcher, _state, sim, _sent = make_fetcher(
            custody=custody, custodians={0: [11], 19: [12]}
        )
        fetcher.start()
        before = fetcher.round_targets(2)
        located = (9, 10, 11, 12, 13, 14, 15)  # past row 0's first 8 cells
        fetcher.add_boost(boost_map_for_line([SeedParcel(11, 0, located)]))
        after = fetcher.round_targets(2)
        assert list(after) == list(AdaptiveFetcher.round_targets(unmemoized(fetcher), 2))
        assert set(located) <= after and not set(located) <= before

    def test_silent_rounds_recompute_no_line_and_visit_only_open_queries(
        self, monkeypatch
    ):
        """Custodians that never answer and no cell arrivals: the picks
        are computed once per line, and the timeout sweep and the recycle
        visit each query a bounded number of times, however many rounds
        run (the whole ledger used to be walked every round)."""
        lines_read = Counter()
        missing_in_line = SlotCellState.missing_in_line

        def counted_missing(self, line):
            lines_read[line] += 1
            return missing_in_line(self, line)

        monkeypatch.setattr(SlotCellState, "missing_in_line", counted_missing)

        class Visits(dict):
            """A dict that counts the entries its iteration visits."""

            def __init__(self, tally):
                super().__init__()
                self.tally = tally

            def __iter__(self):
                for key in super().__iter__():
                    self.tally["visits"] += 1
                    yield key

            def items(self):
                return ((key, self[key]) for key in self)

            def values(self):
                return (self[key] for key in self)

        silent, answering = list(range(100, 112)), list(range(200, 240))
        for max_rounds in (10, 40):
            lines_read.clear()
            tally = Counter()
            # every peer holds both custody lines; the answering ones reply
            # at once with nothing usable and stay consumed, the silent
            # ones time out and are recycled whenever the pool runs dry
            fetcher, state, sim, sent = make_fetcher(
                custodians={0: silent + answering, 19: silent + answering},
                schedule=FetchSchedule.constant(redundancy=4, max_rounds=max_rounds),
                reputation=ScriptedLedger(),
            )

            def send(peer, cells, sim=sim, fetcher=fetcher, sent=sent):
                sent.append(peer)
                if peer in answering:
                    sim.call_after(0.01, fetcher.on_reply, peer, (), frozenset())

            fetcher.send_query = send
            for name in ("queries", "_awaiting", "_silent"):
                setattr(fetcher, name, Visits(tally))
            fetcher.start()
            sim.run()
            assert len(fetcher.rounds) == max_rounds - 1
            assert dict(lines_read) == {0: 1, 19: 1}
            # each query is visited once by the sweep that finds it
            # expired and at most once more by the recycle that pools it
            assert 0 < tally["visits"] <= 2 * len(sent)


def swept_fetcher(asked, replied=(), corrupt=(), **kwargs):
    """A hand-built fetcher whose round 1 asked ``asked`` (peer -> cells),
    started and expired at t = 0, and was swept as the next round's tick
    sweeps it: the state that round's plan reads, reached without running
    the simulator. ``replied`` peers answered with nothing usable;
    ``corrupt`` ones served invalid cells earlier and are quarantined.
    Returns the fetcher, the send log and the bus recorder."""
    sim = Simulator()
    tracer = TraceRecorder()
    ledger = ReputationLedger()
    ledger.observe_epoch(0)
    for peer in corrupt:
        ledger.record_invalid(peer, 10)
    fetcher, state, sim, sent = make_fetcher(
        sim=sim, events=EventBus(sim, [tracer]), slot=0, reputation=ledger, **kwargs
    )
    fetcher.rounds.append(RoundStats(index=1))
    for peer, cells in asked.items():
        fetcher._issue_query(peer, frozenset(cells), 1)
    for peer in replied:
        fetcher.on_reply(peer, (), frozenset())
    for peer in asked:  # expired: the silent ones wait for the recycle
        query = fetcher._awaiting.pop(peer)
        if not query.replied:
            fetcher._silent[peer] = query
    return fetcher, sent, tracer


ROW_0 = cells_of_line(0, 16, 16)
COL_3 = cells_of_line(16 + 3, 16, 16)
# peer 1, the lone custodian of row 0, never answers; waves back off 50 ms
# (jitter up to half that) after 100 ms rounds
LONE = {"custodians": {0: [1]}, "asked": {1: ROW_0[:8]}}
JITTERED = RetryPolicy(base=0.05, multiplier=2.0, max_backoff=0.8, jitter=0.5, max_waves=4)


def backoff_fetcher(deadline_at):
    params = PandasParams(
        base_rows=8, base_cols=8, custody_rows=1, custody_cols=1, samples=2,
        fetch_retry=JITTERED,
    )
    schedule = FetchSchedule(timeouts=(0.1,), redundancy=(1,), max_rounds=50)
    return swept_fetcher(params=params, schedule=schedule, deadline_at=deadline_at, **LONE)


def both_passes_fetcher():
    """Peer 10 (row 0) answered unusably; silent peer 20 holds only column
    3, which has since been completed."""
    fetcher, sent, tracer = swept_fetcher(
        custodians={0: [10], 19: [20]},
        asked={10: ROW_0[:8], 20: COL_3[:8]},
        replied=(10,),
    )
    fetcher.state.add_cells(COL_3)
    return fetcher, sent, tracer


# (fetcher, the round its plan is for), one per outcome of an exhausted pool
OUTCOMES = {
    "both passes": lambda: (both_passes_fetcher(), 3),
    "wave": lambda: (backoff_fetcher(deadline_at=100.0), 2),
    "refused wave": lambda: (backoff_fetcher(deadline_at=0.1), 2),
    "starved": lambda: (swept_fetcher(corrupt=(1,), **LONE), 3),
}


class TestRoundPlan:
    """``plan_round`` on hand-built fetchers, with no simulation run: one
    per outcome of an exhausted pool, and none changes the fetcher."""

    @staticmethod
    def effects(fetcher, sent, tracer):
        """Everything a plan must leave as it found it."""
        ledger = fetcher.reputation
        return (
            [(peer, astuple(query)) for peer, query in fetcher.queries.items()],
            list(fetcher._awaiting),
            list(fetcher._silent),
            [astuple(stats) for stats in fetcher.rounds],
            (fetcher.retry_waves, fetcher._timer, fetcher.reason),
            list(sent),
            list(tracer.events),
            {peer: astuple(stats) for peer, stats in ledger.stats.items()},
            dict(ledger.quarantined_in),
        )

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_planning_twice_from_one_rng_state_changes_nothing(self, outcome):
        (fetcher, sent, tracer), index = OUTCOMES[outcome]()
        before = self.effects(fetcher, sent, tracer)
        draws = fetcher.rng.getstate()
        first = fetcher.plan_round(index)
        fetcher.rng.setstate(draws)
        assert fetcher.plan_round(index) == first
        assert self.effects(fetcher, sent, tracer) == before

    def test_unresponsive_pass_then_responded_pass(self):
        (fetcher, _sent, _tracer), index = OUTCOMES["both passes"]()
        targets = fetcher.round_targets(index)
        plan = fetcher.plan_round(index)
        # silent 20 holds nothing still missing, so the responded pass runs
        assert plan.recycled == (("unresponsive", (20,)), ("responded", (10,)))
        assert plan.queries == ((10, frozenset(targets)),)
        assert (plan.wave, plan.end, plan.targets) == (None, None, len(targets))
        assert plan.timeout == fetcher.schedule.timeout(index)

    def test_backoff_wave_draws_its_jitter(self):
        (fetcher, _sent, _tracer), index = OUTCOMES["wave"]()
        draw = random.Random(1).random()  # the fetcher's first draw
        plan = fetcher.plan_round(index)
        assert plan.recycled == (("unresponsive", (1,)),)
        assert plan.queries == ()  # the recycled peer waits for the wave
        assert plan.wave == pytest.approx(0.05 * (1 + 0.5 * draw))
        assert plan.end is None

    def test_refused_wave_ends_abandoned_and_draws_nothing(self):
        (fetcher, _sent, _tracer), index = OUTCOMES["refused wave"]()
        draws = fetcher.rng.getstate()
        plan = fetcher.plan_round(index)
        # 0.05 * 1.5 of worst-case backoff plus a 0.1 s round overrun 0.1 s
        assert plan == RoundPlan(timeout=0.1, targets=plan.targets, end="abandoned")
        assert plan.targets and fetcher.rng.getstate() == draws

    def test_starved_when_the_recycled_peer_is_quarantined(self):
        (fetcher, _sent, _tracer), index = OUTCOMES["starved"]()
        plan = fetcher.plan_round(index)
        assert plan.recycled == (("unresponsive", (1,)),)
        assert (plan.queries, plan.wave, plan.end) == ((), None, "starved")


class TestSettleRoundGate:
    """The recycle/inbound gates derive from the schedule, not a
    hard-coded round 3 (regression: the gate used to be ``index >= 3``
    even for single-timeout schedules)."""

    def test_settle_round_derivation(self):
        assert FetchSchedule().settle_round == 3
        assert FetchSchedule(timeouts=(0.1,), redundancy=(1,)).settle_round == 1
        assert FetchSchedule(timeouts=(0.4, 0.2), redundancy=(1,)).settle_round == 2
        # max_rounds clamps the derivation for degenerate schedules
        assert FetchSchedule(timeouts=(0.4, 0.2, 0.1), max_rounds=2).settle_round == 2

    def test_recycle_begins_at_schedule_settle_round(self):
        """A two-timeout schedule recycles silent peers at round 2
        (t=0.4), not at the default schedule's round 3 (t=0.6)."""
        schedule = FetchSchedule(timeouts=(0.4, 0.2), redundancy=(1,), max_rounds=50)
        fetcher, _state, sim, sent = make_fetcher(custodians={0: [1]}, schedule=schedule)
        fetcher.start()
        sim.run(until=0.45)
        times = [t for t, _p, _c in sent]
        assert times[0] == pytest.approx(0.0)
        assert times[1] == pytest.approx(0.4)  # recycled at the settle round

    def test_inbound_distrust_follows_settle_round(self):
        """Declared-inbound cells become fetchable exactly at the
        settle round of whatever schedule is configured."""
        constant = FetchSchedule.constant(0.4, 1)  # settle_round == 1
        fetcher, _state, _sim, _sent = make_fetcher(schedule=constant)
        declare_inbound(fetcher, fetcher.round_targets(1))
        # settle round already reached: lost inbound is fetchable at once
        assert fetcher.round_targets(1)
        default_fetcher, _s, _si, _se = make_fetcher()
        declare_inbound(default_fetcher, default_fetcher.round_targets(1))
        # default schedule trusts inbound until round 3
        assert not default_fetcher.round_targets(2)
        assert default_fetcher.round_targets(3)


class TestRetryBackoff:
    """The one retry rule: a fetch with a deadline backs its recycle
    waves off by ``params.fetch_retry`` and stops at the deadline; one
    without recycles on the round tick."""

    @staticmethod
    def fetcher(policy=None, schedule=None, **kwargs):
        """A fetcher whose lone custodian (peer 1 of row 0) never answers."""
        params = PandasParams(
            base_rows=8, base_cols=8, custody_rows=1, custody_cols=1, samples=2,
            fetch_retry=policy or RetryPolicy(),
        )
        schedule = schedule or FetchSchedule(timeouts=(0.1,), redundancy=(1,), max_rounds=50)
        kwargs.setdefault("custodians", {0: [1]})
        return make_fetcher(params=params, schedule=schedule, **kwargs)

    def test_backoff_waves_follow_policy_delays(self):
        policy = RetryPolicy(base=0.05, multiplier=2.0, max_backoff=0.8,
                             jitter=0.0, max_waves=3)
        fetcher, _state, sim, sent = self.fetcher(policy, deadline_at=100.0)
        fetcher.start()
        sim.run(until=5.0)
        times = [t for t, _p, _c in sent]
        # waves at +0.05, +0.1, +0.2 after each 0.1s round expiry
        assert times == pytest.approx([0.0, 0.15, 0.35, 0.65])
        assert fetcher.retry_waves == 3
        assert fetcher.reason == "abandoned"  # wave budget spent
        assert fetcher._timer is None  # nothing left scheduled
        assert sim.pending == 0

    def test_backoff_exhaustion_at_slot_deadline(self):
        """Waves stop as soon as a backed-off round could no longer
        complete before ``deadline_at`` — not when max_waves runs out."""
        policy = RetryPolicy(base=0.05, multiplier=2.0, max_backoff=0.8,
                             jitter=0.0, max_waves=50)
        fetcher, _state, sim, sent = self.fetcher(policy, deadline_at=0.5)
        fetcher.start()
        sim.run(until=5.0)
        # wave 0 (0.1+0.05+0.1 <= 0.5) and wave 1 (0.25+0.1+0.1 <= 0.5)
        # fit; wave 2 (0.45+0.2+0.1 > 0.5) is abandoned
        assert [t for t, _p, _c in sent] == pytest.approx([0.0, 0.15, 0.35])
        assert fetcher.retry_waves == 2
        assert fetcher.reason == "abandoned"
        assert fetcher._timer is None
        # every query (original + both retry waves) went to the lone peer
        assert {p for _t, p, _c in sent} == {1}

    def test_abandoned_retry_draws_no_randomness(self):
        """The deadline check uses worst-case jitter so an abandoned
        wave consumes nothing from the seeded stream."""
        policy = RetryPolicy(base=10.0, multiplier=2.0, max_backoff=10.0,
                             jitter=0.5, max_waves=50)
        fetcher, _state, sim, sent = self.fetcher(policy, deadline_at=4.0)
        fetcher.start()
        before = fetcher.rng.getstate()
        sim.run(until=5.0)
        assert fetcher.retry_waves == 0
        assert fetcher.reason == "abandoned"
        assert fetcher.rng.getstate() == before

    def test_retry_against_fully_quarantined_peers(self):
        """A retry policy never resurrects quarantined peers: no
        queries, no waves, and the schedule still terminates."""
        fetcher, _state, sim, sent = self.fetcher(
            RetryPolicy(jitter=0.0), schedule=FetchSchedule(), deadline_at=4.0,
            custodians={line: [1, 2, 3] for line in range(32)},
            reputation=ScriptedLedger(quarantined=lambda peer: True),
        )
        fetcher.start()
        sim.run(until=10.0)
        assert sent == []
        assert fetcher.retry_waves == 0
        assert fetcher.reason == "starved"
        assert fetcher._timer is None
        assert sim.pending == 0

    def test_jittered_backoff_replays_bit_identically(self):
        """Same seeds, same config: jittered wave timing is part of the
        deterministic replay."""
        policy = RetryPolicy(base=0.05, multiplier=2.0, max_backoff=0.8,
                             jitter=0.5, max_waves=4)

        def run_once():
            fetcher, _state, sim, sent = self.fetcher(policy, deadline_at=100.0)
            fetcher.start()
            sim.run(until=5.0)
            return [(t, p) for t, p, _c in sent]

        first, second = run_once(), run_once()
        assert first == second
        # the jitter actually perturbed the wave timing (first wave is
        # 0.05 * (1 + 0.5 * u) after the 0.1s round, u drawn seeded)
        assert first[1][0] != pytest.approx(0.15)
        assert 0.15 < first[1][0] <= 0.175 + 1e-9

    def test_fetch_without_deadline_recycles_on_round_tick(self):
        """No deadline (a retrieval probe): the recycle re-queries on the
        round tick with no backoff, whatever the policy says."""
        schedule = FetchSchedule(timeouts=(0.1,), redundancy=(1,), max_rounds=6)
        fetcher, _state, sim, sent = self.fetcher(
            RetryPolicy(base=10.0, max_waves=1), schedule=schedule
        )
        fetcher.start()
        sim.run(until=5.0)
        times = [t for t, _p, _c in sent]
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
        assert fetcher.retry_waves == 0 and fetcher.reason == "exhausted"

    def test_no_round_starts_at_or_after_the_deadline(self):
        """Custody and samples alike stop at the deadline: the round tick
        that reaches it ends the fetch ``abandoned`` with nothing asked,
        although untried custodians remain."""
        fetcher, _state, sim, sent = self.fetcher(
            schedule=FetchSchedule(), deadline_at=0.75,
            custodians={0: list(range(1, 200)), 11: list(range(200, 400))},
        )
        fetcher.start()
        sim.run(until=5.0)
        rounds = [r.started_at for r in fetcher.rounds]
        assert rounds == pytest.approx([0.0, 0.4, 0.6, 0.7])
        assert max(t for t, _p, _c in sent) < 0.75
        assert fetcher.retry_waves == 0
        assert fetcher.reason == "abandoned"
        assert sim.pending == 0


@given(
    redundancy=st.integers(1, 5),
    num_peers=st.integers(1, 12),
    num_cells=st.integers(1, 20),
)
@settings(max_examples=60, deadline=None)
def test_plan_redundancy_invariant(redundancy, num_peers, num_cells):
    """Every target gets min(k, available peers holding it) queries."""
    rng = random.Random(redundancy * 100 + num_peers * 10 + num_cells)
    targets = set(range(num_cells))
    candidates = {
        p: {c for c in targets if rng.random() < 0.5} for p in range(num_peers)
    }
    plan = plan_queries(targets, list(candidates), candidates, redundancy)
    counts = {c: 0 for c in targets}
    for _peer, cells in plan:
        for cid in cells:
            counts[cid] += 1
    for cid in targets:
        holders = sum(1 for p in candidates if cid in candidates[p])
        assert counts[cid] >= min(redundancy, holders) or counts[cid] >= holders
        assert counts[cid] <= holders
