"""Fetcher configuration modes: sampling-only completion, query caps, inbound."""

from __future__ import annotations

import random


from repro.core.assignment import Custody, cells_of_line
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher, plan_queries
from repro.params import PandasParams
from repro.sim.engine import Simulator


def make_fetcher(samples=(), custodians=None, **kwargs):
    params = PandasParams(
        base_rows=8, base_cols=8, custody_rows=1, custody_cols=1, samples=2
    )
    state = SlotCellState(params, Custody(rows=(0,), cols=(3,)), samples)
    sim = Simulator()
    sent = []
    custodians = custodians if custodians is not None else {}
    fetcher = AdaptiveFetcher(
        sim=sim,
        state=state,
        line_custodians=lambda line: custodians.get(line, []),
        send_query=lambda peer, cells: sent.append((sim.now, peer, cells)),
        rng=random.Random(1),
        self_id=999,
        **kwargs,
    )
    return fetcher, state, sim, sent


class TestQueryCap:
    def test_cap_limits_query_size(self):
        plan = plan_queries(
            targets=set(range(40)),
            ordered_peers=[1],
            candidate_cells={1: set(range(40))},
            redundancy=1,
            max_cells_per_query=16,
        )
        assert len(plan) == 1
        assert len(plan[0][1]) == 16

    def test_no_cap_takes_everything(self):
        plan = plan_queries(
            targets=set(range(40)),
            ordered_peers=[1],
            candidate_cells={1: set(range(40))},
            redundancy=1,
            max_cells_per_query=None,
        )
        assert len(plan[0][1]) == 40

    def test_cap_spreads_over_more_peers(self):
        candidates = {p: set(range(64)) for p in range(10)}
        plan = plan_queries(set(range(64)), list(range(10)), candidates, 1, 16)
        assert len(plan) == 4  # 64 cells / 16 per query


class TestInboundHandling:
    def test_inbound_cells_deferred_until_round3(self):
        fetcher, state, _sim, _sent = make_fetcher()
        row_cells = cells_of_line(0, 16, 16)
        fetcher.add_inbound(0, frozenset(row_cells[:8]))
        early = fetcher.round_targets(1)
        assert not (set(row_cells[:8]) & early)
        # trusted inbound covers the whole row deficit: row contributes
        # nothing in rounds 1-2
        assert not (set(row_cells) & early)
        # by round 3 the row's deficit is requested again (from the
        # non-inbound half first — inbound stays last in preference)
        late = fetcher.round_targets(3)
        assert len(set(row_cells) & late) == 8

    def test_delivered_inbound_no_longer_missing(self):
        fetcher, state, _sim, _sent = make_fetcher()
        row_cells = cells_of_line(0, 16, 16)
        fetcher.add_inbound(0, frozenset(row_cells[:8]))
        state.add_cells(row_cells[:8])  # reconstructs the row
        assert state.line_deficit(0) == 0
        assert not (set(row_cells) & fetcher.round_targets(1))


class TestCompletionModes:
    def test_sampling_only_mode_completes_without_custody(self):
        fetcher, state, sim, _sent = make_fetcher(
            samples=[40, 41],
            custodians={40 // 16: [1]},
            fetch_custody=False,
        )
        fetcher.start()
        fetcher.on_response(1, (40, 41))
        assert fetcher.finished
        assert not state.consolidation_complete  # custody untouched
