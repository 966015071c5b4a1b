"""Seeding-policy tests: budgets, coverage, redundancy (Section 6.1)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.seeding import (
    MinimalSeeding,
    RedundantSeeding,
    SingleSeeding,
    boost_map_for_line,
    owned_cells_of_line,
    policy_by_name,
)
from repro.params import PandasParams


@pytest.fixture
def params():
    return PandasParams(base_rows=8, base_cols=8, custody_rows=2, custody_cols=2, samples=5)


def all_parcels(policy, params, custodians_per_line=6, seed=1):
    rng = random.Random(seed)
    parcels = []
    num_lines = params.ext_rows + params.ext_cols
    for line in range(num_lines):
        custodians = [1000 + line * 100 + i for i in range(custodians_per_line)]
        parcels.extend(policy.line_parcels(line, params, custodians, rng))
    return parcels


class TestOwnership:
    def test_every_cell_owned_exactly_once(self, params):
        owners = Counter()
        for line in range(params.ext_rows + params.ext_cols):
            for cid in owned_cells_of_line(line, params):
                owners[cid] += 1
        assert len(owners) == params.total_cells
        assert set(owners.values()) == {1}

    def test_owned_cells_lie_on_their_line(self, params):
        for line in (0, 3, params.ext_rows + 2):
            for cid in owned_cells_of_line(line, params):
                row, col = divmod(cid, params.ext_cols)
                if line < params.ext_rows:
                    assert row == line
                else:
                    assert col == line - params.ext_rows

    def test_ownership_split_is_balanced(self, params):
        for line in range(params.ext_rows + params.ext_cols):
            owned = owned_cells_of_line(line, params)
            line_len = params.ext_cols if line < params.ext_rows else params.ext_rows
            assert len(owned) == line_len // 2


class TestBudgets:
    def test_minimal_sends_the_quadrant_once(self, params):
        parcels = all_parcels(MinimalSeeding(), params)
        cells = Counter(cid for p in parcels for cid in p.cells)
        quadrant = {
            r * params.ext_cols + c
            for r in range(params.base_rows)
            for c in range(params.base_cols)
        }
        assert set(cells) == quadrant
        assert set(cells.values()) == {1}

    def test_single_sends_every_cell_once(self, params):
        parcels = all_parcels(SingleSeeding(), params)
        cells = Counter(cid for p in parcels for cid in p.cells)
        assert len(cells) == params.total_cells
        assert set(cells.values()) == {1}

    def test_redundant_sends_r_copies(self, params):
        parcels = all_parcels(RedundantSeeding(4), params)
        cells = Counter(cid for p in parcels for cid in p.cells)
        assert len(cells) == params.total_cells
        assert set(cells.values()) == {4}

    def test_redundant_capped_by_custodians(self, params):
        """With fewer custodians than r, copies cap at the population."""
        parcels = all_parcels(RedundantSeeding(8), params, custodians_per_line=3)
        cells = Counter(cid for p in parcels for cid in p.cells)
        assert set(cells.values()) == {3}

    def test_full_scale_byte_budgets_match_paper(self):
        """Exactly 35 / 140 / 1,120 MB of cells for minimal / single /
        redundant(8) — the totals of Section 6.1."""
        params = PandasParams.full()
        custodians = list(range(100, 116))
        for policy, expected_bytes in (
            (MinimalSeeding(), 256 * 256 * 560),
            (SingleSeeding(), 512 * 512 * 560),
            (RedundantSeeding(8), 8 * 512 * 512 * 560),
        ):
            rng = random.Random(0)
            total = 0
            for line in range(params.ext_rows + params.ext_cols):
                parcels = policy.line_parcels(line, params, custodians, rng)
                total += sum(len(p.cells) for p in parcels) * params.cell_bytes
            assert total == expected_bytes


class TestParcelStructure:
    def test_parcels_are_adjacent_runs(self, params):
        parcels = all_parcels(SingleSeeding(), params, custodians_per_line=3)
        for parcel in parcels:
            owned = owned_cells_of_line(parcel.line, params)
            positions = [owned.index(c) for c in parcel.cells]
            assert positions == list(range(positions[0], positions[0] + len(positions)))

    def test_primaries_are_distinct(self, params):
        rng = random.Random(3)
        custodians = list(range(10))
        parcels = SingleSeeding().line_parcels(0, params, custodians, rng)
        primaries = [p.node_id for p in parcels]
        assert len(primaries) == len(set(primaries))

    def test_replicas_are_distinct_nodes_per_parcel(self, params):
        rng = random.Random(3)
        custodians = list(range(10))
        parcels = RedundantSeeding(4).line_parcels(0, params, custodians, rng)
        by_cells = {}
        for p in parcels:
            by_cells.setdefault(p.cells, []).append(p.node_id)
        for nodes in by_cells.values():
            assert len(nodes) == len(set(nodes)) == 4

    def test_no_custodians_no_parcels(self, params):
        assert SingleSeeding().line_parcels(0, params, [], random.Random(1)) == []


class TestBoostMap:
    def test_merges_parcels_per_node(self, params):
        rng = random.Random(5)
        parcels = RedundantSeeding(3).line_parcels(0, params, list(range(4)), rng)
        boost = boost_map_for_line(parcels)
        assert boost.line == 0
        assert set(boost.seeded) == {p.node_id for p in parcels}
        for node, cells in boost.seeded.items():
            expected = {cid for p in parcels if p.node_id == node for cid in p.cells}
            assert cells == expected

    def test_covers_all_seeded_cells(self, params):
        rng = random.Random(6)
        parcels = SingleSeeding().line_parcels(2, params, list(range(5)), rng)
        boost = boost_map_for_line(parcels)
        seeded = {cid for p in parcels for cid in p.cells}
        mapped = {cid for cells in boost.seeded.values() for cid in cells}
        assert mapped == seeded
        assert boost.cells == seeded


def test_policy_by_name():
    assert policy_by_name("minimal").name == "minimal"
    assert policy_by_name("single").name == "single"
    assert policy_by_name("redundant", r=5).copies == 5
    with pytest.raises(ValueError):
        policy_by_name("bogus")


def test_redundancy_must_be_positive():
    with pytest.raises(ValueError):
        RedundantSeeding(0)
