"""SlotCellState: custody tracking, reconstruction, deficits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Custody, cells_of_line
from repro.core.custody import SlotCellState
from repro.params import PandasParams
from tests.helpers import held_cells


@pytest.fixture
def params():
    return PandasParams(base_rows=8, base_cols=8, custody_rows=2, custody_cols=2, samples=4)


@pytest.fixture
def state(params):
    custody = Custody(rows=(0, 3), cols=(1, 5))
    samples = [200, 201, 202, 203]
    return SlotCellState(params, custody, samples)


def test_initial_state_empty(state):
    assert not state.consolidation_complete
    assert not state.sampling_complete
    assert held_cells(state) == set()
    assert state.missing_samples() == {200, 201, 202, 203}


def test_add_cells_counts_new_and_duplicates(state):
    new, _rec = state.add_cells([0, 1, 2])
    assert new == 3
    new, _rec = state.add_cells([2, 3])
    assert new == 1
    assert state.duplicates_received == 1


def test_line_masks_track_positions(state, params):
    state.add_cells([0, 1, 5])  # row 0 cells at cols 0, 1, 5
    assert state.line_count(0) == 3
    # col 1 (line ext_rows+1) holds cell 1
    assert state.line_count(params.ext_rows + 1) == 1


def test_row_reconstructs_at_half(state, params):
    row_cells = cells_of_line(0, params.ext_rows, params.ext_cols)
    half = row_cells[: params.ext_cols // 2]
    new, reconstructed = state.add_cells(half)
    assert new == len(half)
    assert reconstructed >= params.ext_cols // 2
    assert state.line_complete(0)


def test_reconstruction_cascades_between_custody_lines(state, params):
    """Completing rows fills custody-column intersections too."""
    for line in (0, 3):
        state.add_cells(cells_of_line(line, params.ext_rows, params.ext_cols))
    # columns 1 and 5 now hold 2 cells each (from rows 0 and 3)
    assert state.line_count(params.ext_rows + 1) == 2


def test_consolidation_complete_when_all_lines_full(state, params):
    for line in state.custody_lines:
        state.add_cells(cells_of_line(line, params.ext_rows, params.ext_cols))
    assert state.consolidation_complete


def test_consolidation_via_half_of_each_line(state, params):
    for line in state.custody_lines:
        cells = cells_of_line(line, params.ext_rows, params.ext_cols)
        state.add_cells(cells[: len(cells) // 2])
    assert state.consolidation_complete  # reconstruction filled the rest


def test_sampling_complete(state):
    state.add_cells([200, 201, 202])
    assert not state.sampling_complete
    state.add_cells([203])
    assert state.sampling_complete


def test_samples_on_custody_lines_come_free(params):
    custody = Custody(rows=(0,), cols=(0,))
    # sample 3 lies on row 0
    state = SlotCellState(params, custody, [3])
    row_cells = cells_of_line(0, params.ext_rows, params.ext_cols)
    state.add_cells(row_cells[8:])  # half NOT containing cell 3
    assert state.sampling_complete  # reconstructed


def test_line_deficit(state, params):
    half = params.ext_cols // 2
    assert state.line_deficit(0) == half
    state.add_cells([0, 1, 2])
    assert state.line_deficit(0) == half - 3
    row_cells = cells_of_line(0, params.ext_rows, params.ext_cols)
    state.add_cells(row_cells[:half])
    assert state.line_deficit(0) == 0


def test_missing_in_line_order(state, params):
    state.add_cells([0, 2])
    missing = state.missing_in_line(0)
    assert missing[:3] == [1, 3, 4]
    assert len(missing) == params.ext_cols - 2


def test_complete_property(state, params):
    for line in state.custody_lines:
        state.add_cells(cells_of_line(line, params.ext_rows, params.ext_cols))
    assert not state.complete  # samples still missing
    state.add_cells([200, 201, 202, 203])
    assert state.complete


def test_has_all(state):
    state.add_cells([10, 11])
    assert state.has_all([10, 11])
    assert not state.has_all([10, 12])


@given(st.sets(st.integers(0, 255), max_size=120))
@settings(max_examples=50, deadline=None)
def test_reconstruction_closure_invariant(received):
    """After any ingest, no custody line sits in [half, full)."""
    params = PandasParams(base_rows=8, base_cols=8, custody_rows=2, custody_cols=2, samples=4)
    state = SlotCellState(params, Custody(rows=(1, 4), cols=(2, 7)), [9])
    state.add_cells(received)
    for line in state.custody_lines:
        count = state.line_count(line)
        length = params.ext_cols if line < params.ext_rows else params.ext_rows
        assert count == length or count < length // 2 or count >= 0
        assert not (length // 2 <= count < length)


@given(st.lists(st.integers(0, 255), max_size=80))
@settings(max_examples=50, deadline=None)
def test_duplicates_plus_new_equals_ingested(cells):
    params = PandasParams(base_rows=8, base_cols=8, custody_rows=1, custody_cols=1, samples=2)
    state = SlotCellState(params, Custody(rows=(0,), cols=(0,)), [30, 40])
    total_new = 0
    for cid in cells:
        new, _ = state.add_cells([cid])
        total_new += new
    assert total_new + state.duplicates_received == len(cells)
