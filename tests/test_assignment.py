"""Cell-to-node assignment tests (Section 5's requirements)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import AssignmentIndex, CellAssignment, cells_of_line, lines_of_cell
from repro.crypto.randao import RandaoBeacon
from repro.params import PandasParams


@pytest.fixture
def assignment(tiny_params):
    return CellAssignment(tiny_params, RandaoBeacon(42))


def test_lines_of_cell_geometry():
    # 32x32 extended grid: cell 33 = row 1, col 1
    assert lines_of_cell(33, 32, 32) == (1, 32 + 1)


def test_cells_of_line_row():
    cells = cells_of_line(2, 8, 8)
    assert cells == tuple(range(16, 24))


def test_cells_of_line_column():
    cells = cells_of_line(8 + 3, 8, 8)
    assert cells == (3, 11, 19, 27, 35, 43, 51, 59)


def test_custody_has_correct_shape(assignment, tiny_params):
    custody = assignment.custody(5, epoch=0)
    assert len(custody.rows) == tiny_params.custody_rows
    assert len(custody.cols) == tiny_params.custody_cols
    assert len(set(custody.rows)) == len(custody.rows)  # distinct
    assert len(set(custody.cols)) == len(custody.cols)
    assert all(0 <= r < tiny_params.ext_rows for r in custody.rows)


def test_determinism_requirement(assignment, tiny_params):
    """Two computations of S(n, e) agree — even from scratch (the
    paper's footnote 2: consistent hashing would fail this)."""
    other = CellAssignment(tiny_params, RandaoBeacon(42))
    assert assignment.custody(9, 3) == other.custody(9, 3)


def test_short_liveness_requirement(assignment):
    """The assignment rotates across epochs (defeats placement attacks)."""
    changed = sum(
        1 for node in range(50) if assignment.custody(node, 0) != assignment.custody(node, 1)
    )
    assert changed > 45


def test_different_nodes_different_custody(assignment):
    distinct = {assignment.custody(node, 0) for node in range(50)}
    assert len(distinct) > 40


def test_custody_cells_count(assignment, tiny_params):
    cells = assignment.custody_cells(1, 0)
    rows, cols = tiny_params.custody_rows, tiny_params.custody_cols
    expected = rows * tiny_params.ext_cols + cols * (tiny_params.ext_rows - rows)
    assert len(cells) == expected


def test_full_scale_custody_count():
    params = PandasParams.full()
    assignment = CellAssignment(params, RandaoBeacon(1))
    assert len(assignment.custody_cells(0, 0)) == 8128


def test_is_custodian_matches_cells(assignment):
    cells = assignment.custody_cells(3, 0)
    for cid in list(cells)[:20]:
        assert assignment.is_custodian(3, 0, cid)
    non = next(c for c in range(1024) if c not in cells)
    assert not assignment.is_custodian(3, 0, non)


def test_lines_concatenates_rows_then_cols(assignment, tiny_params):
    custody = assignment.custody(2, 0)
    lines = assignment.lines(2, 0)
    assert lines[: tiny_params.custody_rows] == custody.rows
    assert all(line >= tiny_params.ext_rows for line in lines[tiny_params.custody_rows :])


class TestAssignmentIndex:
    def test_custodians_inverse_of_custody(self, assignment):
        index = AssignmentIndex(assignment, 0, range(40))
        for node in range(40):
            for line in assignment.lines(node, 0):
                assert node in index.custodians(line)

    def test_view_filtering(self, assignment):
        index = AssignmentIndex(assignment, 0, range(40))
        view = set(range(10))
        for line in range(64):
            for member in index.custodians(line, view):
                assert member in view

    def test_custodians_of_cell_union(self, assignment, tiny_params):
        index = AssignmentIndex(assignment, 0, range(40))
        cid = 100
        row_line, col_line = lines_of_cell(cid, tiny_params.ext_rows, tiny_params.ext_cols)
        members = index.custodians_of_cell(cid)
        expected = set(index.custodians(row_line)) | set(index.custodians(col_line))
        assert set(members) == expected
        assert len(members) == len(set(members))  # no duplicates

    def test_mean_custodians_per_line(self, assignment, tiny_params):
        index = AssignmentIndex(assignment, 0, range(64))
        lines_per_node = tiny_params.custody_rows + tiny_params.custody_cols
        total_lines = tiny_params.ext_rows + tiny_params.ext_cols
        expected = 64 * lines_per_node / total_lines
        assert index.mean_custodians_per_line() == pytest.approx(expected)


@given(node=st.integers(0, 10_000), epoch=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_assignment_deterministic_property(node, epoch):
    params = PandasParams.reduced(8, samples=5)
    a = CellAssignment(params, RandaoBeacon(7)).custody(node, epoch)
    b = CellAssignment(params, RandaoBeacon(7)).custody(node, epoch)
    assert a == b


@given(view=st.sets(st.integers(0, 39), min_size=1))
@settings(max_examples=30, deadline=None)
def test_index_view_filter_property(view):
    """Filtered custodians == unfiltered custodians ∩ view, per line."""
    params = PandasParams.reduced(8, samples=5)
    assignment = CellAssignment(params, RandaoBeacon(7))
    index = AssignmentIndex(assignment, 0, range(40))
    for line in (0, 17, 64, 100):
        full = index.custodians(line)
        filtered = index.custodians(line, view)
        assert filtered == [n for n in full if n in view]
