"""Deterministic cell-to-node assignment (Section 5).

``S(n_i, e)`` gives every node 8 distinct rows and 8 distinct columns
of the extended blob for epoch ``e``. Two requirements drive the
construction:

- **Determinism**: any two nodes compute the same ``S(n_i, e)`` even
  with different views (consistent hashing would violate this, see the
  paper's footnote 2), so the PRNG is seeded only by the epoch seed
  and the target node's ID — never by view contents.
- **Short-liveness**: the assignment rotates with the RANDAO epoch
  seed (~6.4 min), faster than ENR crawling, defeating placement
  attacks.

Rows and columns are treated uniformly as *lines*: line ``r`` is row
``r`` and line ``ext_rows + c`` is column ``c``. A cell belongs to
exactly two lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Iterable
from functools import lru_cache

from repro.crypto.randao import RandaoBeacon
from repro.params import PandasParams
from repro.sim.rng import derive_seed

__all__ = ["CellAssignment", "AssignmentIndex", "lines_of_cell", "cells_of_line"]


def lines_of_cell(cid: int, ext_rows: int, ext_cols: int) -> tuple[int, int]:
    """The (row-line, column-line) ids containing cell ``cid``."""
    row, col = divmod(cid, ext_cols)
    return row, ext_rows + col


@lru_cache(maxsize=None)  # one entry per grid line
def cells_of_line(line: int, ext_rows: int, ext_cols: int) -> tuple[int, ...]:
    """All cell ids on ``line``, in natural order.

    Memoized: the cell ids custody state hands out for a line (its
    missing cells, its reconstructed cells) are these very ``int``
    objects, not per-node copies of them.
    """
    if line < ext_rows:
        base = line * ext_cols
        return tuple(range(base, base + ext_cols))
    col = line - ext_rows
    return tuple(range(col, ext_rows * ext_cols, ext_cols))


@dataclass(frozen=True)
class Custody:
    """One node's assignment for one epoch."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def lines(self, ext_rows: int) -> tuple[int, ...]:
        return self.rows + tuple(ext_rows + c for c in self.cols)


class CellAssignment:
    """The globally known function ``S``; memoizes per (epoch, node)."""

    def __init__(self, params: PandasParams, beacon: RandaoBeacon) -> None:
        self.params = params
        self.beacon = beacon
        self._cache: dict[tuple[int, int], Custody] = {}

    def custody(self, node_id: int, epoch: int) -> Custody:
        """``S(node_id, epoch)``: 8 distinct rows + 8 distinct columns."""
        key = (epoch, node_id)
        assigned = self._cache.get(key)
        if assigned is None:
            seed = derive_seed(self.beacon.epoch_seed(epoch), "assignment", node_id)
            rng = random.Random(seed)
            params = self.params
            rows = tuple(sorted(rng.sample(range(params.ext_rows), params.custody_rows)))
            cols = tuple(sorted(rng.sample(range(params.ext_cols), params.custody_cols)))
            assigned = Custody(rows, cols)
            self._cache[key] = assigned
        return assigned

    def lines(self, node_id: int, epoch: int) -> tuple[int, ...]:
        """The node's custody lines (row ids then offset column ids)."""
        return self.custody(node_id, epoch).lines(self.params.ext_rows)

    def custody_cells(self, node_id: int, epoch: int) -> set[int]:
        """Every distinct cell id the node must custody (8,128 full-scale)."""
        params = self.params
        assigned = self.custody(node_id, epoch)
        cells: set[int] = set()
        for row in assigned.rows:
            base = row * params.ext_cols
            cells.update(range(base, base + params.ext_cols))
        for col in assigned.cols:
            cells.update(range(col, params.total_cells, params.ext_cols))
        return cells

    def is_custodian(self, node_id: int, epoch: int, cid: int) -> bool:
        """Does ``cid`` fall on one of the node's custody lines?"""
        row, col = divmod(cid, self.params.ext_cols)
        assigned = self.custody(node_id, epoch)
        return row in assigned.rows or col in assigned.cols


class AssignmentIndex:
    """Reverse map line -> custodians, for one epoch and a node set.

    Built once per epoch over the global node set and *shared*: a node
    with an incomplete view filters the custodian lists against its
    view at query time (``custodians`` with ``view``), which keeps the
    fault scenarios cheap without rebuilding per-node indexes.
    """

    def __init__(
        self, assignment: CellAssignment, epoch: int, node_ids: Iterable[int]
    ) -> None:
        self.assignment = assignment
        self.epoch = epoch
        params = assignment.params
        num_lines = params.ext_rows + params.ext_cols
        self._by_line: list[list[int]] = [[] for _ in range(num_lines)]
        for node_id in node_ids:
            for line in assignment.lines(node_id, epoch):
                self._by_line[line].append(node_id)

    def custodians(self, line: int, view: set[int] | None = None) -> list[int]:
        """Nodes assigned ``line``, optionally restricted to ``view``."""
        members = self._by_line[line]
        if view is None:
            return members
        return [node_id for node_id in members if node_id in view]

    def custodians_of_cell(self, cid: int, view: set[int] | None = None) -> list[int]:
        """Nodes whose custody intersects the cell's row or column."""
        params = self.assignment.params
        row_line, col_line = lines_of_cell(cid, params.ext_rows, params.ext_cols)
        row_members = self.custodians(row_line, view)
        col_members = self.custodians(col_line, view)
        seen = set(row_members)
        return row_members + [n for n in col_members if n not in seen]

    def mean_custodians_per_line(self) -> float:
        total = sum(len(members) for members in self._by_line)
        return total / len(self._by_line)
