"""Per-slot cell state at a node: custody lines, samples, reconstruction.

Tracks which cells of the node's assigned rows/columns (and of its 73
random samples) are currently held, and applies Reed-Solomon
reconstruction at the line level: as soon as a custody line holds at
least half of its cells, the remaining half is recovered locally
(Algorithm 1, lines 25-27). The simulation tracks cell *identity*,
not bytes, so here reconstruction is an occupancy fill. The byte-level
codec in :mod:`repro.erasure` is its oracle: ``tests/test_erasure_oracle.py``
checks that this fill holds exactly the cells ``ReedSolomon.decode``
recovers from the same offered cells, over real bytes.

Consolidation is *deficit-driven*: a line needs only ``len/2 - held``
more cells to be reconstructable, so that is what the fetcher requests
(fetching all 512 cells of every line would cost ~4.5 MB per node per
slot instead of the ~1-2 MB the paper reports in Figure 10).

Performance: this is the hottest data structure in the simulator — a
full-parameter node stores ~8k cells per slot, so a thousand-node run
crosses :meth:`SlotCellState.add_cells` millions of times. State is
therefore kept as flat per-line occupancy counters (O(1) deficit /
completeness checks instead of bitmask popcounts), the ingest loop is
a single inlined pass with locals bound once per batch, and the
reconstruction closure only runs when a counter actually moved. The
externally observable behaviour — stored-cell order, ``on_store``
callback order, reconstruction order — is bit-identical to the
original bitmask implementation; the determinism suite pins it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.core.assignment import Custody, cells_of_line, lines_of_cell
from repro.params import PandasParams

__all__ = ["SlotCellState"]


class SlotCellState:
    """Cells held by one node for one slot."""

    __slots__ = (
        "params",
        "custody",
        "on_store",
        "custody_lines",
        "samples",
        "have",
        "cells_reconstructed",
        "duplicates_received",
        "_ext_rows",
        "_ext_cols",
        "_line_set",
        "_counts",
        "_line_len",
        "_half",
        "_incomplete_lines",
        "_samples_missing",
    )

    def __init__(
        self,
        params: PandasParams,
        custody: Custody,
        samples: Iterable[int],
        on_store: Callable[[int], None] | None = None,
    ) -> None:
        self.params = params
        self.custody = custody
        # invoked once per newly stored cell (received OR reconstructed);
        # lets the node serve buffered queries in O(1) per cell instead
        # of rescanning its pending-request list on every arrival. The
        # node detaches it (sets None) while no query is waiting, which
        # removes a per-cell call from the bulk ingest path.
        self.on_store = on_store
        self.custody_lines: tuple[int, ...] = custody.lines(params.ext_rows)
        self._ext_rows = params.ext_rows
        self._ext_cols = params.ext_cols
        self._line_set = frozenset(self.custody_lines)
        # per-line occupancy count over positions within the line
        self._counts: dict[int, int] = dict.fromkeys(self.custody_lines, 0)
        self._line_len: dict[int, int] = {
            line: params.ext_cols if line < params.ext_rows else params.ext_rows
            for line in self.custody_lines
        }
        self._half: dict[int, int] = {
            line: length // 2 for line, length in self._line_len.items()
        }
        self._incomplete_lines = len(self.custody_lines)
        self.samples: set[int] = set(samples)
        self._samples_missing = len(self.samples)
        self.have: set[int] = set()
        self.cells_reconstructed = 0
        self.duplicates_received = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _position(self, line: int, cid: int) -> int:
        """Index of ``cid`` within ``line`` (column for rows, row for cols)."""
        row, col = divmod(cid, self._ext_cols)
        return col if line < self._ext_rows else row

    def _cell_at(self, line: int, position: int) -> int:
        if line < self._ext_rows:
            return line * self._ext_cols + position
        return position * self._ext_cols + (line - self._ext_rows)

    def lines_of(self, cid: int) -> tuple[int, int]:
        return lines_of_cell(cid, self._ext_rows, self._ext_cols)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_cells(self, cells: Iterable[int]) -> tuple[int, int]:
        """Ingest received cells; returns (new_count, reconstructed_count).

        Applies the reconstruction closure: a custody line reaching
        half occupancy is completed in full. Completed cells may close
        further custody lines at their intersections, so the closure
        loops to fixpoint (cheap: at most 16 lines).
        """
        have = self.have
        samples = self.samples
        line_set = self._line_set
        counts = self._counts
        line_len = self._line_len
        on_store = self.on_store
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        new_count = 0
        dup_count = 0
        touched = False
        for cid in cells:
            if cid in have:
                dup_count += 1
                continue
            have.add(cid)
            new_count += 1
            if cid in samples:
                self._samples_missing -= 1
            row = cid // ext_cols
            if row in line_set:
                count = counts[row] + 1
                counts[row] = count
                touched = True
                if count == line_len[row]:
                    self._incomplete_lines -= 1
            col_line = ext_rows + cid - row * ext_cols
            if col_line in line_set:
                count = counts[col_line] + 1
                counts[col_line] = count
                touched = True
                if count == line_len[col_line]:
                    self._incomplete_lines -= 1
            if on_store is not None:
                on_store(cid)
        if dup_count:
            self.duplicates_received += dup_count
        # a line can only have become fillable if one of its counters
        # moved; the closure left every line either complete or below
        # half, so an untouched batch cannot trigger reconstruction
        reconstructed = self._reconstruct_closure() if touched else 0
        return new_count, reconstructed

    def _store(self, cid: int) -> None:
        """Store one cell (reconstruction path; ingest inlines this)."""
        self.have.add(cid)
        if cid in self.samples:
            self._samples_missing -= 1
        counts = self._counts
        line_len = self._line_len
        row = cid // self._ext_cols
        if row in self._line_set:
            count = counts[row] + 1
            counts[row] = count
            if count == line_len[row]:
                self._incomplete_lines -= 1
        col_line = self._ext_rows + cid - row * self._ext_cols
        if col_line in self._line_set:
            count = counts[col_line] + 1
            counts[col_line] = count
            if count == line_len[col_line]:
                self._incomplete_lines -= 1
        if self.on_store is not None:
            self.on_store(cid)

    def _reconstruct_closure(self) -> int:
        reconstructed = 0
        counts = self._counts
        line_len = self._line_len
        half = self._half
        have = self.have
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        custody_lines = self.custody_lines
        store = self._store
        progress = True
        while progress:
            progress = False
            for line in custody_lines:
                count = counts[line]
                if count != line_len[line] and count >= half[line]:
                    if self.on_store is None:
                        # Bulk fill: complete the line with set arithmetic
                        # instead of per-cell stores. The filled line
                        # crosses every other custody line at exactly one
                        # cell, so crossing counters need at most one
                        # point check each. Equivalent to the per-cell
                        # path — `have` is membership-only, so insertion
                        # order is unobservable.
                        missing = set(cells_of_line(line, ext_rows, ext_cols))
                        missing -= have
                        have |= missing
                        reconstructed += len(missing)
                        self._samples_missing -= len(self.samples & missing)
                        counts[line] = line_len[line]
                        self._incomplete_lines -= 1
                        is_row = line < ext_rows
                        for other in custody_lines:
                            if is_row:
                                if other < ext_rows:
                                    continue
                                cid = line * ext_cols + (other - ext_rows)
                            else:
                                if other >= ext_rows:
                                    continue
                                cid = other * ext_cols + (line - ext_rows)
                            if cid in missing:
                                crossing = counts[other] + 1
                                counts[other] = crossing
                                if crossing == line_len[other]:
                                    self._incomplete_lines -= 1
                    else:
                        # A pending-query sink is attached: keep the
                        # per-cell path so on_store fires once per cell
                        # in natural line order, exactly as before.
                        for cid in cells_of_line(line, ext_rows, ext_cols):
                            if cid not in have:
                                store(cid)
                                reconstructed += 1
                    progress = True
        self.cells_reconstructed += reconstructed
        return reconstructed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_cell(self, cid: int) -> bool:
        return cid in self.have

    def has_all(self, cells: Iterable[int]) -> bool:
        have = self.have
        return all(cid in have for cid in cells)

    def line_count(self, line: int) -> int:
        return self._counts[line]

    def line_complete(self, line: int) -> bool:
        return self._counts[line] == self._line_len[line]

    def line_deficit(self, line: int) -> int:
        """Cells still needed before the line is reconstructable."""
        deficit = self._half[line] - self._counts[line]
        return deficit if deficit > 0 else 0

    def missing_in_line(self, line: int) -> list[int]:
        """Missing cell ids of a custody line, in position order."""
        length = self._line_len[line]
        if self._counts[line] == length:
            return []
        have = self.have
        if line < self._ext_rows:
            base = line * self._ext_cols
            return [base + pos for pos in range(length) if base + pos not in have]
        col = line - self._ext_rows
        ext_cols = self._ext_cols
        return [
            pos * ext_cols + col
            for pos in range(length)
            if pos * ext_cols + col not in have
        ]

    @property
    def consolidation_complete(self) -> bool:
        """All assigned rows and columns fully held (or reconstructed)."""
        return self._incomplete_lines == 0

    @property
    def sampling_complete(self) -> bool:
        """All random sample cells held."""
        return self._samples_missing == 0

    @property
    def complete(self) -> bool:
        return self._incomplete_lines == 0 and self._samples_missing == 0

    def missing_samples(self) -> set[int]:
        have = self.have
        return {cid for cid in self.samples if cid not in have}
