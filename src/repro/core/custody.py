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

Representation: one ``bytearray`` per custody line, one byte per
position (column index for a row, row index for a column), 1 = held.
A cell where two custody lines cross is marked in both maps, and the
two always agree. Held cells on no custody line (samples, at most 73
at full scale) go in one small set. At full scale that is ~8 KB per
node and slot; a ``set`` of the ~8k held cell ids would take ~430 KB.

Performance: this is the hottest data structure in the simulator — a
full-parameter node stores ~8k cells per slot, so a thousand-node run
crosses :meth:`SlotCellState.add_cells` millions of times. Beside the
maps, state is flat per-line occupancy counters (O(1) deficit and
completeness checks), the ingest loop is a single inlined pass with
locals bound once per batch, and the reconstruction closure only runs
when a counter actually moved. Reconstruction without an ``on_store``
sink is one slice assignment per line; with a sink it stores cell by
cell in natural line order, so the sink sees exactly the order the
determinism suite pins. ``tests/test_cell_state_equivalence.py`` keeps
the earlier set-based implementation as the reference for every
observable result.
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
        "cells_reconstructed",
        "duplicates_received",
        "_ext_rows",
        "_ext_cols",
        "_held",
        "_off_lines",
        "_counts",
        "_line_len",
        "_half",
        "_incomplete_lines",
        "_samples_missing",
        "_missing_memo",
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
        self._line_len: dict[int, int] = {
            line: params.ext_cols if line < params.ext_rows else params.ext_rows
            for line in self.custody_lines
        }
        # per custody line: one byte per position, 1 = held
        self._held: dict[int, bytearray] = {
            line: bytearray(length) for line, length in self._line_len.items()
        }
        # held cells that lie on no custody line
        self._off_lines: set[int] = set()
        # per-line occupancy count over positions within the line
        self._counts: dict[int, int] = dict.fromkeys(self.custody_lines, 0)
        self._half: dict[int, int] = {
            line: length // 2 for line, length in self._line_len.items()
        }
        self._incomplete_lines = len(self.custody_lines)
        self.samples: set[int] = set(samples)
        self._samples_missing = len(self.samples)
        # (missing-sample count, the missing samples) of the last call
        self._missing_memo: tuple[int, set[int]] | None = None
        self.cells_reconstructed = 0
        self.duplicates_received = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
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
        held = self._held
        off_lines = self._off_lines
        samples = self.samples
        counts = self._counts
        line_len = self._line_len
        on_store = self.on_store
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        new_count = 0
        dup_count = 0
        touched = False
        for cid in cells:
            row = cid // ext_cols
            col = cid - row * ext_cols
            col_line = ext_rows + col
            row_map = held.get(row)
            col_map = held.get(col_line)
            if row_map is not None:
                if row_map[col]:
                    dup_count += 1
                    continue
                row_map[col] = 1
                count = counts[row] + 1
                counts[row] = count
                if count == line_len[row]:
                    self._incomplete_lines -= 1
                if col_map is not None:
                    col_map[row] = 1
                    count = counts[col_line] + 1
                    counts[col_line] = count
                    if count == line_len[col_line]:
                        self._incomplete_lines -= 1
                touched = True
            elif col_map is not None:
                if col_map[row]:
                    dup_count += 1
                    continue
                col_map[row] = 1
                count = counts[col_line] + 1
                counts[col_line] = count
                if count == line_len[col_line]:
                    self._incomplete_lines -= 1
                touched = True
            elif cid in off_lines:
                dup_count += 1
                continue
            else:
                off_lines.add(cid)
            new_count += 1
            if cid in samples:
                self._samples_missing -= 1
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
        """Store one missing cell of a custody line (per-cell fill).

        Reads ``self.on_store`` afresh: the sink may detach itself from
        inside its own call.
        """
        held = self._held
        counts = self._counts
        line_len = self._line_len
        row = cid // self._ext_cols
        col = cid - row * self._ext_cols
        row_map = held.get(row)
        if row_map is not None:
            row_map[col] = 1
            count = counts[row] + 1
            counts[row] = count
            if count == line_len[row]:
                self._incomplete_lines -= 1
        col_line = self._ext_rows + col
        col_map = held.get(col_line)
        if col_map is not None:
            col_map[row] = 1
            count = counts[col_line] + 1
            counts[col_line] = count
            if count == line_len[col_line]:
                self._incomplete_lines -= 1
        if cid in self.samples:
            self._samples_missing -= 1
        if self.on_store is not None:
            self.on_store(cid)

    def _reconstruct_closure(self) -> int:
        reconstructed = 0
        held = self._held
        counts = self._counts
        line_len = self._line_len
        half = self._half
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        custody_lines = self.custody_lines
        progress = True
        while progress:
            progress = False
            for line in custody_lines:
                count = counts[line]
                length = line_len[line]
                if count == length or count < half[line]:
                    continue
                line_map = held[line]
                if self.on_store is None:
                    # Bulk fill: one slice assignment. The counters that
                    # move besides this line's are the samples on it and
                    # the custody lines crossing it (one cell each), so
                    # both are read off their few positions first.
                    reconstructed += length - count
                    if self._samples_missing:
                        self._samples_missing -= self._missing_samples_on(line)
                    is_row = line < ext_rows
                    # where the filled line sits within a crossing line
                    position = line if is_row else line - ext_rows
                    for other in custody_lines:
                        if (other < ext_rows) == is_row:
                            continue  # parallel to the filled line
                        other_map = held[other]
                        if not other_map[position]:
                            other_map[position] = 1
                            crossing = counts[other] + 1
                            counts[other] = crossing
                            if crossing == line_len[other]:
                                self._incomplete_lines -= 1
                    line_map[:] = b"\x01" * length
                    counts[line] = length
                    self._incomplete_lines -= 1
                else:
                    # A pending-query sink is attached: store cell by
                    # cell so on_store fires once per cell in natural
                    # line order.
                    store = self._store
                    for position, cid in enumerate(cells_of_line(line, ext_rows, ext_cols)):
                        if not line_map[position]:
                            store(cid)
                            reconstructed += 1
                progress = True
        self.cells_reconstructed += reconstructed
        return reconstructed

    def _missing_samples_on(self, line: int) -> int:
        """Samples on custody line ``line`` that it does not hold yet."""
        line_map = self._held[line]
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        missing = 0
        for cid in self.samples:
            row = cid // ext_cols
            col = cid - row * ext_cols
            if line < ext_rows:
                on_line, position = row == line, col
            else:
                on_line, position = col == line - ext_rows, row
            if on_line and not line_map[position]:
                missing += 1
        return missing

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_cell(self, cid: int) -> bool:
        row = cid // self._ext_cols
        col = cid - row * self._ext_cols
        held = self._held
        row_map = held.get(row)
        if row_map is not None:
            return row_map[col] == 1
        col_map = held.get(self._ext_rows + col)
        if col_map is not None:
            return col_map[row] == 1
        return cid in self._off_lines

    def has_all(self, cells: Iterable[int]) -> bool:
        has_cell = self.has_cell
        return all(has_cell(cid) for cid in cells)

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
        if self._counts[line] == self._line_len[line]:
            return []
        cells = cells_of_line(line, self._ext_rows, self._ext_cols)
        return [cid for cid, held in zip(cells, self._held[line]) if not held]

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
        """Sample cells not held yet; the set is shared, read it only.

        Memoized on the missing-sample count: cells are only ever added,
        so an unchanged count is an unchanged set.
        """
        memo = self._missing_memo
        if memo is None or memo[0] != self._samples_missing:
            has_cell = self.has_cell
            missing = {cid for cid in self.samples if not has_cell(cid)}
            memo = self._missing_memo = (self._samples_missing, missing)
        return memo[1]
