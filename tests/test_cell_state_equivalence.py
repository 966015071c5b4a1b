"""Byte-map ``SlotCellState`` against the set-based implementation it replaced.

``SetCellState`` below is the earlier ``SlotCellState`` transcribed: held
cells in one ``set[int]``, reconstruction by set arithmetic. It is kept
here, and only here, as the reference. Seeded random cell batches on
reduced grids drive both side by side, and after every batch each
observable result must agree: the ``(new, reconstructed)`` returns, the
per-line counts, deficits and missing cells, the missing samples, the
completeness flags, the duplicate count, the held cells and the
sequence of ``on_store`` calls. The cases cover custody rows crossing
custody columns, samples on and off custody lines, and an ``on_store``
sink that is attached, detached, or detaches itself from inside its own
call. The hypothesis twin lives in ``test_property_based.py``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable

import pytest

from repro.core.assignment import Custody, cells_of_line, lines_of_cell
from repro.core.custody import SlotCellState
from repro.params import PandasParams
from tests.helpers import held_cells


class SetCellState:
    """The set-based cell state: the reference for ``SlotCellState``."""

    def __init__(
        self,
        params: PandasParams,
        custody: Custody,
        samples: Iterable[int],
        on_store: Callable[[int], None] | None = None,
    ) -> None:
        self.params = params
        self.on_store = on_store
        self.custody_lines = custody.lines(params.ext_rows)
        self._ext_rows = params.ext_rows
        self._ext_cols = params.ext_cols
        self._line_set = frozenset(self.custody_lines)
        self._counts = dict.fromkeys(self.custody_lines, 0)
        self._line_len = {
            line: params.ext_cols if line < params.ext_rows else params.ext_rows
            for line in self.custody_lines
        }
        self._half = {line: length // 2 for line, length in self._line_len.items()}
        self._incomplete_lines = len(self.custody_lines)
        self.samples = set(samples)
        self._samples_missing = len(self.samples)
        self.have: set[int] = set()
        self.cells_reconstructed = 0
        self.duplicates_received = 0

    def add_cells(self, cells: Iterable[int]) -> tuple[int, int]:
        have = self.have
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
            if cid in self.samples:
                self._samples_missing -= 1
            row = cid // ext_cols
            if row in self._line_set:
                counts[row] += 1
                touched = True
                if counts[row] == line_len[row]:
                    self._incomplete_lines -= 1
            col_line = ext_rows + cid - row * ext_cols
            if col_line in self._line_set:
                counts[col_line] += 1
                touched = True
                if counts[col_line] == line_len[col_line]:
                    self._incomplete_lines -= 1
            if on_store is not None:
                on_store(cid)
        self.duplicates_received += dup_count
        reconstructed = self._reconstruct_closure() if touched else 0
        return new_count, reconstructed

    def _store(self, cid: int) -> None:
        self.have.add(cid)
        if cid in self.samples:
            self._samples_missing -= 1
        row = cid // self._ext_cols
        for line in (row, self._ext_rows + cid - row * self._ext_cols):
            if line in self._line_set:
                self._counts[line] += 1
                if self._counts[line] == self._line_len[line]:
                    self._incomplete_lines -= 1
        if self.on_store is not None:
            self.on_store(cid)

    def _reconstruct_closure(self) -> int:
        reconstructed = 0
        counts = self._counts
        have = self.have
        ext_rows = self._ext_rows
        ext_cols = self._ext_cols
        progress = True
        while progress:
            progress = False
            for line in self.custody_lines:
                count = counts[line]
                if count == self._line_len[line] or count < self._half[line]:
                    continue
                if self.on_store is None:
                    missing = set(cells_of_line(line, ext_rows, ext_cols)) - have
                    have |= missing
                    reconstructed += len(missing)
                    self._samples_missing -= len(self.samples & missing)
                    counts[line] = self._line_len[line]
                    self._incomplete_lines -= 1
                    for other in self.custody_lines:
                        if (line < ext_rows) == (other < ext_rows):
                            continue
                        if line < ext_rows:
                            cid = line * ext_cols + (other - ext_rows)
                        else:
                            cid = other * ext_cols + (line - ext_rows)
                        if cid in missing:
                            counts[other] += 1
                            if counts[other] == self._line_len[other]:
                                self._incomplete_lines -= 1
                else:
                    for cid in cells_of_line(line, ext_rows, ext_cols):
                        if cid not in have:
                            self._store(cid)
                            reconstructed += 1
                progress = True
        self.cells_reconstructed += reconstructed
        return reconstructed

    def line_count(self, line: int) -> int:
        return self._counts[line]

    def line_deficit(self, line: int) -> int:
        return max(0, self._half[line] - self._counts[line])

    def missing_in_line(self, line: int) -> list[int]:
        cells = cells_of_line(line, self._ext_rows, self._ext_cols)
        return [cid for cid in cells if cid not in self.have]

    @property
    def consolidation_complete(self) -> bool:
        return self._incomplete_lines == 0

    @property
    def sampling_complete(self) -> bool:
        return self._samples_missing == 0

    @property
    def complete(self) -> bool:
        return self.consolidation_complete and self.sampling_complete

    def missing_samples(self) -> set[int]:
        return {cid for cid in self.samples if cid not in self.have}


# sink modes, one drawn per batch
ATTACHED, DETACHED, SELF_DETACHING = "attached", "detached", "self-detaching"


class Sink:
    """An ``on_store`` callback that logs every call; with a ``limit``
    it sets its state's ``on_store`` to None once the log reaches it."""

    def __init__(self, state, log: list[int]) -> None:
        self.state = state
        self.log = log
        self.limit: int | None = None

    def __call__(self, cid: int) -> None:
        self.log.append(cid)
        if self.limit is not None and len(self.log) >= self.limit:
            self.state.on_store = None


def random_case(rng: random.Random):
    """A reduced grid, a custody set, samples and the batches offered,
    each batch paired with a sink mode."""
    base_rows = rng.randint(2, 12)
    base_cols = rng.randint(2, 12)
    params = PandasParams(
        base_rows=base_rows,
        base_cols=base_cols,
        custody_rows=rng.randint(1, min(4, 2 * base_rows)),
        custody_cols=rng.randint(1, min(4, 2 * base_cols)),
        samples=rng.randint(1, 10),
    )
    ext_rows, ext_cols = params.ext_rows, params.ext_cols
    custody = Custody(
        rows=tuple(sorted(rng.sample(range(ext_rows), params.custody_rows))),
        cols=tuple(sorted(rng.sample(range(ext_cols), params.custody_cols))),
    )
    samples = rng.sample(range(params.total_cells), params.samples)
    lines = custody.lines(ext_rows)
    batches = []
    for _ in range(rng.randint(1, 8)):
        batch: list[int] = []
        for line in rng.sample(lines, rng.randint(0, len(lines))):
            cells = cells_of_line(line, ext_rows, ext_cols)
            batch.extend(rng.sample(cells, rng.randint(0, len(cells) // 2)))
        batch.extend(rng.sample(range(params.total_cells), rng.randint(0, 6)))
        batch.extend(rng.sample(samples, rng.randint(0, len(samples))))
        if batch:
            batch.extend(rng.choices(batch, k=rng.randint(0, 3)))  # repeats
        rng.shuffle(batch)
        mode = rng.choice((ATTACHED, DETACHED, SELF_DETACHING))
        # calls before a self-detaching sink detaches: sometimes within
        # the ingest loop, sometimes within a fill, sometimes never
        batches.append((batch, mode, rng.randint(1, len(batch) + max(ext_rows, ext_cols))))
    return params, custody, samples, batches


def observe(state) -> dict:
    """Every result the protocol reads from a cell state."""
    lines = state.custody_lines
    return {
        "line_count": [state.line_count(line) for line in lines],
        "line_deficit": [state.line_deficit(line) for line in lines],
        "missing_in_line": [state.missing_in_line(line) for line in lines],
        "missing_samples": state.missing_samples(),
        "consolidation_complete": state.consolidation_complete,
        "sampling_complete": state.sampling_complete,
        "complete": state.complete,
        "duplicates_received": state.duplicates_received,
        "cells_reconstructed": state.cells_reconstructed,
    }


def check_equivalence(case) -> dict[str, int]:
    """Drive both implementations through ``case``; returns how often
    each situation the test is about came up."""
    params, custody, samples, batches = case
    logs: tuple[list[int], list[int]] = ([], [])
    reference = SetCellState(params, custody, samples)
    state = SlotCellState(params, custody, samples)
    sinks = (Sink(reference, logs[0]), Sink(state, logs[1]))
    seen = {"fills": 0, "sink_fills": 0, "detached_mid_fill": 0}
    for batch, mode, limit in batches:
        calls_before = len(logs[0])
        for target, sink in zip((reference, state), sinks, strict=True):
            sink.limit = len(sink.log) + limit if mode == SELF_DETACHING else None
            target.on_store = None if mode == DETACHED else sink
        expected = reference.add_cells(batch)
        assert state.add_cells(batch) == expected
        assert logs[1] == logs[0]
        assert (reference.on_store is None) == (state.on_store is None)
        assert observe(state) == observe(reference)
        assert held_cells(state) == reference.have
        assert all(state.has_cell(cid) for cid in reference.have)
        seen["fills"] += expected[1] > 0
        seen["sink_fills"] += expected[1] > 0 and mode != DETACHED
        # ingest calls the sink for every new cell even once detached;
        # a fill stops calling it at the cell it detached on
        calls = len(logs[0]) - calls_before
        seen["detached_mid_fill"] += (
            mode == SELF_DETACHING and expected[0] < calls < sum(expected)
        )
    return seen


@pytest.mark.parametrize("case_seed", range(40))
def test_byte_maps_match_the_set_reference(case_seed):
    check_equivalence(random_case(random.Random(case_seed)))


def test_cases_cover_fills_sinks_and_self_detaching():
    """The fixed cases exercise what the equivalence is about: bulk and
    per-cell fills, a sink detaching itself mid-fill, samples off custody."""
    totals = {"fills": 0, "sink_fills": 0, "detached_mid_fill": 0}
    off_custody_samples = 0
    for case_seed in range(40):
        case = random_case(random.Random(case_seed))
        params, custody, samples, _batches = case
        lines = set(custody.lines(params.ext_rows))
        off_custody_samples += any(
            not lines & set(lines_of_cell(cid, params.ext_rows, params.ext_cols))
            for cid in samples
        )
        for key, count in check_equivalence(case).items():
            totals[key] += count
    assert totals["fills"] > totals["sink_fills"] > 0
    assert totals["detached_mid_fill"] > 0
    assert off_custody_samples > 0


def test_a_sink_detaching_mid_fill_sees_the_rest_of_the_line_unannounced():
    """The per-cell fill re-reads ``on_store`` for every cell."""
    params = PandasParams(base_rows=4, base_cols=4, custody_rows=1, custody_cols=1, samples=1)
    custody = Custody(rows=(0,), cols=(2,))
    log: list[int] = []
    state = SlotCellState(params, custody, [63])
    sink = Sink(state, log)
    state.on_store = sink
    sink.limit = 6  # four ingested cells, then two reconstructed ones
    state.add_cells([0, 1, 3, 4])  # half of row 0: fills positions 2, 5, 6, 7
    assert log == [0, 1, 3, 4, 2, 5]
    assert state.on_store is None
    assert held_cells(state) == set(range(8))
    assert state.line_count(params.ext_rows + 2) == 1  # the crossing at cell 2
