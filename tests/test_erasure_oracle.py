"""The byte-level erasure codec as the oracle for custody reconstruction.

``SlotCellState`` (``core/custody.py``) tracks cell identities, not
bytes: a custody line that holds half of its cells is filled in full,
as an occupancy count. These cases check that shortcut against real
Reed-Solomon decoding. Each case

1. extends a ``Blob`` of random bytes;
2. offers a random subset of its cells to ``SlotCellState.add_cells``,
   in one or more batches;
3. runs a custody-line decoder built on ``ReedSolomon.decode``, looping
   to a fixpoint over the same custody lines.

After every batch, the decoder must recover exactly the cells
``SlotCellState.has_cell`` reports held, and every recovered cell must
equal the original bytes. Every extended dimension is at most 255, so
each byte of a cell is one GF(2^8) symbol lane. The hypothesis twin lives in ``test_property_based.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.assignment import Custody, cells_of_line
from repro.core.custody import SlotCellState
from repro.erasure.blob import Blob
from repro.erasure.reed_solomon import ReedSolomon
from repro.params import PandasParams
from tests.helpers import held_cells

MAX_BASE = 24  # extended dimension <= 48, well inside GF(2^8)


def random_oracle_case(rng: random.Random):
    """A grid, a custody assignment, samples, original bytes and the
    batches of cells offered to the node.

    Each custody line is offered 0, half - 1, half or a random number
    of its cells, so the half threshold is hit from both sides, and a
    line left below half can still reach it through the crossing cells
    another line's reconstruction fills in.
    """
    base_rows = rng.randint(2, MAX_BASE)
    base_cols = rng.randint(2, MAX_BASE)
    params = PandasParams(
        base_rows=base_rows,
        base_cols=base_cols,
        custody_rows=rng.randint(1, min(3, 2 * base_rows)),
        custody_cols=rng.randint(1, min(3, 2 * base_cols)),
        samples=rng.randint(1, 6),
    )
    ext_rows, ext_cols = params.ext_rows, params.ext_cols
    assert max(ext_rows, ext_cols) <= 255
    custody = Custody(
        rows=tuple(sorted(rng.sample(range(ext_rows), params.custody_rows))),
        cols=tuple(sorted(rng.sample(range(ext_cols), params.custody_cols))),
    )
    samples = rng.sample(range(params.total_cells), params.samples)
    cell_bytes = rng.randint(1, 4)
    blob = Blob.from_bytes(
        rng.randbytes(base_rows * base_cols * cell_bytes), base_rows, base_cols, cell_bytes
    )
    extended = blob.extend()

    offered: set[int] = set()
    for line in custody.lines(ext_rows):
        cells = cells_of_line(line, ext_rows, ext_cols)
        half = len(cells) // 2
        count = rng.choice([0, half - 1, half, rng.randint(0, len(cells))])
        offered.update(rng.sample(cells, count))
    offered.update(rng.sample(range(params.total_cells), rng.randint(0, 4)))
    order = sorted(offered)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), min(2, len(order) - 1))) if order else []
    batches = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)], strict=True)]
    # a duplicate re-offer must change nothing
    if order:
        batches.append(order[: rng.randint(1, len(order))])
    return params, custody, samples, extended, batches, rng.random() < 0.5


def decode_custody(params, custody, known: dict[int, bytes]):
    """Decode every custody line holding >= half of its cells, to a
    fixpoint, with the scalar Reed-Solomon decoder. Returns the cells
    held afterwards and the number of decoding passes that made
    progress."""
    ext_rows, ext_cols = params.ext_rows, params.ext_cols
    known = dict(known)
    passes = 0
    progress = True
    while progress:
        progress = False
        for line in custody.lines(ext_rows):
            cells = cells_of_line(line, ext_rows, ext_cols)
            held = {pos: known[cid] for pos, cid in enumerate(cells) if cid in known}
            n = len(cells)
            if not n // 2 <= len(held) < n:
                continue
            rs = ReedSolomon(n // 2, n)
            lanes = [
                rs.decode({pos: cell[lane] for pos, cell in held.items()})
                for lane in range(len(next(iter(held.values()))))
            ]
            for pos, cid in enumerate(cells):
                if cid not in known:
                    known[cid] = bytes(codeword[pos] for codeword in lanes)
            progress = True
        passes += progress
    return known, passes


def check_against_codec(case) -> tuple[int, bool]:
    """After every batch, ``SlotCellState`` holds exactly what the codec
    can decode from the cells offered so far, and the decoded bytes are
    the original's. Returns the most decoding passes any batch needed
    and whether a custody cell stayed unrecoverable at the end."""
    params, custody, samples, extended, batches, with_sink = case
    stored: list[int] = []
    state = SlotCellState(
        params, custody, samples, on_store=stored.append if with_sink else None
    )
    custody_cells = {
        cid
        for line in custody.lines(params.ext_rows)
        for cid in cells_of_line(line, params.ext_rows, params.ext_cols)
    }
    offered: dict[int, bytes] = {}
    received = reconstructed = most_passes = 0
    for batch in batches:
        new, filled = state.add_cells(batch)
        received += new
        reconstructed += filled
        offered.update((cid, extended.cell_by_id(cid)) for cid in batch)
        decoded, passes = decode_custody(params, custody, offered)
        most_passes = max(most_passes, passes)

        held = held_cells(state)
        assert set(decoded) == held
        for cid, cell in decoded.items():
            assert cell == extended.cell_by_id(cid), f"cell {cid} decoded to wrong bytes"
        # a cell offered after its line was filled counts as a duplicate
        assert state.cells_reconstructed == reconstructed == len(decoded) - received
        if with_sink:
            assert sorted(stored) == sorted(held)
        assert state.consolidation_complete == (custody_cells <= decoded.keys())
        assert state.sampling_complete == all(cid in decoded for cid in samples)
    return most_passes, not custody_cells <= held_cells(state)


@pytest.mark.parametrize("case_seed", range(12))
def test_custody_reconstruction_matches_the_codec(case_seed):
    check_against_codec(random_oracle_case(random.Random(case_seed)))


def test_oracle_cases_cover_cascades_partial_lines_and_both_paths():
    """The fixed cases exercise what the oracle is about: a line only
    reconstructable after a later line's fill, a line left below half,
    and both the bulk-fill and the per-cell (``on_store``) closures."""
    cascaded = stuck = sinks = 0
    for case_seed in range(12):
        case = random_oracle_case(random.Random(case_seed))
        *_, with_sink = case
        passes, unrecovered = check_against_codec(case)
        cascaded += passes >= 2
        stuck += unrecovered
        sinks += with_sink
    assert cascaded and stuck and 0 < sinks < 12
