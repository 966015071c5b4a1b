"""Byte-level 2D Reed-Solomon blob extension tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.erasure.blob import Blob
from repro.erasure.reed_solomon import ReedSolomon


def make_blob(rows=4, cols=4, cell_bytes=8, seed=1):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 256, size=(rows, cols, cell_bytes), dtype=np.uint8)
    return Blob(cells)


def decode_line(cells, known_positions):
    """Recover a whole line of cells from the cells at
    ``known_positions`` with the scalar decoder, one byte lane at a
    time."""
    n, cell_bytes = cells.shape
    rs = ReedSolomon(n // 2, n)
    lanes = [
        rs.decode({pos: int(cells[pos, lane]) for pos in known_positions})
        for lane in range(cell_bytes)
    ]
    return np.array(lanes, dtype=np.uint8).T


def test_from_bytes_packs_and_pads():
    blob = Blob.from_bytes(b"abcdef", 2, 2, 4)
    assert blob.to_bytes()[:6] == b"abcdef"
    assert blob.to_bytes()[6:] == b"\x00" * 10


def test_from_bytes_overflow_raises():
    with pytest.raises(ValueError):
        Blob.from_bytes(b"x" * 17, 2, 2, 4)


def test_extension_is_systematic():
    blob = make_blob()
    ext = blob.extend()
    assert np.array_equal(ext.cells[:4, :4], blob.cells)
    assert ext.ext_rows == 8 and ext.ext_cols == 8


def test_to_blob_roundtrip():
    blob = make_blob()
    assert np.array_equal(blob.extend().to_blob().cells, blob.cells)


def test_every_row_recovers_from_any_half():
    blob = make_blob()
    ext = blob.extend()
    for row in (0, 3, 5, 7):
        recovered = decode_line(ext.cells[row], (1, 2, 6, 7))
        assert np.array_equal(recovered, ext.cells[row])


def test_every_column_recovers_from_any_half():
    blob = make_blob()
    ext = blob.extend()
    for col in (0, 2, 7):
        recovered = decode_line(ext.cells[:, col], (0, 4, 5, 6))
        assert np.array_equal(recovered, ext.cells[:, col])


def test_product_code_consistency():
    """Parity-of-parity: rows of the extended matrix are codewords even
    in the parity-row region (linearity of the 2D code)."""
    blob = make_blob()
    ext = blob.extend()
    for row in range(4, 8):  # parity rows
        recovered = decode_line(ext.cells[row], range(4))
        assert np.array_equal(recovered, ext.cells[row])


def test_wide_grids_rejected():
    """An extended dimension above 255 outgrows GF(2^8): the error
    names the limit instead of switching fields."""
    cells = np.zeros((2, 130, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="260 exceeds 255"):
        Blob(cells).extend()  # 260 extended cols


def test_cell_by_id_matches_coords():
    ext = make_blob().extend()
    assert ext.cell_by_id(8 * 3 + 5) == ext.cell(3, 5)
