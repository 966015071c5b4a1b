"""Blob construction and 2D Reed-Solomon extension over real bytes.

Reproduces Figure 2: layer-2 data is aggregated into a base matrix of
``base_rows x base_cols`` cells of ``cell_bytes`` bytes, then extended
with a two-dimensional Reed-Solomon code to ``2R x 2C`` so every row
and column reconstructs from any half of its cells.

Symbol layout: each byte position of a cell is an independent GF(2^8)
codeword across the row/column, so an extended dimension is at most
255. That covers the reduced grids the custody oracle checks; the full
512x512 grid is simulated by cell identity only, because its cells are
authenticated by KZG proofs (Section 3), never decoded here.

The product-code property — extending rows first and then columns
yields parity-of-parity cells consistent with the column-then-row
order — holds because the code is linear; a regression test pins it.
"""

from __future__ import annotations


import numpy as np
import numpy.typing as npt

from repro.erasure.reed_solomon import ReedSolomon

__all__ = ["Blob", "ExtendedBlob"]


class Blob:
    """The base (unextended) ``R x C`` matrix of data cells."""

    def __init__(self, cells: npt.NDArray[np.uint8]) -> None:
        if cells.ndim != 3:
            raise ValueError("cells must have shape (rows, cols, cell_bytes)")
        self.cells = np.ascontiguousarray(cells, dtype=np.uint8)

    @property
    def base_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def base_cols(self) -> int:
        return self.cells.shape[1]

    @property
    def cell_bytes(self) -> int:
        return self.cells.shape[2]

    @staticmethod
    def from_bytes(data: bytes, base_rows: int, base_cols: int, cell_bytes: int) -> Blob:
        """Pack layer-2 payload bytes into the base matrix, zero-padded."""
        capacity = base_rows * base_cols * cell_bytes
        if len(data) > capacity:
            raise ValueError(f"payload of {len(data)} B exceeds blob capacity {capacity} B")
        buf = np.zeros(capacity, dtype=np.uint8)
        buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return Blob(buf.reshape(base_rows, base_cols, cell_bytes))

    def to_bytes(self) -> bytes:
        return self.cells.tobytes()

    def extend(self) -> ExtendedBlob:
        """Apply the 2D code: rows first, then columns of the widened matrix."""
        return ExtendedBlob.from_blob(self)


class _SymbolCodec:
    """Runs RS over one line of cells, one GF(2^8) lane per byte position."""

    def __init__(self, k: int, n: int) -> None:
        self.rs = ReedSolomon(k, n)

    def encode_line(self, data_cells: npt.NDArray[np.uint8]) -> npt.NDArray[np.uint8]:
        """Extend k cells to n cells (returns only the n-k parity cells).

        All byte lanes of the line are encoded in one vectorized
        Reed-Solomon call; the erasure batch suite pins equality with
        the scalar per-lane loop.
        """
        codeword = self.rs.encode_batch(data_cells.astype(np.int64))
        return codeword[self.rs.k :].astype(np.uint8)


class ExtendedBlob:
    """The ``2R x 2C`` erasure-extended matrix (Figure 2's 140 MB object)."""

    def __init__(self, cells: npt.NDArray[np.uint8], base_rows: int, base_cols: int) -> None:
        self.cells = np.ascontiguousarray(cells, dtype=np.uint8)
        self.base_rows = base_rows
        self.base_cols = base_cols
        if self.cells.shape[0] != 2 * base_rows or self.cells.shape[1] != 2 * base_cols:
            raise ValueError("extended matrix shape must be (2R, 2C, cell_bytes)")

    @property
    def ext_rows(self) -> int:
        return 2 * self.base_rows

    @property
    def ext_cols(self) -> int:
        return 2 * self.base_cols

    @property
    def cell_bytes(self) -> int:
        return self.cells.shape[2]

    # ------------------------------------------------------------------
    @staticmethod
    def from_blob(blob: Blob) -> ExtendedBlob:
        """Apply the 2D code; ``ValueError`` if an extended dimension exceeds 255."""
        rows, cols, cell_bytes = blob.base_rows, blob.base_cols, blob.cell_bytes
        row_codec = _SymbolCodec(cols, 2 * cols)
        col_codec = _SymbolCodec(rows, 2 * rows)
        ext = np.zeros((2 * rows, 2 * cols, cell_bytes), dtype=np.uint8)
        ext[:rows, :cols] = blob.cells
        # 1) extend every original row to 2C cells
        for r in range(rows):
            ext[r, cols:] = row_codec.encode_line(ext[r, :cols])
        # 2) extend every (now 2C-wide) column to 2R cells
        for c in range(2 * cols):
            ext[rows:, c] = col_codec.encode_line(ext[:rows, c])
        return ExtendedBlob(ext, rows, cols)

    def cell(self, row: int, col: int) -> bytes:
        return self.cells[row, col].tobytes()

    def cell_by_id(self, cid: int) -> bytes:
        row, col = divmod(cid, self.ext_cols)
        return self.cell(row, col)

    def to_blob(self) -> Blob:
        """Strip the extension, returning the original data quadrant."""
        return Blob(self.cells[: self.base_rows, : self.base_cols])
