"""Finite-field arithmetic GF(2^8) for Reed-Solomon coding.

Every grid the codec extends has extended dimensions of at most 255,
so one byte of a cell is one field symbol and a codeword never
outgrows the field. Tables are built once with numpy and cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import numpy.typing as npt

__all__ = ["GaloisField", "GF256"]

# every table and vector in this module holds field elements as int64
FieldArray = npt.NDArray[np.int64]

_PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


class GaloisField:
    """GF(2^8) with log/antilog tables and a vectorized matrix product."""

    order = 256

    def __init__(self) -> None:
        size = self.order
        exp: FieldArray = np.zeros(2 * size, dtype=np.int64)
        log: FieldArray = np.zeros(size, dtype=np.int64)
        x = 1
        for i in range(size - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & size:
                x ^= _PRIMITIVE_POLY
        # duplicate so exp[(a+b)] never needs an explicit modulo
        exp[size - 1 : 2 * (size - 1)] = exp[: size - 1]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(self._exp[self._log[a] - self._log[b] + (self.order - 1)])

    def matmul(self, a: npt.ArrayLike, b: npt.ArrayLike) -> FieldArray:
        """GF matrix product: ``out[i, j] = XOR_k a[i, k] * b[k, j]``.

        The workhorse of batched Reed-Solomon: one call applies a
        Lagrange coefficient matrix to every symbol lane of a line at
        once instead of re-interpolating per lane. Products are taken
        in the log domain (``exp[log a + log b]`` with zeros masked)
        and accumulated with ``bitwise_xor.reduce``.

        The intermediate product tensor is ``(rows, k, cols)``; the
        row axis is chunked so peak scratch memory stays bounded.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible matmul shapes {a.shape} x {b.shape}")
        rows, inner = a.shape
        cols = b.shape[1]
        out: FieldArray = np.zeros((rows, cols), dtype=np.int64)
        if inner == 0 or rows == 0 or cols == 0:
            return out
        log_b = self._log[b]
        b_zero = b == 0
        # cap the (chunk, inner, cols) scratch tensor at ~4M elements
        chunk = max(1, (1 << 22) // max(1, inner * cols))
        for start in range(0, rows, chunk):
            a_c = a[start : start + chunk]
            prod = self._exp[self._log[a_c][:, :, None] + log_b[None, :, :]]
            prod[(a_c == 0)[:, :, None] | b_zero[None, :, :]] = 0
            out[start : start + chunk] = np.bitwise_xor.reduce(prod, axis=1)
        return out


@lru_cache(maxsize=None)
def GF256() -> GaloisField:
    """The byte field GF(2^8), built once."""
    return GaloisField()
