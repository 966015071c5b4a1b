"""Systematic Reed-Solomon erasure codec (evaluation form).

A codeword of length ``n`` with ``k`` data symbols is the evaluation of
the unique degree-<k polynomial interpolating the data at points
``0..k-1``, extended to points ``k..n-1``. Any ``k`` received symbols
determine the polynomial (Lagrange interpolation) and hence every
erased position — exactly the "any 50% of a row/column reconstructs
it" property the PANDAS blob relies on (n = 2k).

This is an *erasure* decoder (positions of missing symbols are known),
which matches DAS: cells are authenticated by their KZG proofs, so a
node never holds a wrong symbol, only missing ones.

Two code paths share the same math:

- ``encode`` / ``decode``: scalar Lagrange interpolation, O(k^2) per
  codeword — the readable reference implementation, the decoder the
  custody oracle runs, and the golden reference for ``encode_batch``.
- ``encode_batch``: all symbol *lanes* of a line at once. The Lagrange
  basis depends only on the evaluation points, never on the values,
  so one vectorized coefficient matrix (built in the log domain from
  the field's exp/log tables) applies to every lane via a single GF
  matrix multiply. Blob extension runs one lane per cell byte, so this
  removes the per-lane Python loop from :mod:`repro.erasure.blob`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.erasure.gf import GF256

__all__ = ["ReedSolomon"]


class ReedSolomon:
    """RS(n, k) erasure codec over GF(2^8), so ``n`` is at most 255."""

    def __init__(self, k: int, n: int) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if n <= k:
            raise ValueError(f"n ({n}) must exceed k ({k})")
        self.field = GF256()
        if n > self.field.order - 1:
            raise ValueError(
                f"codeword length {n} exceeds {self.field.order - 1}, "
                "the GF(2^8) limit"
            )
        self.k = k
        self.n = n

    # ------------------------------------------------------------------
    def encode(self, data: Sequence[int]) -> list[int]:
        """Extend ``k`` data symbols to a full ``n``-symbol codeword.

        Systematic: the first ``k`` output symbols equal the input.
        """
        if len(data) != self.k:
            raise ValueError(f"expected {self.k} data symbols, got {len(data)}")
        known = {i: int(symbol) for i, symbol in enumerate(data)}
        parity = self._interpolate_at(known, list(range(self.k, self.n)))
        return [int(s) for s in data] + parity

    def decode(self, known: dict[int, int]) -> list[int]:
        """Recover the full codeword from any >= k known symbols.

        ``known`` maps position (0..n-1) to symbol value. Raises
        ``ValueError`` if fewer than ``k`` positions are supplied —
        below the threshold the codeword is information-theoretically
        unrecoverable, the core fact behind the withholding analysis.
        """
        if len(known) < self.k:
            raise ValueError(
                f"need at least {self.k} symbols to decode, got {len(known)}"
            )
        for pos in known:
            if not 0 <= pos < self.n:
                raise ValueError(f"position {pos} outside codeword of length {self.n}")
        use = dict(list(known.items())[: self.k])
        missing = [i for i in range(self.n) if i not in known]
        recovered = self._interpolate_at(use, missing)
        codeword = [0] * self.n
        for pos, value in known.items():
            codeword[pos] = int(value)
        for pos, value in zip(missing, recovered, strict=True):
            codeword[pos] = value
        return codeword

    # ------------------------------------------------------------------
    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Extend ``(k, lanes)`` data symbols to ``(n, lanes)`` codewords.

        Each column (lane) is an independent codeword; all lanes share
        the evaluation points 0..k-1, so one coefficient matrix covers
        the whole batch. Row ``i`` of the result equals
        ``encode(data[:, lane])[i]`` for every lane — the golden test
        pins bit-equality with the scalar path.
        """
        data = np.asarray(data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(
                f"expected (k={self.k}, lanes) data symbols, got {data.shape}"
            )
        coeffs = self._lagrange_matrix(
            list(range(self.k)), list(range(self.k, self.n))
        )
        parity = self.field.matmul(coeffs, data)
        return np.concatenate([data, parity], axis=0)

    def _lagrange_matrix(self, xs: list[int], targets: list[int]) -> np.ndarray:
        """Coefficient matrix L with ``L[t, j] = L_j(target_t)``.

        Built entirely in the log domain: ``log L_j(t) = log P(t) -
        log(t - x_j) - log d_j`` where ``P`` is the full product over
        known points and ``d_j`` the basis denominator. Every pairwise
        difference is nonzero because targets are disjoint from the
        interpolation points, so no zero-masking is needed.
        """
        gf = self.field
        order = gf.order - 1
        xs_a = np.asarray(xs, dtype=np.int64)
        ts_a = np.asarray(targets, dtype=np.int64)
        # d_j = prod_{i != j} (x_j ^ x_i); the diagonal (zero) is
        # excluded by forcing its log contribution to 0
        pair = xs_a[:, None] ^ xs_a[None, :]
        log_pair = gf._log[pair]
        np.fill_diagonal(log_pair, 0)
        log_den = log_pair.sum(axis=1) % order
        diff = ts_a[:, None] ^ xs_a[None, :]
        log_diff = gf._log[diff]
        log_full = log_diff.sum(axis=1) % order
        log_coeff = (log_full[:, None] - log_diff - log_den[None, :]) % order
        result: np.ndarray = gf._exp[log_coeff]
        return result

    # ------------------------------------------------------------------
    def _interpolate_at(self, points: dict[int, int], targets: list[int]) -> list[int]:
        """Lagrange-interpolate ``points`` and evaluate at ``targets``.

        Positions double as evaluation points (the field elements
        0..n-1), which is safe because n < field order.
        """
        gf = self.field
        xs = list(points.keys())
        ys = list(points.values())
        k = len(xs)
        # Precompute denominators: d_j = prod_{i != j} (x_j - x_i)
        denominators = []
        for j in range(k):
            d = 1
            xj = xs[j]
            for i in range(k):
                if i != j:
                    d = gf.mul(d, xj ^ xs[i])
            denominators.append(d)
        results = []
        for x in targets:
            # full product P(x) = prod_i (x - x_i)
            full = 1
            for xi in xs:
                full = gf.mul(full, x ^ xi)
            acc = 0
            for j in range(k):
                if ys[j] == 0:
                    continue
                # L_j(x) = P(x) / ((x - x_j) * d_j)
                lj = gf.div(full, gf.mul(x ^ xs[j], denominators[j]))
                acc ^= gf.mul(ys[j], lj)
            results.append(acc)
        return results
