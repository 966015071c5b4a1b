"""Builder seeding policies (Section 6.1, Figure 6).

For every line (row or column) ``f`` the builder decides which cells
to push into the network and with what redundancy, splitting them into
parcels of *adjacent* cells dispatched to the nodes assigned to ``f``
in its view (``V_b(f)``).

Every cell belongs to one row and one column; to match the paper's
egress totals (one copy of the quadrant / extended blob per
redundancy unit: 35, 140, and 1,120 MB before overheads), each cell is
*owned* by exactly one of its two lines for seeding purposes — row if
``(r + c)`` is even, column otherwise — and distributed only through
that line's custodians. Consolidation stitches lines back together
from both populations.

- **minimal** — one copy of the original quadrant (rows < R and
  columns < C), the minimal globally reconstructable set (Figure 3
  left); a single lost message breaks availability. 35 MB full-scale.
- **single** — one copy of every extended cell; the 2D code tolerates
  losing up to half of each line. 140 MB.
- **redundant(r)** — the single policy with every parcel sent to
  ``r - 1`` extra custodians of the owning line (default r=8).
  1,120 MB.

The policy also yields the per-line consolidation-boost map CB: which
cells of ``f`` were seeded to which custodians of ``f``
(:class:`LineBoost`, built once per line and shared by reference by
every message and fetcher that needs it; custodians seeded the same
cells in the same order share one entry).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from itertools import chain
from types import MappingProxyType

from repro.params import SEEDING_REDUNDANCY, PandasParams

__all__ = [
    "LineBoost",
    "SeedParcel",
    "SeedingPolicy",
    "MinimalSeeding",
    "SingleSeeding",
    "RedundantSeeding",
    "policy_by_name",
    "boost_map_for_line",
    "owned_cells_of_line",
]


@dataclass(frozen=True)
class SeedParcel:
    """A contiguous run of one line's cells destined for one node."""

    node_id: int
    line: int
    cells: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class LineBoost:
    """CB(f) of one line: which of its cells were seeded to whom.

    Built once per line by the builder and shipped *by reference* to
    every custodian of the line, whose fetchers keep that reference
    until they finish — so nothing reachable from it is mutable:
    ``seeded`` is a read-only view and every cell set is a ``frozenset``.
    Custodians whose merged parcels are the same cell list share one
    entry, and ``cells`` is that entry when it holds every seeded cell.
    """

    line: int
    # custodian -> the line's cells seeded to it (its merged parcels)
    seeded: Mapping[int, frozenset[int]]
    # every seeded cell of the line (membership tests only): the union
    # of ``seeded``'s values
    cells: frozenset[int]


def owned_cells_of_line(line: int, params: PandasParams) -> list[int]:
    """Cells distributed through ``line``'s custodians (parity rule)."""
    ext_rows, ext_cols = params.ext_rows, params.ext_cols
    if line < ext_rows:
        row = line
        base = row * ext_cols
        start = 0 if row % 2 == 0 else 1
        return [base + col for col in range(start, ext_cols, 2)]
    col = line - ext_rows
    start = 1 if col % 2 == 0 else 0  # complement of the row rule
    return [row * ext_cols + col for row in range(start, ext_rows, 2)]


def _split_adjacent(cells: Sequence[int], parts: int) -> list[tuple[int, ...]]:
    """Split ``cells`` into ``parts`` contiguous runs of near-equal size."""
    if parts < 1:
        raise ValueError("parts must be positive")
    parts = min(parts, len(cells))
    base, extra = divmod(len(cells), parts)
    runs: list[tuple[int, ...]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        runs.append(tuple(cells[start : start + size]))
        start += size
    return runs


class SeedingPolicy:
    """Base class: selects and scatters one line's owned cells."""

    name = "abstract"
    copies = 1

    def cells_for_line(self, line: int, params: PandasParams) -> list[int]:
        """Which of the line's owned cells this policy seeds."""
        return owned_cells_of_line(line, params)

    def line_parcels(
        self,
        line: int,
        params: PandasParams,
        custodians: Sequence[int],
        rng: random.Random,
    ) -> list[SeedParcel]:
        """Parcel the selected cells over ``custodians`` with redundancy."""
        if not custodians:
            return []
        cells = self.cells_for_line(line, params)
        if not cells:
            return []
        runs = _split_adjacent(cells, len(custodians))
        primaries = rng.sample(custodians, len(runs))
        parcels: list[SeedParcel] = []
        for run, primary in zip(runs, primaries, strict=True):
            parcels.append(SeedParcel(primary, line, run))
            if self.copies > 1 and len(custodians) > 1:
                others = [n for n in custodians if n != primary]
                for replica in rng.sample(others, min(self.copies - 1, len(others))):
                    parcels.append(SeedParcel(replica, line, run))
        return parcels


class MinimalSeeding(SeedingPolicy):
    """Single copy of the original quadrant (35 MB full-scale)."""

    name = "minimal"
    copies = 1

    def cells_for_line(self, line: int, params: PandasParams) -> list[int]:
        ext_cols = params.ext_cols
        base_rows, base_cols = params.base_rows, params.base_cols
        quadrant = []
        for cid in owned_cells_of_line(line, params):
            row, col = divmod(cid, ext_cols)
            if row < base_rows and col < base_cols:
                quadrant.append(cid)
        return quadrant


class SingleSeeding(SeedingPolicy):
    """Single copy of every extended cell (140 MB full-scale)."""

    name = "single"
    copies = 1


class RedundantSeeding(SeedingPolicy):
    """Every parcel sent to ``r`` custodians in total (1,120 MB at r=8)."""

    def __init__(self, r: int = SEEDING_REDUNDANCY) -> None:
        if r < 1:
            raise ValueError("redundancy must be at least 1")
        self.r = r
        self.copies = r
        self.name = f"redundant(r={r})"


class WithholdingSeeding(SeedingPolicy):
    """A data-withholding attacker (Section 3, Figure 3 right).

    Wraps another policy but releases only the first ``release``
    fraction of each line's owned cells. Below 0.5 the grid cannot be
    reconstructed from seeded data, and sampling must systematically
    detect unavailability: with 73 samples the probability that every
    committee member misses every withheld cell is < 1e-9.
    """

    def __init__(self, inner: SeedingPolicy, release: float) -> None:
        if not 0.0 <= release <= 1.0:
            raise ValueError(f"release fraction must be in [0, 1], got {release}")
        self.inner = inner
        self.release = release
        self.copies = inner.copies
        self.name = f"withholding({inner.name}, release={release:.2f})"

    def cells_for_line(self, line: int, params: PandasParams) -> list[int]:
        cells = self.inner.cells_for_line(line, params)
        return cells[: int(len(cells) * self.release)]


def policy_by_name(name: str, r: int = SEEDING_REDUNDANCY) -> SeedingPolicy:
    """Factory used by experiment configs and CLI examples."""
    if name == "minimal":
        return MinimalSeeding()
    if name == "single":
        return SingleSeeding()
    if name.startswith("redundant"):
        return RedundantSeeding(r)
    raise ValueError(f"unknown seeding policy {name!r}")


def boost_map_for_line(parcels: Sequence[SeedParcel]) -> LineBoost:
    """CB(f) of the line ``parcels`` (non-empty, one line) scatter.

    One ``frozenset`` per distinct merged cell list: sharing is keyed by
    the *ordered* list, so a shared entry is built by the very call that
    would have built each custodian's own copy, and iterates in the same
    order. An entry holding every seeded cell doubles as ``cells``; with
    at most ``r`` custodians every custodian gets every parcel, so the
    line has a single entry and it is that one.
    """
    merged: dict[int, list[int]] = {}
    for parcel in parcels:
        merged.setdefault(parcel.node_id, []).extend(parcel.cells)
    entries: dict[tuple[int, ...], frozenset[int]] = {}
    seeded: dict[int, frozenset[int]] = {}
    for node, cells in merged.items():
        key = tuple(cells)
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = frozenset(cells)
        seeded[node] = entry
    # built by insertion, not by ``frozenset.union``, which sizes its
    # table for the sum of the operands
    union = frozenset(chain.from_iterable(entries))
    return LineBoost(
        line=parcels[0].line,
        seeded=MappingProxyType(seeded),
        cells=next((e for e in entries.values() if len(e) == len(union)), union),
    )
