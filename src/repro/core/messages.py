"""PANDAS wire messages and their size accounting.

All traffic is one-way UDP datagrams (Section 4.3): no connections, no
keep-alives, no negative acknowledgments. Blob data is public and sent
unencrypted; seed messages carry the proposer's signature binding the
builder identity so nodes accept blob data before the block arrives.

Sizes are computed from the protocol parameters so that bandwidth
results (Figures 10, 13c, 14c and claim C2) reflect the paper's
numbers: each cell costs 512 + 48 bytes; identifiers and map entries
cost a few bytes each; every datagram pays a fixed overhead for
headers plus the signature.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.seeding import LineBoost
from repro.params import MESSAGE_OVERHEAD_BYTES, PandasParams

__all__ = [
    "SeedMessage",
    "CellRequest",
    "CellResponse",
    "PRIORITY_SAMPLING",
    "PRIORITY_RETRIEVAL",
]

CELL_ID_BYTES = 4
NODE_REF_BYTES = 8
BOOST_ENTRY_BYTES = NODE_REF_BYTES + 2 * CELL_ID_BYTES  # node + cell range


@dataclass(frozen=True)
class SeedMessage:
    """One parcel of seed cells for one line, builder -> node.

    ``boost`` is empty except on the first datagram of the node's
    burst, which carries the consolidation-boost maps of *all* the
    node's lines: per line, which of its cells were seeded to which
    custodian — the addressee included (Section 6.2, Figure 7). The
    maps are the builder's own immutable per-line objects, shared by
    every message that carries them.
    """

    slot: int
    epoch: int
    line: int
    cells: tuple[int, ...]
    boost: tuple[LineBoost, ...] = ()
    builder_id: int = 0
    # how many seed datagrams the builder addresses to this node in
    # this slot; lets the node detect seed completion (consolidation
    # then starts on real deficits instead of racing in-flight parcels;
    # the 400 ms timer covers the case where some of them are lost)
    total_messages: int = 1

    def wire_size(self, params: PandasParams) -> int:
        # Boost entries are (peer, contiguous-parcel range): 16 B each.
        entries = sum(len(line_boost.seeded) for line_boost in self.boost)
        return (
            MESSAGE_OVERHEAD_BYTES
            + len(self.cells) * params.cell_bytes
            + entries * BOOST_ENTRY_BYTES
        )


# CellRequest traffic classes. Sampling/consolidation queries are the
# protocol's own traffic — the consensus timebound depends on them and
# they are never shed by admission control. Retrieval-class requests
# (layer-2 clients reading blob data back) are best-effort and shed
# first under overload.
PRIORITY_SAMPLING = 0
PRIORITY_RETRIEVAL = 1


@dataclass(frozen=True)
class CellRequest:
    """QUERYCELLS: ask a peer for specific cells (consolidation/sampling).

    ``priority`` is the traffic class (``PRIORITY_SAMPLING`` or
    ``PRIORITY_RETRIEVAL``); it rides in existing header bits, so it
    does not change the wire size.
    """

    slot: int
    epoch: int
    cells: frozenset[int]
    priority: int = PRIORITY_SAMPLING

    def wire_size(self, params: PandasParams) -> int:
        return MESSAGE_OVERHEAD_BYTES + len(self.cells) * CELL_ID_BYTES


@dataclass(frozen=True)
class CellResponse:
    """Reply carrying the requested cells (sent only when all are held).

    ``invalid`` is a *modeling* flag, not wire data: the simulation
    tracks cell identity rather than bytes, so a Byzantine responder
    marks here which of its carried cells would fail KZG verification
    against the slot commitment. Honest code never sets it; receiving
    nodes must verify every cell on ingest and drop the marked ones.
    """

    slot: int
    epoch: int
    cells: tuple[int, ...]
    invalid: frozenset[int] = frozenset()

    def wire_size(self, params: PandasParams) -> int:
        return MESSAGE_OVERHEAD_BYTES + len(self.cells) * params.cell_bytes
