"""The builder process (Section 6.1).

When the proposer selects its block, the builder seeds the extended
blob into the network: for every row and column it applies the
configured seeding policy to decide which cells go to which custodians
and with what redundancy, merges the parcels per (node, line) into one
datagram carrying the cells plus the consolidation-boost entries for
that line, and pushes everything out in randomized order through its
(10 Gbps) uplink — whose serialization delay is exactly what creates
the paper's time-to-seeding distribution.
"""

from __future__ import annotations


from repro.core.context import ProtocolContext
from repro.core.messages import SeedMessage
from repro.core.seeding import LineBoost, SeedingPolicy, boost_map_for_line
from repro.net.transport import Datagram

__all__ = ["Builder"]


class Builder:
    """Prepares and seeds extended blob data for slots it wins."""

    def __init__(
        self,
        ctx: ProtocolContext,
        builder_id: int,
        policy: SeedingPolicy,
        view: set[int] | None = None,
    ) -> None:
        self.ctx = ctx
        self.builder_id = builder_id
        self.policy = policy
        self.view = view  # None: complete view of all nodes
        self.last_seed_messages = 0
        self.last_seed_bytes = 0

    # ------------------------------------------------------------------
    def seed_slot(self, slot: int) -> None:
        """Disseminate the slot's extended blob cells (phase 3 of Fig. 4)."""
        ctx = self.ctx
        params = ctx.params
        epoch = ctx.epoch_of(slot)
        index = ctx.index_for_epoch(epoch)
        rng = ctx.rngs.stream("seeding", self.builder_id, slot)

        # per (node, line): the sorted cells its message carries, read
        # off the line's boost map, which already merges each custodian's
        # parcels (keys in first-parcel order); per line: boost map. No
        # other per-(node, line) container is built: one kept until the
        # last send fixed the heap's size for the whole run (DESIGN.md §4.1).
        merged: dict[tuple[int, int], tuple[int, ...]] = {}
        boost_by_line: dict[int, LineBoost] = {}
        num_lines = params.ext_rows + params.ext_cols
        for line in range(num_lines):
            custodians = index.custodians(line, self.view)
            if not custodians:
                continue
            parcels = self.policy.line_parcels(line, params, custodians, rng)
            if not parcels:
                continue
            boost = boost_by_line[line] = boost_map_for_line(parcels)
            for node_id, cells in boost.seeded.items():
                merged[node_id, line] = tuple(sorted(cells))

        # per-node datagram counts let receivers detect seed completion
        totals: dict[int, int] = {}
        for node_id, _line in merged:
            totals[node_id] = totals.get(node_id, 0) + 1

        # Globally shuffled send order: every node's seed messages are
        # spread across the whole ~0.9 s egress window. (A per-node
        # burst order was tried and regresses under the FIFO link
        # model: early-seeded nodes query peers that have not been
        # seeded yet, and replies queue behind the requester's own
        # burst — see DESIGN.md 2.1.)
        sends = list(merged.items())
        rng.shuffle(sends)
        self.last_seed_messages = 0
        self.last_seed_bytes = 0
        # The first datagram of each node's burst carries the full
        # consolidation-boost map for all the node's lines — including
        # the node's own parcels, so it knows which cells are already
        # inbound and never re-requests them (Table 1's zero round-1
        # duplicates). Subsequent datagrams carry cells only. Each
        # line's map is one object, referenced by every custodian's
        # first datagram.
        boost_sent: set[int] = set()
        node_lines: dict[int, list[int]] = {}
        for node_id, line in merged:
            node_lines.setdefault(node_id, []).append(line)
        for (node_id, line), cells in sends:
            if node_id not in boost_sent:
                boost_sent.add(node_id)
                boost = tuple(
                    boost_by_line[node_line] for node_line in node_lines[node_id]
                )
            else:
                boost = ()
            msg = SeedMessage(
                slot=slot,
                epoch=epoch,
                line=line,
                cells=cells,
                boost=boost,
                builder_id=self.builder_id,
                total_messages=totals[node_id],
            )
            size = msg.wire_size(params)
            ctx.network.send(self.builder_id, node_id, msg, size)
            self.last_seed_messages += 1
            self.last_seed_bytes += size
        ctx.emit(
            "seed_slot",
            slot=slot,
            node=self.builder_id,
            messages=self.last_seed_messages,
            bytes=self.last_seed_bytes,
        )

    # ------------------------------------------------------------------
    def on_datagram(self, dgram: Datagram) -> None:
        """Builders ignore peer traffic; they only seed."""
