"""``Builder.seed_slot`` merges each line's parcels as it goes.

The builder merges a line's parcels as soon as the line is parceled,
straight into the sorted cell tuple its ``SeedMessage`` carries. The
merge into one ``set`` per (custodian, line), kept until the last
send, is the oracle here: every message, and the order they are sent
in, must be the same, on full-grid worlds with fewer and with more
than r = 8 custodians per line.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest

from repro.core.messages import SeedMessage
from repro.core.seeding import (
    MinimalSeeding,
    RedundantSeeding,
    WithholdingSeeding,
    boost_map_for_line,
)
from repro.params import SEEDING_REDUNDANCY, PandasParams
from repro.sim.rng import derive_seed
from tests.helpers import make_world

# full grid (1,024 lines, 16 custody lines per node): ~N / 64 custodians
# per line, so 150 nodes give every line at most r (some none) and 512
# give over a third of the lines more
FEWER_THAN_R, MORE_THAN_R = 150, 512

POLICIES = {
    "redundant": RedundantSeeding,
    "minimal": MinimalSeeding,
    "withholding": lambda: WithholdingSeeding(RedundantSeeding(), release=0.4),
}


def set_merge_messages(builder, slot):
    """(addressee, message) in send order, merged the old way: one set
    per (custodian, line) until every line is parceled."""
    ctx = builder.ctx
    params = ctx.params
    epoch = ctx.epoch_of(slot)
    index = ctx.index_for_epoch(epoch)
    # the builder's own stream, drawn from the start
    rng = random.Random(
        derive_seed(ctx.rngs.master_seed, "seeding", builder.builder_id, slot)
    )
    merged: dict[tuple[int, int], set[int]] = {}
    boost_by_line = {}
    for line in range(params.ext_rows + params.ext_cols):
        custodians = index.custodians(line, builder.view)
        if not custodians:
            continue
        parcels = builder.policy.line_parcels(line, params, custodians, rng)
        if not parcels:
            continue
        boost_by_line[line] = boost_map_for_line(parcels)
        for parcel in parcels:
            merged.setdefault((parcel.node_id, line), set()).update(parcel.cells)
    totals = Counter(node for node, _line in merged)
    sends = list(merged.items())
    rng.shuffle(sends)
    node_lines: dict[int, list[int]] = {}
    for node, line in merged:
        node_lines.setdefault(node, []).append(line)
    boosted: set[int] = set()
    out = []
    for (node, line), cells in sends:
        if node in boosted:
            boost = ()
        else:
            boosted.add(node)
            boost = tuple(boost_by_line[node_line] for node_line in node_lines[node])
        message = SeedMessage(
            slot=slot,
            epoch=epoch,
            line=line,
            cells=tuple(sorted(cells)),
            boost=boost,
            builder_id=builder.builder_id,
            total_messages=totals[node],
        )
        out.append((node, message))
    return out


def sent_messages(world, slot):
    """(addressee, message) of every seed datagram ``seed_slot`` sends."""
    sent = []
    world.network.on_send.append(
        lambda d: sent.append((d.dst, d.payload))
        if isinstance(d.payload, SeedMessage)
        else None
    )
    world.builder.seed_slot(slot)
    return sent


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("num_nodes", [FEWER_THAN_R, MORE_THAN_R])
def test_line_by_line_merge_sends_what_the_set_merge_sent(num_nodes, policy):
    world = make_world(
        num_nodes=num_nodes, params=PandasParams.full(), policy=POLICIES[policy](), seed=5
    )
    index = world.ctx.index_for_epoch(0)
    per_line = [len(index.custodians(line)) for line in range(1024)]
    if num_nodes == FEWER_THAN_R:
        assert max(per_line) <= SEEDING_REDUNDANCY
    else:
        assert sum(n > SEEDING_REDUNDANCY for n in per_line) > 1024 // 3

    expected = set_merge_messages(world.builder, 0)
    sent = sent_messages(world, 0)

    assert len(sent) == len(expected) > 0
    for (dst, message), (want_dst, want) in zip(sent, expected, strict=True):
        assert dst == want_dst
        assert (message.slot, message.epoch, message.line) == (
            want.slot, want.epoch, want.line
        )
        assert message.cells == want.cells
        assert message.total_messages == want.total_messages
        assert message.builder_id == want.builder_id
        assert [b.line for b in message.boost] == [b.line for b in want.boost]
    # each line's map is one object, compared once
    boosts = {b.line: b for _dst, message in sent for b in message.boost}
    wanted = {b.line: b for _dst, message in expected for b in message.boost}
    assert boosts == wanted
    for _dst, message in sent:
        assert all(b is boosts[b.line] for b in message.boost)


def test_seeding_peaks_at_what_it_leaves_live():
    """No transient outweighs what seeding leaves in flight: the traced
    peak inside ``seed_slot`` stays within 10% of the memory it leaves
    allocated (the sent messages, their cells and boost maps, and the
    queued deliveries). The per-(custodian, line) sets the builder used
    to keep until its last send doubled it."""
    world = make_world(
        num_nodes=FEWER_THAN_R, params=PandasParams.full(), policy=RedundantSeeding()
    )
    world.ctx.index_for_epoch(0)  # built lazily; not seeding's to count
    world.ctx.begin_slot(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        world.builder.seed_slot(0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    live = after - before
    assert live > 0
    assert peak - before <= 1.10 * live, (peak - before, live)
