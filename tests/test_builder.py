"""Builder seeding behaviour: budgets, boost maps, message counting."""

from __future__ import annotations


from repro.core.assignment import lines_of_cell
from repro.core.messages import SeedMessage
from repro.core.seeding import MinimalSeeding, RedundantSeeding, SingleSeeding
from repro.params import SLOT_SECONDS
from tests.helpers import make_world


def collect_seeds(world, slot=0):
    """Seed datagrams in the order the builder sent them."""
    seeds = []
    world.network.on_send.append(
        lambda d: seeds.append(d) if isinstance(d.payload, SeedMessage) else None
    )
    world.ctx.begin_slot(slot)
    world.builder.seed_slot(slot)
    world.sim.run(until=slot * SLOT_SECONDS + 2.0)
    return seeds


def test_single_policy_seeds_every_cell_once():
    world = make_world(num_nodes=30, policy=SingleSeeding())
    seeds = collect_seeds(world)
    cells = [cid for d in seeds for cid in d.payload.cells]
    assert len(cells) == world.params.total_cells
    assert len(set(cells)) == world.params.total_cells


def test_redundant_policy_seeds_r_copies():
    world = make_world(num_nodes=30, policy=RedundantSeeding(3))
    seeds = collect_seeds(world)
    from collections import Counter

    counts = Counter(cid for d in seeds for cid in d.payload.cells)
    assert set(counts.values()) == {3}


def test_minimal_policy_seeds_quadrant():
    world = make_world(num_nodes=30, policy=MinimalSeeding())
    seeds = collect_seeds(world)
    params = world.params
    cells = {cid for d in seeds for cid in d.payload.cells}
    for cid in cells:
        row, col = divmod(cid, params.ext_cols)
        assert row < params.base_rows and col < params.base_cols


def test_seeds_go_only_to_line_custodians():
    world = make_world(num_nodes=30, policy=SingleSeeding())
    seeds = collect_seeds(world)
    index = world.ctx.index_for_epoch(0)
    for dgram in seeds:
        assert dgram.dst in index.custodians(dgram.payload.line)


def test_total_messages_matches_actual_count():
    world = make_world(num_nodes=30, policy=RedundantSeeding(3))
    seeds = collect_seeds(world)
    from collections import Counter

    per_node = Counter(d.dst for d in seeds)
    for dgram in seeds:
        assert dgram.payload.total_messages == per_node[dgram.dst]


def test_full_boost_map_on_first_burst_message_only():
    """The first datagram of each node's burst carries the complete
    boost map (including the recipient's own inbound parcels); later
    datagrams carry cells only."""
    world = make_world(num_nodes=30, policy=RedundantSeeding(3))
    seeds = collect_seeds(world)
    first_seen = set()
    for dgram in seeds:
        if dgram.dst not in first_seen:
            first_seen.add(dgram.dst)
            assert dgram.payload.boost  # full map present
        else:
            assert dgram.payload.boost == ()


def test_boost_map_includes_own_inbound_entries():
    world = make_world(num_nodes=30, policy=RedundantSeeding(3))
    seeds = collect_seeds(world)
    with_own = 0
    for dgram in seeds:
        boost = dgram.payload.boost
        if boost:
            # one map per line of the addressee, its own entry in each
            assert all(dgram.dst in line_boost.seeded for line_boost in boost)
            with_own += 1
    assert with_own == len({dgram.dst for dgram in seeds})


def test_boost_map_entries_are_custodians_of_their_cells_lines():
    world = make_world(num_nodes=30, policy=RedundantSeeding(3))
    seeds = collect_seeds(world)
    assignment = world.ctx.assignment
    checked = 0
    for dgram in seeds:
        for line_boost in dgram.payload.boost:
            for peer, cells in line_boost.seeded.items():
                assert line_boost.line in assignment.lines(peer, 0)
                for cid in sorted(cells)[:3]:
                    assert line_boost.line in lines_of_cell(
                        cid, world.params.ext_rows, world.params.ext_cols
                    )
                    assert assignment.is_custodian(peer, 0, cid)
                    checked += 1
    assert checked > 0


def test_builder_accounting():
    world = make_world(num_nodes=30, policy=SingleSeeding())
    world.ctx.begin_slot(0)
    world.builder.seed_slot(0)
    assert world.builder.last_seed_messages > 0
    assert world.builder.last_seed_bytes > world.params.total_cells * world.params.cell_bytes


def test_builder_with_restricted_view_seeds_only_view():
    world = make_world(num_nodes=30, policy=SingleSeeding())
    world.builder.view = set(range(15))
    seeds = collect_seeds(world)
    assert {d.dst for d in seeds} <= set(range(15))


def test_deterministic_seeding_given_seed():
    world_a = make_world(num_nodes=20, policy=RedundantSeeding(2), seed=5)
    world_b = make_world(num_nodes=20, policy=RedundantSeeding(2), seed=5)
    seeds_a = [(d.dst, d.payload.line, d.payload.cells) for d in collect_seeds(world_a)]
    seeds_b = [(d.dst, d.payload.line, d.payload.cells) for d in collect_seeds(world_b)]
    assert seeds_a == seeds_b
