"""CB(f) travels by reference: built once per line, never copied.

The builder computes one immutable :class:`LineBoost` per line and every
custodian's first seed datagram — and, for the slot, every custodian's
fetcher — references that same object (DESIGN.md 4.1). These tests pin

(a) that no per-node copy exists, (b) that nothing shared is mutable,
(c) that the fetcher decides exactly as it did on the old per-node
``dict[peer, set]`` (kept here, and only here, as the oracle),
(d) that a duplicated first datagram changes nothing, and
(e) that every byte count is what it was.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Mapping
from dataclasses import FrozenInstanceError

import pytest

from repro.core.assignment import Custody, cells_of_line, lines_of_cell
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher, score_peers
from repro.core.messages import BOOST_ENTRY_BYTES, SeedMessage
from repro.core.seeding import LineBoost, SeedParcel, boost_map_for_line
from repro.params import FetchSchedule, PandasParams
from repro.sim.engine import Simulator
from tests.helpers import held_cells, make_world

NODES = 60
WORLD_SEED = 5


def seed_world():
    """A 60-node dense reduced-grid world, plus the list every seed
    datagram its builder sends is appended to, in send order."""
    world = make_world(num_nodes=NODES, seed=WORLD_SEED)
    sent: list = []
    world.network.on_send.append(
        lambda dgram: sent.append(dgram) if isinstance(dgram.payload, SeedMessage) else None
    )
    return world, sent


@pytest.fixture(scope="module")
def seeded_world():
    """The world after one full slot, plus every CB(f) object a sent
    seed datagram carried."""
    world, sent = seed_world()
    world.run_slot(0)
    return world, [line_boost for dgram in sent for line_boost in dgram.payload.boost]


def cell_sets(value, found=None):
    """Every ``set``/``frozenset`` reachable from ``value`` through
    plain containers and CB(f) objects."""
    found = [] if found is None else found
    if isinstance(value, (set, frozenset)):
        found.append(value)
    elif isinstance(value, LineBoost):
        cell_sets(value.seeded, found)
        cell_sets(value.cells, found)
    elif isinstance(value, Mapping):
        for item in value.values():
            cell_sets(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            cell_sets(item, found)
    return found


# ----------------------------------------------------------------------
# (a) no copies
# ----------------------------------------------------------------------
def test_fetchers_reference_the_sent_maps_and_own_no_copy(seeded_world):
    world, carried = seeded_world
    sent_ids = {id(line_boost) for line_boost in carried}
    sent_ids.update(id(cells) for cells in cell_sets(carried))
    # cell ids that cannot be mistaken for a peer id
    boosted_cells = set().union(*(lb.cells for lb in carried))
    boosted_cells -= set(range(NODES + 1))
    assert boosted_cells

    for node in world.nodes.values():
        fetcher = node.slot_fetcher(0)
        assert fetcher.boost, "every node is seeded and gets its lines' maps"
        for line, line_boost in fetcher.boost.items():
            assert line_boost.line == line
            assert id(line_boost) in sent_ids
        for cells in cell_sets(fetcher.boost):
            assert isinstance(cells, frozenset)
            assert id(cells) in sent_ids

        # the node's own declared cells are its entry of each line's
        # map, the very object the message carried
        assert fetcher.inbound.keys() == fetcher.boost.keys()
        for line, own in fetcher.inbound.items():
            assert own is fetcher.boost[line].seeded[node.node_id]

        # a fetcher owns no container of boost cells: every cell set
        # reachable from it is one the builder built
        owning = set()
        for name in AdaptiveFetcher.__slots__:
            if name == "state":
                continue
            if any(
                cells & boosted_cells and id(cells) not in sent_ids
                for cells in cell_sets(getattr(fetcher, name))
            ):
                owning.add(name)
        assert owning == set()

    # one object per line, shared by all its custodians
    by_line: dict[int, LineBoost] = {}
    for line_boost in carried:
        assert by_line.setdefault(line_boost.line, line_boost) is line_boost


# ----------------------------------------------------------------------
# (b) immutable
# ----------------------------------------------------------------------
def test_nothing_reachable_from_a_message_is_mutable(seeded_world):
    _world, carried = seeded_world
    line_boost = carried[0]
    peer, cells = next(iter(line_boost.seeded.items()))
    with pytest.raises(TypeError):
        line_boost.seeded[peer] = frozenset()
    with pytest.raises(TypeError):
        del line_boost.seeded[peer]
    with pytest.raises(AttributeError):
        cells.add(0)
    with pytest.raises(AttributeError):
        line_boost.cells.add(0)
    with pytest.raises(FrozenInstanceError):
        line_boost.cells = frozenset()
    assert isinstance(cells, frozenset)
    assert all(isinstance(c, frozenset) for c in cell_sets(carried))


# ----------------------------------------------------------------------
# (c) equivalence with the old per-node dict[peer, set]
# ----------------------------------------------------------------------
SELF_ID = 999
PARAMS = PandasParams(base_rows=8, base_cols=8, custody_rows=2, custody_cols=2, samples=6)
CUSTODY = Custody(rows=(0, 5), cols=(3, 9))
PEERS = tuple(range(1, 13))
CB_BOOST = 10_000.0


def random_boost_case(rng: random.Random):
    """Random per-line maps (peers on two of our lines and our own
    entry included), held cells, custodian lists and queried peers."""
    ext_rows, ext_cols = PARAMS.ext_rows, PARAMS.ext_cols
    lines = CUSTODY.lines(ext_rows)
    custodians: dict[int, list[int]] = {}
    for line in range(ext_rows + ext_cols):
        custodians[line] = sorted(rng.sample(PEERS, rng.randint(0, 5)))
    maps = []
    for line in lines:
        if rng.random() < 0.15:
            continue  # the builder saw no custodian for this line
        line_cells = cells_of_line(line, ext_rows, ext_cols)
        # the line's custodians: two peers that recur on every line we
        # hold (so they share several lines with us), ourselves, others
        members = {1, 2} | set(rng.sample(PEERS, rng.randint(0, 4)))
        if rng.random() < 0.8:
            members.add(SELF_ID)
        custodians[line] = sorted(set(custodians[line]) | (members - {SELF_ID}))
        parcels = [
            SeedParcel(
                member, line, tuple(rng.sample(line_cells, rng.randint(1, len(line_cells) // 2)))
            )
            for member in sorted(members)
        ]
        maps.append(boost_map_for_line(parcels))
    held = rng.sample(range(PARAMS.total_cells), rng.randint(0, 40))
    samples = rng.sample(range(PARAMS.total_cells), PARAMS.samples)
    queried = set(rng.sample(PEERS, rng.randint(0, 3)))
    weights = {peer: rng.choice((1.0, 0.5, 0.25)) for peer in PEERS}
    return maps, custodians, held, samples, queried, weights


def check_boost_equivalence(case, round_index: int) -> None:
    """The fetcher on shared per-line maps == the flat-dict reference."""
    maps, custodians, held, samples, queried, weights = case
    state = SlotCellState(PARAMS, CUSTODY, samples)
    state.add_cells(held)
    sim = Simulator()
    fetcher = AdaptiveFetcher(
        sim=sim,
        state=state,
        schedule=FetchSchedule(),
        line_custodians=lambda line: custodians[line],
        send_query=lambda peer, cells: None,
        rng=random.Random(1),
        cb_boost=CB_BOOST,
        self_id=SELF_ID,
    )
    fetcher.queried |= queried
    for line_boost in maps:
        fetcher.add_boost(line_boost)
        own = line_boost.seeded.get(SELF_ID)
        if own:
            fetcher.add_inbound(line_boost.line, own)

    # the old representation: one private dict[peer, set] per node,
    # own entries split off as inbound
    flat: dict[int, set[int]] = {}
    flat_cells: set[int] = set()
    inbound: set[int] = set()
    for line_boost in maps:
        for peer, cells in line_boost.seeded.items():
            if peer == SELF_ID:
                inbound.update(cells)
            else:
                flat.setdefault(peer, set()).update(cells)
                flat_cells.update(cells)

    # membership derived from the per-line entries of a cell's two
    # lines == the old flat sets (inbound, and the `_boost_cells` union)
    for cid in range(PARAMS.total_cells):
        lines = lines_of_cell(cid, PARAMS.ext_rows, PARAMS.ext_cols)
        assert any(cid in fetcher.inbound.get(line, ()) for line in lines) == (
            cid in inbound
        )
        assert any(
            line in fetcher.boost and cid in fetcher.boost[line].cells for line in lines
        ) == (cid in flat_cells or cid in inbound)

    # round_targets on the flat membership set
    schedule = fetcher.schedule
    expected_targets = set(state.missing_samples())
    trust_inbound = round_index < schedule.settle_round
    for line in state.custody_lines:
        deficit = state.line_deficit(line)
        if deficit <= 0:
            continue
        missing = state.missing_in_line(line)
        declared = [cid for cid in missing if cid in inbound]
        located = [cid for cid in missing if cid not in inbound and cid in flat_cells]
        plain = [cid for cid in missing if cid not in inbound and cid not in flat_cells]
        if trust_inbound:
            picked = (located + plain)[: max(0, deficit - len(declared))]
        else:
            picked = (located + plain + declared)[:deficit]
        expected_targets.update(picked)
    targets = fetcher.round_targets(round_index)
    assert targets == expected_targets

    # candidates: every unqueried custodian of a target's lines, offered
    # the targets on the lines it shares with us — or, when the builder
    # seeded it some of the targets, exactly those
    expected: dict[int, set[int]] = {}
    for cid in targets:
        for line in lines_of_cell(cid, PARAMS.ext_rows, PARAMS.ext_cols):
            for peer in custodians[line]:
                if peer not in queried:
                    expected.setdefault(peer, set()).add(cid)
    expected_boosted = {
        peer: cells & targets
        for peer, cells in flat.items()
        if peer in expected and cells & targets
    }
    expected.update(expected_boosted)
    candidates, boosted = fetcher._candidate_cells(targets)
    assert candidates == expected
    assert boosted == expected_boosted
    assert SELF_ID not in candidates
    # scores: the old formula, intersecting the peer's whole seeded set
    for use_weights in (None, weights):
        expected_scores = {}
        for peer, cells in expected.items():
            score = float(len(cells))
            seeded = flat.get(peer)
            if seeded:
                score += len(seeded & targets) * CB_BOOST
            if use_weights is not None:
                score *= use_weights.get(peer, 1.0)
            expected_scores[peer] = score
        assert score_peers(candidates, boosted, CB_BOOST, use_weights) == expected_scores

    # the boost overlay replaces values only: peer order is the scan's
    fetcher.boost = {}
    assert list(fetcher._candidate_cells(targets)[0]) == list(candidates)


@pytest.mark.parametrize("case_seed", range(12))
def test_fetcher_matches_the_flat_dict_reference(case_seed):
    case = random_boost_case(random.Random(case_seed))
    for round_index in (1, FetchSchedule().settle_round):
        check_boost_equivalence(case, round_index)


def test_equivalence_cases_cover_shared_lines_and_own_entries():
    """The generator really produces what (c) is about."""
    two_lines = own = 0
    for case_seed in range(12):
        maps = random_boost_case(random.Random(case_seed))[0]
        lines_of_peer: dict[int, int] = {}
        for line_boost in maps:
            for peer in line_boost.seeded:
                lines_of_peer[peer] = lines_of_peer.get(peer, 0) + 1
        own += SELF_ID in lines_of_peer
        two_lines += any(
            count > 1 for peer, count in lines_of_peer.items() if peer != SELF_ID
        )
    assert two_lines >= 6 and own >= 6


# ----------------------------------------------------------------------
# (d) a duplicated first datagram
# ----------------------------------------------------------------------
def test_first_datagram_delivered_twice_changes_nothing():
    world, sent = seed_world()
    world.ctx.begin_slot(0)
    world.builder.seed_slot(0)
    node = world.nodes[0]
    first = next(d.payload for d in sent if d.dst == 0 and d.payload.boost)
    assert first.total_messages > 1

    def snapshot():
        fetcher = node.slot_fetcher(0)
        targets = fetcher.round_targets()
        return (
            dict(fetcher.boost),
            dict(fetcher.inbound),
            targets,
            fetcher._candidate_cells(targets),
            fetcher.started,
            held_cells(node.slot_cells(0)),
        )

    node._on_seed(world.builder.builder_id, first)
    once = snapshot()
    node._on_seed(world.builder.builder_id, first)
    twice = snapshot()
    assert twice == once
    for before, after in ((once[0], twice[0]), (once[1], twice[1])):
        assert all(a is b for a, b in zip(before.values(), after.values(), strict=True))


# ----------------------------------------------------------------------
# (e) byte counts
# ----------------------------------------------------------------------
def test_wire_sizes_are_the_parents():
    world, sent = seed_world()
    world.ctx.begin_slot(0)
    world.builder.seed_slot(0)

    params = world.params
    for dgram in sent:
        msg = dgram.payload
        # one 16-byte entry per (line, custodian), as before
        entries = sum(len(line_boost.seeded) for line_boost in msg.boost)
        assert dgram.size == msg.wire_size(params) == (
            params.message_overhead_bytes
            + len(msg.cells) * params.cell_bytes
            + entries * BOOST_ENTRY_BYTES
        )
    # recorded at the parent commit (per-node tuple-of-tuples maps)
    sizes = [(dgram.dst, dgram.size) for dgram in sent]
    assert world.builder.last_seed_messages == len(sizes) == 443
    assert world.builder.last_seed_bytes == sum(size for _dst, size in sizes) == 728_120
    assert max(size for _dst, size in sizes) == 4_856
    assert min(size for _dst, size in sizes) == 680
    assert hashlib.sha256(repr(sizes).encode()).hexdigest()[:16] == "f98dcb290a54e436"
