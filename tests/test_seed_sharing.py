"""CB(f) travels by reference: built once per line, never copied.

The builder computes one immutable :class:`LineBoost` per line and every
custodian's first seed datagram — and, until it finishes, every
custodian's fetcher — references that same object (DESIGN.md 4.1).
These tests pin

(a) that no per-node copy exists, and that a finished fetcher lets go,
(b) that nothing shared is mutable,
(c) that the fetcher decides exactly as it did on the old per-node
``dict[peer, set]`` (kept here, and only here, as the oracle),
(d) that a duplicated first datagram changes nothing,
(e) that every byte count is what it was, and
(f) that custodians seeded the same cell list share one entry, which
iterates exactly like the per-custodian ``frozenset`` it replaces
(also kept here, and only here, as the oracle).
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Mapping
from dataclasses import FrozenInstanceError

import pytest

from repro.core.assignment import Custody, cells_of_line, lines_of_cell
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher, plan_queries
from repro.core.messages import BOOST_ENTRY_BYTES, SeedMessage
from repro.core.seeding import (
    LineBoost,
    RedundantSeeding,
    SeedParcel,
    boost_map_for_line,
    owned_cells_of_line,
)
from repro.params import MAX_CELLS_PER_QUERY, MESSAGE_OVERHEAD_BYTES, FetchSchedule, PandasParams
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
# (a) no copies, and released when done
# ----------------------------------------------------------------------
class FetcherInspector:
    """A bus subscriber calling ``check(node_id, fetcher)`` on each
    fetcher as it reports done: the last moment it holds builder data."""

    kinds = frozenset({"fetch_done"})

    def __init__(self, world, check) -> None:
        self.world = world
        self.check = check
        self.inspected: set[int] = set()

    def emit(self, kind, *, t, slot, node, **data) -> None:
        self.check(node, self.world.nodes[node].slot_fetcher(slot))
        self.inspected.add(node)


def test_fetchers_reference_the_sent_maps_and_own_no_copy():
    world, sent = seed_world()

    def carried():
        return [line_boost for dgram in sent for line_boost in dgram.payload.boost]

    def check(node_id: int, fetcher: AdaptiveFetcher) -> None:
        sent_maps = carried()
        sent_ids = {id(line_boost) for line_boost in sent_maps}
        sent_ids.update(id(cells) for cells in cell_sets(sent_maps))
        # cell ids that cannot be mistaken for a peer id
        boosted_cells = set().union(*(lb.cells for lb in sent_maps))
        boosted_cells -= set(range(NODES + 1))
        assert boosted_cells

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
            assert own is fetcher.boost[line].seeded[node_id]

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

    inspector = FetcherInspector(world, check)
    world.ctx.events.subscribe(inspector)
    world.run_slot(0)
    assert inspector.inspected == set(world.nodes), "every fetcher finishes in the slot"

    # one object per line, shared by all its custodians
    by_line: dict[int, LineBoost] = {}
    for line_boost in carried():
        assert by_line.setdefault(line_boost.line, line_boost) is line_boost


# what a fetcher lets go of when it finishes or is stopped: the builder's
# maps and every per-round memo (the ledger stays: the node checks late
# replies against it)
RELEASED = ("boost", "inbound", "_picked", "_awaiting", "_silent")


def holds_nothing(fetcher: AdaptiveFetcher) -> bool:
    return all(getattr(fetcher, name) == {} for name in RELEASED)


def test_finished_fetcher_holds_no_builder_data():
    world, sent = seed_world()
    world.run_slot(0)
    finished = [node for node in world.nodes.values() if node.slot_fetcher(0).finished]
    assert len(finished) == NODES
    for node in finished:
        fetcher = node.slot_fetcher(0)
        assert holds_nothing(fetcher)
        # a late duplicate of the first datagram re-attaches nothing
        first = next(d.payload for d in sent if d.dst == node.node_id and d.payload.boost)
        node._on_seed(world.builder.builder_id, first)
        assert fetcher.boost == {} and fetcher.inbound == {}


def test_fetcher_that_gives_up_holds_no_builder_data():
    params = PandasParams(base_rows=8, base_cols=8, custody_rows=1, custody_cols=1, samples=2)
    sim = Simulator()
    fetcher = AdaptiveFetcher(
        sim=sim,
        state=SlotCellState(
            params.with_schedule(FetchSchedule.constant(max_rounds=3)),
            Custody(rows=(0,), cols=(3,)),
            (),
        ),
        # silent peers: every round has someone to ask, nobody answers
        line_custodians=lambda line: PEERS,
        send_query=lambda peer, cells: None,
        rng=random.Random(1),
        self_id=SELF_ID,
    )
    line_boost = boost_map_for_line([SeedParcel(SELF_ID, 0, (0, 2)), SeedParcel(4, 0, (4,))])
    fetcher.add_boost(line_boost)
    fetcher.add_inbound(0, line_boost.seeded[SELF_ID])
    fetcher.start()
    sim.run(until=5.0)
    assert fetcher.reason == "exhausted"
    assert holds_nothing(fetcher)
    fetcher.add_boost(line_boost)
    fetcher.add_inbound(0, line_boost.seeded[SELF_ID])
    assert fetcher.boost == {} and fetcher.inbound == {}


def test_fetchers_hold_nothing_once_finished_or_stopped():
    """Every fetcher reports done once, from ``_finish`` or from ``stop``,
    and afterwards holds no builder data and no per-round memo."""
    world, _sent = seed_world()
    done: list[AdaptiveFetcher] = []
    world.ctx.events.subscribe(
        FetcherInspector(world, lambda node_id, fetcher: done.append(fetcher))
    )
    world.ctx.begin_slot(0)
    world.builder.seed_slot(0)
    world.sim.run(until=0.05)
    fetchers = [node.slot_fetcher(0) for node in world.nodes.values()]
    running = [fetcher for fetcher in fetchers if not fetcher.finished]
    assert running, "some fetchers are mid-round"
    assert all(fetcher._picked and fetcher._awaiting for fetcher in running)
    for fetcher in running:
        fetcher.stop()
    world.sim.run(until=8.0)
    assert sorted(map(id, done)) == sorted(map(id, fetchers))
    assert all(holds_nothing(fetcher) for fetcher in done)


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
        line_custodians=lambda line: custodians[line],
        send_query=lambda peer, cells: None,
        rng=random.Random(1),
        self_id=SELF_ID,
    )
    for peer in sorted(queried):
        fetcher._issue_query(peer, frozenset(), 1)
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
    assert SELF_ID not in expected
    # the plan: scores by the old formula, intersecting the peer's whole
    # seeded set, then the round's shuffle and sort over the peers in
    # first-encounter order (the reference meets them in the scan's order:
    # a line's custodians are all met at its first cell), from the same
    # RNG state; with reputation weights and without
    redundancy = fetcher.schedule.redundancy_for(round_index)
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
        fetcher.reputation = None if use_weights is None else FixedWeights(use_weights)
        draws = fetcher.rng.getstate()
        plan = fetcher.plan_round(round_index)
        fetcher.rng.setstate(draws)
        peers = list(expected)
        fetcher.rng.shuffle(peers)
        peers.sort(key=expected_scores.__getitem__, reverse=True)
        assert plan.queries == plan_queries(
            targets, peers, expected, redundancy, MAX_CELLS_PER_QUERY
        )
        assert plan.targets == len(targets)


class FixedWeights:
    """A reputation ledger with fixed weights that quarantines no one."""

    def __init__(self, weights: Mapping[int, float]) -> None:
        self.weight = lambda peer: weights.get(peer, 1.0)

    @staticmethod
    def quarantined(peer: int) -> bool:
        return False


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
        draws = fetcher.rng.getstate()
        plan = fetcher.plan_round(1)
        fetcher.rng.setstate(draws)
        return (
            dict(fetcher.boost),
            dict(fetcher.inbound),
            targets,
            plan,
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
            MESSAGE_OVERHEAD_BYTES
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


# ----------------------------------------------------------------------
# (f) one entry per distinct merged cell list
# ----------------------------------------------------------------------
FULL = PandasParams()


def merged_lists(parcels) -> dict[int, list[int]]:
    merged: dict[int, list[int]] = {}
    for parcel in parcels:
        merged.setdefault(parcel.node_id, []).extend(parcel.cells)
    return merged


def per_custodian_entries(parcels) -> dict[int, frozenset[int]]:
    """The oracle: each custodian's own ``frozenset`` of its merged
    parcels, built as the builder built it before entries were shared."""
    return {node: frozenset(cells) for node, cells in merged_lists(parcels).items()}


def redundant_parcels(line: int, custodians: int, seed: int, params=FULL, r: int = 8):
    rng = random.Random(seed)
    return RedundantSeeding(r).line_parcels(line, params, list(range(custodians)), rng)


def test_custodians_seeded_the_same_list_share_one_entry():
    parcels = [
        SeedParcel(1, 0, (0, 8)),
        SeedParcel(2, 0, (0, 8)),
        # the same cells in another order: its own entry (sharing is
        # keyed by the ordered list, not by set equality)
        SeedParcel(3, 0, (8, 0)),
        SeedParcel(4, 0, (2,)),
        SeedParcel(5, 0, (2,)),
    ]
    seeded = boost_map_for_line(parcels).seeded
    assert seeded[1] is seeded[2]
    assert seeded[4] is seeded[5]
    assert seeded[3] == seeded[1] and seeded[3] is not seeded[1]
    assert len({id(entry) for entry in seeded.values()}) == 3


@pytest.mark.parametrize("custodians", range(1, 9))
def test_at_most_r_custodians_share_the_full_set(custodians):
    for line in (0, 1, FULL.ext_rows, FULL.ext_rows + 1):
        line_boost = boost_map_for_line(redundant_parcels(line, custodians, seed=line))
        assert line_boost.cells == frozenset(owned_cells_of_line(line, FULL))
        assert len(line_boost.seeded) == custodians
        assert all(entry is line_boost.cells for entry in line_boost.seeded.values())


def test_more_than_r_custodians_keep_distinct_entries():
    # a reduced grid (64 owned cells per line) with 12 custodians per line
    params = PandasParams(base_rows=64, base_cols=64, custody_rows=4, custody_cols=4, samples=8)
    reused = built = all_distinct = 0
    for line in range(params.ext_rows + params.ext_cols):
        parcels = redundant_parcels(line, 12, seed=line, params=params)
        line_boost = boost_map_for_line(parcels)
        oracle = per_custodian_entries(parcels)
        merged = merged_lists(parcels)
        # one object exactly when the merged lists are equal
        for a in merged:
            for b in merged:
                assert (line_boost.seeded[a] is line_boost.seeded[b]) == (merged[a] == merged[b])
        entries = list(line_boost.seeded.values())
        all_distinct += len({id(entry) for entry in entries}) == len(entries) == 12
        union = frozenset().union(*oracle.values())
        assert line_boost.cells == union
        # a custodian that drew every parcel lends its entry as ``cells``
        full = [entry for entry in entries if entry == union]
        if full:
            assert line_boost.cells is full[0]
            reused += 1
        else:
            assert all(line_boost.cells is not entry for entry in entries)
            built += 1
    assert reused and built and all_distinct


@pytest.mark.parametrize("custodians", (1, 3, 8, 9, 12, 16))
def test_shared_entries_iterate_like_per_custodian_sets(custodians):
    """Same elements *and* same iteration order as the oracle's set, for
    the entry and for its intersection with a round's targets — the
    order ``_candidate_cells`` sees."""
    rng = random.Random(custodians)
    lines = range(0, FULL.ext_rows + FULL.ext_cols, 37)
    cases = [redundant_parcels(line, custodians, seed=line) for line in lines]
    # hand-made lists whose order decides the table layout
    cases.append([SeedParcel(1, 0, (0, 8)), SeedParcel(2, 0, (8, 0)), SeedParcel(3, 0, (0, 8))])
    for parcels in cases:
        line_boost = boost_map_for_line(parcels)
        oracle = per_custodian_entries(parcels)
        assert line_boost.seeded.keys() == oracle.keys()
        line_cells = list(line_boost.cells)
        for node, expected in oracle.items():
            entry = line_boost.seeded[node]
            assert list(entry) == list(expected)
            targets = set(rng.sample(line_cells, len(line_cells) // 3))
            assert list(entry & targets) == list(expected & targets)
