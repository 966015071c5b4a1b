"""PandasNode behaviour: seed ingestion, serving, buffering, timers."""

from __future__ import annotations


from repro.core.assignment import cells_of_line
from repro.core.messages import CellRequest, CellResponse, SeedMessage
from repro.core.seeding import SeedParcel, boost_map_for_line
from repro.params import CONSOLIDATION_TIMER
from tests.helpers import make_world


def test_end_to_end_slot_completes_everything():
    world = make_world(num_nodes=30)
    world.run_slot(0)
    for node_id, node in world.nodes.items():
        cells = node.slot_cells(0)
        assert cells is not None
        assert cells.consolidation_complete, f"node {node_id} did not consolidate"
        assert cells.sampling_complete, f"node {node_id} did not sample"


def test_phase_times_recorded_in_order():
    world = make_world(num_nodes=30)
    world.run_slot(0)
    for (slot, node_id), times in world.ctx.metrics.phase_times.items():
        assert times.seeding is not None
        assert times.consolidation is not None
        assert times.sampling is not None
        assert times.seeding <= times.consolidation


def test_seed_marks_seeding_once():
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    msg = SeedMessage(slot=0, epoch=0, line=0, cells=(1, 2), total_messages=5)
    node._on_seed(world.builder.builder_id, msg)
    first = world.ctx.metrics.phase_times[(0, 0)].seeding
    world.sim.call_after(0.1, lambda: None)
    world.sim.run()
    node._on_seed(
        world.builder.builder_id,
        SeedMessage(slot=0, epoch=0, line=1, cells=(3,), total_messages=5),
    )
    assert world.ctx.metrics.phase_times[(0, 0)].seeding == first


def test_fetch_starts_when_seed_stream_completes():
    """Fetching starts once all the builder's datagrams arrived, with
    the 400 ms quiescence timer as the loss fallback."""
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    node._on_seed(21, SeedMessage(slot=0, epoch=0, line=0, cells=(1,), total_messages=2))
    assert not node.slot_fetcher(0).started
    node._on_seed(21, SeedMessage(slot=0, epoch=0, line=1, cells=(2,), total_messages=2))
    assert node.slot_fetcher(0).started


def test_duplicated_seed_datagram_is_not_counted_as_a_second_parcel():
    """Seed completion counts parcels (lines), not datagrams: a `dup`
    fault must not start fetching while a real parcel is in flight."""
    for second_line_arrives in (True, False):
        world = make_world(num_nodes=20)
        node = world.nodes[0]
        world.ctx.begin_slot(0)
        msg = SeedMessage(slot=0, epoch=0, line=0, cells=(1,), total_messages=2)
        node._on_seed(21, msg)
        node._on_seed(21, msg)
        assert not node.slot_fetcher(0).started
        if second_line_arrives:
            node._on_seed(
                21, SeedMessage(slot=0, epoch=0, line=1, cells=(2,), total_messages=2)
            )
        else:
            world.sim.run(until=CONSOLIDATION_TIMER - 0.01)
            assert not node.slot_fetcher(0).started
            world.sim.run(until=CONSOLIDATION_TIMER + 0.01)
        assert node.slot_fetcher(0).started


def test_quiescence_timer_covers_lost_seed_messages():
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    node._on_seed(21, SeedMessage(slot=0, epoch=0, line=0, cells=(1,), total_messages=3))
    world.sim.run(until=0.3)
    node._on_seed(21, SeedMessage(slot=0, epoch=0, line=1, cells=(2,), total_messages=3))
    world.sim.run(until=0.5)  # timer re-armed at 0.3
    assert not node.slot_fetcher(0).started
    world.sim.run(until=0.75)
    assert node.slot_fetcher(0).started


def test_inbound_cells_excluded_from_targets():
    """Cells the builder declares as ours-in-flight are requested last
    (Table 1's zero round-1 duplicates)."""
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    custody = world.ctx.assignment.custody(0, 0)
    row = custody.rows[0]
    row_cells = cells_of_line(row, world.params.ext_rows, world.params.ext_cols)
    inbound_declared = tuple(row_cells[:4])
    msg = SeedMessage(
        slot=0,
        epoch=0,
        line=row,
        cells=(row_cells[0],),
        # own entry -> inbound knowledge
        boost=(boost_map_for_line([SeedParcel(0, row, inbound_declared)]),),
        total_messages=2,
    )
    node._on_seed(21, msg)
    fetcher = node.slot_fetcher(0)
    assert fetcher.inbound == {row: frozenset(inbound_declared)}
    assert fetcher.inbound[row] is msg.boost[0].seeded[0]
    # inbound cells that are not wanted for other reasons (samples, a
    # second custody line crossing them) must not be targeted: the
    # row's deficit is fully coverable by non-inbound cells
    state = node.slot_cells(0)
    other_lines = set(state.custody_lines) - {row}
    unavoidable = set(state.samples)
    for cid in inbound_declared:
        row_line, col_line = state.lines_of(cid)
        if row_line in other_lines or col_line in other_lines:
            unavoidable.add(cid)
    targets = fetcher.round_targets()
    assert not ((set(inbound_declared) - unavoidable) & targets)


def test_request_for_unseeded_slot_arms_timer():
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    request = CellRequest(slot=0, epoch=0, cells=frozenset({5}))
    node._on_request(3, request)
    assert not node.slot_fetcher(0).started
    world.sim.run(until=CONSOLIDATION_TIMER + 0.01)
    assert node.slot_fetcher(0).started


def test_request_served_partially_then_deferred():
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    responses = []
    world.network.on_deliver.append(
        lambda d: responses.append(d) if isinstance(d.payload, CellResponse) else None
    )
    state = node._slot_state(0)
    state.cells.add_cells([5])
    node._on_request(3, CellRequest(slot=0, epoch=0, cells=frozenset({5, 6})))
    world.sim.run(until=0.1)
    assert len(responses) == 1
    assert responses[0].payload.cells == (5,)
    # the remainder arrives later -> one deferred reply
    node._on_seed(21, SeedMessage(slot=0, epoch=0, line=0, cells=(6,), total_messages=1))
    world.sim.run(until=0.2)
    assert len(responses) == 2
    assert responses[1].payload.cells == (6,)


def test_request_fully_served_immediately():
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    responses = []
    world.network.on_deliver.append(
        lambda d: responses.append(d) if isinstance(d.payload, CellResponse) else None
    )
    state = node._slot_state(0)
    state.cells.add_cells([7, 8])
    node._on_request(3, CellRequest(slot=0, epoch=0, cells=frozenset({7, 8})))
    world.sim.run(until=0.1)
    assert len(responses) == 1
    assert sorted(responses[0].payload.cells) == [7, 8]


def test_boost_excludes_own_entries():
    """Our own entry of a line's map is inbound knowledge, never a peer
    to query; the other custodians' entries are the servable offers."""
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    row = world.ctx.assignment.custody(0, 0).rows[0]
    peer = next(p for p in world.ctx.index_for_epoch(0).custodians(row) if p != 0)
    delivered, own, theirs = cells_of_line(
        row, world.params.ext_rows, world.params.ext_cols
    )[:3]
    line_boost = boost_map_for_line(
        [SeedParcel(0, row, (own,)), SeedParcel(peer, row, (theirs,))]
    )
    msg = SeedMessage(
        slot=0, epoch=0, line=row, cells=(delivered,),
        boost=(line_boost,), total_messages=2,
    )
    node._on_seed(21, msg)
    fetcher = node.slot_fetcher(0)
    assert fetcher.boost == {row: line_boost}
    assert fetcher.inbound == {row: {own}}
    assert fetcher.inbound[row] is line_boost.seeded[0]
    # the boosted peer out-scores every plain holder, and is asked for
    # the seeded cell alone; we never ask ourselves
    asked = dict(fetcher.plan_round(1).queries)
    assert 0 not in asked
    assert asked[peer] == {theirs}


def test_requery_appends_to_the_ledger_record():
    """One ledger record per queried peer: a re-query's cells are
    appended, and a reply may carry cells of either query."""
    world = make_world(num_nodes=20)
    node = world.nodes[0]
    world.ctx.begin_slot(0)
    state = node._slot_state(0)
    state.fetcher._issue_query(5, frozenset({1, 2}), 1)
    assert state.fetcher.queries[5].cells == (1, 2)
    state.fetcher._issue_query(5, frozenset({3}), 2)
    assert state.fetcher.queries[5].cells == (1, 2, 3)
    assert state.fetcher.queries[5].round == 2
    node._on_response(5, CellResponse(slot=0, epoch=0, cells=(1, 3, 4)))
    assert state.cells.has_cell(1) and state.cells.has_cell(3)
    assert not state.cells.has_cell(4)  # never asked for: discarded
    assert world.ctx.metrics.defense_counts["cells_unrequested"] == 1


def test_drop_slot_releases_state():
    world = make_world(num_nodes=20)
    world.run_slot(0)
    node = world.nodes[0]
    assert node.slot_cells(0) is not None
    node.drop_slot(0)
    assert node.slot_cells(0) is None


def test_multiple_slots_independent():
    world = make_world(num_nodes=25)
    world.run_slot(0)
    world.run_slot(1)
    completed = [
        times.sampling is not None
        for (_slot, _node), times in world.ctx.metrics.phase_times.items()
    ]
    assert all(completed)
    assert len(completed) == 2 * 25
