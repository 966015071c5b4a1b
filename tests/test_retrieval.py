"""Layer-2 retrieval client tests."""

from __future__ import annotations

import pytest

from repro.core.assignment import cells_of_line
from repro.core.messages import CellResponse
from repro.core.retrieval import RetrievalClient
from repro.net.transport import Datagram
from repro.params import MAX_CELLS_PER_QUERY, PandasParams
from tests.helpers import make_world


def make_world_with_client(client_kwargs=None, **kwargs):
    world = make_world(**kwargs)
    client_id = 1000
    client = RetrievalClient(world.ctx, client_id, **(client_kwargs or {}))
    world.network.register(client_id, len(world.nodes) + 1, client.on_datagram, None, None)
    return world, client


def test_fetch_rows_completes_after_slot():
    world, client = make_world_with_client(num_nodes=30)
    world.run_slot(0)
    results = []
    outcome = client.fetch_lines(0, rows=(2, 5), callback=results.append)
    world.sim.run(until=world.sim.now + 3.0)
    assert results and results[0].complete
    assert outcome.complete
    # both rows fully present: 2 rows x 16 extended cells
    assert len(outcome.cells) == 2 * world.params.ext_cols


def test_fetch_columns():
    world, client = make_world_with_client(num_nodes=30)
    world.run_slot(0)
    outcome = client.fetch_lines(0, cols=(7,))
    world.sim.run(until=world.sim.now + 3.0)
    assert outcome.complete
    assert len(outcome.cells) == world.params.ext_rows


def test_fetch_during_slot_still_completes():
    """Retrieval started at slot time 0.5 s races consolidation and is
    served by buffered (deferred) replies."""
    world, client = make_world_with_client(num_nodes=30)
    world.ctx.begin_slot(0)
    world.builder.seed_slot(0)
    world.sim.run(until=0.5)
    outcome = client.fetch_lines(0, rows=(1,))
    world.sim.run(until=8.0)
    assert outcome.complete


def test_empty_request_rejected():
    world, client = make_world_with_client(num_nodes=30)
    with pytest.raises(ValueError):
        client.fetch_lines(0)


def test_elapsed_recorded():
    world, client = make_world_with_client(num_nodes=30)
    world.run_slot(0)
    outcome = client.fetch_lines(0, rows=(0,))
    world.sim.run(until=world.sim.now + 3.0)
    assert outcome.complete
    assert 0.0 < outcome.elapsed < 3.0


def test_concurrent_retrievals_independent():
    world, client = make_world_with_client(num_nodes=30)
    world.run_slot(0)
    first = client.fetch_lines(0, rows=(0,))
    second = client.fetch_lines(0, cols=(3,))
    world.sim.run(until=world.sim.now + 3.0)
    assert first.complete and second.complete


def test_row_longer_than_one_query_per_custodian_completes():
    """A row whose reconstruction needs more cells than one capped query
    to each custodian can carry: the probe re-asks custodians that
    already answered once every one has been asked (the recycle rule)."""
    params = PandasParams(base_rows=8, base_cols=64, custody_rows=1, custody_cols=1, samples=10)
    world, client = make_world_with_client(num_nodes=30, params=params)
    index = world.ctx.index_for_epoch(0)
    needed = params.ext_cols // 2
    row = next(
        line
        for line in range(params.ext_rows)
        if 0 < MAX_CELLS_PER_QUERY * len(index.custodians(line)) < needed
    )
    world.run_slot(0)
    outcome = client.fetch_lines(0, rows=(row,))
    world.sim.run(until=world.sim.now + 3.0)
    assert outcome.complete and outcome.reason == "complete"
    assert len(outcome.cells) >= needed


def test_every_retrieval_ends_with_a_reason():
    world, client = make_world_with_client(num_nodes=30)
    world.run_slot(0)
    outcome = client.fetch_lines(0, rows=(0,))
    assert outcome.reason is None  # running
    world.sim.run(until=world.sim.now + 3.0)
    assert outcome.reason == "complete"


def test_probe_drops_invalid_and_unasked_cells():
    """A probe's replies take the node's acceptance chain: a reply that
    carries the whole row, with every cell the probe asked that peer for
    marked invalid, stores nothing and completes nothing."""
    world, client = make_world_with_client(num_nodes=30)
    world.run_slot(0)
    outcome = client.fetch_lines(0, rows=(2,))
    (fetcher,) = client._active[0]
    peer, query = next(iter(fetcher.queries.items()))
    row = cells_of_line(2, world.params.ext_rows, world.params.ext_cols)
    assert not set(row) <= set(query.cells)  # some cells were never asked
    reply = CellResponse(slot=0, epoch=0, cells=row, invalid=frozenset(query.cells))
    client.on_datagram(Datagram(peer, client.client_id, reply, 0, world.sim.now))
    assert outcome.cells == set() and outcome.reason is None
    # honest replies still complete it
    world.sim.run(until=world.sim.now + 3.0)
    assert outcome.complete


# ----------------------------------------------------------------------
# client-side admission control (max_concurrent / defer_limit)
# ----------------------------------------------------------------------

class TestClientAdmission:
    def test_concurrency_cap_defers_fifo(self):
        world, client = make_world_with_client(
            num_nodes=30, client_kwargs=dict(max_concurrent=1, defer_limit=4)
        )
        world.run_slot(0)
        done = []
        for row in (0, 1, 2):
            client.fetch_lines(0, rows=(row,), callback=done.append)
        assert client.queue_depth == 3  # 1 running + 2 deferred
        world.sim.run(until=world.sim.now + 6.0)
        assert [r.rows for r in done] == [(0,), (1,), (2,)]  # FIFO drain
        assert all(r.complete for r in done)
        assert client.queue_depth == 0
        assert world.ctx.metrics.queue_depth_peaks["retrieval_deferred"] == 2

    def test_defer_limit_sheds_immediately(self):
        world, client = make_world_with_client(
            num_nodes=30, client_kwargs=dict(max_concurrent=1, defer_limit=1)
        )
        world.run_slot(0)
        done = []
        client.fetch_lines(0, rows=(0,), callback=done.append)
        client.fetch_lines(0, rows=(1,), callback=done.append)
        shed = client.fetch_lines(0, rows=(2,), callback=done.append)
        # the shed callback fires synchronously, before any completion
        assert shed.shed and not shed.complete
        assert done == [shed]
        assert world.ctx.metrics.shed_counts["retrieval_client"] == 1
        world.sim.run(until=world.sim.now + 6.0)
        assert sum(r.complete for r in done) == 2

    def test_next_request_starts_when_one_ends_without_completing(self):
        """Slot 1 is never seeded, so nobody can serve it: that retrieval
        re-asks its silent peers until its rounds run out, and its end
        frees the only concurrency slot for the deferred slot-0 one."""
        world, client = make_world_with_client(
            num_nodes=30, client_kwargs=dict(max_concurrent=1)
        )
        world.run_slot(0)
        done = []
        client.fetch_lines(1, rows=(0,), callback=done.append)
        client.fetch_lines(0, rows=(1,), callback=done.append)
        world.sim.run(until=world.sim.now + 10.0)
        assert [(r.slot, r.reason) for r in done] == [(1, "exhausted"), (0, "complete")]
        assert client.queue_depth == 0

    def test_drop_slot_stops_running_and_deferred_retrievals(self):
        world, client = make_world_with_client(
            num_nodes=30, client_kwargs=dict(max_concurrent=1, defer_limit=4)
        )
        world.run_slot(0)
        done = []
        client.fetch_lines(0, rows=(0,), callback=done.append)
        client.fetch_lines(0, rows=(1,), callback=done.append)
        later = client.fetch_lines(1, rows=(2,), callback=done.append)
        client.drop_slot(0)
        # the deferred slot-0 request ends first, then the running one,
        # whose freed slot starts the slot-1 request
        assert [(r.rows, r.reason) for r in done] == [((1,), "stopped"), ((0,), "stopped")]
        assert later.reason is None and client.queue_depth == 1
        assert list(client._active) == [1]
        client.drop_slot(1)
        assert later.reason == "stopped"
        assert client._active == {} and client.queue_depth == 0

    def test_unconfigured_client_never_sheds(self):
        world, client = make_world_with_client(num_nodes=30)
        world.run_slot(0)
        results = [client.fetch_lines(0, rows=(r,)) for r in range(6)]
        world.sim.run(until=world.sim.now + 6.0)
        assert all(r.complete and not r.shed for r in results)
        assert "retrieval_client" not in world.ctx.metrics.shed_counts

    def test_invalid_admission_knobs_rejected(self):
        world = make_world(num_nodes=30)
        with pytest.raises(ValueError):
            RetrievalClient(world.ctx, 1000, max_concurrent=0)
        with pytest.raises(ValueError):
            RetrievalClient(world.ctx, 1000, defer_limit=-1)
