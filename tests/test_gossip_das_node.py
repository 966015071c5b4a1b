"""GossipDasNode unit behaviour (channel delivery, serving, sampling)."""

from __future__ import annotations


from repro.baselines.gossipsub_das import GossipDasScenario
from repro.core.messages import CellRequest, CellResponse
from repro.experiments.scenario import ScenarioConfig
from repro.params import PandasParams


def make_scenario(**overrides):
    defaults = dict(
        num_nodes=40,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10
        ),
        seed=3,
        slots=1,
        num_vertices=400,
    )
    defaults.update(overrides)
    return GossipDasScenario(ScenarioConfig(**defaults))


def test_channel_cells_start_sampling():
    scenario = make_scenario()
    node = scenario.nodes[0]
    scenario.ctx.begin_slot(0)
    node.on_channel_cells(0, (1, 2, 3))
    state = node._slots[0]
    assert state.fetcher.started
    assert state.cells.has_cell(2)


def test_seeding_marked_on_first_channel_delivery():
    scenario = make_scenario()
    node = scenario.nodes[5]
    scenario.ctx.begin_slot(0)
    node.on_channel_cells(0, (1,))
    node.on_channel_cells(0, (2,))
    times = scenario.metrics.phase_times[(0, 5)]
    assert times.seeding is not None


def test_request_partial_then_deferred_reply():
    scenario = make_scenario()
    node = scenario.nodes[0]
    scenario.ctx.begin_slot(0)
    responses = []
    scenario.network.on_deliver.append(
        lambda d: responses.append(d) if isinstance(d.payload, CellResponse) else None
    )
    node.on_channel_cells(0, (10,))
    node._on_request(3, CellRequest(slot=0, epoch=0, cells=frozenset({10, 11})))
    scenario.sim.run(until=1.0)
    assert [r.payload.cells for r in responses] == [(10,)]
    node.on_channel_cells(0, (11,))
    scenario.sim.run(until=2.0)
    assert (11,) in [r.payload.cells for r in responses]


def test_sampling_fetcher_ignores_custody():
    """Baseline nodes never fetch custody (gossip handles it)."""
    scenario = make_scenario()
    node = scenario.nodes[0]
    scenario.ctx.begin_slot(0)
    node.on_channel_cells(0, (1,))
    fetcher = node._slots[0].fetcher
    assert not fetcher.fetch_custody
    targets = fetcher.round_targets()
    assert targets == node._slots[0].cells.missing_samples()


def test_reply_from_unqueried_peer_stores_nothing():
    scenario = make_scenario()
    node = scenario.nodes[0]
    scenario.ctx.begin_slot(0)
    node.on_channel_cells(0, (1,))
    state = node._slots[0]
    stranger = next(
        peer for peer in scenario.node_ids if peer != 0 and peer not in state.fetcher.queries
    )
    sample = min(state.cells.missing_samples())
    node._on_response(stranger, CellResponse(slot=0, epoch=0, cells=(sample,)))
    assert not state.cells.has_cell(sample)


def test_unit_members_answer_sampling_queries():
    scenario = make_scenario().run()
    sampling = scenario.sampling_distribution()
    assert sampling.fraction_within(12.0) > 0.9


def test_drop_slot_stops_fetcher():
    scenario = make_scenario()
    node = scenario.nodes[0]
    scenario.ctx.begin_slot(0)
    node.on_channel_cells(0, (1,))
    node.drop_slot(0)
    assert 0 not in node._slots
