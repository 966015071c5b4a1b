"""Fault-injection behaviour: dead nodes and inconsistent views."""

from __future__ import annotations


from repro.core.seeding import RedundantSeeding
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.params import PandasParams


def dense_params():
    return PandasParams(
        base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10
    )


def make_config(**overrides):
    defaults = dict(
        num_nodes=40,
        params=dense_params(),
        policy=RedundantSeeding(8),
        seed=5,
        slots=1,
        num_vertices=400,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestDeadNodes:
    def test_dead_set_size(self):
        scenario = Scenario(make_config(dead_fraction=0.25))
        assert len(scenario.dead_nodes) == 10
        assert scenario.live_node_count == 30

    def test_dead_nodes_receive_nothing(self):
        scenario = Scenario(make_config(dead_fraction=0.25)).run()
        for dead in scenario.dead_nodes:
            assert scenario.metrics.messages_received.get(0, dead) == 0

    def test_dead_nodes_excluded_from_distributions(self):
        scenario = Scenario(make_config(dead_fraction=0.25)).run()
        assert scenario.sampling_distribution().count == 30

    def test_builder_still_seeds_dead_nodes(self):
        """The builder is unaware of failures and wastes seed cells on
        them (the paper's fault model)."""
        scenario = Scenario(make_config(dead_fraction=0.25))
        sent_to = set()
        scenario.network.on_send.append(lambda d: sent_to.add(d.dst))
        scenario.run()
        assert scenario.dead_nodes & sent_to

    def test_correct_nodes_still_complete_with_some_dead(self):
        scenario = Scenario(make_config(dead_fraction=0.2)).run()
        sampling = scenario.sampling_distribution()
        assert sampling.fraction_within(12.0) > 0.9


class TestOutOfViewNodes:
    def test_views_have_requested_size(self):
        scenario = Scenario(make_config(out_of_view_fraction=0.3))
        for node in scenario.nodes.values():
            assert node.view is not None
            # 30% out of view -> 70% of 40 = 28 kept (+self if absent)
            assert len(node.view) in (28, 29)

    def test_views_differ_between_nodes(self):
        scenario = Scenario(make_config(out_of_view_fraction=0.3))
        views = {frozenset(node.view) for node in scenario.nodes.values()}
        assert len(views) > 1  # inconsistent, as in the paper

    def test_zero_fraction_means_complete_view(self):
        scenario = Scenario(make_config(out_of_view_fraction=0.0))
        assert all(node.view is None for node in scenario.nodes.values())

    def test_nodes_only_query_their_view(self):
        scenario = Scenario(make_config(out_of_view_fraction=0.4))
        from repro.core.messages import CellRequest

        violations = []

        def check(dgram):
            if isinstance(dgram.payload, CellRequest):
                view = scenario.nodes[dgram.src].view
                if view is not None and dgram.dst not in view:
                    violations.append(dgram)

        scenario.network.on_send.append(check)
        scenario.run()
        assert violations == []

    def test_moderate_out_of_view_still_mostly_completes(self):
        scenario = Scenario(make_config(out_of_view_fraction=0.2)).run()
        sampling = scenario.sampling_distribution()
        assert sampling.fraction_within(12.0) > 0.9


def test_combined_faults_do_not_crash():
    scenario = Scenario(
        make_config(dead_fraction=0.2, out_of_view_fraction=0.2)
    ).run()
    assert scenario.sampling_distribution().count == 32
