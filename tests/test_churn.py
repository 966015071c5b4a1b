"""Churn extension: membership turnover and lagged views."""

from __future__ import annotations

import pytest

from repro.core.seeding import RedundantSeeding
from repro.experiments.churn import ChurnScenario
from repro.experiments.scenario import ScenarioConfig
from repro.params import PandasParams


def churn_config(slots=3, **overrides):
    defaults = dict(
        num_nodes=40,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(6),
        seed=4,
        slots=slots,
        num_vertices=400,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ChurnScenario(churn_config(), churn_fraction=1.0)
    with pytest.raises(ValueError):
        ChurnScenario(churn_config(), view_lag_slots=-1)


def test_membership_turns_over():
    scenario = ChurnScenario(churn_config(slots=3), churn_fraction=0.2)
    scenario.run()
    assert len(scenario.departed) == 3 * 8  # 20% of 40, after every slot
    assert len(scenario.current_members) == 40  # population size is stable


def test_joiners_participate_in_later_slots():
    scenario = ChurnScenario(churn_config(slots=3), churn_fraction=0.2, view_lag_slots=0)
    scenario.run()
    joiners = [node_id for node_id in scenario.node_ids if node_id > scenario.builder_id]
    assert joiners
    seeded_joiners = [
        node_id
        for node_id in joiners
        if any(
            (slot, node_id) in scenario.metrics.phase_times
            and scenario.metrics.phase_times[(slot, node_id)].seeding is not None
            for slot in (1, 2)
        )
    ]
    assert seeded_joiners  # the builder seeds joiners once they appear


def test_departed_nodes_receive_nothing_after_leaving():
    scenario = ChurnScenario(churn_config(slots=2), churn_fraction=0.2)
    scenario.run()
    left_after_slot0 = scenario._membership_history[0] - scenario._membership_history[1]
    assert left_after_slot0
    for node_id in left_after_slot0:
        # no slot-1 phase marks for nodes that left after slot 0
        times = scenario.metrics.phase_times.get((1, node_id))
        if times is not None:
            assert times.seeding is None


def test_fresh_views_still_complete_sampling():
    scenario = ChurnScenario(churn_config(slots=3), churn_fraction=0.1, view_lag_slots=0)
    scenario.run()
    completion = scenario.deadline_hit_by_slot()
    assert completion[0] > 0.9
    assert all(fraction > 0.7 for fraction in completion.values())


def test_lagged_views_degrade_gracefully():
    """Stale views mean some queries hit departed nodes; completion
    dips but does not collapse at 10% churn (the Figure 15 story in a
    dynamic regime)."""
    fresh = ChurnScenario(churn_config(slots=3), churn_fraction=0.1, view_lag_slots=0)
    fresh.run()
    stale = ChurnScenario(churn_config(slots=3), churn_fraction=0.1, view_lag_slots=2)
    stale.run()
    fresh_completion = fresh.deadline_hit_by_slot()
    stale_completion = stale.deadline_hit_by_slot()
    # slot 2 ran after two churn rounds; the stale-view network has
    # been querying ghosts for two slots
    assert stale_completion[2] <= fresh_completion[2] + 0.05
    assert stale_completion[2] > 0.5


def test_membership_history_tracks_slots():
    scenario = ChurnScenario(churn_config(slots=3), churn_fraction=0.2)
    scenario.run()
    assert len(scenario._membership_history) == 4  # genesis + 3 slots
