"""Whole-system reproducibility: same seed, same run, bit-for-bit.

The paper validates its simulator against a testbed; our analogue is
determinism and seed-stability — any divergence between identical
configurations would invalidate every policy comparison in the
benchmark harness (they rely on shared seeds isolating the variable
under study).
"""

from __future__ import annotations

import pytest

from repro.baselines import DhtDasScenario, GossipDasScenario, PeerDasScenario
from repro.core.seeding import RedundantSeeding
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.params import PandasParams


def dense_config(seed=9, **overrides):
    defaults = dict(
        num_nodes=35,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(4),
        seed=seed,
        slots=1,
        num_vertices=300,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def fingerprint(scenario):
    """A stable digest of everything the metrics captured."""
    times = sorted(
        (slot, node, t.seeding, t.consolidation, t.sampling)
        for (slot, node), t in scenario.metrics.phase_times.items()
    )
    traffic = sorted(dict(scenario.metrics.fetch_bytes.items()).items())
    return (
        times,
        traffic,
        scenario.network.datagrams_sent,
        scenario.network.datagrams_lost,
        scenario.builder_egress_bytes(0),
    )


@pytest.mark.parametrize(
    "scenario_class", [Scenario, GossipDasScenario, DhtDasScenario, PeerDasScenario]
)
def test_identical_seeds_identical_runs(scenario_class):
    a = fingerprint(scenario_class(dense_config()).run())
    b = fingerprint(scenario_class(dense_config()).run())
    assert a == b


def test_seed_changes_everything():
    a = fingerprint(Scenario(dense_config(seed=1)).run())
    b = fingerprint(Scenario(dense_config(seed=2)).run())
    assert a != b


def test_policy_change_keeps_network_randomness():
    """Comparing policies under one seed must hold the substrate fixed:
    loss draws, topology and sample choices come from independent
    streams, so two policies see identical sampling assignments."""
    from repro.core.seeding import MinimalSeeding

    a = Scenario(dense_config(policy=RedundantSeeding(4)))
    b = Scenario(dense_config(policy=MinimalSeeding()))
    assert a.topology.node_vertices == b.topology.node_vertices
    # node 3's sample draw is policy-independent
    a.run_slot(0)
    b.run_slot(0)
    sample_a = a.rngs.stream("samples", 3, 1).sample(range(100), 5)
    sample_b = b.rngs.stream("samples", 3, 1).sample(range(100), 5)
    assert sample_a == sample_b


def test_fault_injection_is_deterministic():
    a = Scenario(dense_config(dead_fraction=0.3))
    b = Scenario(dense_config(dead_fraction=0.3))
    assert a.dead_nodes == b.dead_nodes
