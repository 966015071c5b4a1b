"""Baseline integration tests: GossipSub channels and DHT put/get."""

from __future__ import annotations

import pytest

from repro.baselines.dht_das import DhtDasScenario, PARCEL_CELLS, parcel_key, parcel_of_cell
from repro.baselines.gossipsub_das import GossipDasScenario, UnitAssignment
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.params import PandasParams


def dense_params():
    # units = ext_rows / custody_rows = 16 / 4 = 4 units -> ~10 nodes each
    return PandasParams(base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10)


def make_config(**overrides):
    defaults = dict(
        num_nodes=40,
        params=dense_params(),
        seed=3,
        slots=1,
        num_vertices=500,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestUnitAssignment:
    def test_units_partition_lines(self):
        params = dense_params()
        units = UnitAssignment(params, epoch_seed=1)
        seen = set()
        for unit in range(units.num_units):
            custody = units.unit_custody(unit)
            lines = custody.lines(params.ext_rows)
            assert not (set(lines) & seen)
            seen.update(lines)
        assert len(seen) == params.ext_rows + params.ext_cols

    def test_unit_of_line_inverts_custody(self):
        params = dense_params()
        units = UnitAssignment(params, epoch_seed=1)
        for unit in range(units.num_units):
            for line in units.unit_custody(unit).lines(params.ext_rows):
                assert units.unit_of_line(line) == unit

    def test_deterministic_node_mapping(self):
        params = dense_params()
        a = UnitAssignment(params, epoch_seed=1)
        b = UnitAssignment(params, epoch_seed=1)
        assert [a.unit_of(n) for n in range(20)] == [b.unit_of(n) for n in range(20)]

    def test_epoch_seed_rotates_mapping(self):
        params = dense_params()
        a = UnitAssignment(params, epoch_seed=1)
        b = UnitAssignment(params, epoch_seed=2)
        assert [a.unit_of(n) for n in range(50)] != [b.unit_of(n) for n in range(50)]


class TestGossipDas:
    @pytest.fixture(scope="class")
    def scenario(self):
        return GossipDasScenario(make_config()).run()

    def test_most_nodes_complete_sampling(self, scenario):
        dist = scenario.sampling_distribution()
        assert dist.fraction_within(12.0) > 0.9

    def test_custody_filled_by_gossip(self, scenario):
        consolidated = scenario.phase_distributions().consolidation
        assert consolidated.misses <= 4

    def test_builder_egress_matches_redundant_budget(self, scenario):
        """Equal-budget comparison: 8x the extended blob (Figure 12)."""
        params = scenario.params
        data = 8 * params.total_cells * params.cell_bytes
        egress = scenario.builder_egress_bytes(0)
        # fanout caps at the channel population, so small channels can
        # push egress slightly under the nominal 8x budget
        assert 0.75 * data <= egress < 1.1 * data


class TestDhtDas:
    def test_parcel_mapping(self):
        assert parcel_of_cell(0) == 0
        assert parcel_of_cell(PARCEL_CELLS - 1) == 0
        assert parcel_of_cell(PARCEL_CELLS) == 1

    def test_parcel_keys_distinct(self):
        keys = {parcel_key(0, i) for i in range(50)}
        assert len(keys) == 50
        assert parcel_key(0, 1) != parcel_key(1, 1)

    def test_sampling_completes_eventually(self):
        scenario = DhtDasScenario(make_config()).run()
        dist = scenario.sampling_distribution()
        assert dist.fraction_within(12.0) > 0.85

    def test_dht_slower_than_pandas(self):
        """Figure 12's headline ordering at small scale."""
        pandas_scenario = Scenario(make_config()).run()
        dht_scenario = DhtDasScenario(make_config()).run()
        assert (
            pandas_scenario.sampling_distribution().median
            < dht_scenario.sampling_distribution().median
        )
