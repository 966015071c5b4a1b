"""PeerDAS baseline: subnet layout, custody derivation, gossip + fallback."""

from __future__ import annotations

import pytest

from repro.baselines.peerdas_das import (
    CUSTODY_REQUIREMENT,
    SAMPLES_PER_SLOT,
    DataColumnsByRootRequest,
    DataColumnsByRootResponse,
    PeerDasScenario,
    SubnetAssignment,
)
from repro.core.seeding import RedundantSeeding
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults.plan import AdversarySpec, FaultPlan
from repro.params import MESSAGE_OVERHEAD_BYTES, PandasParams


def dense_params():
    # ext_cols = 16 < 32 subnets -> one subnet per column; custody 4,
    # sampled 8 of 16 subnets per node
    return PandasParams(base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10)


def make_config(**overrides):
    defaults = dict(
        num_nodes=40,
        params=dense_params(),
        policy=RedundantSeeding(8),
        seed=3,
        slots=1,
        num_vertices=500,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestSubnetAssignment:
    def test_columns_partition_into_subnets(self):
        params = dense_params()
        subnets = SubnetAssignment(params, epoch_seed=1)
        seen: set[int] = set()
        for subnet in range(subnets.num_subnets):
            cols = subnets.columns_of_subnet(subnet)
            assert cols, "every subnet carries at least one column"
            assert not (set(cols) & seen)
            seen.update(cols)
            for col in cols:
                assert subnets.subnet_of_column(col) == subnet
        assert seen == set(range(params.ext_cols))

    def test_subnet_count_clamped_to_columns(self):
        params = dense_params()  # ext_cols=16 < DATA_COLUMN_SIDECAR_SUBNET_COUNT
        subnets = SubnetAssignment(params, epoch_seed=1)
        assert subnets.num_subnets == params.ext_cols

    def test_full_params_use_spec_subnet_count(self):
        subnets = SubnetAssignment(PandasParams.full(), epoch_seed=1)
        assert subnets.num_subnets == 32
        # 512 extended columns spread evenly: 16 columns per subnet
        assert all(
            len(subnets.columns_of_subnet(s)) == 512 // 32 for s in range(32)
        )

    def test_custody_is_node_derived_and_epoch_independent(self):
        """Spec custody groups: a pure function of the node id."""
        params = dense_params()
        a = SubnetAssignment(params, epoch_seed=1)
        b = SubnetAssignment(params, epoch_seed=99)
        for node in range(30):
            assert a.custody_subnets(node) == b.custody_subnets(node)
            assert len(a.custody_subnets(node)) == min(CUSTODY_REQUIREMENT, a.num_subnets)

    def test_sampled_subnets_cover_custody_and_rotate(self):
        params = dense_params()
        a = SubnetAssignment(params, epoch_seed=1)
        b = SubnetAssignment(params, epoch_seed=2)
        rotated = False
        for node in range(30):
            sampled = a.sampled_subnets(node)
            assert set(a.custody_subnets(node)) <= set(sampled)
            assert len(sampled) == min(SAMPLES_PER_SLOT, a.num_subnets)
            if a.sampled_subnets(node) != b.sampled_subnets(node):
                rotated = True
        assert rotated, "extra sampled subnets must rotate with the epoch seed"

    def test_custody_columns_match_subnets(self):
        params = dense_params()
        subnets = SubnetAssignment(params, epoch_seed=1)
        for node in range(10):
            expected = {
                col
                for subnet in subnets.custody_subnets(node)
                for col in subnets.columns_of_subnet(subnet)
            }
            assert set(subnets.custody_columns(node)) == expected


class TestByRootMessages:
    def test_request_size_scales_with_columns(self):
        params = dense_params()
        small = DataColumnsByRootRequest(slot=0, epoch=0, columns=frozenset({1}))
        large = DataColumnsByRootRequest(slot=0, epoch=0, columns=frozenset(range(8)))
        assert small.wire_size(params) < large.wire_size(params)
        assert small.wire_size(params) > MESSAGE_OVERHEAD_BYTES

    def test_response_carries_full_columns(self):
        params = dense_params()
        response = DataColumnsByRootResponse(slot=0, epoch=0, columns=(1, 2))
        assert (
            response.wire_size(params)
            >= 2 * params.ext_rows * params.cell_bytes
        )


class TestPeerDasScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return PeerDasScenario(make_config()).run()

    def test_all_nodes_complete_sampling_within_deadline(self, scenario):
        dist = scenario.sampling_distribution()
        assert dist.misses == 0
        assert dist.fraction_within(4.0) == 1.0

    def test_custody_subnets_complete(self, scenario):
        consolidated = scenario.phase_distributions().consolidation
        assert consolidated.misses == 0

    def test_builder_egress_matches_redundant_budget(self, scenario):
        """Equal-budget comparison: 8x the extended blob (Figure 12)."""
        params = scenario.params
        data = 8 * params.total_cells * params.cell_bytes
        egress = scenario.builder_egress_bytes(0)
        assert 0.75 * data <= egress < 1.1 * data

    def test_every_subnet_has_custodians(self, scenario):
        for subnet in range(scenario.subnets.num_subnets):
            assert scenario.subnet_custodians(subnet), (
                f"subnet {subnet} has no custodian to serve ByRoot pulls"
            )

    def test_overlay_degree_capped(self, scenario):
        overlay = scenario.overlay
        cap = overlay.degree_cap
        assert cap is not None
        for subnet, members in scenario._subnet_members.items():
            for member in members:
                degree = len(overlay.mesh_neighbors(("col-subnet", subnet), member))
                assert degree <= cap

    def test_comparable_to_pandas_at_small_scale(self, scenario):
        pandas_scenario = Scenario(make_config()).run()
        # both systems finish the small grid comfortably inside the slot
        assert pandas_scenario.sampling_distribution().fraction_within(4.0) == 1.0
        assert scenario.sampling_distribution().fraction_within(4.0) == 1.0


class TestByRootFallback:
    def test_fallback_rescues_withheld_subnets(self):
        """Seed 5 at 50% withholding: gossip alone strands at least one
        node's sampled subnet, the ByRoot waves pull it from custodians
        and every honest node still accepts within the deadline."""
        plan = FaultPlan(adversaries=(AdversarySpec(behavior="withhold", share=0.5),))
        scenario = PeerDasScenario(make_config(seed=5, faults=plan))
        counts = {"requests": 0, "responses": 0}

        def on_send(dgram):
            if isinstance(dgram.payload, DataColumnsByRootRequest):
                counts["requests"] += 1
            elif isinstance(dgram.payload, DataColumnsByRootResponse):
                counts["responses"] += 1

        scenario.network.on_send.append(on_send)
        scenario.run()
        assert counts["requests"] > 0, "fallback never fired"
        assert counts["responses"] > 0, "no custodian served a ByRoot pull"
        dist = scenario.sampling_distribution()
        assert dist.misses == 0
        assert dist.fraction_within(4.0) == 1.0

    def test_fallback_does_not_fire_on_healthy_subnets(self):
        scenario = PeerDasScenario(make_config())
        requests = []
        scenario.network.on_send.append(
            lambda dgram: requests.append(dgram)
            if isinstance(dgram.payload, DataColumnsByRootRequest)
            else None
        )
        scenario.run()
        assert not requests

    def test_withhold_mix_replays_bit_identically(self):
        plan = FaultPlan(adversaries=(AdversarySpec(behavior="withhold", share=0.5),))
        a = PeerDasScenario(make_config(seed=5, faults=plan)).run()
        b = PeerDasScenario(make_config(seed=5, faults=plan)).run()
        assert a.metrics.fingerprint() == b.metrics.fingerprint()

    def test_dropped_slot_not_resurrected_by_stragglers(self):
        scenario = PeerDasScenario(make_config())
        scenario.run()
        node = scenario.nodes[0]
        assert not node._slots, "slot state retained after _end_slot"
        node.on_column(0, 0)
        assert not node._slots, "straggler sidecar resurrected retired slot"
