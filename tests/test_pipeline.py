"""Sustained multi-slot pipeline: overlap, churn, overload control."""

from __future__ import annotations

import json

import pytest

from repro.core.seeding import RedundantSeeding
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.obs import Telemetry, TraceRecorder
from repro.obs.export import series_records
from repro.obs.health import analyze
from repro.params import PandasParams
from tests.helpers import pipeline_config


def overload_params(**overrides):
    """Small dense grid with every overload-control knob engaged."""
    defaults = dict(
        base_rows=8,
        base_cols=8,
        custody_rows=4,
        custody_cols=4,
        samples=10,
        pending_request_limit=256,
        retrieval_admit_rate=50.0,
    )
    defaults.update(overrides)
    return PandasParams(**defaults)


def make_config(params=None, **overrides):
    defaults = dict(
        num_nodes=40,
        params=params or overload_params(),
        policy=RedundantSeeding(4),
        seed=3,
        slots=3,
        num_vertices=500,
        check_invariants=True,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def make_pipeline(config=None, **knobs):
    defaults = dict(
        churn_fraction=0.1,
        retention_slots=2,
        probes_per_slot=2,
    )
    defaults.update(knobs)
    return PipelineScenario(config or make_config(), **defaults)


class TestSustainedPipeline:
    @pytest.fixture(scope="class")
    def scenario(self):
        return make_pipeline().run()

    def test_all_slots_hit_deadline_under_churn(self, scenario):
        hits = scenario.deadline_hit_by_slot()
        assert len(hits) == 3
        assert all(rate == 1.0 for rate in hits.values())

    def test_probes_complete_with_latency_percentiles(self, scenario):
        probe = scenario.report().probe
        assert probe["issued"] == 6
        assert probe["completed"] == 6
        assert 0.0 < probe["latency_p50"] <= probe["latency_p90"] <= probe["latency_p99"]

    def test_membership_churned_mid_stream(self, scenario):
        assert scenario.departed  # someone left while slots overlapped
        assert len(scenario.current_members) == 40  # and was replaced

    def test_all_slot_state_retired_after_drain(self, scenario):
        for node in scenario.nodes.values():
            assert node.pending_depth() == 0
            assert not node._slots
            assert {0, 1, 2} <= node._retired
        for probe in scenario.probes:
            assert not probe._active

    def test_i5_invariant_checked_throughout(self, scenario):
        assert scenario.invariants is not None
        assert scenario.invariants.checks_run > 0

    def test_distribution_counts_the_report_population(self, scenario):
        """Joiners are members only of the slots they ran: the sampling
        distribution counts exactly the report rows' node-slots, and its
        deadline share is the report's hit rate."""
        report = scenario.report()
        sampling = scenario.sampling_distribution()
        assert sampling.count == sum(row["live_nodes"] for row in report.rows)
        assert sampling.fraction_within(scenario.params.deadline) == report.deadline_hit_rate

    def test_report_is_json_round_trippable(self, scenario):
        report = scenario.report()
        decoded = json.loads(json.dumps(report.to_dict(), default=float))
        assert decoded["slots"] == 3
        assert decoded["deadline_hit_rate"] == 1.0
        assert len(decoded["rows"]) == 3
        assert decoded["fingerprint"] == report.fingerprint


class TestGossipSeenBound:
    def test_seen_state_not_monotonic_across_pipeline_slots(self):
        """Before slot release expired the block overlay's dedup ids, a
        sustained pipeline's dedup sets grew for the whole run and kept
        churned-out members forever. Pin the fix: per-slot totals must
        shrink at least once (retirement at the retention window), never
        exceed a small multiple of the live population, and departed
        members must not be retained."""
        config = make_config(
            include_block_gossip=True, slots=6, check_invariants=False
        )
        pipeline = make_pipeline(config)
        overlay = pipeline.overlay
        assert overlay is not None
        per_slot = []
        record = pipeline._record_slot

        def record_and_sample(slot):
            record(slot)
            per_slot.append(overlay.seen_entries())

        pipeline._record_slot = record_and_sample
        pipeline.run()
        assert len(per_slot) == 6
        assert any(b < a for a, b in zip(per_slot, per_slot[1:])), (
            f"seen state grew monotonically: {per_slot}"
        )
        # each member holds at most one block id per retained slot, so
        # the total is bounded by population x (retention + in-flight)
        population = len(pipeline.nodes)
        assert max(per_slot) <= population * (pipeline.retention_slots + 2)
        for member in pipeline.departed:
            assert member not in overlay._seen, (
                f"departed member {member} still holds dedup state"
            )

    def test_churned_out_member_leaves_topic_and_mesh(self):
        config = make_config(
            include_block_gossip=True, slots=3, check_invariants=False
        )
        pipeline = make_pipeline(config)
        pipeline.run()
        overlay = pipeline.overlay
        for member in pipeline.departed:
            assert member not in overlay.topic_members("blocks")
            assert not overlay.mesh_neighbors("blocks", member)


class TestReplayDeterminism:
    def test_fingerprint_equal_across_two_runs(self):
        """Acceptance: a 3+ slot pipeline under churn + overload replays
        fingerprint-equal across two independent runs."""
        first = make_pipeline().run().report()
        second = make_pipeline().run().report()
        assert first.fingerprint == second.fingerprint
        assert first.to_dict() == second.to_dict()

    def test_different_seed_changes_fingerprint(self):
        first = make_pipeline().run().report()
        other = make_pipeline(make_config(seed=4)).run().report()
        assert first.fingerprint != other.fingerprint


class TestOverloadControl:
    def test_retrieval_shed_before_sampling(self):
        """Under 2x retrieval overload the pipeline degrades gracefully:
        retrieval-class work is shed, sampling keeps its deadline, the
        I5 invariant holds, and nothing deadlocks."""
        params = overload_params(
            retrieval_admit_rate=0.25, retrieval_admit_burst=1.0
        )
        scenario = make_pipeline(make_config(params=params), probes_per_slot=8).run()
        report = scenario.report()
        assert report.sheds.get("retrieval_admission", 0.0) > 0
        assert "pending_sampling" not in report.sheds
        assert report.deadline_hit_rate == 1.0
        # every probe, deferred and shed ones included, has an outcome
        outcomes = report.probe["outcomes"]
        assert sum(outcomes.values()) == report.probe["issued"]
        assert outcomes.get("shed", 0) == report.sheds.get("retrieval_client", 0)

    def test_bounded_inbox_drops_without_deadlock(self):
        """A pathologically small transport inbox sheds datagrams but
        the run still completes and I5 still holds."""
        scenario = make_pipeline(make_config(max_inbox=8, slots=2)).run()
        report = scenario.report()
        assert report.datagrams_overflowed > 0
        assert report.queue_drops.get("inbox_overflow", 0.0) > 0
        # overflow never exceeded the bound (I5 would have raised)
        assert scenario.invariants is not None


class TestPipelineStructure:
    def test_epoch_rotation_mid_pipeline(self):
        params = overload_params(slots_per_epoch=2)
        scenario = make_pipeline(make_config(params=params, slots=4)).run()
        report = scenario.report()
        assert [row["epoch"] for row in report.rows] == [0, 0, 1, 1]
        assert report.deadline_hit_rate == 1.0

    def test_pipeline_slot_trace_events_emitted(self):
        tracer = TraceRecorder(kinds=["pipeline_slot"])
        make_pipeline(make_config(tracer=tracer)).run()
        events = [e for e in tracer.events if e.kind == "pipeline_slot"]
        assert [e.slot for e in events] == [0, 1, 2]
        assert all("live" in e.data and "shed" in e.data for e in events)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            make_pipeline(retention_slots=0)
        with pytest.raises(ValueError):
            make_pipeline(probes_per_slot=-1)

    def test_probe_addresses_never_collide_with_churn_joiners(self):
        scenario = make_pipeline(make_config(slots=2), churn_fraction=0.2).run()
        joiner_max = max(scenario.node_ids)
        probe_min = min(c.client_id for c in scenario.probes)
        assert joiner_max < probe_min


class TestReducesToBaseLoop:
    """With churn, view lag, probes and extra retention off, a pipeline
    runs exactly the slots ``Scenario`` runs: same fingerprint, same
    event count, and the same population in every count it reports."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"dead_fraction": 0.3},
            {"include_block_gossip": True},
            # 30% dead on a grid where most live nodes finish sampling
            {
                "dead_fraction": 0.3,
                "params": PandasParams.reduced(32),
                "policy": RedundantSeeding(8),
            },
        ],
        ids=["plain", "dead", "block", "dead-sampled"],
    )
    def test_same_run_as_scenario(self, overrides):
        config = ScenarioConfig(
            num_nodes=60,
            params=PandasParams.reduced(16),
            seed=7,
            slots=3,
            num_vertices=600,
        ).with_changes(**overrides)
        base = Scenario(config.with_changes(telemetry=Telemetry())).run()
        pipeline = PipelineScenario(
            config.with_changes(telemetry=Telemetry()),
            churn_fraction=0.0,
            view_lag_slots=0,
            retention_slots=1,
            probes_per_slot=0,
        ).run()
        assert pipeline.metrics.fingerprint() == base.metrics.fingerprint()
        assert pipeline.sim.events_processed == base.sim.events_processed
        # statically dead nodes are members of no slot, in either scenario
        report = pipeline.report()
        within = base.sampling_distribution().fraction_within(config.params.deadline)
        assert report.deadline_hit_rate == pytest.approx(within, abs=1e-12)
        assert [row["live_nodes"] for row in report.rows] == [base.live_node_count] * 3
        expected = [run.telemetry.meta["expected_samples"] for run in (pipeline, base)]
        assert expected[0] == expected[1]


def churn_config(slots=3):
    """40 nodes on a dense 8x8 grid, no overload control."""
    return ScenarioConfig(
        num_nodes=40,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(6),
        seed=4,
        slots=slots,
        num_vertices=400,
    )


def churn_only(slots=3, **knobs):
    """A pipeline that only churns: no probes."""
    return PipelineScenario(churn_config(slots), probes_per_slot=0, **knobs)


class TestChurn:
    """Membership turnover at slot boundaries and lagged views."""

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            churn_only(churn_fraction=1.0)
        with pytest.raises(ValueError):
            churn_only(view_lag_slots=-1)

    def test_membership_turns_over(self):
        scenario = churn_only(churn_fraction=0.2).run()
        # 20% of 40 at each of the two slot boundaries
        assert len(scenario.departed) == 2 * 8
        assert len(scenario.current_members) == 40  # population size is stable

    def test_membership_history_tracks_slots(self):
        scenario = churn_only(churn_fraction=0.2).run()
        assert len(scenario._membership_history) == 3  # genesis + 2 boundaries

    def test_joiners_participate_in_later_slots(self):
        scenario = churn_only(churn_fraction=0.2, view_lag_slots=0).run()
        joiners = [node_id for node_id in scenario.node_ids if node_id > scenario.builder_id]
        assert len(joiners) == 16
        seeded = [
            node_id
            for node_id in joiners
            if any(
                (slot, node_id) in scenario.metrics.phase_times
                and scenario.metrics.phase_times[(slot, node_id)].seeding is not None
                for slot in (1, 2)
            )
        ]
        assert seeded == joiners  # the builder seeds joiners once they appear

    def test_departed_nodes_receive_nothing_after_leaving(self):
        scenario = churn_only(slots=2, churn_fraction=0.2).run()
        history = scenario._membership_history
        left_before_slot1 = history[0] - history[1]
        assert left_before_slot1
        for node_id in left_before_slot1:
            # no slot-1 seeding for nodes that left at its boundary
            times = scenario.metrics.phase_times.get((1, node_id))
            if times is not None:
                assert times.seeding is None

    def test_fresh_views_still_complete_sampling(self):
        scenario = churn_only(churn_fraction=0.1, view_lag_slots=0).run()
        hits = scenario.deadline_hit_by_slot()
        assert hits[0] > 0.9
        assert all(fraction > 0.7 for fraction in hits.values())

    def test_lagged_views_degrade_gracefully(self):
        """Stale views mean some queries hit departed nodes; completion
        dips but does not collapse at 10% churn (the Figure 15 story in a
        dynamic regime)."""
        fresh = churn_only(churn_fraction=0.1, view_lag_slots=0).run()
        stale = churn_only(churn_fraction=0.1, view_lag_slots=2).run()
        fresh_hits = fresh.deadline_hit_by_slot()
        stale_hits = stale.deadline_hit_by_slot()
        # slot 2 ran after two churn rounds; the stale-view network has
        # been querying ghosts for two slots
        assert stale_hits[2] <= fresh_hits[2] + 0.05
        assert stale_hits[2] > 0.5

    def test_report_pools_node_slots_as_health_does(self):
        """Dead nodes and churn give slots of 28, 30 and 31 members. The
        report's hit rate pools their node-slots, as the telemetry and
        ``repro health`` do, instead of averaging the per-slot rates
        (which would read 0.96738)."""
        telemetry = Telemetry()
        scenario = PipelineScenario(
            pipeline_config(dead_fraction=0.3, slots=3, telemetry=telemetry),
            churn_fraction=0.2,
            view_lag_slots=1,
        ).run()
        report = scenario.report()
        assert [row["live_nodes"] for row in report.rows] == [28, 30, 31]
        health = analyze(series_records(telemetry))
        assert health.deadline_hits == 86
        assert report.deadline_hit_rate == health.deadline_hit_rate == 86 / 89


def test_cli_pipeline_json(capsys):
    from repro.cli import main

    code = main([
        "pipeline", "--nodes", "60", "--reduced", "32", "--slots", "2",
        "--churn", "0.1", "--check-invariants", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["slots"] == 2
    assert payload["deadline_hit_rate"] > 0
    assert "fingerprint" in payload and "probe" in payload
