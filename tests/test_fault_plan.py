"""Unit tests for the declarative fault plan and its CLI spec parser."""

from __future__ import annotations

import pytest

from repro.faults.plan import CrashWindow, FaultPlan, PartitionWindow, SlowResponders


class TestPlanValidation:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.describe() == "none"

    def test_loss_out_of_range(self):
        with pytest.raises(ValueError):
            FaultPlan(loss=1.0)
        with pytest.raises(ValueError):
            FaultPlan(loss=-0.1)

    def test_duplication_out_of_range(self):
        with pytest.raises(ValueError):
            FaultPlan(duplication=1.5)

    def test_negative_jitter(self):
        with pytest.raises(ValueError):
            FaultPlan(jitter=-0.01)

    def test_crash_restart_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashWindow(crash_at=2.0, restart_at=1.0)
        with pytest.raises(ValueError):
            CrashWindow(crash_at=2.0, restart_at=2.0)

    def test_permanent_crash_allowed(self):
        window = CrashWindow(crash_at=1.0)
        assert window.restart_at is None

    def test_partition_needs_positive_duration(self):
        with pytest.raises(ValueError):
            PartitionWindow(start=0.0, duration=0.0, fraction=0.5)

    def test_partition_fraction_bounds(self):
        with pytest.raises(ValueError):
            PartitionWindow(start=0.0, duration=1.0, fraction=0.0)
        with pytest.raises(ValueError):
            PartitionWindow(start=0.0, duration=1.0, fraction=1.0)

    def test_partition_pinned_nodes_skip_fraction(self):
        window = PartitionWindow(start=0.0, duration=1.0, nodes=(1, 2))
        assert window.end == 1.0

    def test_slow_needs_positive_delay(self):
        with pytest.raises(ValueError):
            SlowResponders(count=1, extra_delay=0.0)


class TestSpecParser:
    def test_full_spec_round_trip(self):
        plan = FaultPlan.parse(
            "loss=0.05,dup=0.01,jitter=0.02,crash=2@1.0:2.0,"
            "partition=0.25@1.0+0.5,slow=3@0.05"
        )
        assert plan.loss == 0.05
        assert plan.duplication == 0.01
        assert plan.jitter == 0.02
        assert plan.crashes == (CrashWindow(crash_at=1.0, restart_at=2.0, count=2),)
        assert plan.partitions == (
            PartitionWindow(start=1.0, duration=0.5, fraction=0.25),
        )
        assert plan.slow == (SlowResponders(count=3, extra_delay=0.05),)

    def test_permanent_crash_spec(self):
        plan = FaultPlan.parse("crash=1@0.5")
        assert plan.crashes[0].restart_at is None

    def test_repeated_entries_accumulate(self):
        plan = FaultPlan.parse("crash=1@0.5:1.0,crash=2@2.0:3.0")
        assert len(plan.crashes) == 2
        assert plan.crashes[1].count == 2

    def test_whitespace_and_empty_entries_tolerated(self):
        plan = FaultPlan.parse(" loss=0.1 , ,dup=0.2 ")
        assert plan.loss == 0.1
        assert plan.duplication == 0.2

    @pytest.mark.parametrize(
        "spec",
        [
            "loss",  # no key=value
            "loss=abc",  # not a float
            "crash=2",  # missing window
            "partition=0.5@1.0",  # missing duration
            "slow=3",  # missing delay
            "meteor=1",  # unknown kind
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError, match=f"^malformed fault entry {spec!r}: "):
            FaultPlan.parse(spec)

    def test_describe_mentions_every_component(self):
        plan = FaultPlan.parse("loss=0.05,crash=2@1:2,partition=0.2@1+0.5,slow=1@0.05")
        text = plan.describe()
        for fragment in ("loss=0.05", "crash=2@1:2", "partition=0.2@1+0.5", "slow=1@0.05"):
            assert fragment in text
