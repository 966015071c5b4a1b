"""The online invariant checker: holds on real runs, catches violations.

Positive direction: clean runs and heavily faulted runs must complete
with zero violations (the protocol is supposed to stay correct under
any fault mix — faults cost latency, never safety). Negative
direction: deliberately corrupted transitions must raise
``InvariantViolation`` — a checker that can never fire is not a check.
"""

from __future__ import annotations

import pytest

from repro.core.seeding import RedundantSeeding
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults.invariants import InvariantViolation
from repro.faults.plan import CrashWindow, FaultPlan, PartitionWindow
from repro.net.transport import Datagram
from repro.params import PandasParams
from tests.helpers import dense_config


def make_config(**overrides):
    defaults = dict(
        num_nodes=40,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10
        ),
        policy=RedundantSeeding(4),
        seed=5,
        slots=1,
        num_vertices=400,
        check_invariants=True,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestInvariantsHold:
    def test_clean_run_passes(self):
        scenario = Scenario(make_config()).run()
        assert scenario.invariants.checks_run > 0

    def test_lossy_run_passes(self):
        Scenario(make_config(loss_rate=0.1, faults=FaultPlan(loss=0.1))).run()

    def test_chaotic_run_passes(self):
        plan = FaultPlan(
            loss=0.05,
            duplication=0.05,
            jitter=0.03,
            crashes=(CrashWindow(crash_at=0.3, restart_at=0.8, count=2),),
            partitions=(PartitionWindow(start=0.2, duration=0.5, fraction=0.25),),
        )
        Scenario(make_config(faults=plan)).run()

    def test_multi_slot_run_passes(self):
        Scenario(make_config(slots=2, faults=FaultPlan(loss=0.05))).run()

    def test_fetch_bound_is_generous_but_finite(self):
        scenario = Scenario(make_config()).run()
        bound = scenario.invariants.fetch_bytes_bound()
        observed = max(dict(scenario.metrics.fetch_bytes.items()).values())
        assert observed < bound


class TestViolationsCaught:
    def test_sampling_mark_without_cells_raises(self):
        scenario = Scenario(make_config())
        node = scenario.nodes[0]
        node._slot_state(0)  # creates empty cell state: nothing verified
        with pytest.raises(InvariantViolation):
            scenario.ctx.emit("phase", slot=0, node=0, phase="sampling", at=0.1)

    def test_consolidation_mark_without_lines_raises(self):
        scenario = Scenario(make_config())
        scenario.nodes[1]._slot_state(0)
        with pytest.raises(InvariantViolation):
            scenario.ctx.emit("phase", slot=0, node=1, phase="consolidation", at=0.1)

    def test_negative_completion_time_raises(self):
        scenario = Scenario(make_config())
        with pytest.raises(InvariantViolation):
            scenario.ctx.emit("phase", slot=0, node=0, phase="sampling", at=-0.5)

    def test_delivery_before_send_raises(self):
        scenario = Scenario(make_config())
        checker = scenario.invariants
        ghost = Datagram(src=0, dst=1, payload=None, size=10, sent_at=99.0)
        with pytest.raises(InvariantViolation):
            checker._on_deliver(ghost)

    def test_excess_fetch_traffic_raises(self):
        scenario = Scenario(make_config()).run()
        bound = scenario.invariants.fetch_bytes_bound()
        scenario.metrics.fetch_bytes.add(0, 3, bound + 1.0)
        with pytest.raises(InvariantViolation):
            scenario.invariants.check_final()

    def test_fetch_that_never_ends_raises(self):
        """I6: a fetch opened and never closed fails the final check."""
        scenario = Scenario(make_config())
        scenario.ctx.emit("fetch_start", slot=0, node=3, custody=True)
        with pytest.raises(InvariantViolation, match="never ended"):
            scenario.invariants.check_final()

    def test_second_open_fetch_and_unknown_reason_raise(self):
        scenario = Scenario(make_config())
        emit = scenario.ctx.emit
        emit("fetch_start", slot=0, node=3, custody=True)
        with pytest.raises(InvariantViolation, match="second fetch"):
            emit("fetch_start", slot=0, node=3, custody=True)
        with pytest.raises(InvariantViolation, match="unknown reason"):
            emit("fetch_done", slot=0, node=3, success=False, reason="silent")
        emit("fetch_done", slot=0, node=3, success=False, reason="stopped")
        with pytest.raises(InvariantViolation, match="not open"):
            emit("fetch_done", slot=0, node=3, success=False, reason="stopped")
        # a crash's stopped closed it: the restart may reopen the pair
        emit("fetch_start", slot=0, node=3, custody=True)

    def test_query_at_or_after_the_deadline_raises(self):
        """I6: a node's round that asks peers once its slot's deadline is
        reached fails; a round asking nothing, or a retrieval client's,
        does not."""
        scenario = Scenario(make_config())
        checker = scenario.invariants
        deadline = scenario.params.deadline

        def fetch_round(t, node=3, queries=2):
            checker.emit(
                "fetch_round", t=t, slot=0, node=node, round=9, targets=4,
                queries=queries, cells=queries,
            )

        fetch_round(deadline - 0.01)
        fetch_round(deadline + 0.5, queries=0)
        fetch_round(deadline + 0.5, node=10_000_000)  # not a node: a client
        with pytest.raises(InvariantViolation, match="past its deadline"):
            fetch_round(deadline)

    def test_inbox_bound_checked_on_a_plain_slot(self):
        """I5 holds every run to the transport's inbox bound, not only
        pipeline runs that set one."""
        scenario = Scenario(dense_config(check_invariants=True))
        network = scenario.network
        network.endpoint(3).in_flight = network.max_inbox + 1
        with pytest.raises(InvariantViolation, match="bounded inbox is 4096"):
            scenario.invariants.check_final()

    def test_crash_restart_run_ends_every_fetch(self):
        plan = FaultPlan(crashes=(CrashWindow(crash_at=0.3, restart_at=0.8, count=3),))
        scenario = Scenario(make_config(faults=plan)).run()
        assert not +scenario.invariants._open_fetches

    def test_wrapped_marks_still_record(self):
        """The checker subscribes to the same phase events as the
        recorder; legitimate completions reach the recorder unchanged."""
        scenario = Scenario(make_config()).run()
        sampled = [
            t.sampling
            for t in scenario.metrics.phase_times.values()
            if t.sampling is not None
        ]
        assert sampled  # marks were recorded beside the checks
