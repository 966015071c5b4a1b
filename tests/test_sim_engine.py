"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_call_after_advances_clock(sim):
    fired = []
    sim.call_after(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_call_at_absolute_time(sim):
    fired = []
    sim.call_at(3.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [3.0]


def test_events_fire_in_time_order(sim):
    order = []
    sim.call_after(2.0, lambda: order.append("b"))
    sim.call_after(1.0, lambda: order.append("a"))
    sim.call_after(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order(sim):
    order = []
    for tag in ("first", "second", "third"):
        sim.call_at(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["first", "second", "third"]


def test_scheduling_in_past_raises(sim):
    sim.call_after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.call_after(-0.1, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.call_after(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []
    assert not event.active


def test_cancel_is_idempotent(sim):
    event = sim.call_after(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.call_after(1.0, lambda: fired.append("early"))
    sim.call_after(5.0, lambda: fired.append("late"))
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock advanced to the window end
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_idle(sim):
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.call_after(1.0, chain)

    sim.call_after(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_max_events_limits_execution(sim):
    fired = []
    for i in range(10):
        sim.call_after(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_step_executes_single_event(sim):
    fired = []
    sim.call_after(1.0, lambda: fired.append("a"))
    sim.call_after(2.0, lambda: fired.append("b"))
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_events_processed_counter(sim):
    for i in range(5):
        sim.call_after(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_reset_clears_queue_and_clock(sim):
    sim.call_after(1.0, lambda: None)
    sim.run()
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_processed == 0


def test_not_reentrant(sim):
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.call_after(1.0, reenter)
    sim.run()


def test_zero_delay_event_fires_at_current_time(sim):
    fired = []
    sim.call_after(1.0, lambda: sim.call_after(0.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [1.0]


def test_reset_restarts_sequence_counter(sim):
    """Regression: ``reset()`` used to keep the old ``_seq`` counter,
    so a reset simulator broke timestamp ties differently from a fresh
    one and replays after reset were not bit-identical."""
    for _ in range(5):
        sim.call_after(1.0, lambda: None)
    sim.run()
    sim.reset()
    event = sim.call_after(1.0, lambda: None)
    assert event.seq == 0


def test_reset_simulator_matches_fresh_simulator():
    def trace_of(sim: Simulator) -> list:
        trace = []
        for tag in ("a", "b", "c"):
            sim.call_at(1.0, lambda t=tag: trace.append((t, sim.events_processed)))
        sim.run()
        return trace

    fresh = Simulator()
    reused = Simulator()
    reused.call_after(0.5, lambda: None)
    reused.run()
    reused.reset()
    assert trace_of(reused) == trace_of(fresh)


def test_determinism_across_instances():
    def run_once() -> list:
        sim = Simulator()
        trace = []
        sim.call_after(0.5, lambda: trace.append(("a", sim.now)))
        sim.call_after(0.5, lambda: trace.append(("b", sim.now)))
        sim.call_after(0.2, lambda: sim.call_after(0.3, lambda: trace.append(("c", sim.now))))
        sim.run()
        return trace

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# cancellation at run boundaries
# ----------------------------------------------------------------------
def test_cancelled_event_at_until_boundary_is_discarded(sim):
    """A cancelled event popped exactly when ``until`` stops the run
    must be dropped, not re-queued: resuming the run later must not
    resurrect it. Regression test for the formerly duplicated
    cancelled-pop paths (one per stop condition)."""
    fired = []
    doomed = sim.call_at(1.0, lambda: fired.append("doomed"))
    sim.call_at(1.0, lambda: fired.append("kept"))
    sim.call_at(2.0, lambda: fired.append("late"))
    doomed.cancel()
    sim.run(until=1.0)
    assert fired == ["kept"]
    sim.run()
    assert fired == ["kept", "late"]


def test_cancelled_event_at_max_events_boundary(sim):
    fired = []
    doomed = sim.call_at(0.5, lambda: fired.append("doomed"))
    doomed.cancel()
    sim.call_at(0.5, lambda: fired.append("a"))
    sim.call_at(0.6, lambda: fired.append("b"))
    sim.run(max_events=1)
    assert fired == ["a"]
    assert sim.events_processed == 1
    sim.run()
    assert fired == ["a", "b"]


# ----------------------------------------------------------------------
# posted entries: callbacks scheduled without a handle (post_at)
# ----------------------------------------------------------------------
class TestPostedEntries:
    """``post_at`` entries share the heap, the ``(time, seq)`` order and
    every execution path with ``call_at`` timers; they carry no handle."""

    def test_post_at_returns_no_handle(self, sim):
        assert sim.post_at(1.0, lambda: None) is None

    def test_same_instant_runs_in_scheduling_order(self, sim):
        order = []
        sim.post_at(1.0, order.append, "delivery-1")
        sim.call_at(1.0, order.append, "timer")
        sim.post_at(1.0, order.append, "delivery-2")
        sim.call_at(0.5, order.append, "early-timer")
        sim.run()
        assert order == ["early-timer", "delivery-1", "timer", "delivery-2"]

    def test_post_in_past_raises(self, sim):
        sim.post_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(0.5, lambda: None)

    def test_step_runs_both_kinds(self, sim):
        order = []
        sim.call_at(2.0, order.append, "timer")
        sim.post_at(1.0, order.append, "delivery")
        assert sim.step()
        assert order == ["delivery"] and sim.now == 1.0
        assert sim.step()
        assert order == ["delivery", "timer"] and sim.now == 2.0
        assert not sim.step()
        assert sim.events_processed == 2

    def test_step_skips_a_cancelled_timer_before_a_delivery(self, sim):
        order = []
        sim.call_at(1.0, order.append, "timer").cancel()
        sim.post_at(1.0, order.append, "delivery")
        assert sim.step()
        assert order == ["delivery"]
        assert not sim.step()

    def test_run_boundaries_requeue_posted_entries(self, sim):
        order = []
        for when in (1.0, 2.0, 3.0):
            sim.post_at(when, order.append, when)
        sim.call_at(2.0, order.append, "timer")
        sim.run(max_events=1)
        assert order == [1.0]
        assert sim.pending == 3
        sim.run(until=2.5)
        assert order == [1.0, 2.0, "timer"]
        assert sim.now == 2.5 and sim.pending == 1
        sim.run()
        assert order == [1.0, 2.0, "timer", 3.0]
        assert sim.events_processed == 4

    def test_reset_drops_posted_entries_and_restarts_seq(self, sim):
        fired = []
        sim.post_at(1.0, fired.append, "stale")
        sim.reset()
        assert sim.pending == 0
        sim.post_at(1.0, fired.append, "fresh")
        assert sim.call_at(1.0, lambda: None).seq == 1
        sim.run()
        assert fired == ["fresh"]

    def test_profiler_sees_both_kinds_with_their_args(self, sim):
        seen = []

        class Recorder:
            def run(self, callback, *args):
                seen.append(args)
                callback(*args)

        order = []
        sim.set_profiler(Recorder())
        sim.post_at(1.0, order.append, "delivery")
        sim.call_at(1.0, order.append, "timer")
        sim.step()
        sim.run()
        assert seen == [("delivery",), ("timer",)]
        assert order == ["delivery", "timer"]
        assert sim.events_processed == 2

    def test_iter_pending_covers_both_kinds(self, sim):
        """The invariant checker's final sweep reads ``time`` and
        ``active`` of every queued entry, deliveries included."""
        sim.post_at(2.0, print, "delivery")
        timer = sim.call_at(1.0, print, "timer")
        timer.cancel()
        entries = sorted(sim.iter_pending())
        assert [(e.time, e.seq, e.active) for e in entries] == [
            (1.0, 1, False),
            (2.0, 0, True),
        ]
        assert entries[1].callback is print and entries[1].args == ("delivery",)
