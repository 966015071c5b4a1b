"""Query-lifecycle completeness: every issued query terminates once.

The fetcher opens a request id on every ``query_issue`` and the trace
must close it in exactly one of ``query_response`` / ``query_timeout``
/ ``query_cancel`` — under clean networks, heavy loss, dynamic faults
and Byzantine peers alike. ``lifecycle_problems`` returns the
violations; an empty list is the invariant.
"""

from __future__ import annotations

from repro.experiments.scenario import Scenario
from repro.faults.plan import FaultPlan
from repro.obs import QUERY_TERMINAL_KINDS, TraceRecorder
from repro.obs.timeline import lifecycle_problems, query_lifecycles
from tests.helpers import dense_config


def traced_run(seed=9, **overrides):
    rec = TraceRecorder()
    Scenario(dense_config(seed, tracer=rec, **overrides)).run()
    return [e.to_dict() for e in rec.events]


def assert_complete(events):
    problems = lifecycle_problems(events)
    assert problems == []
    issued = sum(1 for e in events if e["kind"] == "query_issue")
    closed = sum(1 for e in events if e["kind"] in QUERY_TERMINAL_KINDS)
    assert issued > 0
    assert issued == closed


def test_lifecycle_complete_on_clean_run():
    assert_complete(traced_run())


def test_lifecycle_complete_under_loss_and_faults():
    events = traced_run(
        seed=4,
        loss_rate=0.1,
        faults=FaultPlan.parse("loss=0.1,dup=0.05,crash=2@0.5:2.0,slow=2@0.08"),
    )
    assert_complete(events)
    # loss forces at least some queries to expire unanswered
    assert any(e["kind"] == "query_timeout" for e in events)


def test_lifecycle_complete_under_adversaries():
    events = traced_run(
        seed=5, faults=FaultPlan.parse("corrupt=0.1,withhold=0.1")
    )
    assert_complete(events)


def test_lifecycles_carry_round_and_peer_context():
    events = traced_run()
    lives = [life for life in query_lifecycles(events).values() if life.req > 0]
    assert lives
    for life in lives:
        assert life.outcome in ("response", "timeout", "cancel")
        assert life.peer >= 0
        assert life.round >= 1
        assert life.closed_at is not None
        assert life.closed_at >= life.issued_at
    # at least one query delivered new cells
    assert any(life.new_cells > 0 for life in lives)


def test_problems_detected_on_synthetic_violations():
    events = [
        {"t": 0.0, "slot": 0, "node": 1, "kind": "query_issue", "req": 1},
        {"t": 0.1, "slot": 0, "node": 1, "kind": "query_response", "req": 1},
        {"t": 0.2, "slot": 0, "node": 1, "kind": "query_timeout", "req": 1},
        {"t": 0.3, "slot": 0, "node": 1, "kind": "query_issue", "req": 2},
        {"t": 0.4, "slot": 0, "node": 1, "kind": "query_cancel", "req": 3},
    ]
    problems = lifecycle_problems(events)
    assert any("closed twice" in p for p in problems)
    assert any("never issued" in p for p in problems)
    assert any("never closed" in p for p in problems)


def test_late_replies_are_not_terminals():
    """A reply after the round expired is observability, not a close."""
    events = traced_run(seed=11, loss_rate=0.08)
    late = [e for e in events if e["kind"] == "query_late_reply"]
    for event in late:
        assert "req" not in event  # carries peer context only
    assert_complete(events)
