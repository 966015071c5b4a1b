"""SpanRecorder / EventSpans against a scripted clock."""

import functools
import json

import pytest

from harness.spans import EventSpans, SpanRecorder


class Clock:
    """Advances only when told to, so every duration is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> Clock:
    return Clock()


def test_self_time_is_duration_minus_direct_children(clock):
    rec = SpanRecorder(clock)
    leaf = rec.wrap("leaf", lambda: clock.spend(2.0))

    def mid_body():
        clock.spend(1.0)
        leaf()
        leaf()
        clock.spend(0.5)

    mid = rec.wrap("mid", mid_body)

    def top_body():
        clock.spend(4.0)
        mid()

    rec.wrap("top", top_body)()

    assert rec.stats["leaf"].calls == 2
    assert rec.stats["leaf"].self_s == 4.0
    assert rec.stats["mid"].total_s == 5.5
    assert rec.stats["mid"].self_s == 1.5
    assert rec.stats["top"].total_s == 9.5
    assert rec.stats["top"].self_s == 4.0
    # self times partition the time under the top-level span
    assert rec.covered_s() == rec.stats["top"].total_s
    assert rec.edges[("top", "mid")] == [1, 5.5]
    assert rec.edges[("mid", "leaf")] == [2, 4.0]


def test_same_name_nesting_keeps_the_partition(clock):
    rec = SpanRecorder(clock)
    inner = rec.wrap("schedule", lambda: clock.spend(1.0))

    def outer_body():
        clock.spend(0.25)
        inner()

    rec.wrap("schedule", outer_body)()
    assert rec.stats["schedule"].calls == 2
    assert rec.stats["schedule"].self_s == 1.25
    assert rec.edges[("schedule", "schedule")][0] == 1


def test_reset_zeroes_aggregates_that_wrappers_keep_using(clock):
    rec = SpanRecorder(clock)
    inner = rec.wrap("inner", lambda: clock.spend(1.0))
    outer = rec.wrap("outer", inner)
    outer()
    rec.reset()
    assert rec.edges == {} and rec.sampled == []
    outer()
    assert rec.stats["inner"].calls == 1 and rec.stats["outer"].self_s == 0.0
    assert rec.edges == {("outer", "inner"): [1, 1.0]}


def test_span_closes_when_the_callee_raises(clock):
    rec = SpanRecorder(clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.stats["boom"].calls == 1
    rec.reset()  # no span is left open, so reset is allowed
    assert rec.stats["boom"].calls == 0 and rec.covered_s() == 0.0


def test_reset_inside_an_open_span_is_an_error(clock):
    rec = SpanRecorder(clock)
    with pytest.raises(RuntimeError):
        rec.wrap("outer", rec.reset)()


def test_tally_sees_arguments_and_result_outside_the_span(clock):
    rec = SpanRecorder(clock)
    seen = []

    def tally(args, result):
        clock.spend(10.0)  # counting work is not charged to the callee
        seen.append((args, result))

    wrapped = rec.wrap("add", lambda a, b: a + b, tally)
    assert wrapped(2, 3) == 5
    assert seen == [((2, 3), 5)]
    assert rec.stats["add"].total_s == 0.0
    assert wrapped._perf_span == "add"
    assert wrapped.__wrapped__(1, 1) == 2


def test_event_spans_sample_one_in_n_and_link_parents(clock, tmp_path):
    rec = SpanRecorder(clock)
    child = rec.wrap("layer.child", lambda: clock.spend(1.0))

    def handler():
        clock.spend(0.5)
        child()

    events = EventSpans(rec, lambda cb: "mod:handler", sample_every=4)
    for _ in range(9):
        events.run(handler)

    assert events.events == 9
    assert rec.stats["mod:handler"].calls == 9
    traces = sorted({row[0] for row in rec.sampled})
    assert traces == [1, 5, 9]  # events 1, 5, 9: every 4th from the first
    assert len(rec.sampled) == 6  # handler + child per sampled event
    by_id = {row[1]: row for row in rec.sampled}
    for trace, span, parent, name, start, end in rec.sampled:
        assert start <= end
        if name == "layer.child":
            _, _, _, parent_name, p_start, p_end = by_id[parent]
            assert parent_name == "mod:handler"
            assert p_start <= start and end <= p_end
        else:
            assert parent == 0  # event spans are the roots of a trace

    path = tmp_path / "t.jsonl"
    rec.write_sampled(str(path), {"workload": "x"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"workload": "x"}
    assert len(lines) == 7
    assert set(lines[1]) == {"trace", "span", "parent", "name", "start", "end"}


def test_event_spans_label_wrapped_and_partial_callbacks_by_their_function(clock):
    rec = SpanRecorder(clock)

    def first():
        pass

    def second(_x):
        pass

    # wrap() closures share one code object; labels must not collide
    wrapped_first = rec.wrap("a", first)
    wrapped_second = rec.wrap("b", second)
    events = EventSpans(rec, lambda cb: getattr(cb, "__name__", "partial"))
    events.run(wrapped_first)
    events.run(functools.partial(wrapped_second, 1))
    events.run(wrapped_first)
    assert rec.stats["first"].calls == 2
    assert rec.stats["partial"].calls == 1


def test_add_leaf_is_charged_to_the_open_span_and_ignored_outside_any(clock):
    rec = SpanRecorder(clock)

    def body():
        clock.spend(1.0)
        paused_at = clock()
        clock.spend(0.25)  # e.g. a collector pause reported by callbacks
        rec.add_leaf("gc", paused_at, clock())
        clock.spend(1.0)

    rec.wrap("work", body)()
    rec.add_leaf("gc", 0.0, 5.0)  # no span open: not part of any run
    assert rec.stats["work"].self_s == 2.0
    assert rec.stats["gc"].calls == 1 and rec.stats["gc"].self_s == 0.25
    assert rec.covered_s() == rec.stats["work"].total_s == 2.25
    assert rec.edges == {("work", "gc"): [1, 0.25]}
