"""MetricsRecorder and Counter2D."""

from __future__ import annotations


from repro.sim.metrics import Counter2D, MetricsRecorder


class TestCounter2D:
    def test_add_and_get(self):
        counter = Counter2D()
        counter.add(0, "n1", 2.0)
        counter.add(0, "n1")
        assert counter.get(0, "n1") == 3.0
        assert counter.get(0, "n2") == 0.0

    def test_per_node_filters_slot(self):
        counter = Counter2D()
        counter.add(0, "a", 1.0)
        counter.add(1, "a", 5.0)
        counter.add(0, "b", 2.0)
        assert counter.per_node(0) == {"a": 1.0, "b": 2.0}

    def test_values_and_total(self):
        counter = Counter2D()
        counter.add(0, "a", 1.0)
        counter.add(1, "b", 2.0)
        assert sorted(counter.values()) == [1.0, 2.0]
        assert counter.total() == 3.0
        assert counter.total(0) == 1.0


class TestPhaseMarks:
    def test_marks_are_first_write_wins(self):
        metrics = MetricsRecorder()
        metrics.mark_phase("seeding", 0, "n", 1.0)
        metrics.mark_phase("seeding", 0, "n", 9.0)
        assert metrics.phase_times[(0, "n")].seeding == 1.0

    def test_all_phases_recorded_independently(self):
        metrics = MetricsRecorder()
        metrics.mark_phase("seeding", 0, "n", 1.0)
        metrics.mark_phase("consolidation", 0, "n", 2.0)
        metrics.mark_phase("sampling", 0, "n", 3.0)
        metrics.mark_phase("block", 0, "n", 0.5)
        times = metrics.phase_times[(0, "n")]
        assert (times.seeding, times.consolidation, times.sampling, times.block) == (
            1.0,
            2.0,
            3.0,
            0.5,
        )


class TestTraffic:
    def test_send_receive_accounting(self):
        metrics = MetricsRecorder()
        metrics.record_send(0, "n", 100)
        metrics.record_send(0, "n", 50)
        metrics.record_receive(0, "n", 70)
        assert metrics.messages_sent.get(0, "n") == 2
        assert metrics.bytes_sent.get(0, "n") == 150
        assert metrics.bytes_received.get(0, "n") == 70

    def test_builder_accounting(self):
        metrics = MetricsRecorder()
        metrics.record_builder_send(0, 1000)
        metrics.record_builder_send(0, 500)
        assert metrics.builder_bytes_sent[0] == 1500
        assert metrics.builder_messages_sent[0] == 2


class TestRoundTable:
    def test_aggregates_mean_and_std(self):
        metrics = MetricsRecorder()
        metrics.record_round(0, "a", 1, messages_sent=10)
        metrics.record_round(0, "b", 1, messages_sent=20)
        table = metrics.round_table()
        mean, std = table[1]["messages_sent"]
        assert mean == 15.0
        assert std == 5.0

    def test_round_cap(self):
        metrics = MetricsRecorder()
        metrics.record_round(0, "a", 1, messages_sent=1)
        metrics.record_round(0, "a", 9, messages_sent=1)
        assert 9 not in metrics.round_table(max_round=4)

    def test_repeated_record_accumulates(self):
        metrics = MetricsRecorder()
        metrics.record_round(0, "a", 1, cells_requested=5)
        metrics.record_round(0, "a", 1, cells_requested=3)
        mean, _ = metrics.round_table()[1]["cells_requested"]
        assert mean == 8.0


class TestOverloadCounters:
    def test_shed_and_drop_counters_accumulate(self):
        metrics = MetricsRecorder()
        metrics.record_shed("retrieval_admission")
        metrics.record_shed("retrieval_admission", 2.0)
        metrics.record_queue_drop("inbox_overflow", 5.0)
        assert metrics.shed_counts["retrieval_admission"] == 3.0
        assert metrics.queue_drop_counts["inbox_overflow"] == 5.0
        summary = metrics.summary()
        assert summary["sheds"] == {"retrieval_admission": 3.0}
        assert summary["queue_drops"] == {"inbox_overflow": 5.0}

    def test_queue_depth_gauge_keeps_high_water_mark(self):
        metrics = MetricsRecorder()
        metrics.observe_queue_depth("pending_requests", 3)
        metrics.observe_queue_depth("pending_requests", 7)
        metrics.observe_queue_depth("pending_requests", 2)
        assert metrics.queue_depth_peaks == {"pending_requests": 7}

    def test_snapshot_always_carries_the_overload_section(self):
        """The overload section is part of every snapshot, empty or
        not: a shed changes its content, never the snapshot's shape."""
        quiet = MetricsRecorder()
        quiet.record_send(0, "n", 100)
        loaded = MetricsRecorder()
        loaded.record_send(0, "n", 100)
        loaded.record_shed("retrieval_admission")
        assert len(loaded.snapshot()) == len(quiet.snapshot())
        assert quiet.snapshot()[-1] == ((), (), ())
        assert loaded.snapshot()[-1] == ((("retrieval_admission", 1.0),), (), ())
        assert loaded.fingerprint() != quiet.fingerprint()

    def test_overload_counters_change_fingerprint(self):
        first = MetricsRecorder()
        first.record_queue_drop("inbox_overflow")
        second = MetricsRecorder()
        second.record_queue_drop("inbox_overflow", 2.0)
        assert first.fingerprint() != second.fingerprint()
