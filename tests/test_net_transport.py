"""Unit tests for the lossy UDP-like transport."""

from __future__ import annotations

import random
import weakref

import pytest

from repro.net.latency import ConstantLatency
from repro.net.transport import Network
from tests.conftest import make_network


def _register_sink(net, address, vertex=None, up=None, down=None):
    # distinct vertices by default so pairs see the model latency
    inbox = []
    net.register(
        address, address if vertex is None else vertex, inbox.append, up, down
    )
    return inbox


def test_basic_delivery(sim, lossless_network):
    inbox = _register_sink(lossless_network, 1)
    _register_sink(lossless_network, 2)
    lossless_network.send(2, 1, "hello", 100)
    sim.run()
    assert len(inbox) == 1
    assert inbox[0].payload == "hello"
    assert inbox[0].src == 2


def test_deliveries_share_one_callback(sim, lossless_network):
    """A datagram copy is one queue entry whose callback is the
    network's one bound ``Network._deliver``, the site the benchmark
    counts deliveries by; only its arguments are the copy's own."""
    from repro.obs.profiler import callback_site

    _register_sink(lossless_network, 1)
    _register_sink(lossless_network, 2)
    lossless_network.send(2, 1, "a", 100)
    lossless_network.send(2, 1, "b", 100)
    (first, second) = sorted(sim.iter_pending())
    assert first.active and second.active
    assert first.callback is second.callback
    assert callback_site(first.callback) == "repro.net.transport:Network._deliver"
    assert [entry.args[1].payload for entry in (first, second)] == ["a", "b"]


def test_delivery_time_includes_latency(sim, lossless_network):
    times = []
    lossless_network.register(1, 1, lambda d: times.append(sim.now), None, None)
    _register_sink(lossless_network, 2)
    lossless_network.send(2, 1, "x", 100)
    sim.run()
    assert times == [pytest.approx(0.01)]


def test_uplink_serialization_delays_delivery(sim):
    net = make_network(sim)
    times = []
    net.register(1, 1, lambda d: times.append(sim.now), None, None)
    net.register(2, 2, lambda d: None, 1e6, None)  # 1 MB/s uplink
    net.send(2, 1, "big", 500_000)
    sim.run()
    assert times == [pytest.approx(0.5 + 0.01)]


def test_downlink_serialization_delays_delivery(sim):
    net = make_network(sim)
    times = []
    net.register(1, 1, lambda d: times.append(sim.now), None, 1e6)
    net.register(2, 2, lambda d: None, None, None)
    net.send(2, 1, "big", 1_000_000)
    sim.run()
    assert times == [pytest.approx(0.01 + 1.0)]


def test_consecutive_sends_queue_at_uplink(sim):
    net = make_network(sim)
    times = []
    net.register(1, 1, lambda d: times.append(sim.now), None, None)
    net.register(2, 2, lambda d: None, 1e6, None)
    net.send(2, 1, "a", 1_000_000)
    net.send(2, 1, "b", 1_000_000)
    sim.run()
    assert times[0] == pytest.approx(1.01)
    assert times[1] == pytest.approx(2.01)


def test_unknown_destination_is_silent(sim, lossless_network):
    _register_sink(lossless_network, 1)
    lossless_network.send(1, 999, "void", 100)
    sim.run()
    assert lossless_network.datagrams_lost == 1


def test_unknown_sender_raises(sim, lossless_network):
    with pytest.raises(ValueError):
        lossless_network.send(999, 1, "x", 10)


def test_duplicate_registration_raises(sim, lossless_network):
    _register_sink(lossless_network, 1)
    with pytest.raises(ValueError):
        lossless_network.register(1, 0, lambda d: None, None, None)


def test_non_positive_size_raises(sim, lossless_network):
    _register_sink(lossless_network, 1)
    _register_sink(lossless_network, 2)
    with pytest.raises(ValueError):
        lossless_network.send(1, 2, "x", 0)


def test_killed_endpoint_receives_nothing(sim, lossless_network):
    inbox = _register_sink(lossless_network, 1)
    _register_sink(lossless_network, 2)
    lossless_network.kill(1)
    lossless_network.send(2, 1, "x", 10)
    sim.run()
    assert inbox == []
    assert not lossless_network.is_alive(1)


def test_killed_endpoint_sends_nothing(sim, lossless_network):
    inbox = _register_sink(lossless_network, 1)
    _register_sink(lossless_network, 2)
    lossless_network.kill(2)
    lossless_network.send(2, 1, "x", 10)
    sim.run()
    assert inbox == []


def test_loss_rate_statistics(sim):
    net = Network(sim, ConstantLatency(0.001, 10), loss_rate=0.3, rng=random.Random(1))
    received = []
    net.register(1, 1, lambda d: received.append(d), None, None)
    net.register(2, 2, lambda d: None, None, None)
    for _ in range(2000):
        net.send(2, 1, "x", 10)
    sim.run()
    assert 0.6 < len(received) / 2000 < 0.8


def test_reliable_send_skips_loss(sim):
    net = Network(sim, ConstantLatency(0.001, 10), loss_rate=0.9, rng=random.Random(1))
    received = []
    net.register(1, 1, lambda d: received.append(d), None, None)
    net.register(2, 2, lambda d: None, None, None)
    for _ in range(50):
        net.send(2, 1, "x", 10, reliable=True)
    sim.run()
    assert len(received) == 50


def test_reliable_send_still_fails_to_dead_nodes(sim):
    net = make_network(sim)
    inbox = _register_sink(net, 1)
    _register_sink(net, 2)
    net.kill(1)
    net.send(2, 1, "x", 10, reliable=True)
    sim.run()
    assert inbox == []


def test_invalid_loss_rate_rejected(sim):
    with pytest.raises(ValueError):
        Network(sim, ConstantLatency(0.01, 4), loss_rate=1.0)


def test_observers_fire(sim, lossless_network):
    sent, delivered = [], []
    lossless_network.on_send.append(lambda d: sent.append(d))
    lossless_network.on_deliver.append(lambda d: delivered.append(d))
    _register_sink(lossless_network, 1)
    _register_sink(lossless_network, 2)
    lossless_network.send(1, 2, "x", 10)
    sim.run()
    assert len(sent) == 1
    assert len(delivered) == 1


def test_counters(sim, lossless_network):
    _register_sink(lossless_network, 1)
    _register_sink(lossless_network, 2)
    lossless_network.send(1, 2, "x", 10)
    lossless_network.send(1, 404, "x", 10)
    sim.run()
    assert lossless_network.datagrams_sent == 2
    assert lossless_network.datagrams_delivered == 1
    assert lossless_network.datagrams_lost == 1


# ----------------------------------------------------------------------
# delivery events: one per datagram copy, in (time, seq) order
# ----------------------------------------------------------------------
def _logged_pair(sim, net):
    """Endpoints 1 and 2 on unshaped links, logging (now, address, payload)."""
    log = []
    for addr in (1, 2):
        net.register(addr, addr, lambda d, a=addr: log.append((sim.now, a, d.payload)), None, None)
    return log


def test_unshaped_same_instant_ties_preserve_send_order(sim, lossless_network):
    net = lossless_network
    log = _logged_pair(sim, net)
    # identical latency and no shaping: all four arrive at the same instant
    for i in range(4):
        net.send(1, 2, f"m{i}", 100)
    sim.run()
    assert [p for (_, _, p) in log] == ["m0", "m1", "m2", "m3"]
    assert net.datagrams_delivered == 4


def test_tie_interleaves_with_unrelated_timer(sim, lossless_network):
    """A timer scheduled between two same-instant sends fires between
    their deliveries: each delivery is ordered by the seq it got at send."""
    net = lossless_network
    log = _logged_pair(sim, net)
    net.send(1, 2, "first", 100)
    sim.call_at(0.01, lambda: log.append((sim.now, "timer", None)))
    net.send(1, 2, "second", 100)
    sim.run()
    assert [entry[1] for entry in log] == [2, "timer", 2]
    assert [p for (_, _, p) in log] == ["first", None, "second"]


def test_receiver_dying_in_flight_drops_dead_late(sim, lossless_network):
    net = lossless_network
    log = _logged_pair(sim, net)
    drops = []
    net.on_drop.append(lambda d, reason: drops.append((d.payload, reason)))
    net.send(1, 2, "doomed", 100)
    sim.call_at(0.005, net.kill, 2)  # dies while the datagram is in flight
    sim.run()
    assert log == []
    assert drops == [("doomed", "dead_late")]
    assert (net.datagrams_lost, net.datagrams_delivered) == (1, 0)


class _Payload:
    """A payload a weak reference can observe."""


def test_delivered_datagram_is_released(sim, lossless_network):
    """Once delivered, a datagram is not kept alive by the transport
    while later datagrams to the same endpoint are still in flight."""
    net = lossless_network
    for addr in (1, 2):
        net.register(addr, addr, lambda d: None, None, None)
    payloads = [_Payload() for _ in range(3)]
    first = weakref.ref(payloads[0])
    for i, payload in enumerate(payloads):
        sim.call_at(i * 0.001, net.send, 1, 2, payload, 100)
    del payload, payloads
    sim.run(until=0.0105)
    assert net.datagrams_delivered == 1
    assert first() is None


# ----------------------------------------------------------------------
# bounded inbox (max_inbox) — the transport half of invariant I5
# ----------------------------------------------------------------------

def _bounded_network(sim, max_inbox, loss=0.0, seed=7):
    return Network(
        sim,
        ConstantLatency(0.01, 16),
        loss_rate=loss,
        rng=random.Random(seed),
        max_inbox=max_inbox,
    )


class TestBoundedInbox:
    def test_excess_concurrent_sends_tail_drop(self, sim):
        net = _bounded_network(sim, max_inbox=3)
        inbox = _register_sink(net, 1)
        _register_sink(net, 2)
        for i in range(8):
            net.send(2, 1, i, 10)
        # all eight resolve at send time; only three fit the queue
        assert net.queue_depth(1) == 3
        assert net.endpoint(1).overflowed == 5
        assert net.datagrams_overflowed == 5
        sim.run()
        assert [d.payload for d in inbox] == [0, 1, 2]  # FIFO survivors
        assert net.queue_depth(1) == 0
        assert net.datagrams_delivered == 3
        assert net.datagrams_lost == 5

    def test_overflow_reports_drop_reason(self, sim):
        net = _bounded_network(sim, max_inbox=1)
        _register_sink(net, 1)
        _register_sink(net, 2)
        drops = []
        net.on_drop.append(lambda d, reason: drops.append((d.payload, reason)))
        net.send(2, 1, "kept", 10)
        net.send(2, 1, "shed", 10)
        sim.run()
        assert drops == [("shed", "overflow")]

    def test_depth_frees_up_as_datagrams_deliver(self, sim):
        net = _bounded_network(sim, max_inbox=1)
        inbox = _register_sink(net, 1)
        _register_sink(net, 2)
        net.send(2, 1, "a", 10)
        sim.run()  # drain: depth back to zero
        net.send(2, 1, "b", 10)
        sim.run()
        assert [d.payload for d in inbox] == ["a", "b"]
        assert net.datagrams_overflowed == 0

    def test_duplicate_copy_can_overflow_alone(self, sim):
        # per-copy check: the original squeaks in, the duplicate drops
        net = _bounded_network(sim, max_inbox=1)
        inbox = _register_sink(net, 1)
        _register_sink(net, 2)
        net.fault_filter = lambda dgram, reliable: (0.0, 0.0)
        net.send(2, 1, "x", 10)
        sim.run()
        assert len(inbox) == 1
        assert net.datagrams_overflowed == 1
        assert net.datagrams_duplicated == 0  # the dropped copy is not counted

    def test_lossy_burst_overflows_expected_datagrams(self, sim):
        # seeded loss thins the burst before the queue bound is checked:
        # the first four survivors fit, every later survivor overflows
        net = _bounded_network(sim, max_inbox=4, loss=0.2)
        inbox = _register_sink(net, 1)
        _register_sink(net, 2)
        for i in range(40):
            net.send(2, 1, i, 10)
        sim.run()
        assert [d.payload for d in inbox] == [0, 2, 4, 5]
        assert net.datagrams_overflowed == 23
        assert net.datagrams_delivered == 4
        assert net.datagrams_lost == 36

    def test_max_queue_depth_tracks_live_peak(self, sim):
        net = _bounded_network(sim, max_inbox=8)
        _register_sink(net, 1)
        _register_sink(net, 2)
        for i in range(5):
            net.send(2, 1, i, 10)
        assert net.max_queue_depth() == 5
        sim.run()
        assert net.max_queue_depth() == 0
        assert net.queue_depth(404) == 0  # unknown address reads as empty

    def test_non_positive_max_inbox_rejected(self, sim):
        with pytest.raises(ValueError):
            _bounded_network(sim, max_inbox=0)
        with pytest.raises(ValueError):
            _bounded_network(sim, max_inbox=-4)
