"""GossipSub overlay: meshes, flooding, dedup."""

from __future__ import annotations

import random

import pytest

from repro.gossip.pubsub import GossipMessage, GossipOverlay
from tests.conftest import make_network


def make_overlay(sim, members=20, degree=4, loss=0.0):
    net = make_network(sim, loss=loss)
    overlay = GossipOverlay(net, random.Random(1), mesh_degree=degree)
    delivered = {}

    def handler(member, message):
        delivered.setdefault(message.msg_id, []).append((member, sim.now))

    for member in range(members):
        net.register(
            member,
            member,
            (lambda m: (lambda d: overlay.on_datagram(m, d)))(member),
            None,
            None,
        )
    overlay.create_topic("t", list(range(members)), handler=handler)
    return net, overlay, delivered


def test_mesh_degree_bounds(sim):
    _net, overlay, _ = make_overlay(sim, members=30, degree=4)
    for member in range(30):
        neighbors = overlay.mesh_neighbors("t", member)
        assert len(neighbors) >= 4  # own grafts plus incoming edges
        assert member not in neighbors


def test_mesh_is_symmetric(sim):
    _net, overlay, _ = make_overlay(sim, members=30)
    for member in range(30):
        for neighbor in overlay.mesh_neighbors("t", member):
            assert member in overlay.mesh_neighbors("t", neighbor)


def test_publish_floods_topic(sim):
    _net, overlay, delivered = make_overlay(sim, members=25)
    overlay.publish(0, "t", "m1", None, 1000, slot=0)
    sim.run(until=2.0)
    receivers = {m for m, _t in delivered["m1"]}
    assert receivers == set(range(1, 25))  # everyone except the publisher


def test_each_member_delivers_once(sim):
    _net, overlay, delivered = make_overlay(sim, members=25)
    overlay.publish(0, "t", "m1", None, 1000, slot=0)
    sim.run(until=2.0)
    receivers = [m for m, _t in delivered["m1"]]
    assert len(receivers) == len(set(receivers))
    assert overlay.duplicates_suppressed > 0  # mesh redundancy existed


def test_multi_hop_latency_accumulates(sim):
    _net, overlay, delivered = make_overlay(sim, members=40, degree=2)
    overlay.publish(0, "t", "m1", None, 1000, slot=0)
    sim.run(until=5.0)
    times = [t for _m, t in delivered["m1"]]
    # with degree 2 over 40 members, some deliveries need several hops
    assert max(times) > 2 * min(times)


def test_external_publisher_uses_fanout(sim):
    net, overlay, delivered = make_overlay(sim, members=20)
    net.register(999, 999, lambda d: None, None, None)  # not subscribed
    overlay.publish(999, "t", "m2", None, 500, slot=0, fanout=3)
    sim.run(until=2.0)
    receivers = {m for m, _t in delivered["m2"]}
    assert len(receivers) == 20  # flooding completes from 3 entry points


def test_gossip_survives_loss_via_reliable_transport(sim):
    _net, overlay, delivered = make_overlay(sim, members=20, loss=0.5)
    overlay.publish(0, "t", "m3", None, 500, slot=0)
    sim.run(until=2.0)
    assert len(delivered["m3"]) == 19  # TCP semantics: loss hidden


def test_distinct_topics_are_isolated(sim):
    net = make_network(sim)
    overlay = GossipOverlay(net, random.Random(2), mesh_degree=3)
    got = []
    for member in range(10):
        net.register(
            member, member,
            (lambda m: (lambda d: overlay.on_datagram(m, d)))(member),
            None, None,
        )
    overlay.create_topic("a", list(range(5)), handler=lambda m, msg: got.append(("a", m)))
    overlay.create_topic("b", list(range(5, 10)), handler=lambda m, msg: got.append(("b", m)))
    overlay.publish(0, "a", "x", None, 100, slot=0)
    sim.run(until=2.0)
    assert all(topic == "a" and member < 5 for topic, member in got)


def test_duplicate_topic_rejected(sim):
    net = make_network(sim)
    overlay = GossipOverlay(net, random.Random(1))
    net.register(0, 0, lambda d: None, None, None)
    overlay.create_topic("t", [0])
    with pytest.raises(ValueError):
        overlay.create_topic("t", [0])


def test_message_size_includes_header():
    msg = GossipMessage("t", "m", None, payload_size=1000)
    assert msg.size > 1000


def test_expire_seen_allows_republication(sim):
    _net, overlay, delivered = make_overlay(sim, members=10)
    overlay.publish(0, "t", "m", None, 100, slot=0)
    sim.run(until=1.0)
    first = len(delivered["m"])
    overlay.expire_seen(1)
    assert overlay.seen_entries() == 0
    overlay.publish(0, "t", "m", None, 100, slot=1)
    sim.run(until=2.0)
    assert len(delivered["m"]) == 2 * first


# ----------------------------------------------------------------------
# degree cap (D_hi bound)
# ----------------------------------------------------------------------
def make_capped_overlay(sim, members=40, degree=4, cap=6):
    net = make_network(sim)
    overlay = GossipOverlay(net, random.Random(1), mesh_degree=degree, degree_cap=cap)
    for member in range(members):
        net.register(
            member,
            member,
            (lambda m: (lambda d: overlay.on_datagram(m, d)))(member),
            None,
            None,
        )
    return net, overlay


def test_degree_cap_bounds_realized_distribution(sim):
    _net, overlay = make_capped_overlay(sim, members=40, degree=4, cap=6)
    overlay.create_topic("t", list(range(40)))
    degrees = [len(overlay.mesh_neighbors("t", m)) for m in range(40)]
    assert max(degrees) <= 6, f"degree cap violated: {max(degrees)}"
    assert min(degrees) >= 1  # connected
    # without the cap the symmetric-GRAFT distribution exceeds D_hi
    _net2, uncapped, _ = make_overlay(sim, members=40, degree=4)
    uncapped_degrees = [len(uncapped.mesh_neighbors("t", m)) for m in range(40)]
    assert max(uncapped_degrees) > 6


def test_degree_cap_mesh_still_floods(sim):
    _net, overlay = make_capped_overlay(sim, members=30, degree=4, cap=5)
    delivered = []
    overlay.create_topic(
        "t", list(range(30)), handler=lambda m, msg: delivered.append(m)
    )
    overlay.publish(0, "t", "m1", None, 500, slot=0)
    sim.run(until=3.0)
    assert set(delivered) == set(range(1, 30))


def test_degree_cap_mesh_stays_symmetric(sim):
    _net, overlay = make_capped_overlay(sim, members=40, degree=4, cap=6)
    overlay.create_topic("t", list(range(40)))
    for member in range(40):
        for neighbor in overlay.mesh_neighbors("t", member):
            assert member in overlay.mesh_neighbors("t", neighbor)


def test_degree_cap_below_mesh_degree_rejected(sim):
    net = make_network(sim)
    with pytest.raises(ValueError):
        GossipOverlay(net, random.Random(1), mesh_degree=8, degree_cap=4)
    overlay = GossipOverlay(net, random.Random(1), mesh_degree=8)
    net.register(0, 0, lambda d: None, None, None)
    net.register(1, 1, lambda d: None, None, None)
    with pytest.raises(ValueError):
        overlay.create_topic("t", [0, 1], degree_cap=2)


def test_uncapped_path_unchanged_by_cap_feature(sim):
    """The legacy graft loop must draw the same RNG sequence: replay
    pins of every pre-existing scenario depend on it."""
    net = make_network(sim)
    a = GossipOverlay(net, random.Random(7), mesh_degree=4)
    b = GossipOverlay(net, random.Random(7), mesh_degree=4, degree_cap=None)
    for member in range(20):
        net.register(member, member, lambda d: None, None, None)
    a.create_topic("t", list(range(20)))
    b.create_topic("t", list(range(20)))
    for member in range(20):
        assert a.mesh_neighbors("t", member) == b.mesh_neighbors("t", member)


# ----------------------------------------------------------------------
# bounded dedup state (sustained multi-slot runs)
# ----------------------------------------------------------------------
def test_expire_seen_drops_only_old_slots(sim):
    _net, overlay, delivered = make_overlay(sim, members=10)
    overlay.publish(0, "t", "m0", None, 100, slot=0)
    sim.run(until=1.0)
    overlay.publish(0, "t", "m1", None, 100, slot=1)
    sim.run(until=2.0)
    before = overlay.seen_entries()
    assert before > 0
    overlay.expire_seen(1)
    assert 0 < overlay.seen_entries() < before
    # slot-1 ids retained: republication is still suppressed
    first = len(delivered["m1"])
    overlay.publish(0, "t", "m1", None, 100, slot=1)
    sim.run(until=3.0)
    assert len(delivered["m1"]) == first
    # slot-0 ids expired: the same msg_id floods again
    count0 = len(delivered["m0"])
    overlay.publish(0, "t", "m0", None, 100, slot=0)
    sim.run(until=4.0)
    assert len(delivered["m0"]) == 2 * count0


def test_retire_member_forgets_all_state(sim):
    _net, overlay, delivered = make_overlay(sim, members=12)
    overlay.publish(0, "t", "m0", None, 100, slot=0)
    sim.run(until=1.0)
    assert 3 in overlay._seen
    overlay.retire_member(3)
    assert 3 not in overlay._seen
    assert 3 not in overlay.topic_members("t")
    assert not overlay.mesh_neighbors("t", 3)
    for member in overlay.topic_members("t"):
        assert 3 not in overlay.mesh_neighbors("t", member)


def test_retired_member_receives_no_forwards(sim):
    _net, overlay, delivered = make_overlay(sim, members=12)
    overlay.retire_member(5)
    overlay.publish(0, "t", "m0", None, 100, slot=0)
    sim.run(until=2.0)
    receivers = {m for m, _t in delivered["m0"]}
    assert 5 not in receivers
    assert receivers == set(range(1, 12)) - {5}
