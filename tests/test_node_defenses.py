"""Node-side validation layer: the defenses of the Byzantine threat model.

Each test crafts hostile datagrams against a MiniWorld node and asserts
the acceptance chain of ``PandasNode.on_datagram``/``_on_response``:
forged seeds and unsolicited responses are rejected outright, cells
never requested are filtered, cells failing KZG verification are
dropped (never stored), floods hit the per-peer token bucket, and
buffered request remainders expire at the sampling deadline.
"""

from __future__ import annotations

import random

import pytest

from repro.core.messages import (
    PRIORITY_RETRIEVAL,
    CellRequest,
    CellResponse,
    SeedMessage,
)
from repro.core.node import _BUCKET_SWEEP_FLOOR
from repro.core.reputation import TokenBucket
from repro.core.retrieval import RetrievalClient
from repro.params import PandasParams
from tests.helpers import make_world


def small_params(**overrides) -> PandasParams:
    return PandasParams(
        base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10, **overrides
    )


class TestSeedValidation:
    def test_forged_seed_rejected(self):
        world = make_world()
        node = world.nodes[0]
        forged = SeedMessage(slot=0, epoch=0, line=0, cells=(1, 2, 3))
        world.network.send(5, 0, forged, forged.wire_size(world.params))
        world.sim.run(until=0.1)
        assert node.slot_cells(0) is None
        assert world.ctx.metrics.defense_counts["seed_forged"] == 1
        assert node.reputation.stats[5].unsolicited == 1

    def test_builder_seed_accepted(self):
        world = make_world()
        node = world.nodes[0]
        seed = SeedMessage(slot=0, epoch=0, line=0, cells=(1, 2, 3))
        world.network.send(world.ctx.builder_id, 0, seed, seed.wire_size(world.params))
        world.sim.run(until=0.1)
        assert node.slot_cells(0) is not None
        assert node.slot_cells(0).has_cell(1)


class TestResponseValidation:
    def test_unsolicited_response_never_creates_state(self):
        world = make_world()
        node = world.nodes[0]
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2))
        world.network.send(5, 0, resp, resp.wire_size(world.params))
        world.sim.run(until=0.1)
        assert node.slot_cells(0) is None
        assert world.ctx.metrics.defense_counts["resp_unsolicited"] == 1
        assert node.reputation.stats[5].unsolicited == 1

    def test_response_from_never_queried_peer_rejected(self):
        world = make_world()
        node = world.nodes[0]
        state = node._slot_state(0)  # slot exists, but peer 5 was never queried
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2))
        world.network.send(5, 0, resp, resp.wire_size(world.params))
        world.sim.run(until=0.1)
        assert not state.cells.has_cell(1)
        assert world.ctx.metrics.defense_counts["resp_unsolicited"] == 1

    def test_unrequested_cells_filtered(self):
        world = make_world()
        node = world.nodes[0]
        state = node._slot_state(0)
        state.fetcher._issue_query(5, frozenset({1, 2}), 1)
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2, 3))
        world.network.send(5, 0, resp, resp.wire_size(world.params))
        world.sim.run(until=0.1)
        assert state.cells.has_cell(1) and state.cells.has_cell(2)
        assert not state.cells.has_cell(3)
        assert world.ctx.metrics.defense_counts["cells_unrequested"] == 1
        assert node.reputation.stats[5].unrequested == 1

    def test_corrupt_cells_dropped_never_stored(self):
        world = make_world()
        node = world.nodes[0]
        state = node._slot_state(0)
        state.fetcher._issue_query(5, frozenset({1, 2}), 1)
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2), invalid=frozenset({1}))
        world.network.send(5, 0, resp, resp.wire_size(world.params))
        world.sim.run(until=0.1)
        assert state.cells.has_cell(2)
        assert not state.cells.has_cell(1)
        assert world.ctx.metrics.defense_counts["cells_invalid"] == 1
        assert node.reputation.stats[5].invalid == 1
        assert node.reputation.stats[5].valid == 1  # cell 2 still credited

    def test_all_corrupt_response_stores_nothing(self):
        world = make_world()
        node = world.nodes[0]
        state = node._slot_state(0)
        state.fetcher._issue_query(5, frozenset({1, 2}), 1)
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2), invalid=frozenset({1, 2}))
        world.network.send(5, 0, resp, resp.wire_size(world.params))
        world.sim.run(until=0.1)
        assert not state.cells.has_cell(1) and not state.cells.has_cell(2)
        assert node.reputation.stats[5].invalid == 2

    def test_late_reply_after_drop_slot_is_stale_not_hostile(self):
        world = make_world()
        node = world.nodes[0]
        state = node._slot_state(0)
        state.fetcher._issue_query(5, frozenset({1}), 1)
        node.drop_slot(0)
        resp = CellResponse(slot=0, epoch=0, cells=(1,))
        world.network.send(5, 0, resp, resp.wire_size(world.params))
        world.sim.run(until=0.1)
        assert world.ctx.metrics.defense_counts["resp_stale"] == 1
        assert 5 not in node.reputation.stats


class TestVerifyCost:
    def test_verification_delay_charged_per_cell(self):
        world = make_world(params=small_params(cell_verify_seconds=0.01))
        node = world.nodes[0]
        state = node._slot_state(0)
        state.fetcher._issue_query(5, frozenset({1, 2}), 1)
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2))
        world.network.send(5, 0, resp, resp.wire_size(world.params))
        # delivery at 0.01 (latency) + 2 cells x 10 ms verify = 0.03
        world.sim.run(until=0.025)
        assert not state.cells.has_cell(1)
        world.sim.run(until=0.035)
        assert state.cells.has_cell(1)

    # the reply arrives at 0.01 (latency) and is verified by 0.03
    @pytest.mark.parametrize(
        ("crash_at", "restart_at", "delivered"),
        [
            pytest.param(0.002, 0.005, True, id="up-again-before-arrival"),
            pytest.param(0.02, None, False, id="down-at-delivery"),
            pytest.param(0.015, 0.025, False, id="down-and-up-while-verifying"),
            pytest.param(0.005, 0.02, False, id="down-at-arrival"),
        ],
    )
    def test_crash_around_verification(self, crash_at, restart_at, delivered):
        """A reply is lost if its receiver was down at any instant from
        its arrival to the end of its verification."""
        world = make_world(params=small_params(cell_verify_seconds=0.01))
        node, network, peer = world.nodes[0], world.network, 99
        network.register(peer, 5, lambda dgram: None, None, None)

        def crash():  # as the fault injector does it
            network.kill(0)
            node.crash()

        def restart():
            network.revive(0)
            node.restart(0)

        node._slot_state(0).fetcher._issue_query(peer, frozenset({1, 2}), 1)
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2))
        network.send(peer, 0, resp, resp.wire_size(world.params))
        world.sim.call_at(crash_at, crash)
        if restart_at is not None:
            world.sim.call_at(restart_at, restart)
        world.sim.run(until=0.1)
        # the incarnation that asked is gone: a delivered reply reaches
        # one that never asked the peer, which records it as unsolicited
        assert (peer in node.reputation.stats) == delivered
        assert world.ctx.metrics.defense_counts.get("resp_unsolicited", 0) == int(delivered)
        cells = node.slot_cells(0)
        assert cells is None or not cells.has_cell(1)

    @pytest.mark.parametrize("client", [False, True])
    def test_one_event_per_reply(self, client):
        """One reply into an idle world is one simulator event, at the
        downlink delivery instant plus the receiver's verify cost: cells
        x ``cell_verify_seconds`` for a node, nothing for a retrieval
        client, which does not verify."""
        world = make_world(params=small_params(cell_verify_seconds=0.01))
        receiver = 0
        if client:
            receiver = 1000
            probe = RetrievalClient(world.ctx, receiver)
            world.network.register(receiver, 0, probe.on_datagram, None, None)
        down_rate = 1e5
        world.network.endpoint(receiver).link.down_rate = down_rate
        delivered_at = []
        world.network.on_deliver.append(lambda dgram: delivered_at.append(world.sim.now))
        resp = CellResponse(slot=0, epoch=0, cells=(1, 2, 3))
        size = resp.wire_size(world.params)
        world.network.send(5, receiver, resp, size)
        before = world.sim.events_processed
        world.sim.run()
        assert world.sim.events_processed - before == 1
        downlink_end = 0.01 + size / down_rate
        verify = 0.0 if client else 3 * 0.01
        assert delivered_at == [pytest.approx(downlink_end + verify, abs=1e-12)]


class TestRateLimiting:
    def test_flood_hits_token_bucket(self):
        world = make_world(
            params=small_params(inbound_msg_rate=1.0, inbound_msg_burst=2.0)
        )
        req = CellRequest(slot=0, epoch=0, cells=frozenset({1}))
        for _ in range(5):
            world.network.send(1, 0, req, req.wire_size(world.params))
        world.sim.run(until=0.1)
        assert world.ctx.metrics.defense_counts["rate_limited"] == 3

    def test_buckets_are_per_peer(self):
        world = make_world(
            params=small_params(inbound_msg_rate=1.0, inbound_msg_burst=2.0)
        )
        req = CellRequest(slot=0, epoch=0, cells=frozenset({1}))
        for src in (1, 2):
            for _ in range(2):
                world.network.send(src, 0, req, req.wire_size(world.params))
        world.sim.run(until=0.1)
        assert "rate_limited" not in world.ctx.metrics.defense_counts

    def test_crash_resets_buckets_and_reputation(self):
        world = make_world(
            params=small_params(inbound_msg_rate=1.0, inbound_msg_burst=2.0)
        )
        node = world.nodes[0]
        req = CellRequest(slot=0, epoch=0, cells=frozenset({1}))
        # 20 drained peers: the 17th bucket meets the floor's sweep,
        # which keeps all 16 drained ones and doubles the mark
        for src in range(1, 21):
            for _ in range(3):
                world.network.send(src, 0, req, req.wire_size(world.params))
        world.sim.run(until=0.1)
        assert len(node._buckets) == 20
        assert node._bucket_sweep_at == 2 * _BUCKET_SWEEP_FLOOR
        node.reputation.record_invalid(9, 5)
        node.crash()
        assert not node._buckets
        assert node._bucket_sweep_at == _BUCKET_SWEEP_FLOOR
        assert node.reputation.weight(9) == 1.0

    def test_pruned_buckets_admit_exactly_as_never_pruned_ones(self):
        """``_admit`` sweeps the buckets that are full again whenever its
        table reaches the sweep mark, and ``drop_slot`` sweeps at slot end.
        A plain ``dict[int, TokenBucket]`` that is never pruned agrees with
        the node on every verdict; where the node still holds a peer's
        bucket the two hold the same tokens, and where it swept one the
        oracle's is full again (refills landing exactly on ``burst``
        included)."""
        params = small_params(inbound_msg_rate=2.0, inbound_msg_burst=3.0)
        world = make_world(params=params)
        node = world.nodes[0]
        oracle: dict[int, TokenBucket] = {}
        rng = random.Random(3)
        verdicts = {True: 0, False: 0}
        admit_sweeps = slot_sweeps = survived = 0
        for step in range(3_000):
            # dyadic gaps hit the full-at-exactly-burst boundary; the
            # others exercise rounding
            gap = rng.choice((0.0, 0.0, 0.125, 0.25, 0.75, rng.random() / 3))
            world.sim.run(until=world.sim.now + gap)
            now = world.sim.now
            if step % 100 == 99:
                node.drop_slot(step)
                slot_sweeps += 1
                survived += len(node._buckets)
            # a few hot peers drain their buckets; 60 others make the
            # table reach its sweep mark
            src = rng.randrange(1, 4) if rng.random() < 0.5 else rng.randrange(4, 65)
            table = node._buckets
            verdict = node._admit(src)
            if node._buckets is not table:
                admit_sweeps += 1
                survived += len(node._buckets) - 1
            bucket = oracle.setdefault(
                src, TokenBucket(params.inbound_msg_rate, params.inbound_msg_burst)
            )
            assert verdict == bucket.allow(now)
            verdicts[verdict] += 1
            for peer, reference in oracle.items():
                held = node._buckets.get(peer)
                if held is None:
                    assert reference.full_at(now)
                else:
                    assert (held.tokens, held._last) == (reference.tokens, reference._last)
        assert admit_sweeps > 0 and slot_sweeps > 0 and survived > 0
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_bucket_table_stays_within_twice_the_drained_ones(self):
        """Under an honest schedule (each peer sends at most ``burst``
        messages at a time) the table never holds more than
        max(2 × drained, floor) + 1 buckets, where drained is the most
        buckets a never-pruned oracle has held drained at once so far;
        the oracle meanwhile keeps every peer."""
        params = small_params(inbound_msg_rate=4.0, inbound_msg_burst=3.0)
        world = make_world(params=params)
        node = world.nodes[0]
        oracle: dict[int, TokenBucket] = {}
        rng = random.Random(11)
        peak_drained = largest = 0
        for _ in range(2_000):
            world.sim.run(until=world.sim.now + rng.random() / 50)
            now = world.sim.now
            src = rng.randrange(1, 1_001)
            bucket = oracle.setdefault(
                src, TokenBucket(params.inbound_msg_rate, params.inbound_msg_burst)
            )
            for _ in range(rng.randrange(1, 4)):
                assert node._admit(src) == bucket.allow(now)
            drained = sum(not b.full_at(now) for b in oracle.values())
            peak_drained = max(peak_drained, drained)
            largest = max(largest, len(node._buckets))
            assert len(node._buckets) <= max(2 * peak_drained, _BUCKET_SWEEP_FLOOR) + 1
        assert len(oracle) > 3 * largest

    def test_crash_resets_retrieval_admission_bucket(self):
        world = make_world(
            params=small_params(retrieval_admit_rate=1.0, retrieval_admit_burst=2.0)
        )
        node = world.nodes[0]
        req = CellRequest(
            slot=0, epoch=0, cells=frozenset({1}), priority=PRIORITY_RETRIEVAL
        )

        def offer_burst(sources) -> None:
            for src in sources:
                world.network.send(src, 0, req, req.wire_size(world.params))
            world.sim.run(until=world.sim.now + 0.1)

        offer_burst((4, 5, 6))  # drains the bucket: two admitted, one shed
        assert world.ctx.metrics.shed_counts["retrieval_admission"] == 1
        node.crash()
        # rate-limit memory is volatile: the restarted node admits a
        # full burst again instead of resuming at the drained level
        offer_burst((7, 8))
        assert world.ctx.metrics.shed_counts["retrieval_admission"] == 1


class TestPendingExpiry:
    """A one-node world: no peers to cascade fetch traffic into, so the
    global defense counters reflect exactly the crafted requests."""

    def test_buffered_remainder_expires_at_deadline(self):
        world = make_world(num_nodes=1)
        node = world.nodes[0]
        node._on_request(9, CellRequest(slot=0, epoch=0, cells=frozenset({1, 2})))
        state = node._slots[0]
        assert state.waiting_by_cell  # buffered, cells not held
        assert state.expiry_timer is not None
        world.sim.run(until=world.params.deadline + 0.1)
        assert not state.waiting_by_cell
        assert state.expiry_timer is None
        assert world.ctx.metrics.defense_counts["pending_expired"] == 1

    def test_request_after_deadline_not_buffered(self):
        world = make_world(num_nodes=1)
        node = world.nodes[0]
        world.sim.run(until=world.params.deadline + 0.5)
        node._on_request(9, CellRequest(slot=0, epoch=0, cells=frozenset({1, 2})))
        state = node._slots[0]
        assert not state.waiting_by_cell
        assert state.expiry_timer is None
        # immediate drops count the unanswerable cells (two here)
        assert world.ctx.metrics.defense_counts["pending_expired"] == 2

    def test_expiry_counts_records_not_cells(self):
        world = make_world(num_nodes=1)
        node = world.nodes[0]
        node._on_request(9, CellRequest(slot=0, epoch=0, cells=frozenset({1, 2, 3, 4})))
        world.sim.run(until=world.params.deadline + 0.1)
        # one buffered request -> one expiry, not four
        assert world.ctx.metrics.defense_counts["pending_expired"] == 1
        assert node._slots[0].expiry_timer is None


class TestOverloadAdmission:
    """Bounded pending buffer + retrieval-class admission (I5's node half)."""

    def _retrieval(self, cells) -> CellRequest:
        return CellRequest(
            slot=0, epoch=0, cells=frozenset(cells), priority=PRIORITY_RETRIEVAL
        )

    def _sampling(self, cells) -> CellRequest:
        return CellRequest(slot=0, epoch=0, cells=frozenset(cells))

    def test_pending_limit_sheds_incoming_retrieval(self):
        world = make_world(num_nodes=1, params=small_params(pending_request_limit=2))
        node = world.nodes[0]
        node._on_request(8, self._retrieval({1}))
        node._on_request(9, self._retrieval({2}))
        node._on_request(10, self._retrieval({3}))  # buffer full: shed
        state = node._slots[0]
        assert state.pending_count == 2
        assert node.pending_depth() == 2
        assert world.ctx.metrics.shed_counts["pending_retrieval"] == 1

    def test_sampling_evicts_retrieval_then_sheds_itself(self):
        world = make_world(num_nodes=1, params=small_params(pending_request_limit=2))
        node = world.nodes[0]
        node._on_request(8, self._retrieval({1}))
        node._on_request(9, self._retrieval({2}))
        # sampling at a full buffer evicts the oldest retrieval record
        node._on_request(10, self._sampling({3}))
        node._on_request(11, self._sampling({4}))
        state = node._slots[0]
        assert state.pending_count == 2
        assert world.ctx.metrics.shed_counts["pending_evicted"] == 2
        # no retrieval victim left: sampling itself is finally shed
        node._on_request(12, self._sampling({5}))
        assert state.pending_count == 2
        assert world.ctx.metrics.shed_counts["pending_sampling"] == 1

    def test_evicted_record_never_answered(self):
        world = make_world(num_nodes=1, params=small_params(pending_request_limit=1))
        node = world.nodes[0]
        victim = self._retrieval({1})
        node._on_request(8, victim)
        node._on_request(9, self._sampling({2}))  # evicts the retrieval record
        # the cell arriving later must only answer the live sampling record
        sent = []
        world.network.on_send.append(lambda d: sent.append(d))
        node._slots[0].cells.add_cells({1, 2})
        world.sim.run(until=0.2)
        assert {d.dst for d in sent} == {9}

    def test_queue_depth_gauge_tracks_high_water(self):
        world = make_world(num_nodes=1, params=small_params(pending_request_limit=8))
        node = world.nodes[0]
        for i, src in enumerate((8, 9, 10)):
            node._on_request(src, self._sampling({i + 1}))
        assert world.ctx.metrics.queue_depth_peaks["pending_requests"] == 3

    def test_unbounded_buffer_still_publishes_its_depth(self):
        """Without a ``pending_request_limit`` nothing is shed, and the
        buffer's depth gauge is published all the same."""
        world = make_world(num_nodes=1)
        node = world.nodes[0]
        for i, src in enumerate((8, 9, 10)):
            node._on_request(src, self._sampling({i + 1}))
        assert node.pending_depth() == 3
        assert world.ctx.metrics.queue_depth_peaks == {"pending_requests": 3}
        assert not world.ctx.metrics.shed_counts

    def test_retrieval_admission_bucket_is_aggregate(self):
        world = make_world(
            params=small_params(retrieval_admit_rate=1.0, retrieval_admit_burst=2.0)
        )
        req = self._retrieval({1})
        for src in (4, 5, 6, 7):  # distinct peers share the one bucket
            world.network.send(src, 0, req, req.wire_size(world.params))
        world.sim.run(until=0.1)
        assert world.ctx.metrics.shed_counts["retrieval_admission"] == 2
        assert "rate_limited" not in world.ctx.metrics.defense_counts

    def test_sampling_requests_skip_retrieval_bucket(self):
        world = make_world(
            params=small_params(retrieval_admit_rate=1.0, retrieval_admit_burst=1.0)
        )
        req = self._sampling({1})
        for src in (4, 5, 6, 7):
            world.network.send(src, 0, req, req.wire_size(world.params))
        world.sim.run(until=0.1)
        assert "retrieval_admission" not in world.ctx.metrics.shed_counts
