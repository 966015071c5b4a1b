"""Reputation ledger and token-bucket units (the Byzantine defenses)."""

from __future__ import annotations

import pytest

from repro.core.fetching import score_peers
from repro.core.reputation import (
    INVALID_WEIGHT,
    ReputationLedger,
    TokenBucket,
)


class TestReputationWeight:
    def test_unknown_peer_weighs_one(self):
        ledger = ReputationLedger()
        assert ledger.weight(7) == 1.0

    def test_valid_evidence_keeps_full_weight(self):
        ledger = ReputationLedger()
        ledger.record_valid(7, 50)
        assert ledger.weight(7) == 1.0

    def test_invalid_cells_collapse_weight(self):
        ledger = ReputationLedger(prior=8.0)
        ledger.record_invalid(7, 8)
        # weight = 8 / (8 + 8 * INVALID_WEIGHT)
        assert ledger.weight(7) == pytest.approx(8.0 / (8.0 + 8 * INVALID_WEIGHT))
        assert ledger.weight(7) < 0.25

    def test_single_timeout_barely_moves_weight(self):
        ledger = ReputationLedger(prior=8.0)
        ledger.record_timeout(7)
        assert ledger.weight(7) == pytest.approx(8.0 / 9.0)

    def test_valid_evidence_offsets_penalties(self):
        dirty = ReputationLedger()
        dirty.record_invalid(7, 2)
        redeemed = ReputationLedger()
        redeemed.record_invalid(7, 2)
        redeemed.record_valid(7, 40)
        assert redeemed.weight(7) > dirty.weight(7)


class TestQuarantine:
    def test_quarantine_trips_below_threshold(self):
        ledger = ReputationLedger(quarantine_threshold=0.25)
        ledger.observe_epoch(0)
        ledger.record_invalid(7, 8)
        assert ledger.weight(7) < 0.25
        assert ledger.quarantined(7)

    def test_no_quarantine_before_epoch_observed(self):
        # evidence arriving before the first epoch rollover only steers
        ledger = ReputationLedger()
        ledger.record_invalid(7, 20)
        assert not ledger.quarantined(7)

    def test_quarantine_is_epoch_scoped(self):
        ledger = ReputationLedger()
        ledger.observe_epoch(0)
        ledger.record_invalid(7, 20)
        assert ledger.quarantined(7)
        ledger.observe_epoch(1)
        assert not ledger.quarantined(7)

    def test_epoch_rollover_decays_counters(self):
        ledger = ReputationLedger(decay=0.5)
        ledger.observe_epoch(0)
        ledger.record_invalid(7, 4)
        before = ledger.weight(7)
        ledger.observe_epoch(1)
        assert ledger.stats[7].invalid == pytest.approx(2.0)
        assert ledger.weight(7) > before

    def test_observe_same_epoch_is_idempotent(self):
        ledger = ReputationLedger(decay=0.5)
        ledger.observe_epoch(0)
        ledger.record_timeout(7)
        ledger.observe_epoch(0)
        ledger.observe_epoch(0)
        assert ledger.stats[7].timeouts == 1.0

    def test_repeat_offender_requarantined_next_epoch(self):
        ledger = ReputationLedger()
        ledger.observe_epoch(0)
        ledger.record_invalid(7, 20)
        ledger.observe_epoch(1)
        assert not ledger.quarantined(7)  # probation
        ledger.record_invalid(7, 6)  # decayed counters + fresh evidence
        assert ledger.quarantined(7)


class TestQuarantineRedirectsTraffic:
    """The satellite check: reputation demonstrably steers Algorithm 1."""

    def test_weight_drop_reorders_score_peers(self):
        ledger = ReputationLedger()
        ledger.record_invalid(13, 4)
        weights = {peer: ledger.weight(peer) for peer in (12, 13)}
        scores = score_peers(
            candidate_cells={12: {1, 2, 3}, 13: {1, 2, 3}},
            boost={},
            cb_boost=10_000,
            weights=weights,
        )
        # identical holdings, but the liar is out-scored
        assert scores[12] > scores[13]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ReputationLedger(decay=1.5)
        with pytest.raises(ValueError):
            ReputationLedger(quarantine_threshold=1.0)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.allow(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            bucket.allow(0.0)
        assert not bucket.allow(0.0)
        # 0.2 s at 10 tokens/s -> 2 tokens
        assert bucket.allow(0.2)
        assert bucket.allow(0.2)
        assert not bucket.allow(0.2)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        bucket.allow(0.0)
        # a long quiet period refills to burst, not beyond
        assert [bucket.allow(10.0) for _ in range(3)] == [True, True, False]

    def test_clock_never_runs_backwards_refill(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.allow(1.0)
        # an earlier timestamp must not mint tokens
        assert not bucket.allow(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)
