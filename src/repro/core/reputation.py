"""Per-peer reputation, quarantine and inbound rate limiting.

The PANDAS wire protocol is trust-free at the datagram level: one-way
UDP, no handshakes, no NACKs. Under a Byzantine adversary (corrupt
responders, flooders, withholders — see :mod:`repro.faults.adversary`)
a node therefore needs local, evidence-based defenses:

- :class:`ReputationLedger` keeps per-peer counters of *valid* cells
  served vs. *invalid* (failed KZG verification), *timeouts* (queried,
  never answered), *unsolicited* responses and *unrequested* cells.
  The counters fold into a score in ``(0, 1]`` that multiplies into
  Algorithm 1's ``score_peers`` — a lying peer's queries are steered
  elsewhere long before it is formally excluded. A peer whose score
  falls below the quarantine threshold is excluded from query plans
  for the remainder of the current epoch; the epoch rollover (which
  also rotates the assignment ``S``) decays all counters, giving the
  peer a probation window in the next epoch.

- :class:`TokenBucket` bounds inbound request/response datagrams per
  peer. Honest peers send a handful of messages per slot (a node is
  queried at most once per slot, and answers with at most one
  immediate plus one deferred reply), so generous defaults never touch
  honest traffic while flattening garbage flooders. A bucket that has
  refilled equals a fresh one, so a node keeps buckets only for the
  peers it heard from recently, not for every peer it ever heard from.

Everything here is deterministic and allocation-light: no randomness,
no timers — decay is applied lazily at epoch observation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PeerStats", "ReputationLedger", "TokenBucket"]

# Relative weight of each kind of bad evidence. Invalid cells are the
# strongest signal (they prove active misbehaviour: a valid proof
# cannot fail verification by accident); unsolicited traffic is
# spoofable in principle but costly to sustain; timeouts are the
# weakest (the protocol legitimately answers late via deferred
# replies), so they only ever *steer* queries, not quarantine a peer
# on their own.
INVALID_WEIGHT = 8.0
UNSOLICITED_WEIGHT = 2.0
UNREQUESTED_WEIGHT = 2.0
TIMEOUT_WEIGHT = 1.0


@dataclass(slots=True)
class PeerStats:
    """Decaying evidence counters for one peer."""

    valid: float = 0.0
    invalid: float = 0.0
    timeouts: float = 0.0
    unsolicited: float = 0.0
    unrequested: float = 0.0

    def decay(self, factor: float) -> None:
        self.valid *= factor
        self.invalid *= factor
        self.timeouts *= factor
        self.unsolicited *= factor
        self.unrequested *= factor

    @property
    def penalty(self) -> float:
        return (
            INVALID_WEIGHT * self.invalid
            + UNSOLICITED_WEIGHT * self.unsolicited
            + UNREQUESTED_WEIGHT * self.unrequested
            + TIMEOUT_WEIGHT * self.timeouts
        )


class ReputationLedger:
    """One node's memory of how its peers behaved.

    Counters decay by ``decay`` at every epoch rollover; a peer whose
    score falls below ``quarantine_threshold`` is quarantined (excluded
    from query plans) for the rest of the epoch. ``prior`` is the
    pseudo-count of good evidence every peer starts with: an unknown
    peer weighs 1.0, and a single timeout barely moves it, while a
    burst of invalid cells collapses it quickly.
    """

    def __init__(
        self,
        decay: float = 0.5,
        quarantine_threshold: float = 0.25,
        prior: float = 8.0,
    ) -> None:
        if not 0.0 <= decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {decay}")
        if not 0.0 <= quarantine_threshold < 1.0:
            raise ValueError(
                f"quarantine_threshold must be in [0, 1), got {quarantine_threshold}"
            )
        self.decay = decay
        self.quarantine_threshold = quarantine_threshold
        self.prior = prior
        self.stats: dict[int, PeerStats] = {}
        # peer -> epoch for which it is quarantined; expiry is implicit
        # (the entry stops matching once the epoch advances)
        self.quarantined_in: dict[int, int] = {}
        self._epoch: int | None = None

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------
    def observe_epoch(self, epoch: int) -> None:
        """Apply decay once per epoch advance (lazy, idempotent).

        Quarantines are scoped to the epoch they tripped in, so
        advancing the epoch also ends them: the assignment ``S`` has
        rotated and the peer gets a probation window with softened
        counters.
        """
        if self._epoch is None:
            self._epoch = epoch
            return
        while self._epoch < epoch:
            self._epoch += 1
            for stats in self.stats.values():
                stats.decay(self.decay)

    @property
    def epoch(self) -> int | None:
        return self._epoch

    # ------------------------------------------------------------------
    # evidence
    # ------------------------------------------------------------------
    def _peer(self, peer: int) -> PeerStats:
        stats = self.stats.get(peer)
        if stats is None:
            stats = PeerStats()
            self.stats[peer] = stats
        return stats

    def record_valid(self, peer: int, count: int = 1) -> None:
        self._peer(peer).valid += count

    def record_invalid(self, peer: int, count: int = 1) -> None:
        self._peer(peer).invalid += count
        self._maybe_quarantine(peer)

    def record_timeout(self, peer: int) -> None:
        self._peer(peer).timeouts += 1
        self._maybe_quarantine(peer)

    def record_unsolicited(self, peer: int, count: int = 1) -> None:
        self._peer(peer).unsolicited += count
        self._maybe_quarantine(peer)

    def record_unrequested(self, peer: int, count: int = 1) -> None:
        self._peer(peer).unrequested += count
        self._maybe_quarantine(peer)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def weight(self, peer: int) -> float:
        """Score multiplier in ``(0, 1]``; 1.0 for unknown/clean peers."""
        stats = self.stats.get(peer)
        if stats is None:
            return 1.0
        good = self.prior + stats.valid
        return good / (good + stats.penalty)

    def quarantined(self, peer: int) -> bool:
        if self._epoch is None:
            return False
        return self.quarantined_in.get(peer) == self._epoch

    def quarantined_count(self) -> int:
        """Peers quarantined for the current epoch (telemetry gauge)."""
        if self._epoch is None:
            return 0
        epoch = self._epoch
        return sum(1 for e in self.quarantined_in.values() if e == epoch)

    def _maybe_quarantine(self, peer: int) -> None:
        if self._epoch is None:
            return
        if self.weight(peer) < self.quarantine_threshold:
            self.quarantined_in[peer] = self._epoch


class TokenBucket:
    """A classic token bucket over the simulation clock.

    ``rate`` tokens accrue per second up to ``burst``; each admitted
    message spends ``cost``. Refill happens lazily on :meth:`allow`, so
    the bucket needs no timers and is exactly reproducible.

    A node keeps one per peer whose bucket is still drained, plus those
    that refilled since its table was last swept; a sweep sets the next
    one at twice what it kept (``PandasNode._admit``). ``__slots__``
    keeps each small.
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0.0 or burst <= 0.0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = 0.0

    def full_at(self, now: float) -> bool:
        """Would :meth:`allow` at ``now`` find the bucket full?

        Exactly then, and at every later time, the bucket behaves bit
        for bit like a fresh one: refill clamps both to ``burst`` and
        ``allow`` then stamps the same ``_last``.
        """
        return self.tokens + (now - self._last) * self.rate >= self.burst

    def allow(self, now: float, cost: float = 1.0) -> bool:
        if now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
            self._last = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False
