"""RANDAO-style epoch randomness.

Ethereum consensus derives a globally verifiable pseudo-random epoch
seed from validator-contributed randomness, known one epoch (32 slots,
~6.4 minutes) in advance. PANDAS reuses that seed for its cell-to-node
assignment function so the assignment is deterministic across nodes
yet *short-lived and unpredictable* — the property that defeats
eclipse/censorship placement attacks (Section 9: an attacker cannot
crawl ENRs fast enough to position Sybils before the assignment
rotates).

We model the beacon as a seeded hash chain: unpredictable without the
master seed, identical at every honest participant — exactly the
interface the protocol consumes.
"""

from __future__ import annotations

import hashlib

__all__ = ["RandaoBeacon"]


class RandaoBeacon:
    """Deterministic per-epoch seeds derived from a chain genesis seed."""

    def __init__(self, genesis_seed: int) -> None:
        self._genesis = genesis_seed

    def epoch_seed(self, epoch: int) -> int:
        """The 256-bit seed for ``epoch`` (available one epoch early)."""
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        h = hashlib.sha256()
        h.update(b"randao")
        h.update(str(self._genesis).encode())
        h.update(epoch.to_bytes(8, "big"))
        return int.from_bytes(h.digest(), "big")
