"""RL001 negative fixture: retry-backoff jitter from a seeded stream.

This mirrors the retry backoff of ``AdaptiveFetcher.plan_round``: the
jitter draw comes from the fetcher's own ``random.Random`` handed out
by ``RngRegistry.stream(...)``, so a replay with the same seed
produces the same wave times bit-for-bit.
"""

import random


class Retrier:
    def __init__(self, rng: random.Random, base: float, multiplier: float) -> None:
        self.rng = rng  # an RngRegistry.stream(...) instance
        self.base = base
        self.multiplier = multiplier
        self.waves = 0

    def next_backoff(self) -> float:
        self.waves += 1
        delay = self.base * self.multiplier**self.waves
        return delay * (1.0 + 0.5 * self.rng.random())
