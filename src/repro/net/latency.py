"""WAN latency models.

The paper emulates WAN conditions using an all-pair RTT trace measured
on IPFS [43]: 10,000 vertices, round-trip latencies from 8 ms to
438 ms with a 64 ms average. That trace is not redistributable, so we
substitute a synthetic planetary model (``ClusteredWanModel``) that
reproduces its summary statistics and qualitative structure:

- nodes live in geographic *clusters* (think regions/metros) laid out
  on a circle; inter-cluster propagation grows with arc distance;
- every vertex additionally has a heavy-tailed *access latency*
  (last-mile + NAT effects), which produces both the well-connected
  "cloud" vertices the paper places builders in and the 400+ ms tail;
- latencies are symmetric and deterministic given the seed.

Simpler models (constant / uniform) are provided for unit tests.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from typing import Protocol

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ClusteredWanModel",
]


class LatencyModel(Protocol):
    """One-way propagation latency between two topology vertices."""

    num_vertices: int

    def one_way(self, src: int, dst: int) -> float:
        """One-way latency in seconds between vertices ``src``, ``dst``."""
        ...

    def mean_one_way(self, vertex: int) -> float:
        """Average one-way latency from ``vertex`` to all others."""
        ...


class ConstantLatency:
    """Every pair of distinct vertices is ``latency`` seconds apart."""

    def __init__(self, latency: float = 0.02, num_vertices: int = 1024) -> None:
        self.latency = latency
        self.num_vertices = num_vertices

    def one_way(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self.latency

    def mean_one_way(self, vertex: int) -> float:
        return self.latency


class UniformLatency:
    """Latency drawn uniformly per pair, deterministic and symmetric."""

    def __init__(
        self,
        low: float = 0.004,
        high: float = 0.1,
        num_vertices: int = 1024,
        seed: int = 0,
    ) -> None:
        if low > high:
            raise ValueError("low must not exceed high")
        self.low = low
        self.high = high
        self.num_vertices = num_vertices
        self.seed = seed

    def one_way(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        a, b = (src, dst) if src <= dst else (dst, src)
        rng = random.Random((self.seed << 40) ^ (a << 20) ^ b)
        return rng.uniform(self.low, self.high)

    def mean_one_way(self, vertex: int) -> float:
        return (self.low + self.high) / 2.0


class ClusteredWanModel:
    """Synthetic planetary-scale latency matrix (IPFS-trace stand-in).

    Parameters are fitted so the *round-trip* statistics approximate
    the trace used in the paper: min ~8 ms, mean ~64 ms, max ~438 ms.

    Geometry: ``num_clusters`` cluster centers spread on a circle of
    circumference ``max_propagation`` (one-way seconds). A vertex's
    one-way latency to another is::

        access(src) + propagation(arc distance) + access(dst)

    where ``access`` is lognormal (median ~2 ms, occasional 100+ ms
    stragglers) and propagation includes a small intra-cluster floor.
    """

    def __init__(
        self,
        num_vertices: int = 10_000,
        num_clusters: int = 24,
        seed: int = 0,
        access_median: float = 0.0020,
        access_sigma: float = 1.05,
        access_floor: float = 0.0015,
        access_cap: float = 0.085,
        intra_cluster_floor: float = 0.0012,
        max_propagation: float = 0.048,
        straggler_fraction: float = 0.004,
    ) -> None:
        if num_vertices < 1:
            raise ValueError("need at least one vertex")
        self.num_vertices = num_vertices
        self.num_clusters = num_clusters
        self.seed = seed
        self.intra_cluster_floor = intra_cluster_floor
        self.max_propagation = max_propagation

        rng = random.Random(seed)
        # Cluster positions on [0, 1) circle; weights make some regions
        # (big metros) denser than others, like real deployments.
        self._cluster_pos: list[float] = sorted(rng.random() for _ in range(num_clusters))
        weights = [rng.uniform(0.4, 1.0) ** 2 for _ in range(num_clusters)]
        self._vertex_cluster: list[int] = rng.choices(
            range(num_clusters), weights=weights, k=num_vertices
        )
        mu = math.log(access_median)
        self._access: list[float] = []
        for _ in range(num_vertices):
            if rng.random() < straggler_fraction:
                # satellite/NAT-relay stragglers produce the trace's
                # 400+ ms RTT tail
                self._access.append(rng.uniform(0.080, 0.170))
            else:
                self._access.append(
                    min(access_cap, max(access_floor, rng.lognormvariate(mu, access_sigma)))
                )
        self._mean_cache: list[float] | None = None

    # ------------------------------------------------------------------
    def _propagation(self, cluster_a: int, cluster_b: int) -> float:
        if cluster_a == cluster_b:
            return self.intra_cluster_floor
        pos_a = self._cluster_pos[cluster_a]
        pos_b = self._cluster_pos[cluster_b]
        arc = abs(pos_a - pos_b)
        arc = min(arc, 1.0 - arc)  # shorter way around the circle
        return self.intra_cluster_floor + 2.0 * arc * self.max_propagation

    def one_way(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return (
            self._access[src]
            + self._propagation(self._vertex_cluster[src], self._vertex_cluster[dst])
            + self._access[dst]
        )

    def mean_one_way(self, vertex: int) -> float:
        """Mean one-way latency from ``vertex``; O(clusters) per call."""
        if self._mean_cache is None:
            # mean propagation from each cluster weighted by population
            counts = [0] * self.num_clusters
            for c in self._vertex_cluster:
                counts[c] += 1
            total = sum(self._access)
            self._cluster_mean_prop = []
            for a in range(self.num_clusters):
                acc = 0.0
                for b in range(self.num_clusters):
                    acc += counts[b] * self._propagation(a, b)
                self._cluster_mean_prop.append(acc / self.num_vertices)
            self._mean_access = total / self.num_vertices
            self._mean_cache = [
                self._access[v]
                + self._cluster_mean_prop[self._vertex_cluster[v]]
                + self._mean_access
                for v in range(self.num_vertices)
            ]
        return self._mean_cache[vertex]

    # ------------------------------------------------------------------
    def rtt_sample(self, pairs: int = 20_000, seed: int = 1) -> list[float]:
        """Round-trip latencies over random vertex pairs (for validation)."""
        rng = random.Random(seed)
        samples = []
        for _ in range(pairs):
            a = rng.randrange(self.num_vertices)
            b = rng.randrange(self.num_vertices)
            if a == b:
                continue
            samples.append(2.0 * self.one_way(a, b))
        return samples

    def best_connected(self, fraction: float = 0.2) -> Sequence[int]:
        """Vertices in the best ``fraction`` by mean latency to all others.

        The paper places the builder on a vertex randomly selected
        among the 20% with the best average latency ("likely deployed
        in a cloud").
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        order = sorted(range(self.num_vertices), key=self.mean_one_way)
        count = max(1, int(self.num_vertices * fraction))
        return order[:count]
