"""Seeded random-number stream management.

Reproducible distributed-systems simulations need *independent* RNG
streams per component: if the network and the protocol shared one
stream, changing a seeding policy would perturb packet-loss draws and
the comparison between policies would be noise, not signal.

``RngRegistry`` derives one ``random.Random`` per label from a master
seed with a stable hash, so the loss process, the latency placement,
each node's sampling choices, etc., are all decoupled.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry", "STREAM_OWNERS", "derive_seed"]

# Stream-ownership registry: the first label of every named stream maps
# to the module(s) allowed to draw from it (path suffixes relative to
# the source root). Stream independence is only as good as stream
# *ownership* — two components quietly sharing the "samples" stream
# would re-couple their draws and make every A/B comparison noise.
# reprolint rule RL008 enforces this mapping statically; add the label
# here (with its owner) before drawing from a new stream.
STREAM_OWNERS: dict[str, tuple[str, ...]] = {
    "faults": ("faults/adversary.py", "faults/injector.py"),
    "dht-boot": ("baselines/dht_das.py",),
    "samples": (
        "core/node.py",
        "baselines/dht_das.py",
        "baselines/gossipsub_das.py",
    ),
    "fetch": ("core/node.py", "baselines/gossipsub_das.py"),
    "gossip-mesh": ("baselines/gossipsub_das.py",),
    "peerdas-fallback": ("baselines/peerdas_das.py",),
    "peerdas-mesh": ("baselines/peerdas_das.py",),
    "churn": ("experiments/pipeline.py",),
    "churn-topology": ("experiments/pipeline.py",),
    "loss": ("experiments/scenario.py",),
    "topology": ("experiments/scenario.py",),
    "dead": ("experiments/scenario.py",),
    "view": ("experiments/scenario.py",),
    "block-mesh": ("experiments/scenario.py",),
    "proposer": ("experiments/scenario.py",),
    "pipeline-probe-topology": ("experiments/pipeline.py",),
    "pipeline-probe": ("experiments/pipeline.py",),
    "retrieval": ("core/retrieval.py",),
    "seeding": ("core/builder.py",),
}


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from a master seed and labels.

    Uses SHA-256 so that nearby master seeds or labels do not produce
    correlated children (Python's ``hash`` is neither stable across
    runs with strings nor collision-careful).
    """
    h = hashlib.sha256()
    h.update(str(master_seed).encode())
    for label in labels:
        h.update(b"\x1f")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest()[:8], "big")


class RngRegistry:
    """Lazily creates independent named ``random.Random`` streams."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: dict[tuple[str, ...], random.Random] = {}

    def stream(self, *labels: object) -> random.Random:
        """Return the RNG for ``labels``, creating it on first use."""
        key = tuple(repr(label) for label in labels)
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, *labels))
            self._streams[key] = rng
        return rng

    def fork(self, *labels: object) -> RngRegistry:
        """Return a child registry with an independent master seed."""
        return RngRegistry(derive_seed(self.master_seed, "fork", *labels))
