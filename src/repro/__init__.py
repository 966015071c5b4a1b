"""PANDAS reproduction: peer-to-peer data availability sampling within
Ethereum consensus timebounds (Middleware 2025).

Public API tour:

- :mod:`repro.params` — Danksharding/PANDAS parameter presets;
- :mod:`repro.core` — the protocol: assignment, seeding policies,
  adaptive fetching, node and builder processes;
- :mod:`repro.experiments` — scenario drivers and per-figure runners;
- :mod:`repro.baselines` — GossipSub and Kademlia DAS baselines;
- :mod:`repro.das` — sampling security math;
- :mod:`repro.crypto`, :mod:`repro.net`, :mod:`repro.gossip`,
  :mod:`repro.dht`, :mod:`repro.sim` — the substrates everything runs on;
- :mod:`repro.erasure` — the byte-level Reed-Solomon codec, the oracle
  the tests check the simulator's reconstruction shortcut against.
"""

from repro.params import DEADLINE_SECONDS, SLOT_SECONDS, FetchSchedule, PandasParams

__version__ = "1.0.0"

__all__ = [
    "DEADLINE_SECONDS",
    "SLOT_SECONDS",
    "FetchSchedule",
    "PandasParams",
    "__version__",
]
