"""Scale-regression suite: the engine's determinism contract at scale.

Two pins protect the engine, the transport and the fetcher at scale:

1. cross-run determinism — the same configuration executed twice is
   bit-identical, at a population large enough to exercise the
   candidate scan and the transport under load;
2. pop order — the event queue fires exactly the uncancelled events
   in sorted ``(time, seq)`` order, ties and lazy cancellation
   included.

The absolute replay anchors live in ``tests/golden/pins.json``
(``tests/test_pins.py``).

``REPRO_SCALE_NODES`` scales the cross-run population (default 250 —
large enough for every fast path, small enough for tier-1); the CI
perf job runs the same tests at 1,000.
"""

from __future__ import annotations

import os
import random

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.params import PandasParams
from repro.sim.engine import Simulator


def scale_nodes(default: int = 250) -> int:
    return int(os.environ.get("REPRO_SCALE_NODES", default))


def reduced_scale_config(**overrides):
    """A population-heavy, grid-reduced config for cross-run pins.

    The 4x-reduced grid keeps per-node work light so the test is
    dominated by population-scaling code paths (candidate scan over
    hundreds of custodians, in-flight datagrams, the event queue).
    """
    defaults = dict(
        num_nodes=scale_nodes(),
        params=PandasParams.reduced(4),
        seed=11,
        slots=1,
        num_vertices=500,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# ----------------------------------------------------------------------
# 1. cross-run determinism at scale
# ----------------------------------------------------------------------
def test_cross_run_determinism_at_scale():
    first = Scenario(reduced_scale_config()).run()
    second = Scenario(reduced_scale_config()).run()
    assert first.metrics.fingerprint() == second.metrics.fingerprint()
    assert first.sim.events_processed == second.sim.events_processed


# ----------------------------------------------------------------------
# 2. pop order
# ----------------------------------------------------------------------
def test_queue_pops_sorted_schedule_randomized():
    """Deterministic random schedule: the queue pops the uncancelled
    events in sorted (time, seq) order, including timestamp ties,
    sub-millisecond clusters and lazily cancelled events."""
    rng = random.Random(1234)
    times = [round(rng.uniform(0.0, 2.0), rng.choice([1, 2, 3, 6])) for _ in range(600)]
    times += [0.5] * 25 + [1.0 / 1024] * 25  # heavy ties
    sim = Simulator()
    popped: list[int] = []
    events = [sim.call_at(t, lambda i=i: popped.append(i)) for i, t in enumerate(times)]
    for event in random.Random(99).sample(events, 100):
        event.cancel()
    sim.run()
    fired = [(events[i].time, events[i].seq) for i in popped]
    live = [(e.time, e.seq) for e in events if not e.cancelled]
    assert len(live) == len(times) - 100
    assert fired == sorted(live)
