"""Run-health telemetry: a fixed family table sampled on sim time.

The trace layer (:mod:`repro.obs.events`) answers "what happened to
this one request"; the metrics recorder (:mod:`repro.sim.metrics`)
answers "what were the end-of-run totals". This module is the layer in
between — the per-run *time series* the paper's distributional claims
(per-phase CDFs, P99s inside the 4 s deadline, backlog/shed dynamics)
are actually made of:

- **one declaration**: :data:`FAMILIES` names every family the series
  carries (``bytes_sent_total{layer="seed"}``): counters, gauges and
  fixed-boundary histograms, at most one label each;
- **counted once**: faults, defenses, sheds and queue drops are views
  of the recorder's counts (:data:`RECORDED`); this module counts only
  what nothing else keeps — traffic by layer, phase completions and
  the three histograms;
- **deterministic histograms**: bin boundaries are chosen up front as
  powers of two (exact in binary floating point, so bucketing is
  platform-independent) and quantile estimates depend only on the
  multiset of observed values — never on insertion order, wall clock
  or RNG;
- a **sim-time cadence sampler**: every ``cadence`` simulated seconds
  the scalar families are appended to ``samples`` as one row, giving
  the backlog/shed/queue-depth time series the sustained pipeline
  reports on.

Events arrive as a subscriber of the run's event bus (:mod:`repro.sim.bus`).

Behavior neutrality is the contract: a ``Telemetry`` instance draws no
RNG, reads no wall clock, and mutates no protocol state. Its sampler
tick is a simulator event, but a read-only one — scheduling it shifts
raw sequence numbers while preserving the relative order of every
protocol event, so ``MetricsRecorder.fingerprint()`` is bit-identical
with telemetry on or off (pinned by tests/test_obs_telemetry.py). The
one wall-clock consumer, the live progress heartbeat, lives in
:mod:`repro.obs.progress`, the one RL002-allowlisted module; this
module itself stays lint-clean.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping
from typing import Any, ClassVar

__all__ = [
    "DEFAULT_CADENCE",
    "DEPTH_BOUNDS",
    "FAMILIES",
    "RECORDED",
    "TIME_BOUNDS",
    "Histogram",
    "Telemetry",
    "flat_name",
    "pow2_bounds",
]

DEFAULT_CADENCE = 0.25  # simulated seconds between samples (exact in binary)


def pow2_bounds(lo: float, hi: float) -> tuple[float, ...]:
    """Log-spaced (base-2) histogram boundaries from ``lo`` to ``hi``.

    Powers of two are exactly representable, so the same value lands in
    the same bucket on every platform and interpreter — the property
    that keeps exported histograms byte-stable across machines.
    """
    if lo <= 0.0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * 2.0)
    return tuple(bounds)


# Latency-shaped quantities: one simulator tick (2^-10 s) up to 16 s,
# past the 12 s slot. Depth-shaped quantities: 1 up to 2^16 entries.
TIME_BOUNDS = pow2_bounds(1.0 / 1024.0, 16.0)
DEPTH_BOUNDS = pow2_bounds(1.0, 65536.0)


class Histogram:
    """Fixed-boundary histogram with deterministic quantile estimates.

    ``counts[i]`` holds values ``v`` with ``bounds[i-1] < v <=
    bounds[i]`` (``counts[0]``: ``v <= bounds[0]``); the final bucket
    is the overflow ``v > bounds[-1]``. Quantiles interpolate linearly
    inside the chosen bucket and clamp the overflow bucket to the top
    boundary, so the estimate is a pure function of the counts.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Iterable[float] = TIME_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bounds must be strictly increasing, got {bounds!r}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    @classmethod
    def from_parts(
        cls, bounds: Iterable[float], counts: Iterable[int], total: float = 0.0
    ) -> Histogram:
        """Rebuild a histogram from its exported parts (health analyzer)."""
        hist = cls(bounds)
        counts = [int(c) for c in counts]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"expected {len(hist.counts)} buckets, got {len(counts)}"
            )
        hist.counts = counts
        hist.count = sum(counts)
        hist.sum = float(total)
        return hist

    def _bucket(self, value: float) -> int:
        # binary search over the (sorted) boundaries: first bound >= value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float, amount: int = 1) -> None:
        self.counts[self._bucket(value)] += amount
        self.count += amount
        self.sum += value * amount

    def _edges(self, bucket: int) -> tuple[float, float]:
        lower = 0.0 if bucket == 0 else self.bounds[bucket - 1]
        upper = self.bounds[min(bucket, len(self.bounds) - 1)]
        return lower, upper

    def quantile(self, q: float) -> float | None:
        """Deterministic quantile estimate in ``[0, 1]`` (None if empty).

        Monotonic in ``q`` by construction: the rank walks the same
        cumulative counts, bucket edges are non-decreasing, and the
        in-bucket interpolation fraction is clamped to ``[0, 1]``.
        """
        if self.count == 0:
            return None
        q = min(1.0, max(0.0, q))
        rank = q * self.count
        cumulative = 0.0
        for bucket, c in enumerate(self.counts):
            if c == 0:
                continue
            previous = cumulative
            cumulative += c
            if cumulative >= rank:
                lower, upper = self._edges(bucket)
                if upper <= lower:
                    return upper
                fraction = min(1.0, max(0.0, (rank - previous) / c))
                return lower + (upper - lower) * fraction
        return self.bounds[-1]

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


def flat_name(name: str, label: str | None, value: str | None) -> str:
    """Flat series key for sample rows: ``name{label=value}`` (or bare name)."""
    return name if label is None else f"{name}{{{label}={value}}}"


# Every family the series carries: name -> (kind, help, label name or
# None). This table is the only declaration; export and the sampler
# walk it in name order.
FAMILIES: dict[str, tuple[str, str, str | None]] = {
    "bytes_sent_total": ("counter", "link bytes by traffic layer", "layer"),
    "datagrams_delivered": ("gauge", "transport datagrams delivered", None),
    "datagrams_lost": ("gauge", "transport datagrams lost", None),
    "datagrams_sent": ("gauge", "transport datagrams sent", None),
    "defense_total": ("counter", "validation-layer defense events", "kind"),
    "events_processed": ("gauge", "simulator events executed so far", None),
    "fault_total": ("counter", "injected faults realized", "kind"),
    "fetch_round_latency_seconds": (
        "histogram", "reply latency within one Algorithm-1 fetch round", "round"
    ),
    "inbox_depth_max": ("gauge", "deepest transport inbox right now", None),
    "inbox_overflows": ("gauge", "datagrams tail-dropped by bounded inboxes", None),
    "live_nodes": ("gauge", "nodes currently registered and alive", None),
    "messages_sent_total": ("counter", "datagrams by traffic layer", "layer"),
    "pending_requests": ("gauge", "buffered requests across nodes", None),
    "phase_completions_total": ("counter", "phase completions", "phase"),
    "phase_deadline_hits_total": (
        "counter", "phase completions at or under the protocol deadline", "phase"
    ),
    "phase_latency_seconds": (
        "histogram", "per-phase completion latency from slot start", "phase"
    ),
    "quarantined_peers": ("gauge", "peer quarantines active across nodes", None),
    "queue_depth": (
        "histogram", "observed depth of bounded queues at observation points", "queue"
    ),
    "queue_drops_total": ("counter", "bounded-queue rejections", "reason"),
    "shed_total": ("counter", "load shed by admission control", "kind"),
}

# Counter families the metrics recorder already keeps: read from it at
# every tick and at export, never counted a second time.
RECORDED: dict[str, str] = {
    "defense_total": "defense_counts",
    "fault_total": "fault_counts",
    "queue_drops_total": "queue_drop_counts",
    "shed_total": "shed_counts",
}


class Telemetry:
    """The run-health series plus its sim-time cadence sampler.

    A subscriber of the run's event bus for the four kinds nothing else
    keeps; faults, defenses, sheds and queue drops are read from the
    run's ``MetricsRecorder`` and gauges from the scenario's
    ``gauges()`` at every tick.
    """

    # the bus events this series consumes
    kinds: ClassVar[frozenset[str]] = frozenset(
        {"net_send", "phase", "fetch_reply", "queue_depth"}
    )

    def __init__(
        self,
        cadence: float = DEFAULT_CADENCE,
        heartbeat: Any | None = None,
    ) -> None:
        if cadence <= 0.0:
            raise ValueError(f"cadence must be positive, got {cadence!r}")
        self.cadence = float(cadence)
        self.heartbeat = heartbeat
        # label value -> count or Histogram, per family this series owns
        self._own: dict[str, dict[str, Any]] = {
            name: {} if kind == "histogram" else defaultdict(float)
            for name, (kind, _help, label) in FAMILIES.items()
            if label is not None and name not in RECORDED
        }
        # the latest sampled value of every gauge family
        self.gauges: dict[str, float] = {}
        self.samples: list[dict[str, float]] = []
        self.meta: dict[str, Any] = {}
        self.deadline: float | None = None
        # sim-time estimate of the run's end (heartbeat ETA only; an
        # inaccurate value merely degrades the printed ETA)
        self.expected_end: float | None = None
        self._builder_id: int | None = None
        self._retrieval_floor: float = math.inf
        self._recorder: Any | None = None
        self._read_gauges: Callable[[], Mapping[str, float]] = dict
        self._sim: Any | None = None
        self.ticks = 0
        self.finalized = False

    def children(self, name: str) -> list[tuple[str | None, Any]]:
        """(label value, value) pairs of one family, sorted by label;
        the label is ``None`` for a gauge, the value a ``Histogram``
        for a histogram family."""
        if FAMILIES[name][0] == "gauge":
            value = self.gauges.get(name)
            return [] if value is None else [(None, value)]
        recorded = RECORDED.get(name)
        if recorded is None:
            return sorted(self._own[name].items())
        if self._recorder is None:
            return []
        return sorted(getattr(self._recorder, recorded).items())

    # ------------------------------------------------------------------
    # run wiring
    # ------------------------------------------------------------------
    def set_run_info(self, **meta: Any) -> None:
        """Attach run metadata (exported in the series meta header)."""
        self.meta.update(meta)
        deadline = meta.get("deadline")
        if deadline is not None:
            self.deadline = float(deadline)

    def install(
        self,
        sim: Any,
        recorder: Any,
        gauges: Callable[[], Mapping[str, float]],
        builder_id: int | None = None,
        retrieval_floor: float = math.inf,
    ) -> None:
        """Attach the cadence sampler to a run.

        ``recorder`` is the run's ``MetricsRecorder`` (the
        :data:`RECORDED` families are read from it); ``gauges`` returns
        the gauge values at each tick. ``builder_id`` is the seed-layer
        source and ``retrieval_floor`` the lowest address of the
        retrieval-client population (pipeline probes live at
        :data:`~repro.experiments.pipeline.PROBE_BASE_ADDRESS` and
        above). The first sample lands one cadence after installation;
        sampler callbacks are read-only, so protocol behavior is
        untouched.
        """
        if self._sim is not None:
            raise RuntimeError("Telemetry is already installed on a simulator")
        self._sim = sim
        self._recorder = recorder
        self._read_gauges = gauges
        self._builder_id = builder_id
        self._retrieval_floor = float(retrieval_floor)
        sim.call_after(self.cadence, self._tick)

    def sample_now(self) -> None:
        """Append one sample row at the current simulated time."""
        sim = self._sim
        if sim is None:
            return
        self.gauges["events_processed"] = float(sim.events_processed)
        for name, value in self._read_gauges().items():
            self.gauges[name] = float(value)
        row: dict[str, float] = {"t": sim.now}
        for name in sorted(FAMILIES):
            kind, _help, label = FAMILIES[name]
            if kind != "histogram":
                for key, value in self.children(name):
                    row[flat_name(name, label, key)] = float(value)
        self.samples.append(row)
        self.ticks += 1

    def _tick(self) -> None:
        self.sample_now()
        sim = self._sim
        heartbeat = self.heartbeat
        if heartbeat is not None:
            heartbeat.maybe_beat(sim.now, sim.events_processed, self.expected_end)
        sim.call_after(self.cadence, self._tick)

    def finalize(
        self, expected_samples: int | None = None, **meta: Any
    ) -> None:
        """Seal the run: record the denominator for deadline-hit rate
        and take a final sample if sim time moved past the last tick."""
        if expected_samples is not None:
            self.meta["expected_samples"] = int(expected_samples)
        self.meta.update(meta)
        sim = self._sim
        if sim is not None and (
            not self.samples or sim.now > self.samples[-1]["t"]
        ):
            self.sample_now()
        self.finalized = True

    # ------------------------------------------------------------------
    # the event bus
    # ------------------------------------------------------------------
    def emit(
        self, kind: str, *, t: float, slot: int = -1, node: int = -1, **data: Any
    ) -> None:
        """Bus entry point: fold one event into the series."""
        own = self._own
        if kind == "net_send":
            layer = self._layer(node, data["dst"], data["payload"])
            own["messages_sent_total"][layer] += 1.0
            own["bytes_sent_total"][layer] += float(data["size"])
        elif kind == "phase":
            phase, at = data["phase"], data["at"]
            _observe(own["phase_latency_seconds"], phase, at, TIME_BOUNDS)
            own["phase_completions_total"][phase] += 1.0
            deadline = self.deadline
            if deadline is not None and at <= deadline:
                own["phase_deadline_hits_total"][phase] += 1.0
        elif kind == "fetch_reply" and node < self._retrieval_floor:
            # node fetchers only: retrieval probes publish on the bus too
            rnd = data["round"]
            label = str(rnd) if rnd <= 4 else "5+"
            _observe(
                own["fetch_round_latency_seconds"], label, data["latency"], TIME_BOUNDS
            )
        elif kind == "queue_depth":
            _observe(own["queue_depth"], data["queue"], data["depth"], DEPTH_BOUNDS)

    def _layer(self, src: int, dst: int, payload: str) -> str:
        """The traffic layer of one datagram.

        Classification is by payload type *name* and the run's
        addresses (the builder; the retrieval-client floor, below which
        no client lives), deliberately avoiding imports from
        ``repro.core`` so this module stays dependency-free.
        """
        if src == self._builder_id or payload == "SeedMessage":
            return "seed"
        if payload == "GossipMessage":
            return "gossip"
        if payload == "CellRequest":
            return "retrieval" if src >= self._retrieval_floor else "fetch"
        if payload == "CellResponse":
            return "retrieval" if dst >= self._retrieval_floor else "fetch"
        return "other"


def _observe(
    children: dict[str, Any], label: str, value: float, bounds: tuple[float, ...]
) -> None:
    hist = children.get(label)
    if hist is None:
        hist = children[label] = Histogram(bounds)
    hist.observe(value)
