"""Dimensional run-health telemetry: counters, gauges, histograms.

The trace layer (:mod:`repro.obs.events`) answers "what happened to
this one request"; the metrics recorder (:mod:`repro.sim.metrics`)
answers "what were the end-of-run totals". This module is the layer in
between — the per-run *time series* the paper's distributional claims
(per-phase CDFs, P99s inside the 4 s deadline, backlog/shed dynamics)
are actually made of:

- a **dimensional registry** of named metrics with label sets
  (``bytes_sent_total{layer="seed"}``): monotonic counters, sampled
  gauges and fixed-boundary histograms;
- **deterministic histograms**: bin boundaries are chosen up front as
  powers of two (exact in binary floating point, so bucketing is
  platform-independent) and quantile estimates depend only on the
  multiset of observed values — never on insertion order, wall clock
  or RNG;
- a **sim-time cadence sampler**: every ``cadence`` simulated seconds
  the registry's scalar state is appended to ``samples`` as one row,
  giving the backlog/shed/queue-depth time series the sustained
  pipeline reports on.

Events arrive as a subscriber of the run's event bus (:mod:`repro.sim.bus`).

Behavior neutrality is the contract: a ``Telemetry`` instance draws no
RNG, reads no wall clock, and mutates no protocol state. Its sampler
tick is a simulator event, but a read-only one — scheduling it shifts
raw sequence numbers while preserving the relative order of every
protocol event, so ``MetricsRecorder.fingerprint()`` is bit-identical
with telemetry on or off (pinned by tests/test_obs_telemetry.py). The
one wall-clock consumer, the live progress heartbeat, lives in
:mod:`repro.obs.progress` behind the same RL002 allowlist as the
profiler; this module itself stays lint-clean.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from typing import Any, ClassVar

__all__ = [
    "DEFAULT_CADENCE",
    "DEPTH_BOUNDS",
    "TIME_BOUNDS",
    "Histogram",
    "Metric",
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

    def merge(self, other: Histogram) -> None:
        """Fold another histogram in; boundaries must match exactly."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum

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


def flat_name(name: str, label_names: tuple[str, ...], key: tuple[str, ...]) -> str:
    """Flat series key for sample rows: ``name{a=x,b=y}`` (or bare name)."""
    if not key:
        return name
    inner = ",".join(f"{n}={v}" for n, v in zip(label_names, key, strict=True))
    return f"{name}{{{inner}}}"


class Metric:
    """One metric family: a name, a kind, and per-label-set children."""

    __slots__ = ("name", "help", "kind", "label_names", "bounds", "_children")

    KINDS = ("counter", "gauge", "histogram")

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: tuple[str, ...] = (),
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self.bounds = tuple(bounds) if bounds is not None else TIME_BOUNDS
        self._children: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.label_names)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if self.kind != "counter":
            raise TypeError(f"{self.name} is a {self.kind}, not a counter")
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount!r}")
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0.0) + amount

    def set(self, value: float, **labels: Any) -> None:
        if self.kind != "gauge":
            raise TypeError(f"{self.name} is a {self.kind}, not a gauge")
        self._children[self._key(labels)] = float(value)

    def observe(self, value: float, **labels: Any) -> None:
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        key = self._key(labels)
        hist = self._children.get(key)
        if hist is None:
            hist = self._children[key] = Histogram(self.bounds)
        hist.observe(value)

    def value(self, **labels: Any) -> float:
        """Current scalar value for one label set (0.0 when unseen)."""
        if self.kind == "histogram":
            raise TypeError(f"{self.name} is a histogram; use child()")
        return float(self._children.get(self._key(labels), 0.0))

    def child(self, **labels: Any) -> Histogram | None:
        """The histogram child for one label set, if observed."""
        got = self._children.get(self._key(labels))
        return got if isinstance(got, Histogram) else None

    def samples(self) -> list[tuple[tuple[str, ...], Any]]:
        """(label-key, value) pairs in sorted label order (deterministic)."""
        return sorted(self._children.items())

    def flat_samples(self) -> list[tuple[str, float]]:
        """Flattened scalar series for sample rows (non-histogram kinds)."""
        if self.kind == "histogram":
            return []
        return [
            (flat_name(self.name, self.label_names, key), float(value))
            for key, value in self.samples()
        ]


class Telemetry:
    """The run-health registry plus its sim-time cadence sampler.

    A subscriber of the run's event bus: every phase completion, shed,
    queue drop, fault and defense lands in dimensional metrics through
    :meth:`emit`, with no per-call-site instrumentation.
    """

    # the bus events this registry consumes
    kinds: ClassVar[frozenset[str]] = frozenset(
        {
            "net_send", "phase", "fetch_reply", "fault", "adversary", "defense",
            "load_shed", "queue_depth", "queue_overflow",
        }
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
        self._metrics: dict[str, Metric] = {}
        self._collectors: list[Callable[[], None]] = []
        self.samples: list[dict[str, float]] = []
        self.meta: dict[str, Any] = {}
        self.deadline: float | None = None
        # sim-time estimate of the run's end (heartbeat ETA only; an
        # inaccurate value merely degrades the printed ETA)
        self.expected_end: float | None = None
        self._builder_id: int | None = None
        self._retrieval_floor: float = math.inf
        self._sim: Any | None = None
        self.ticks = 0
        self.finalized = False
        self._declare_standard()

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: tuple[str, ...],
        bounds: tuple[float, ...] | None = None,
    ) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != labels:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                    f"{existing.label_names}, not {kind}{labels}"
                )
            return existing
        metric = self._metrics[name] = Metric(name, help_text, kind, labels, bounds)
        return metric

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> Metric:
        return self._register(name, help_text, "counter", tuple(labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> Metric:
        return self._register(name, help_text, "gauge", tuple(labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        bounds: Iterable[float] = TIME_BOUNDS,
    ) -> Metric:
        return self._register(
            name, help_text, "histogram", tuple(labels), tuple(bounds)
        )

    @property
    def metrics(self) -> Mapping[str, Metric]:
        return self._metrics

    # shorthands that auto-register on first use (labels inferred)
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self.counter(name, labels=tuple(sorted(labels)))
        metric.inc(amount, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self.gauge(name, labels=tuple(sorted(labels)))
        metric.set(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self.histogram(name, labels=tuple(sorted(labels)))
        metric.observe(value, **labels)

    def _declare_standard(self) -> None:
        """Pre-register the instrumented surface (stable export order,
        correct bucket boundaries, helpful HELP strings)."""
        self.histogram(
            "phase_latency_seconds",
            "per-phase completion latency from slot start",
            ("phase",),
            TIME_BOUNDS,
        )
        self.histogram(
            "fetch_round_latency_seconds",
            "reply latency within one Algorithm-1 fetch round",
            ("round",),
            TIME_BOUNDS,
        )
        self.histogram(
            "queue_depth",
            "observed depth of bounded queues at observation points",
            ("queue",),
            DEPTH_BOUNDS,
        )
        self.counter(
            "phase_completions_total", "phase completions", ("phase",)
        )
        self.counter(
            "phase_deadline_hits_total",
            "phase completions at or under the protocol deadline",
            ("phase",),
        )
        self.counter(
            "bytes_sent_total", "link bytes by traffic layer", ("layer",)
        )
        self.counter(
            "messages_sent_total", "datagrams by traffic layer", ("layer",)
        )
        self.counter("shed_total", "load shed by admission control", ("kind",))
        self.counter(
            "queue_drops_total", "bounded-queue rejections", ("reason",)
        )
        self.counter("fault_total", "injected faults realized", ("kind",))
        self.counter(
            "defense_total", "validation-layer defense events", ("kind",)
        )
        self.gauge("events_processed", "simulator events executed so far")
        self.gauge("inbox_depth_max", "deepest transport inbox right now")
        self.gauge(
            "inbox_overflows", "datagrams tail-dropped by bounded inboxes"
        )
        self.gauge("datagrams_sent", "transport datagrams sent")
        self.gauge("datagrams_delivered", "transport datagrams delivered")
        self.gauge("datagrams_lost", "transport datagrams lost")
        self.gauge("live_nodes", "nodes currently registered and alive")
        self.gauge("quarantined_peers", "peer quarantines active across nodes")
        self.gauge("pending_requests", "buffered requests across nodes")

    # ------------------------------------------------------------------
    # run wiring
    # ------------------------------------------------------------------
    def set_run_info(self, **meta: Any) -> None:
        """Attach run metadata (exported in the series meta header)."""
        self.meta.update(meta)
        deadline = meta.get("deadline")
        if deadline is not None:
            self.deadline = float(deadline)

    def configure_layers(
        self,
        builder_id: int | None = None,
        retrieval_floor: float | None = None,
    ) -> None:
        """Teach traffic-layer classification the run's addresses.

        ``builder_id``: seed-layer source; ``retrieval_floor``: the
        lowest address of the retrieval-client population (pipeline
        probes live at :data:`~repro.experiments.pipeline.
        PROBE_BASE_ADDRESS` and above).
        """
        if builder_id is not None:
            self._builder_id = builder_id
        if retrieval_floor is not None:
            self._retrieval_floor = float(retrieval_floor)

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a per-tick collector (reads state, sets gauges)."""
        self._collectors.append(fn)

    def install(self, sim: Any) -> None:
        """Attach the cadence sampler to a simulator.

        The first sample lands one cadence after installation; sampler
        callbacks are read-only, so protocol behavior is untouched.
        """
        if self._sim is not None:
            raise RuntimeError("Telemetry is already installed on a simulator")
        self._sim = sim
        sim.call_after(self.cadence, self._tick)

    def sample_now(self) -> None:
        """Append one sample row at the current simulated time."""
        sim = self._sim
        if sim is None:
            return
        self.set_gauge("events_processed", float(sim.events_processed))
        for collect in self._collectors:
            collect()
        row: dict[str, float] = {"t": sim.now}
        for name in sorted(self._metrics):
            for flat, value in self._metrics[name].flat_samples():
                row[flat] = value
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
        """Bus entry point: fold one event into the registry."""
        if kind == "net_send":
            layer = self._layer(node, data["dst"], data["payload"])
            self.inc("messages_sent_total", 1.0, layer=layer)
            self.inc("bytes_sent_total", float(data["size"]), layer=layer)
        elif kind == "phase":
            phase, at = data["phase"], data["at"]
            self.observe("phase_latency_seconds", at, phase=phase)
            self.inc("phase_completions_total", phase=phase)
            deadline = self.deadline
            if deadline is not None and at <= deadline:
                self.inc("phase_deadline_hits_total", phase=phase)
        elif kind == "fetch_reply":
            rnd = data["round"]
            label = str(rnd) if rnd <= 4 else "5+"
            self.observe("fetch_round_latency_seconds", data["latency"], round=label)
        elif kind in ("fault", "adversary"):
            self.inc("fault_total", data.get("amount", 1.0), kind=data["fault"])
        elif kind == "defense":
            self.inc("defense_total", data["amount"], kind=data["defense"])
        elif kind == "load_shed":
            self.inc("shed_total", data["amount"], kind=data["shed"])
        elif kind == "queue_depth":
            self.observe("queue_depth", data["depth"], queue=data["queue"])
        elif kind == "queue_overflow":
            self.inc("queue_drops_total", 1.0, reason="inbox_overflow")

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
