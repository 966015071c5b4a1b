"""The layer table: where spans are installed and what they add up to.

Layers are this repo's module names. Two kinds of span feed them:

- *event spans*: one per executed simulator event, named by callback
  site (``module:qualname``); ``SITE_BUCKETS`` maps the site's module
  to a bucket, and a site in no listed module lands in ``unmapped`` —
  the hole ``bench.unattributed_share`` reports;
- *wrapper spans*: installed by :func:`install` around the program's
  entry points (class attributes, the two module-level planning
  functions of ``repro.core.fetching``, the transport observer-list
  entries), named directly by bucket.

``_run_round`` is the one private name wrapped: ``AdaptiveFetcher.start``
runs round 1 inline, and without its own span the most expensive round
of every fetcher would be booked as API bookkeeping.

A target that no longer exists is skipped and listed in the traced
result (``wrappers_missing``); its time then shows up in the caller.
"""

from __future__ import annotations

import fnmatch
import gc
import importlib
import resource
import types
from dataclasses import dataclass, field
from typing import Any

from harness.spans import SpanRecorder

__all__ = [
    "EXACT_PER_LAYER",
    "PER_LAYER_METRICS",
    "Installed",
    "count_installed",
    "install",
    "layer_shares",
    "per_layer_metrics",
    "wrap_observers",
]

# bucket <- module of an event's callback site
SITE_BUCKETS = {
    "repro.net.transport": "net.transport.deliver",
    "repro.core.node": "core.node",
    "repro.core.fetching": "core.fetching.round",
    "repro.core.retrieval": "core.retrieval",
    # the probe-launch lambdas PipelineScenario schedules
    "repro.experiments.pipeline": "core.retrieval",
}
UNMAPPED = "unmapped"

# what self time is rolled up to for the share table: the first entry
# a bucket's name starts with
LAYERS = (
    "sim.engine",
    "sim.metrics",
    "net.transport",
    "net.link",
    "net.latency",
    "core.builder",
    "core.node",
    "core.custody",
    "core.fetching",
    "core.assignment",
    "core.reputation",
    "core.retrieval",
    "experiments",
    "python.gc",
    UNMAPPED,
)

# (bucket, module, class or None, attribute patterns). A pattern
# matches plain functions defined on the class itself; names with a
# leading underscore only match when spelled out.
WRAP_TABLE: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("sim.engine.loop", "repro.sim.engine", "Simulator", ("run",)),
    ("sim.engine.schedule", "repro.sim.engine", "Simulator", ("call_at", "call_after")),
    (
        "sim.metrics",
        "repro.sim.metrics",
        "MetricsRecorder",
        ("mark_*", "record_*", "observe_queue_depth"),
    ),
    ("net.transport.send", "repro.net.transport", "Network", ("send",)),
    ("net.link", "repro.net.link", "AccessLink", ("reserve_uplink", "reserve_downlink")),
    ("net.latency", "repro.net.latency", "ClusteredWanModel", ("one_way",)),
    ("core.builder", "repro.core.builder", "Builder", ("seed_slot",)),
    ("core.node", "repro.core.node", "PandasNode", ("on_datagram",)),
    ("core.custody", "repro.core.custody", "SlotCellState", ("add_cells",)),
    ("core.fetching.round", "repro.core.fetching", "AdaptiveFetcher", ("_run_round",)),
    (
        "core.fetching.api",
        "repro.core.fetching",
        "AdaptiveFetcher",
        (
            "start",
            "on_response",
            "add_boost",
            "add_inbound",
            "note_reply",
            "note_external_cells",
            "round_targets",
        ),
    ),
    ("core.fetching.score", "repro.core.fetching", None, ("score_peers",)),
    ("core.fetching.plan", "repro.core.fetching", None, ("plan_queries",)),
    ("core.assignment", "repro.core.assignment", "AssignmentIndex", ("__init__", "*")),
    ("core.assignment", "repro.core.assignment", "CellAssignment", ("custody",)),
    ("core.reputation", "repro.core.reputation", "ReputationLedger", ("*",)),
    ("core.reputation", "repro.core.reputation", "TokenBucket", ("allow",)),
    ("core.retrieval", "repro.core.retrieval", "RetrievalClient", ("fetch_lines", "on_datagram")),
)

# wrapper spans the harness opens itself (not class attributes)
HOOKS = "experiments.hooks"
DRIVER = "experiments.driver"
# collector pauses: not a module of the repo, but a cost its allocation
# behaviour decides, and one that would otherwise land in whichever
# layer happened to allocate when a half-second full collection fired
GC = "python.gc"

# name -> unit, in the order they are printed; BENCHMARK.json's
# per_layer list must name exactly these (the runner checks)
PER_LAYER_METRICS: dict[str, str] = {
    "sim.engine.events": "count",
    "sim.engine.scheduled": "count",
    "sim.engine.loop_self_s": "s",
    "sim.engine.schedule_self_s": "s",
    "sim.engine.cpu_us_per_event": "us",
    "sim.metrics.calls": "count",
    "sim.metrics.self_s": "s",
    "net.transport.sent": "count",
    "net.transport.delivered": "count",
    "net.transport.lost": "count",
    "net.transport.dropped": "count",
    "net.transport.overflowed": "count",
    "net.transport.send_self_s": "s",
    "net.transport.deliver_self_s": "s",
    "net.transport.deliver_events": "count",
    "net.transport.batch_mean": "dgrams/event",
    "net.link.calls": "count",
    "net.link.self_s": "s",
    "net.latency.calls": "count",
    "net.latency.self_s": "s",
    "core.builder.seed_datagrams": "count",
    "core.builder.seed_mb": "MB",
    "core.builder.self_s": "s",
    "core.node.datagrams_in": "count",
    "core.node.verify_events": "count",
    "core.node.self_s": "s",
    "core.custody.add_calls": "count",
    "core.custody.cells_offered": "count",
    "core.custody.cells_new": "count",
    "core.custody.cells_reconstructed": "count",
    "core.custody.new_share": "fraction",
    "core.custody.self_s": "s",
    "core.fetching.rounds": "count",
    "core.fetching.queries_sent": "count",
    "core.fetching.responses_in": "count",
    "core.fetching.useful_response_share": "fraction",
    "core.fetching.round_self_s": "s",
    "core.fetching.api_calls": "count",
    "core.fetching.api_self_s": "s",
    "core.fetching.score_self_s": "s",
    "core.fetching.plan_self_s": "s",
    "core.assignment.calls": "count",
    "core.assignment.self_s": "s",
    "core.reputation.calls": "count",
    "core.reputation.self_s": "s",
    "core.retrieval.probes_issued": "count",
    "core.retrieval.probes_completed": "count",
    "core.retrieval.self_s": "s",
    "experiments.hooks_calls": "count",
    "experiments.hooks_self_s": "s",
    "experiments.driver_self_s": "s",
    "experiments.rss_growth_mb": "MB",
    "python.gc.collections": "count",
    "python.gc.self_s": "s",
    "bench.unattributed_share": "fraction",
    "bench.calibration_s": "s",
}

# per-layer metrics that are counts or ratios of counts: host-independent,
# so they must repeat exactly in every run of the same inputs
EXACT_PER_LAYER = frozenset(
    {name for name, unit in PER_LAYER_METRICS.items() if unit == "count"}
    | {
        "net.transport.batch_mean",
        "core.builder.seed_mb",
        "core.custody.new_share",
        "core.fetching.useful_response_share",
    }
)


@dataclass
class Installed:
    """What :func:`install` did, plus the counts its tallies collect."""

    wrapped: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    cells_offered: int = 0
    cells_new: int = 0
    cells_reconstructed: int = 0
    responses: int = 0
    useful_responses: int = 0
    drops: dict[str, int] = field(default_factory=dict)
    # ru_maxrss (KiB) at each ProtocolContext.begin_slot
    rss_at_slot_begin: list[int] = field(default_factory=list)

    def tally_add_cells(self, args: tuple[Any, ...], result: tuple[int, int]) -> None:
        self.cells_offered += len(args[1])
        self.cells_new += result[0]
        self.cells_reconstructed += result[1]

    def tally_response(self, _args: tuple[Any, ...], result: tuple[int, int]) -> None:
        self.responses += 1
        if result[0] > 0:
            self.useful_responses += 1

    def on_drop(self, _dgram: Any, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1


def _targets():
    """Every (bucket, owner, attribute) the table resolves to today."""
    for bucket, module_name, class_name, patterns in WRAP_TABLE:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name, None)
        label = module_name if class_name is None else f"{module_name}.{class_name}"
        if owner is None:
            yield bucket, None, label, None
            continue
        functions = {
            name: value
            for name, value in vars(owner).items()
            if isinstance(value, types.FunctionType)
        }
        for pattern in patterns:
            if any(ch in pattern for ch in "*?["):
                names = [
                    n for n in functions
                    if fnmatch.fnmatchcase(n, pattern) and not n.startswith("_")
                ]
            else:
                names = [pattern] if pattern in functions else []
                if not names:
                    yield bucket, None, f"{label}.{pattern}", None
            for name in names:
                yield bucket, owner, f"{label}.{name}", name


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every table target. Call before the scenario is built:
    handlers registered at construction capture bound methods."""
    done = Installed()
    tallies = {
        "repro.core.custody.SlotCellState.add_cells": done.tally_add_cells,
        "repro.core.fetching.AdaptiveFetcher.on_response": done.tally_response,
    }
    for bucket, owner, label, name in _targets():
        if owner is None:
            done.missing.append(label)
            continue
        current = getattr(owner, name)
        if hasattr(current, "_perf_span"):
            continue  # matched by an earlier pattern of the same table row
        setattr(owner, name, recorder.wrap(bucket, current, tallies.get(label)))
        done.wrapped.append(label)
    return done


def count_installed() -> int:
    """Table targets currently wrapped (0 in a timed child)."""
    return sum(
        1
        for _bucket, owner, _label, name in _targets()
        if owner is not None and hasattr(getattr(owner, name), "_perf_span")
    )


def wrap_observers(recorder: SpanRecorder, scenario: Any, done: Installed) -> None:
    """Re-wrap the transport observers ``_wire_metrics`` installed, in
    place, and start counting drops by reason, RSS by slot and
    collector pauses (observed only: GC settings stay the program's)."""
    network = scenario.network
    for observers in (network.on_send, network.on_deliver, network.on_drop):
        observers[:] = [recorder.wrap(HOOKS, observer) for observer in observers]
    network.on_drop.append(done.on_drop)

    ctx = scenario.ctx
    begin_slot = ctx.begin_slot

    def begin_slot_sampling_rss(slot: int) -> None:
        done.rss_at_slot_begin.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
        begin_slot(slot)

    ctx.begin_slot = begin_slot_sampling_rss

    clock = recorder.clock
    pause_started = [0.0]

    def on_gc(phase: str, _info: dict[str, int]) -> None:
        if phase == "start":
            pause_started[0] = clock()
        else:
            recorder.add_leaf(GC, pause_started[0], clock())

    gc.callbacks.append(on_gc)


# ----------------------------------------------------------------------
# deriving metrics from a finished traced run
# ----------------------------------------------------------------------
def _bucket_of(span_name: str) -> str:
    if ":" in span_name:
        return SITE_BUCKETS.get(span_name.split(":", 1)[0], UNMAPPED)
    return span_name


def buckets(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """calls / self_s / total_s per bucket (event spans folded in)."""
    out: dict[str, dict[str, float]] = {}
    for name, stats in recorder.stats.items():
        entry = out.setdefault(
            _bucket_of(name), {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        entry["calls"] += stats.calls
        entry["self_s"] += stats.self_s
        entry["total_s"] += stats.total_s
    return out


def layer_shares(bucket_stats: dict[str, dict[str, float]], run_wall_s: float) -> dict[str, float]:
    """Self-time share of the traced run per layer, largest first."""
    shares: dict[str, float] = {}
    for bucket, entry in bucket_stats.items():
        layer = next(layer for layer in LAYERS if bucket.startswith(layer))
        shares[layer] = shares.get(layer, 0.0) + entry["self_s"] / run_wall_s
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def per_layer_metrics(
    recorder: SpanRecorder,
    done: Installed,
    counts: dict[str, float],
    run_wall_s: float,
    run_cpu_s: float,
    rss_end_kib: int,
    calibration_s: float,
) -> dict[str, float]:
    """Every ``PER_LAYER_METRICS`` value of one traced run.

    ``counts`` are the public-attribute counts every run records
    (:func:`harness.measure.public_counts`); the rest comes from spans
    and tallies.
    """
    by_bucket = buckets(recorder)

    def self_s(bucket: str) -> float:
        return by_bucket.get(bucket, {}).get("self_s", 0.0)

    def calls(bucket: str) -> float:
        return by_bucket.get(bucket, {}).get("calls", 0)

    def site_calls(suffix: str) -> int:
        return sum(
            stats.calls
            for name, stats in recorder.stats.items()
            if ":" in name and name.endswith(suffix)
        )

    def calls_of_span(name: str) -> int:
        stats = recorder.stats.get(name)
        return stats.calls if stats else 0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    deliver_events = site_calls("Network._deliver_batch") + site_calls("Network._deliver")
    drops = done.drops
    rss = done.rss_at_slot_begin
    after_first_slot = rss[1] if len(rss) > 1 else rss_end_kib

    values = dict(counts)
    values.update(
        {
            # call_after delegates to call_at, so schedule spans nest:
            # edges count the inner ones, leaving one per scheduled event
            "sim.engine.scheduled": calls_of_span("sim.engine.schedule")
            - recorder.edges.get(("sim.engine.schedule", "sim.engine.schedule"), [0])[0],
            "sim.engine.loop_self_s": self_s("sim.engine.loop"),
            "sim.engine.schedule_self_s": self_s("sim.engine.schedule"),
            "sim.engine.cpu_us_per_event": ratio(run_cpu_s * 1e6, counts["sim.engine.events"]),
            "sim.metrics.calls": calls("sim.metrics"),
            "sim.metrics.self_s": self_s("sim.metrics"),
            "net.transport.lost": drops.get("loss", 0),
            "net.transport.dropped": sum(
                n for reason, n in drops.items() if reason not in ("loss", "overflow")
            ),
            "net.transport.send_self_s": self_s("net.transport.send"),
            "net.transport.deliver_self_s": self_s("net.transport.deliver"),
            "net.transport.deliver_events": deliver_events,
            "net.transport.batch_mean": ratio(
                counts["net.transport.delivered"], deliver_events
            ),
            "net.link.calls": calls("net.link"),
            "net.link.self_s": self_s("net.link"),
            "net.latency.calls": calls("net.latency"),
            "net.latency.self_s": self_s("net.latency"),
            "core.builder.self_s": self_s("core.builder"),
            # the wrapper span alone: event spans of the layer carry site names
            "core.node.datagrams_in": calls_of_span("core.node"),
            "core.node.verify_events": site_calls("PandasNode._deliver_verified"),
            "core.node.self_s": self_s("core.node"),
            "core.custody.add_calls": calls("core.custody"),
            "core.custody.cells_offered": done.cells_offered,
            "core.custody.cells_new": done.cells_new,
            "core.custody.cells_reconstructed": done.cells_reconstructed,
            "core.custody.new_share": ratio(done.cells_new, done.cells_offered),
            "core.custody.self_s": self_s("core.custody"),
            "core.fetching.responses_in": done.responses,
            "core.fetching.useful_response_share": ratio(
                done.useful_responses, done.responses
            ),
            "core.fetching.round_self_s": self_s("core.fetching.round"),
            "core.fetching.api_calls": calls("core.fetching.api"),
            "core.fetching.api_self_s": self_s("core.fetching.api"),
            "core.fetching.score_self_s": self_s("core.fetching.score"),
            "core.fetching.plan_self_s": self_s("core.fetching.plan"),
            "core.assignment.calls": calls("core.assignment"),
            "core.assignment.self_s": self_s("core.assignment"),
            "core.reputation.calls": calls("core.reputation"),
            "core.reputation.self_s": self_s("core.reputation"),
            "core.retrieval.self_s": self_s("core.retrieval"),
            "experiments.hooks_calls": calls(HOOKS),
            "experiments.hooks_self_s": self_s(HOOKS),
            "experiments.driver_self_s": self_s(DRIVER),
            "experiments.rss_growth_mb": (rss_end_kib - after_first_slot) / 1024.0,
            "python.gc.collections": calls(GC),
            "python.gc.self_s": self_s(GC),
            "bench.unattributed_share": ratio(self_s(UNMAPPED), run_wall_s),
            "bench.calibration_s": calibration_s,
        }
    )
    return {name: values[name] for name in PER_LAYER_METRICS}
