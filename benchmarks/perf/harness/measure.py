"""What one finished scenario reports: simulated end-to-end metrics and
the counts readable from public attributes (recorded by every run).

Simulated metrics are functions of the run's recorded state alone, so
for a fixed seed they repeat exactly — a host-time optimisation must
leave every one of them bit-identical.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = ["END_TO_END_METRICS", "calibrate", "public_counts", "simulated_metrics"]

# name -> unit, in the order they are printed; BENCHMARK.json's
# end_to_end list must name exactly these (the runner checks). The
# first four are on the host clock and filled in by child.py.
END_TO_END_METRICS: dict[str, str] = {
    "setup_s": "s",
    "slot_cpu_s": "s",
    "slot_wall_s": "s",
    "peak_rss_mb": "MB",
    "deadline_hit_share": "fraction",
    "sampling_p50_ms": "ms",
    "sampling_p95_ms": "ms",
    "consolidation_p95_ms": "ms",
    "fetch_msgs_per_node_p50": "messages",
    "fetch_kb_per_node_p50": "kB",
}


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop: how fast this host is
    right now, in the same currency as ``slot_cpu_s``."""
    start = time.process_time()
    acc = 0
    for i in range(1_500_000):
        acc += (i * i) % 7
    return time.process_time() - start


def _expected_by_slot(scenario: Any, pipeline: bool) -> dict[int, int]:
    """Honest live population of each slot run, as the program reports it."""
    if pipeline:  # membership churns; the report rows carry it per slot
        return {row["slot"]: row["live_nodes"] for row in scenario.report().rows}
    return dict.fromkeys(scenario.ctx.slot_starts, scenario.honest_live_count)


def simulated_metrics(
    scenario: Any, pipeline: bool
) -> tuple[dict[str, float], dict[str, int]]:
    """(metrics, sample sizes) on the simulated clock.

    The deadline share is over every *expected* honest live node-slot:
    a node that never finishes sampling is a miss. Phase percentiles
    are over the node-slots that completed the phase (``n`` says how
    many) — with misses as +inf the upper percentiles of ``dead-400``
    would all be infinite, so the miss share is carried by
    ``deadline_hit_share`` and the tail of the finishers by p95.
    """
    from repro.analysis.stats import percentile  # the runner imports this module without src/

    deadline = scenario.params.deadline
    expected = _expected_by_slot(scenario, pipeline)
    attempted = sum(expected.values())
    sampling: list[float] = []
    consolidation: list[float] = []
    for (slot, node), times in scenario.metrics.phase_times.items():
        if slot not in expected or node in scenario.dead_nodes:
            continue
        if times.sampling is not None:
            sampling.append(times.sampling)
        if times.consolidation is not None:
            consolidation.append(times.consolidation)
    sampling.sort()
    consolidation.sort()
    within = sum(1 for t in sampling if t <= deadline)
    metrics = {
        "deadline_hit_share": within / attempted,
        "sampling_p50_ms": percentile(sampling, 50.0) * 1e3,
        "sampling_p95_ms": percentile(sampling, 95.0) * 1e3,
        "consolidation_p95_ms": percentile(consolidation, 95.0) * 1e3,
        "fetch_msgs_per_node_p50": scenario.fetch_message_distribution().median,
        "fetch_kb_per_node_p50": scenario.fetch_bytes_distribution().median / 1e3,
    }
    sizes = {
        "attempted": attempted,
        "within_deadline": within,
        "sampled": len(sampling),
        "consolidated": len(consolidation),
    }
    return metrics, sizes


def public_counts(scenario: Any) -> dict[str, float]:
    """Counts readable after any run without a wrapper or observer."""
    network = scenario.network
    summary = scenario.metrics.summary()
    round_stats = scenario.metrics.round_stats
    probes = getattr(scenario, "probe_results", [])
    return {
        "sim.engine.events": scenario.sim.events_processed,
        "net.transport.sent": network.datagrams_sent,
        "net.transport.delivered": network.datagrams_delivered,
        "net.transport.overflowed": network.datagrams_overflowed,
        "core.builder.seed_datagrams": summary["builder_messages"],
        "core.builder.seed_mb": summary["builder_bytes"] / 1e6,
        "core.fetching.rounds": len(round_stats),
        "core.fetching.queries_sent": sum(
            stats["messages_sent"] for stats in round_stats.values()
        ),
        "core.retrieval.probes_issued": len(probes),
        "core.retrieval.probes_completed": sum(
            1 for result in probes if result.complete and not result.shed
        ),
    }
