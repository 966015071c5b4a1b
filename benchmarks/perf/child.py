"""One benchmark run in a fresh interpreter (spawned by run.py).

``child.py '<job json>'`` builds the job's workload, measures it in the
job's mode and prints one JSON object as its last line of stdout:

- ``setup``: stop once the scenario is constructed (set-up time only);
- ``timed``: run with nothing installed — the end-to-end numbers;
- ``traced``: install the span wrappers first — the per-layer numbers.

Lazy set-up (assignment index, latency rows, per-node slot state) is
paid on every run by every user, so it stays inside the timed region.
GC settings are the program's defaults.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    mode = job["mode"]

    from harness.workloads import WORKLOADS, build_scenario

    workload = WORKLOADS[job["workload"]]
    recorder = installed = profiler = None
    if mode == "traced":
        from harness import layers
        from harness.schema import check
        from harness.spans import EventSpans, SpanRecorder
        from repro.obs.profiler import callback_site

        recorder = SpanRecorder()
        installed = layers.install(recorder)
        profiler = EventSpans(recorder, callback_site)

    scenario = build_scenario(workload, job["seed"], job["smoke"], profiler)
    # child start -> scenario constructed, on the wall clock both
    # processes share: interpreter start and imports are part of it
    setup_s = time.time() - job["spawned_at"]
    if mode == "setup":
        print(json.dumps({"mode": mode, "setup_s": setup_s}))
        return 0

    from harness import measure

    calibration_s = measure.calibrate()
    run = scenario.run
    if recorder is not None:
        layers.wrap_observers(recorder, scenario, installed)
        recorder.reset()
        run = recorder.wrap(layers.DRIVER, run)

    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    run()
    run_wall_s = time.perf_counter() - wall_start
    run_cpu_s = time.process_time() - cpu_start
    # before extraction: fingerprinting builds a repr of everything
    # recorded, which is the harness's memory, not the program's
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    metrics, sizes = measure.simulated_metrics(scenario, workload.pipeline)
    metrics.update(
        setup_s=setup_s,
        slot_cpu_s=run_cpu_s / workload.slots,
        slot_wall_s=run_wall_s / workload.slots,
        peak_rss_mb=rss_kib / 1024.0,
    )
    counts = measure.public_counts(scenario)
    result: dict[str, object] = {
        "mode": mode,
        "metrics": metrics,
        "sizes": sizes,
        "counts": counts,
        "fingerprint": scenario.metrics.fingerprint(),
        "run_cpu_s": run_cpu_s,
        "run_wall_s": run_wall_s,
        "calibration_s": calibration_s,
        "load1": os.getloadavg()[0],
    }

    if recorder is None:
        from harness.layers import count_installed

        result["wrappers_installed"] = count_installed()
    else:
        network = scenario.network
        driver_total_s = recorder.stats[layers.DRIVER].total_s
        covered_s = recorder.covered_s()
        events = sum(s.calls for name, s in recorder.stats.items() if ":" in name)
        sends = recorder.stats["net.transport.send"].calls
        drops = sum(installed.drops.values())
        bucket_stats = layers.buckets(recorder)
        result.update(
            wrappers_installed=len(installed.wrapped),
            wrappers_missing=installed.missing,
            per_layer=layers.per_layer_metrics(
                recorder, installed, counts, run_wall_s, run_cpu_s, rss_kib, calibration_s
            ),
            buckets=bucket_stats,
            layer_shares=layers.layer_shares(bucket_stats, run_wall_s),
            sites={
                name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
                for name, s in recorder.stats.items()
                if ":" in name
            },
            edges=sorted(
                ([parent, child, n, seconds] for (parent, child), (n, seconds) in recorder.edges.items()),
                key=lambda edge: -edge[3],
            ),
            sampled_spans=len(recorder.sampled),
            trace_checks=[
                check(
                    "self times partition the traced run",
                    abs(covered_s - driver_total_s) <= 1e-6 * driver_total_s,
                    f"sum of self {covered_s:.6f}s vs driver span {driver_total_s:.6f}s",
                ),
                check(
                    "one event span per executed event",
                    events == scenario.sim.events_processed,
                    f"{events} spans vs {scenario.sim.events_processed} events",
                ),
                check(
                    "one send span per datagram sent",
                    sends == network.datagrams_sent,
                    f"{sends} spans vs {network.datagrams_sent} sent",
                ),
                check(
                    "drops by reason add up",
                    drops == network.datagrams_lost,
                    f"{drops} observed vs {network.datagrams_lost} lost",
                ),
            ],
        )
        if job.get("trace_path"):
            recorder.write_sampled(
                job["trace_path"],
                {
                    "workload": workload.name,
                    "seed": job["seed"],
                    "smoke": job["smoke"],
                    "sample_every": profiler.sample_every,
                    "clock": "perf_counter",
                    "spans": len(recorder.sampled),
                },
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
