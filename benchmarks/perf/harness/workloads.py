"""The benchmark's workloads: name -> generated scenario inputs.

``--seed`` is consumed here and nowhere else: it seeds the WAN latency
world (``ScenarioConfig.latency``: cluster layout and every vertex's
access latency), which moves every message's timing and through it the
loss draws, round counts and completion times. The program's own RNG
root (``ScenarioConfig.seed``: assignment beacon, placement, samples,
dead and churning nodes) is held at ``WORLD_SEED`` — at 260-500 nodes
the beacon's custody-coverage luck alone moves the event count by
+-20% (131k-203k events for slot-300 over seeds 1-10), noise that at
the paper's 20,000 nodes would be under 1% and that no 10% bound could
see through. ``--seed 7`` reproduces ``ScenarioConfig(seed=7)`` exactly.
The program itself only ever sees the generated config.

Why each workload exists is recorded in ``BENCHMARK.json`` (one line)
and ``README.md`` (one paragraph); this module only says what it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["WORKLOADS", "Workload", "build_scenario"]

WORLD_SEED = 7
LATENCY_VERTICES = 2_000  # ScenarioConfig.num_vertices' default

# --smoke replaces every workload's population and grid with this
# (the harness self-tests' scale); kind, dead fraction, slots and
# churn are kept, so every code path of the full workload still runs.
SMOKE_NODES = 60
SMOKE_GRID_REDUCTION = 32


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    slots: int = 1
    dead_fraction: float = 0.0
    pipeline: bool = False

    def population(self, smoke: bool) -> int:
        return SMOKE_NODES if smoke else self.nodes

    def expected_node_slots(self, smoke: bool) -> int:
        """Honest live node-slots the run must account for.

        Mirrors ``BaseScenario._pick_dead_nodes`` rounding; pipeline
        churn replaces every leaver with a joiner, so its population is
        constant across slots.
        """
        nodes = self.population(smoke)
        return (nodes - int(round(self.dead_fraction * nodes))) * self.slots


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("slot-300", nodes=300),
        Workload("slot-500", nodes=500),
        Workload("dead-400", nodes=400, dead_fraction=0.4),
        Workload("pipeline-260x3", nodes=260, slots=3, pipeline=True),
    )
}

# `repro pipeline` CLI defaults, plus the workload's own knobs
PIPELINE_MAX_INBOX = 4096
PIPELINE_PENDING_LIMIT = 256
PIPELINE_CHURN = 0.1
PIPELINE_RETENTION = 2
PIPELINE_PROBES = 8


def build_scenario(workload: Workload, seed: int, smoke: bool, profiler=None):
    """Construct the workload's scenario (not yet run)."""
    from repro.core.seeding import RedundantSeeding
    from repro.experiments.scenario import Scenario, ScenarioConfig
    from repro.net.latency import ClusteredWanModel
    from repro.params import PandasParams, RetryPolicy

    params = (
        PandasParams.reduced(SMOKE_GRID_REDUCTION) if smoke else PandasParams.full()
    )
    config = ScenarioConfig(
        num_nodes=workload.population(smoke),
        params=params,
        policy=RedundantSeeding(8),
        seed=WORLD_SEED,
        latency=ClusteredWanModel(num_vertices=LATENCY_VERTICES, seed=seed),
        slots=workload.slots,
        dead_fraction=workload.dead_fraction,
        profiler=profiler,
    )
    if not workload.pipeline:
        return Scenario(config)

    from repro.experiments.pipeline import PipelineScenario

    config = config.with_changes(
        params=replace(
            params,
            fetch_retry=RetryPolicy(),
            pending_request_limit=PIPELINE_PENDING_LIMIT,
        ),
        max_inbox=PIPELINE_MAX_INBOX,
    )
    return PipelineScenario(
        config,
        churn_fraction=PIPELINE_CHURN,
        retention_slots=PIPELINE_RETENTION,
        probes_per_slot=PIPELINE_PROBES,
    )
