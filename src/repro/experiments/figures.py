"""Per-figure experiment runners (the evaluation of Section 8).

Each function reproduces one table or figure of the paper and returns
a structured result the benchmark harness prints as paper-vs-measured
rows. Scales default to laptop-friendly node counts; the paper's
scales are reached by raising ``num_nodes`` (the protocol and all
parameters are identical — only population changes).

Experiment index (also in DESIGN.md):

========  =====================================================
Fig. 9    phase-time CDFs for the three seeding policies
Fig. 10   fetch messages / traffic volume distributions
Table 1   per-round fetching telemetry
Fig. 11   adaptive vs constant fetching
Fig. 12   PANDAS vs GossipSub vs DHT at one scale
Fig. 13   PANDAS scaling across node counts
Fig. 14   baseline scaling across node counts
Fig. 15   dead-node and out-of-view fault sweeps
========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.analysis.stats import Distribution
from repro.core.seeding import MinimalSeeding, RedundantSeeding, SeedingPolicy, SingleSeeding
from repro.experiments.scenario import BaseScenario, Scenario, ScenarioConfig
from repro.params import FetchSchedule, PandasParams

__all__ = [
    "AdversarialPoint",
    "PolicyPhases",
    "run_policy_comparison",
    "run_table1",
    "run_adaptive_vs_constant",
    "run_baseline_comparison",
    "run_scaling",
    "run_fault_sweep",
    "run_adversarial_sweep",
    "SEEDING_POLICIES",
]


def SEEDING_POLICIES() -> dict[str, SeedingPolicy]:
    """Fresh instances of the three policies of Figure 6."""
    return {
        "minimal": MinimalSeeding(),
        "single": SingleSeeding(),
        "redundant": RedundantSeeding(8),
    }


@dataclass
class PolicyPhases:
    """Figures 9 & 10 data for one seeding policy."""

    policy: str
    seeding: Distribution
    consolidation: Distribution
    sampling: Distribution
    fetch_messages: Distribution
    fetch_bytes: Distribution
    builder_egress_bytes: float
    block: Distribution | None = None


def _phase_result(scenario: BaseScenario, policy_name: str) -> PolicyPhases:
    phases = scenario.phase_distributions()
    block = None
    if isinstance(scenario, Scenario) and scenario.block_overlay is not None:
        block = scenario.block_distribution()
    return PolicyPhases(
        policy=policy_name,
        seeding=phases.seeding,
        consolidation=phases.consolidation,
        sampling=phases.sampling,
        fetch_messages=scenario.fetch_message_distribution(),
        fetch_bytes=scenario.fetch_bytes_distribution(),
        builder_egress_bytes=scenario.builder_egress_bytes(0),
        block=block,
    )


def _consolidation_from_seeding(scenario: BaseScenario) -> Distribution:
    """Per-node (consolidation - seeding) differences (Figure 9b)."""
    values = []
    for (_slot, node), times in scenario.metrics.phase_times.items():
        if node in scenario.dead_nodes:
            continue
        if times.consolidation is None:
            values.append(None)
        elif times.seeding is None:
            values.append(times.consolidation)
        else:
            values.append(times.consolidation - times.seeding)
    return Distribution.from_optional(values)


def run_policy_comparison(
    num_nodes: int = 300,
    slots: int = 1,
    seed: int = 7,
    include_block_gossip: bool = True,
    params: PandasParams | None = None,
) -> dict[str, PolicyPhases]:
    """Figures 9a-9d and 10: all three seeding policies, same network.

    Returns per-policy phase and traffic distributions; the special key
    ``"<policy>:from_seeding"`` carries the Figure 9b variant.
    """
    results: dict[str, PolicyPhases] = {}
    for name, policy in SEEDING_POLICIES().items():
        config = ScenarioConfig(
            num_nodes=num_nodes,
            slots=slots,
            seed=seed,
            policy=policy,
            include_block_gossip=include_block_gossip,
            params=params if params is not None else PandasParams.full(),
        )
        scenario = Scenario(config).run()
        results[name] = _phase_result(scenario, name)
        results[f"{name}:from_seeding"] = PolicyPhases(
            policy=f"{name}:from_seeding",
            seeding=results[name].seeding,
            consolidation=_consolidation_from_seeding(scenario),
            sampling=results[name].sampling,
            fetch_messages=results[name].fetch_messages,
            fetch_bytes=results[name].fetch_bytes,
            builder_egress_bytes=results[name].builder_egress_bytes,
        )
    return results


def run_table1(
    num_nodes: int = 300,
    slots: int = 1,
    seed: int = 7,
    max_round: int = 4,
    params: PandasParams | None = None,
) -> dict[int, dict[str, tuple[float, float]]]:
    """Table 1: per-round fetching telemetry under the redundant policy."""
    config = ScenarioConfig(
        num_nodes=num_nodes,
        slots=slots,
        seed=seed,
        policy=RedundantSeeding(8),
        params=params if params is not None else PandasParams.full(),
    )
    scenario = Scenario(config).run()
    return scenario.metrics.round_table(max_round)


def run_adaptive_vs_constant(
    num_nodes: int = 300,
    slots: int = 1,
    seed: int = 7,
    params: PandasParams | None = None,
) -> dict[str, PolicyPhases]:
    """Figure 11: PANDAS's schedule vs fixed t=400 ms / k=1."""
    base_params = params if params is not None else PandasParams.full()
    results: dict[str, PolicyPhases] = {}
    for name, schedule in (
        ("adaptive", FetchSchedule()),
        ("constant", FetchSchedule.constant(timeout=0.4, redundancy=1)),
    ):
        config = ScenarioConfig(
            num_nodes=num_nodes,
            slots=slots,
            seed=seed,
            policy=RedundantSeeding(8),
            params=base_params.with_schedule(schedule),
        )
        scenario = Scenario(config).run()
        results[name] = _phase_result(scenario, name)
    return results


def run_baseline_comparison(
    num_nodes: int = 300,
    slots: int = 1,
    seed: int = 7,
    params: PandasParams | None = None,
    faults=None,
) -> dict[str, PolicyPhases]:
    """Figure 12: PANDAS (redundant r=8) vs GossipSub vs DHT vs PeerDAS.

    All four systems share the seeded network construction and the
    same builder egress budget (8x the extended blob). ``faults``
    optionally applies a :class:`repro.faults.plan.FaultPlan` —
    including the PR 2 adversary mixes — identically to every system.
    """
    from repro.baselines.dht_das import DhtDasScenario
    from repro.baselines.gossipsub_das import GossipDasScenario
    from repro.baselines.peerdas_das import PeerDasScenario

    results: dict[str, PolicyPhases] = {}
    pandas_config = ScenarioConfig(
        num_nodes=num_nodes,
        slots=slots,
        seed=seed,
        policy=RedundantSeeding(8),
        params=params if params is not None else PandasParams.full(),
        faults=faults,
    )
    results["pandas"] = _phase_result(Scenario(pandas_config).run(), "pandas")
    results["gossipsub"] = _phase_result(
        GossipDasScenario(pandas_config.with_changes()).run(), "gossipsub"
    )
    results["dht"] = _phase_result(
        DhtDasScenario(pandas_config.with_changes()).run(), "dht"
    )
    results["peerdas"] = _phase_result(
        PeerDasScenario(pandas_config.with_changes()).run(), "peerdas"
    )
    return results


def run_scaling(
    node_counts: Sequence[int] = (100, 200, 400),
    slots: int = 1,
    seed: int = 7,
    system: str = "pandas",
    params: PandasParams | None = None,
) -> dict[int, PolicyPhases]:
    """Figures 13 (system='pandas') and 14 (baselines): size sweeps."""
    from repro.baselines.dht_das import DhtDasScenario
    from repro.baselines.gossipsub_das import GossipDasScenario
    from repro.baselines.peerdas_das import PeerDasScenario

    makers = {
        "pandas": Scenario,
        "gossipsub": GossipDasScenario,
        "dht": DhtDasScenario,
        "peerdas": PeerDasScenario,
    }
    if system not in makers:
        raise ValueError(f"unknown system {system!r}")
    results: dict[int, PolicyPhases] = {}
    for count in node_counts:
        config = ScenarioConfig(
            num_nodes=count,
            slots=slots,
            seed=seed,
            policy=RedundantSeeding(8),
            params=params if params is not None else PandasParams.full(),
        )
        scenario = makers[system](config).run()
        results[count] = _phase_result(scenario, f"{system}@{count}")
    return results


def _mark_sweep_point(tracer, sweep: str, **data) -> None:
    """Separate consecutive sweep points inside one shared trace."""
    if tracer is not None and tracer.enabled("sweep_point"):
        tracer.emit("sweep_point", t=0.0, sweep=sweep, **data)


def run_fault_sweep(
    fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    fault: str = "dead",
    num_nodes: int = 300,
    slots: int = 1,
    seed: int = 7,
    params: PandasParams | None = None,
    tracer=None,
) -> dict[float, PolicyPhases]:
    """Figure 15: dead-node (a) or out-of-view (b) sweeps.

    A ``tracer`` is shared across all sweep points; a ``sweep_point``
    marker event delimits each point's events.
    """
    if fault not in ("dead", "out_of_view"):
        raise ValueError(f"unknown fault type {fault!r}")
    results: dict[float, PolicyPhases] = {}
    for fraction in fractions:
        config = ScenarioConfig(
            num_nodes=num_nodes,
            slots=slots,
            seed=seed,
            policy=RedundantSeeding(8),
            params=params if params is not None else PandasParams.full(),
            dead_fraction=fraction if fault == "dead" else 0.0,
            out_of_view_fraction=fraction if fault == "out_of_view" else 0.0,
            tracer=tracer,
        )
        _mark_sweep_point(tracer, fault, fraction=fraction)
        scenario = Scenario(config).run()
        results[fraction] = _phase_result(scenario, f"{fault}@{fraction:.0%}")
    return results


@dataclass
class AdversarialPoint:
    """One point of the Byzantine-fraction degradation sweep.

    ``analytic_success`` is the :mod:`repro.das.sybil` prediction of a
    single honest node's sampling success if every Byzantine custodian
    served *nothing*. The measured per-node completion rate
    (``sampling_within_deadline``) tracks it: with the node-side
    defenses active, the only honest nodes that miss the deadline are
    those sampling a cell with no honest custodian on either line —
    the censorship event the formula counts. Single-seed runs deviate
    in either direction because honest-free lines arrive in lumps
    (one empty row censors a cell with *every* empty column).
    """

    fraction: float
    behavior: str
    byzantine_count: int
    honest_count: int
    phases: PolicyPhases
    sampling_within_deadline: float
    consolidation_within_deadline: float
    analytic_success: float
    fault_counts: dict[str, float] = field(default_factory=dict)
    defense_counts: dict[str, float] = field(default_factory=dict)


def run_adversarial_sweep(
    fractions: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    behavior: str = "mix",
    num_nodes: int = 300,
    slots: int = 1,
    seed: int = 7,
    params: PandasParams | None = None,
    deadline: float = 4.0,
    tracer=None,
) -> dict[float, AdversarialPoint]:
    """Honest completion vs Byzantine fraction (Section 9 threat model).

    ``behavior`` is one of :data:`repro.faults.plan.BEHAVIORS` or
    ``"mix"``, which splits the fraction evenly across all five
    behaviors. Each point runs the same seeded scenario with that
    share of nodes replaced by :class:`~repro.faults.adversary.
    ByzantineNode` instances; honest-node phase distributions, the
    realized ``byz_*`` fault counters and the triggered defense
    counters are reported next to the analytic bound from
    :func:`repro.das.sybil.sampling_success_probability`.
    """
    from repro.das.sybil import sampling_success_probability
    from repro.faults.plan import BEHAVIORS, AdversarySpec, FaultPlan

    if behavior != "mix" and behavior not in BEHAVIORS:
        raise ValueError(f"unknown adversary behavior {behavior!r}")
    base = params if params is not None else PandasParams.full()
    results: dict[float, AdversarialPoint] = {}
    for fraction in fractions:
        plan = None
        if fraction > 0.0:
            if behavior == "mix":
                specs = tuple(
                    AdversarySpec(behavior=name, share=fraction / len(BEHAVIORS))
                    for name in BEHAVIORS
                )
            else:
                specs = (AdversarySpec(behavior=behavior, share=fraction),)
            plan = FaultPlan(adversaries=specs)
        config = ScenarioConfig(
            num_nodes=num_nodes,
            slots=slots,
            seed=seed,
            policy=RedundantSeeding(8),
            params=base,
            faults=plan,
            tracer=tracer,
        )
        _mark_sweep_point(tracer, behavior, fraction=fraction)
        scenario = Scenario(config).run()
        honest = scenario.honest_live_count
        analytic = sampling_success_probability(
            honest_nodes=honest,
            samples=base.samples,
            custody_lines=base.custody_rows + base.custody_cols,
            total_lines=base.ext_rows + base.ext_cols,
        )
        phases = _phase_result(scenario, f"{behavior}@{fraction:.0%}")
        results[fraction] = AdversarialPoint(
            fraction=fraction,
            behavior=behavior,
            byzantine_count=len(scenario.byzantine),
            honest_count=honest,
            phases=phases,
            sampling_within_deadline=phases.sampling.fraction_within(deadline),
            consolidation_within_deadline=phases.consolidation.fraction_within(deadline),
            analytic_success=analytic,
            fault_counts=dict(scenario.metrics.fault_counts),
            defense_counts=dict(scenario.metrics.defense_counts),
        )
    return results
