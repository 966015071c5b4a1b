"""Experiment drivers: scenarios, figure runners, paper-vs-measured reporting."""

from repro.experiments.figures import (
    PolicyPhases,
    run_adaptive_vs_constant,
    run_baseline_comparison,
    run_fault_sweep,
    run_policy_comparison,
    run_scaling,
    run_table1,
)
from repro.experiments.scenario import BaseScenario, PhaseDistributions, Scenario, ScenarioConfig

__all__ = [
    "PolicyPhases",
    "run_adaptive_vs_constant",
    "run_baseline_comparison",
    "run_fault_sweep",
    "run_policy_comparison",
    "run_scaling",
    "run_table1",
    "BaseScenario",
    "PhaseDistributions",
    "Scenario",
    "ScenarioConfig",
]
