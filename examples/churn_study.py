#!/usr/bin/env python3
"""Churn study: DAS under continuous membership turnover.

The paper's fault experiments are static; this extension runs slots
while nodes continuously leave and join, with views that lag reality
by a configurable number of slots (stale DHT crawls). It answers the
question Section 8.2 gestures at: how quickly do lagging views erode
the 4-second guarantee, and does the network recover once crawls
catch up?

Run:  python examples/churn_study.py
"""

from repro.core.seeding import RedundantSeeding
from repro.experiments import ScenarioConfig
from repro.experiments.pipeline import PipelineScenario
from repro.params import PandasParams


def run(churn_fraction: float, view_lag_slots: int, slots: int = 4):
    config = ScenarioConfig(
        num_nodes=80,
        # sparser custody (5 custodians/line) and lighter seeding than
        # the defaults, so churn pressure is visible at this scale
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=2, custody_cols=2, samples=10
        ),
        policy=RedundantSeeding(4),
        seed=6,
        slots=slots,
        num_vertices=500,
    )
    # churn alone: no retrieval probes
    scenario = PipelineScenario(
        config,
        churn_fraction=churn_fraction,
        view_lag_slots=view_lag_slots,
        probes_per_slot=0,
    )
    scenario.run()
    return scenario.deadline_hit_by_slot()


def main() -> None:
    print("Per-slot fraction of live nodes sampling within 4 s")
    print("(80 nodes, churn applied at every slot boundary)\n")
    print(f"{'churn':>7} {'view lag':>9} | " + " ".join(f"slot {s}" for s in range(4)))
    for churn in (0.0, 0.2, 0.4):
        for lag in (0, 2):
            completion = run(churn, lag)
            row = " ".join(f"{100 * completion.get(s, 0):5.1f}%" for s in range(4))
            print(f"{churn:>6.0%} {lag:>9} | {row}")
    print()
    print("Reading: with fresh views (lag 0) churn does not register at this")
    print("scale — the deterministic assignment gives joiners custody at once")
    print("and the builder seeds them. With views two slots stale, nodes query")
    print("departed peers and cannot see joiners: PANDAS's redundancy absorbs")
    print("20% turnover per slot entirely, and at 40% completion first dips in")
    print("slot 3, after three churn rounds — the dynamic version of Figure")
    print("15's out-of-view scenario.")

if __name__ == "__main__":
    main()
