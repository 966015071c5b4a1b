"""Figure-runner and report-layer tests (fast, dense-grid versions)."""

from __future__ import annotations


import pytest

from repro.analysis.stats import Distribution
from repro.experiments.figures import (
    run_adaptive_vs_constant,
    run_baseline_comparison,
    run_fault_sweep,
    run_policy_comparison,
    run_scaling,
    run_table1,
)
from repro.experiments.report import PAPER, format_distribution_row, shape_checks
from repro.params import PandasParams


def dense_params():
    return PandasParams(
        base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10
    )


NODES = 40


def test_run_policy_comparison_structure():
    results = run_policy_comparison(
        num_nodes=NODES, seed=3, include_block_gossip=True, params=dense_params()
    )
    for name in ("minimal", "single", "redundant"):
        assert name in results
        assert f"{name}:from_seeding" in results
        assert results[name].sampling.count == NODES
        assert results[name].builder_egress_bytes > 0
    assert results["redundant"].block is not None
    # 9b variant measures from seeding: values must not exceed 9c's
    assert (
        results["redundant:from_seeding"].consolidation.median
        <= results["redundant"].consolidation.median
    )


def test_run_table1_rows():
    table = run_table1(num_nodes=NODES, seed=3, params=dense_params())
    assert 1 in table
    round1 = table[1]
    assert round1["cells_requested"][0] > 0
    assert round1["messages_sent"][0] > 0
    # telemetry keys flushed at slot teardown
    assert "replies_in_round" in round1
    assert "duplicates" in round1


def test_run_adaptive_vs_constant_keys():
    results = run_adaptive_vs_constant(num_nodes=NODES, seed=3, params=dense_params())
    assert set(results) == {"adaptive", "constant"}
    assert results["adaptive"].sampling.fraction_within(4.0) >= results[
        "constant"
    ].sampling.fraction_within(4.0) - 0.2


def test_run_baseline_comparison_keys():
    results = run_baseline_comparison(num_nodes=NODES, seed=3, params=dense_params())
    assert set(results) == {"pandas", "gossipsub", "dht", "peerdas"}
    assert results["pandas"].sampling.fraction_within(4.0) == 1.0
    assert results["peerdas"].sampling.fraction_within(4.0) == 1.0


def test_run_scaling_rejects_unknown_system():
    with pytest.raises(ValueError):
        run_scaling(node_counts=(10,), system="carrier-pigeon")


def test_run_scaling_pandas():
    results = run_scaling(
        node_counts=(30, 45), seed=3, system="pandas", params=dense_params()
    )
    assert set(results) == {30, 45}
    assert results[45].sampling.count == 45


def test_run_fault_sweep_dead():
    results = run_fault_sweep(
        fractions=(0.0, 0.5), fault="dead", num_nodes=NODES, seed=3, params=dense_params()
    )
    # live population shrinks with the dead fraction
    assert results[0.0].sampling.count == NODES
    assert results[0.5].sampling.count == NODES // 2


def test_run_fault_sweep_rejects_unknown_fault():
    with pytest.raises(ValueError):
        run_fault_sweep(fractions=(0.0,), fault="gremlins")


class TestReport:
    def test_format_row_with_paper_reference(self):
        dist = Distribution.from_optional([0.5, 1.0, 1.5])
        row = format_distribution_row("redundant", dist, 4.0, "fig9d.redundant")
        assert "median" in row and "paper" in row

    def test_format_row_without_reference(self):
        dist = Distribution.from_optional([0.5])
        row = format_distribution_row("x", dist, None, None)
        assert "paper" not in row

    def test_format_row_all_misses(self):
        dist = Distribution.from_optional([None, None])
        row = format_distribution_row("x", dist, 4.0)
        assert "miss" in row

    def test_paper_constants_sane(self):
        assert PAPER["fig9d.redundant"]["median"] == pytest.approx(0.882)
        assert PAPER["fig15.dead"]["0.8"] == pytest.approx(0.27)

    def test_shape_checks_buffered(self):
        # under pytest, report output goes to a buffer replayed in the
        # terminal summary (see benchmarks/conftest.py)
        from repro.experiments.report import drain_buffer

        drain_buffer()
        shape_checks([("always true", True), ("always false", False)])
        out = "\n".join(drain_buffer())
        assert "[PASS] always true" in out
        assert "[FAIL] always false" in out
