"""DetSan, the runtime determinism sanitizer.

Fast paths (variant matrix, first-divergence diff, divergence
reporting) are tested in-process with synthetic traces; one smoke test
actually drives the subprocess worker protocol end-to-end on the
cheapest scenario. The full two-scenario, three-hash-seed matrix runs
in the dedicated ``detsan-smoke`` CI job, not here.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.analysis import detsan
from repro.analysis.detsan import (
    DetSanReport,
    Divergence,
    RunResult,
    Variant,
    default_variants,
    diff_traces,
)


def write_trace(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


EV1 = {"t": 0.1, "kind": "fetch_start", "node": 3}
EV2 = {"t": 0.2, "kind": "fetch_done", "node": 3}
EV2_DIVERGED = {"t": 0.2, "kind": "fetch_done", "node": 4}


class TestVariantMatrix:
    def test_default_matrix_shape(self):
        variants = default_variants((0, 1, 2))
        assert [v.name for v in variants] == [
            "baseline",
            "baseline",
            "baseline",
            "telemetry-on",
        ]
        assert [v.hash_seed for v in variants[:3]] == [0, 1, 2]
        assert not any(v.telemetry for v in variants[:3])
        # the telemetry toggle runs under the first hash seed
        assert variants[3].hash_seed == 0
        assert variants[3].telemetry

    def test_scenarios_registered(self):
        assert set(detsan.SCENARIOS) == {"pandas-100", "pipeline-3"}


class TestDiff:
    def test_identical_traces(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [EV1, EV2])
        write_trace(b, [EV1, EV2])
        assert diff_traces(str(a), str(b)) is None

    def test_first_divergence_located(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [EV1, EV2])
        write_trace(b, [EV1, EV2_DIVERGED])
        index, base, dev = diff_traces(str(a), str(b))
        assert index == 1
        assert base == EV2 and dev == EV2_DIVERGED

    def test_truncated_trace_diverges_at_the_end(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [EV1, EV2])
        write_trace(b, [EV1])
        index, base, dev = diff_traces(str(a), str(b))
        assert index == 1
        assert base == EV2
        assert dev == {"kind": "<end of trace>"}


class TestDivergenceReporting:
    def _results(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [EV1, EV2])
        write_trace(b, [EV1, EV2_DIVERGED])
        base = RunResult(Variant("baseline"), "aaaa", 100, str(a))
        dev = RunResult(Variant("telemetry-on", telemetry=True), "bbbb", 100, str(b))
        return base, dev

    def test_check_scenario_reports_divergence(self, tmp_path, monkeypatch):
        base, dev = self._results(tmp_path)
        results = iter([base, dev])
        monkeypatch.setattr(
            detsan,
            "run_scenario_once",
            lambda scenario, variant, trace_dir, index: next(results),
        )
        report = DetSanReport()
        detsan._check_scenario(
            "pandas-100",
            [base.variant, dev.variant],
            str(tmp_path),
            report,
            lambda line: None,
        )
        assert not report.ok
        [divergence] = report.divergences
        assert divergence.event_index == 1
        text = divergence.describe()
        assert "fingerprint diverged under telemetry-on" in text
        assert "first divergence at trace event #1" in text
        assert '"node": 4' in text

    def test_matching_fingerprints_are_ok(self, tmp_path, monkeypatch):
        base, dev = self._results(tmp_path)
        dev.fingerprint = base.fingerprint
        results = iter([base, dev])
        monkeypatch.setattr(
            detsan,
            "run_scenario_once",
            lambda scenario, variant, trace_dir, index: next(results),
        )
        report = DetSanReport()
        detsan._check_scenario(
            "pandas-100",
            [base.variant, dev.variant],
            str(tmp_path),
            report,
            lambda line: None,
        )
        assert report.ok
        assert report.to_dict()["ok"] is True

    def test_divergence_without_trace_difference(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [EV1])
        write_trace(b, [EV1])
        divergence = Divergence(
            scenario="s",
            baseline=RunResult(Variant("baseline"), "aaaa", 1, str(a)),
            deviant=RunResult(Variant("x"), "bbbb", 1, str(b)),
        )
        assert "outside traced events" in divergence.describe()


class TestCli:
    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            detsan.run(["--scenario", "no-such-scenario"])
        capsys.readouterr()

    def test_bad_hash_seeds_rejected(self, capsys):
        with pytest.raises(SystemExit):
            detsan.run(["--hash-seeds", "x,y"])
        capsys.readouterr()


@pytest.mark.slow
class TestEndToEnd:
    def test_pipeline_smoke_single_seed(self, tmp_path, capsys):
        """One real subprocess sweep: baseline + the telemetry-on
        variant of the cheap scenario under one hash seed."""
        code = detsan.run(
            [
                "--scenario",
                "pipeline-3",
                "--hash-seeds",
                "0",
                "--json",
                "--keep-traces",
                str(tmp_path / "traces"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        runs = payload["scenarios"]["pipeline-3"]
        assert len(runs) == 2
        assert len({r["fingerprint"] for r in runs}) == 1
        # the traces back the fingerprints: all runs recorded events
        traces = list((tmp_path / "traces").glob("*.jsonl"))
        assert len(traces) == 2
        assert all(t.stat().st_size > 0 for t in traces)

    def test_worker_protocol(self, capsys):
        code = detsan.run(
            [
                "--worker",
                "--scenario",
                "pipeline-3",
                "--telemetry",
                "1",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["fingerprint"]) == 64
        assert payload["events_processed"] > 0


def test_module_entry_point_help():
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.detsan", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "first-divergence" in proc.stdout
