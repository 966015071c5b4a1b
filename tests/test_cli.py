"""CLI smoke tests (fast paths only)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_security_command(capsys):
    assert main(["security", "--grid", "64"]) == 0
    out = capsys.readouterr().out
    assert "64x64" in out
    assert "FP bound" in out


def test_security_with_explicit_samples(capsys):
    assert main(["security", "--grid", "128", "--samples", "50"]) == 0
    assert "s=50" in capsys.readouterr().out


def test_slot_command_small(capsys):
    code = main(
        [
            "slot",
            "--nodes", "40",
            "--reduced", "16",
            "--seed", "3",
            "--policy", "redundant",
        ]
    )
    out = capsys.readouterr().out
    assert "seeding" in out and "sampling" in out
    assert code in (0, 1)


def test_slot_with_plot(capsys):
    main(["slot", "--nodes", "40", "--reduced", "16", "--plot"])
    out = capsys.readouterr().out
    assert "deadline" in out  # the CDF legend


def test_figure_table1(capsys):
    assert main(["figure", "table1", "--nodes", "40", "--reduced", "16"]) == 0
    assert "round 1" in capsys.readouterr().out


def test_slot_with_faults_end_to_end(capsys):
    """The ``--faults`` spec drives the injector from the shell: the
    plan is echoed, realized fault counts are reported, and the online
    invariant checker runs to completion."""
    code = main(
        [
            "slot",
            "--nodes", "40",
            "--reduced", "16",
            "--seed", "3",
            "--faults", "loss=0.1,dup=0.05,crash=1@0.5:1.0",
            "--check-invariants",
        ]
    )
    out = capsys.readouterr().out
    assert "fault plan" in out
    assert "loss=0.1" in out
    assert "crash=1@0.5:1" in out
    assert "link_drop=" in out and "crash=1" in out and "restart=1" in out
    assert "invariants     ok" in out
    assert code in (0, 1)


@pytest.mark.parametrize("command", ["slot", "trace"])
@pytest.mark.parametrize(
    "spec", ["loss=abc", "bogus=1", "crash=2@x", "loss=1.5", "partition="]
)
def test_malformed_faults_spec_is_a_usage_error(command, spec, capsys):
    """A bad ``--faults`` spec is an argparse usage error (exit 2) with
    one diagnostic line naming the offending entry, never a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--nodes", "20", "--reduced", "32", "--faults", spec])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    naming = [line for line in err.splitlines() if repr(spec) in line]
    assert len(naming) == 1
    assert naming[0].startswith(
        f"repro {command}: error: argument --faults: malformed fault entry {spec!r}: "
    )
    assert "Traceback" not in err


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        main(["slot", "--nodes", "10", "--reduced", "16", "--policy", "bogus"])


def test_slot_json_output(capsys):
    import json

    code = main(["slot", "--nodes", "40", "--reduced", "16", "--seed", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["nodes"] == 40
    assert "sampling" in payload["phases"]
    assert payload["phases"]["sampling"]["count"] == 40
    assert payload["messages_sent"] > 0
    assert code in (0, 1)


def test_slot_trace_rider_writes_jsonl(tmp_path, capsys):
    from repro.obs.timeline import lifecycle_problems, load_trace

    path = str(tmp_path / "slot.jsonl")
    main(["slot", "--nodes", "40", "--reduced", "16", "--seed", "3", "--trace", path])
    out = capsys.readouterr().out
    assert "trace:" in out
    events = load_trace(path)
    assert events
    assert lifecycle_problems(events) == []


def test_slot_profile_is_a_usage_error(capsys):
    """Host-time profiling lives in the benchmark's per-layer ledger;
    the product CLI has no ``--profile`` rider."""
    with pytest.raises(SystemExit) as exit_info:
        main(["slot", "--nodes", "40", "--reduced", "16", "--profile"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --profile" in capsys.readouterr().err


def test_trace_command_end_to_end(tmp_path, capsys):
    import json

    from repro.obs.timeline import lifecycle_problems, load_trace

    jsonl = str(tmp_path / "trace.jsonl")
    chrome = str(tmp_path / "trace.json")
    code = main(
        [
            "trace",
            "--nodes", "40",
            "--reduced", "16",
            "--seed", "3",
            "--out", jsonl,
            "--chrome", chrome,
            "--report",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "lifecycle      OK" in out
    assert "causal timeline" in out
    assert "why:" in out
    events = load_trace(jsonl)
    assert lifecycle_problems(events) == []
    with open(chrome) as fh:
        document = json.load(fh)
    assert document["traceEvents"]


def test_trace_command_kind_filter(tmp_path, capsys):
    from repro.obs.timeline import load_trace

    path = str(tmp_path / "queries.jsonl")
    main(
        [
            "trace",
            "--nodes", "40",
            "--reduced", "16",
            "--seed", "3",
            "--kinds", "query_issue,query_response,query_timeout,query_cancel",
            "--out", path,
        ]
    )
    out = capsys.readouterr().out
    assert "filtered" in out
    kinds = {e["kind"] for e in load_trace(path)}
    assert "query_issue" in kinds
    assert "net_send" not in kinds


def test_help_lists_the_command_table(capsys):
    from repro.cli import COMMANDS

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    names = [cmd.name for cmd in COMMANDS]
    assert names == [
        "slot", "figure", "faults", "adversary", "security",
        "trace", "pipeline", "health", "detsan",
    ]
    assert "{" + ",".join(names) + "}" in out
    assert "baselines" not in out


def test_figure_fig12_prints_the_cdf(capsys):
    """``figure fig12`` is the four-system comparison plus its
    sampling CDF."""
    assert main(["figure", "fig12", "--nodes", "40", "--reduced", "16", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for system in ("pandas", "gossipsub", "dht", "peerdas"):
        assert system in out
    assert "deadline" in out  # the CDF legend


def test_faults_command(capsys):
    code = main(
        ["faults", "--nodes", "40", "--reduced", "16", "--seed", "3", "--fractions", "0,0.4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["dead", "0%"], ["dead", "40%"]
    ]


def test_adversary_command(capsys):
    code = main(
        [
            "adversary",
            "--nodes", "40",
            "--reduced", "16",
            "--seed", "3",
            "--behavior", "corrupt",
            "--fractions", "0,0.2",
            "--details",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("corrupt sweep over 40 nodes")
    assert "0% byzantine" in out and "20% byzantine" in out
    assert "adversary" in out and "byz_corrupt" in out


def test_health_missing_series_is_a_diagnostic(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert main(["health", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"cannot analyze {missing}: ")
