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


@pytest.mark.parametrize("rider", [(), ("--trace", "unwritten.jsonl")], ids=["slot", "trace"])
@pytest.mark.parametrize(
    "spec", ["loss=abc", "bogus=1", "crash=2@x", "loss=1.5", "partition="]
)
def test_malformed_faults_spec_is_a_usage_error(rider, spec, capsys):
    """A bad ``--faults`` spec is an argparse usage error (exit 2) with
    one diagnostic line naming the offending entry, never a traceback,
    on a plain and on a traced ``slot`` run."""
    with pytest.raises(SystemExit) as exit_info:
        main(["slot", "--nodes", "20", "--reduced", "32", *rider, "--faults", spec])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    naming = [line for line in err.splitlines() if repr(spec) in line]
    assert len(naming) == 1
    assert naming[0].startswith(
        f"repro slot: error: argument --faults: malformed fault entry {spec!r}: "
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--max-inbox", "--admit-rate"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_pipeline_bound_is_a_usage_error(flag, value, capsys):
    """The inbox and admission bounds have no unbounded setting: a
    non-positive value is a usage error (exit 2, one diagnostic line)."""
    with pytest.raises(SystemExit) as exit_info:
        main(["pipeline", "--nodes", "20", "--reduced", "32", flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"repro pipeline: error: argument {flag}: must be positive, got {value!r}"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("command", "flag", "value", "expected"),
    [
        ("pipeline", "--churn", "1.5", "in [0, 1)"),
        ("pipeline", "--churn", "-0.1", "in [0, 1)"),
        ("pipeline", "--probes", "-1", "non-negative"),
        ("pipeline", "--retention", "0", "positive"),
        ("pipeline", "--view-lag", "-1", "non-negative"),
        ("slot", "--dead", "1.5", "in [0, 1]"),
        ("slot", "--dead", "-0.2", "in [0, 1]"),
        ("slot", "--out-of-view", "1.5", "in [0, 1]"),
        ("slot", "--redundancy", "0", "positive"),
        ("slot", "--nodes", "0", "positive"),
        ("slot", "--slots", "0", "positive"),
        ("pipeline", "--slots", "0", "positive"),
        ("faults", "--fractions", "1.5", "in [0, 1]"),
        ("adversary", "--fractions", "1.5", "in [0, 1]"),
        ("adversary", "--fractions", "-0.1", "in [0, 1]"),
        ("figure", "--scales", "0", "positive"),
        ("security", "--grid", "3", "even and at least 2"),
        ("security", "--grid", "0", "even and at least 2"),
        ("security", "--target", "2", "in (0, 1)"),
        ("security", "--target", "0", "in (0, 1)"),
        ("security", "--samples", "-1", "non-negative"),
        ("security", "--samples", "10", "at most 4"),
        ("slot", "--trace-kinds", "nosuchkind", "an event kind of repro.obs.events"),
        ("slot", "--reduced", "3", "0 or a divisor of 256"),
        ("slot", "--reduced", "-2", "0 or a divisor of 256"),
        ("slot", "--telemetry-cadence", "0", "positive"),
        ("pipeline", "--pending-limit", "-1", "non-negative"),
        ("pipeline", "--heartbeat", "-1", "non-negative"),
        ("health", "--min-deadline-hit", "7", "in [0, 1]"),
        ("health", "--min-deadline-hit", "-0.5", "in [0, 1]"),
        ("health", "--max-queue-p99", "-1", "non-negative"),
        ("health", "--max-shed", "-3", "non-negative"),
    ],
)
def test_out_of_range_value_is_a_usage_error(command, flag, value, expected, capsys):
    """A value the scenario would reject (or silently ignore) is a usage
    error at parse time: exit 2 and one diagnostic line, no traceback.
    ``security`` runs on a 2x2 grid, so ``--samples`` above 4 is out of
    range (a check across two flags, made after parsing); ``health``
    fails before it opens its series."""
    scale = {"security": ["--grid", "2"], "health": ["series.jsonl"]}.get(
        command, ["--nodes", "20", "--reduced", "32"]
    )
    with pytest.raises(SystemExit) as exit_info:
        main([command, *scale, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"repro {command}: error: argument {flag}: must be {expected}, got {value!r}"
    )
    assert "Traceback" not in err


def test_pipeline_pending_limit_zero_is_unbounded(capsys):
    """``--pending-limit`` stays optional: 0 still means no bound."""
    import json

    code = main([
        "pipeline", "--nodes", "40", "--reduced", "32", "--slots", "1",
        "--probes", "0", "--pending-limit", "0", "--check-invariants", "--json",
    ])
    assert code == 0
    assert "pending_requests" in json.loads(capsys.readouterr().out)["queue_depth_peaks"]


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
    from repro.obs.sinks import read_jsonl
    from repro.obs.timeline import lifecycle_problems

    path = str(tmp_path / "slot.jsonl")
    main(["slot", "--nodes", "40", "--reduced", "16", "--seed", "3", "--trace", path])
    out = capsys.readouterr().out
    assert "trace:" in out
    events = read_jsonl(path)
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
    """``slot --trace`` records; ``repro trace FILE`` reads the file,
    checks the query lifecycle, explains the slowest node and converts
    the records to Chrome trace_event JSON."""
    import json

    from repro.obs.sinks import chrome_trace, read_jsonl

    jsonl = str(tmp_path / "trace.jsonl")
    chrome = str(tmp_path / "trace.json")
    main(["slot", "--nodes", "40", "--reduced", "16", "--seed", "3", "--trace", jsonl])
    capsys.readouterr()
    assert main(["trace", jsonl, "--chrome", chrome]) == 0
    out = capsys.readouterr().out
    events = read_jsonl(jsonl)
    assert out.startswith(f"trace: {len(events)} events in {jsonl}\n")
    assert "  query lifecycle: OK" in out
    assert "causal timeline" in out
    assert "why:" in out
    with open(chrome) as fh:
        document = json.load(fh)
    assert document == chrome_trace(events)
    assert document["traceEvents"]


def test_trace_command_kind_filter(tmp_path, capsys):
    from repro.obs.sinks import read_jsonl

    path = str(tmp_path / "queries.jsonl")
    main(
        [
            "slot",
            "--nodes", "40",
            "--reduced", "16",
            "--seed", "3",
            "--trace", path,
            "--trace-kinds", "query_issue,query_response,query_timeout,query_cancel",
        ]
    )
    capsys.readouterr()
    kinds = {e["kind"] for e in read_jsonl(path)}
    assert "query_issue" in kinds
    assert "net_send" not in kinds
    assert main(["trace", path]) == 0
    assert "  query lifecycle: OK" in capsys.readouterr().out


def test_trace_command_orders_top_kinds_by_frequency(tmp_path, capsys):
    """The reader derives the kind counts from the file: most frequent
    first, ties by name."""
    path = tmp_path / "trace.jsonl"
    kinds = ["seed_recv", "net_send", "net_send", "net_deliver", "net_send"]
    path.write_text(
        "".join(
            f'{{"t":0.0,"slot":-1,"node":-1,"kind":"{kind}"}}\n' for kind in kinds
        ),
        encoding="utf-8",
    )
    assert main(["trace", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  top kinds      net_send=3, net_deliver=1, seed_recv=1"


@pytest.mark.parametrize(
    ("content", "reason"),
    [
        (None, "No such file or directory"),
        ("", "no trace records"),
        ('{"t":0.0,"slot":0,"node":1,"kind":"phase"}\n{"t":0.5,"slot":0,"no', "line 2: "),
        ('{"t":0.0,"slot":0,"kind":"phase"}\n', "record 1: no 'node' field"),
        (
            '{"t":0.0,"slot":0,"node":1,"kind":"phase","at":0.5}\n',
            "record 1: 'phase' record without 'phase'",
        ),
        (
            '{"t":0.0,"slot":0,"node":1,"kind":"query_issue","req":[1],"peer":2,'
            '"round":1,"cells":3}\n',
            "record 1: 'req' is [1], not int",
        ),
        # three records of one node: unchecked, ``t`` reached causal_report's sort
        (
            '{"t":0.0,"slot":0,"node":1,"kind":"phase","phase":"sampling","at":0.5}\n'
            '{"t":"x","slot":0,"node":1,"kind":"fetch_round","round":1}\n'
            '{"t":0.2,"slot":0,"node":1,"kind":"fetch_start","custody":true}\n',
            "record 2: 't' is 'x', not int or float",
        ),
        # unchecked, a list ``peer`` reached causal_report's peer set
        (
            '{"t":0.0,"slot":0,"node":1,"kind":"query_issue","req":1,"peer":[2],'
            '"round":1,"cells":3}\n'
            '{"t":0.1,"slot":0,"node":1,"kind":"query_response","req":1,"peer":[2],'
            '"new":3}\n',
            "record 1: 'peer' is [2], not int",
        ),
        # and a list ``phase`` became a key of phase_completions' map
        (
            '{"t":0.0,"slot":0,"node":1,"kind":"phase","phase":["sampling"],"at":0.5}\n',
            "record 1: 'phase' is ['sampling'], not str",
        ),
    ],
    ids=[
        "missing", "empty", "truncated", "not-a-trace", "no-payload", "req-list", "t-str",
        "peer-list", "phase-list",
    ],
)
def test_trace_command_malformed_file_is_a_diagnostic(content, reason, tmp_path, capsys):
    """A trace ``repro trace`` cannot read exits 2 with one line on
    stderr, as ``repro health`` does for a series."""
    path = tmp_path / "trace.jsonl"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"cannot read {path}: ")
    assert reason in line


@pytest.mark.parametrize("command", ["slot", "faults", "adversary", "pipeline"])
def test_trace_kinds_without_trace_is_a_usage_error(command, capsys):
    """``--trace-kinds`` filters the ``--trace`` rider; alone it would
    be silently ignored."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--nodes", "20", "--reduced", "32", "--trace-kinds", "phase"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"repro {command}: error: argument --trace-kinds: requires --trace"
    )


@pytest.mark.parametrize("command", ["slot", "pipeline"])
@pytest.mark.parametrize(
    "rider",
    [["--telemetry-cadence", "0.5"], ["--prometheus", "x.prom"], ["--heartbeat", "1"]],
    ids=lambda rider: rider[0],
)
def test_telemetry_riders_without_telemetry_are_usage_errors(command, rider, capsys):
    """The riders of ``--telemetry`` configure its series; alone they
    would be silently ignored (and ``--prometheus`` would write nothing)."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--nodes", "20", "--reduced", "32", *rider])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"repro {command}: error: argument {rider[0]}: requires --telemetry"
    )


def test_closed_stdout_exits_quietly(tmp_path, monkeypatch):
    """A reader that closes the pipe early (``repro trace FILE | head``)
    ends the command with the SIGPIPE status, not a traceback."""
    import io
    import sys

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = tmp_path / "trace.jsonl"
    path.write_text('{"t":0.0,"slot":0,"node":1,"kind":"seed_recv"}\n', encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["trace", str(path)]) == 141


@pytest.mark.parametrize("flag", ["--nodes", "--out", "--ring", "--report", "--kinds"])
def test_trace_command_builds_no_scenario(flag, capsys):
    """``repro trace`` only reads a file: the old run flags are rejected."""
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", "trace.jsonl", flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_help_lists_the_command_table(capsys):
    from repro.cli import COMMANDS

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    names = [cmd.name for cmd in COMMANDS]
    assert names == [
        "slot", "figure", "faults", "adversary", "security",
        "trace", "pipeline", "health",
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
