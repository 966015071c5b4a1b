"""The replay pins: every row of ``tests/golden/pins.json`` replays exactly.

Each row runs twice, once per test. The *observed* run has tracer and
telemetry attached and must give the whole pinned row: fingerprint,
trace, series and exposition digests, and the public counts. The
*plain* run has no observer and must give the pinned fingerprint, so
observation never perturbs the observed. Absolute pins that hold under
any ``PYTHONHASHSEED`` also mean two runs agree; CI runs this file
under hash seeds 0, 1 and 2.

When a row moves, the failure prints its before -> after table and
names the cause from one replay under another hash seed: either the
trace's first divergent event (hash-order dependence) or "behaviour
change", to be re-pinned with ``python -m tests.pins --update``.
"""

from __future__ import annotations

import json

import pytest

from tests.pins import (
    ROWS,
    cause,
    diff_traces,
    explain,
    load_pins,
    observe,
    plain_fingerprint,
    replay_elsewhere,
    table,
)


@pytest.fixture(scope="module")
def pins():
    return load_pins()


def test_every_run_has_one_row(pins):
    assert sorted(pins) == sorted(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_row_replays_its_pin(name, pins, tmp_path):
    """The observed run gives the whole row."""
    pinned = pins[name]
    row, lines = observe(name)
    if row != pinned:
        pytest.fail(explain(name, pinned, row, lines, tmp_path), pytrace=False)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_plain_run_replays_its_fingerprint(name, pins, tmp_path):
    """The run with no observers gives the pinned fingerprint."""
    pinned = pins[name]
    plain = plain_fingerprint(name)
    if plain == pinned["fingerprint"]:
        return
    row, lines = observe(name)
    if row == pinned:
        pytest.fail(
            f"observers changed the run of {name}: plain fingerprint {plain[:12]}, "
            f"observed {row['fingerprint'][:12]} (pinned)",
            pytrace=False,
        )
    pytest.fail(explain(name, pinned, row, lines, tmp_path), pytrace=False)


def test_replay_under_another_hash_seed_agrees(pins, tmp_path):
    """The subprocess replay the failure message relies on: same
    fingerprint and the same trace, event for event."""
    _row, lines = observe("pandas")
    here, there = tmp_path / "here.jsonl", tmp_path / "there.jsonl"
    here.write_text("".join(lines), encoding="utf-8")
    assert replay_elsewhere("pandas", there) == pins["pandas"]["fingerprint"]
    assert diff_traces(here, there) is None


# ----------------------------------------------------------------------
# the failure message
# ----------------------------------------------------------------------
EV1 = {"t": 0.1, "kind": "fetch_start", "node": 3}
EV2 = {"t": 0.2, "kind": "fetch_done", "node": 3}
EV2_DIVERGED = {"t": 0.2, "kind": "fetch_done", "node": 4}


def write_trace(path, events):
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
    return path


def test_identical_traces_do_not_differ(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [EV1, EV2])
    b = write_trace(tmp_path / "b.jsonl", [EV1, EV2])
    assert diff_traces(a, b) is None


def test_first_divergence_located(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [EV1, EV2])
    b = write_trace(tmp_path / "b.jsonl", [EV1, EV2_DIVERGED])
    assert diff_traces(a, b) == (1, EV2, EV2_DIVERGED)


def test_truncated_trace_diverges_at_the_end(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [EV1, EV2])
    b = write_trace(tmp_path / "b.jsonl", [EV1])
    assert diff_traces(a, b) == (1, EV2, {"kind": "<end of trace>"})


def test_cause_names_hash_order_dependence(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [EV1, EV2])
    b = write_trace(tmp_path / "b.jsonl", [EV1, EV2_DIVERGED])
    text = cause(a, b, "aa" * 32, "bb" * 32, "1")
    assert text.startswith("hash-order dependence")
    assert "PYTHONHASHSEED=1" in text and "event #1" in text
    assert '"node": 4' in text


def test_cause_outside_traced_events(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [EV1])
    b = write_trace(tmp_path / "b.jsonl", [EV1])
    text = cause(a, b, "aa" * 32, "bb" * 32, "0")
    assert "outside traced events" in text


def test_cause_names_a_behaviour_change(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [EV1])
    b = write_trace(tmp_path / "b.jsonl", [EV1])
    text = cause(a, b, "aa" * 32, "aa" * 32, "0")
    assert text.startswith("behaviour change, traces agree across hash seeds")
    assert "python -m tests.pins --update" in text


def test_table_lists_only_what_moved(pins):
    before = {"pandas": pins["pandas"]}
    moved = json.loads(json.dumps(pins["pandas"]))
    moved["counts"]["events"] += 1
    moved["fingerprint"] = "ff" * 32
    lines = table(before, {"pandas": moved}).splitlines()
    assert lines[2:] == [
        f"| pandas | fingerprint | {pins['pandas']['fingerprint'][:12]} | {'f' * 12} |",
        f"| pandas | events | {pins['pandas']['counts']['events']} "
        f"| {pins['pandas']['counts']['events'] + 1} |",
    ]
    assert table(before, before).splitlines()[2:] == ["| pandas | (unchanged) | | |"]
