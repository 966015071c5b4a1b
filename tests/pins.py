"""Replay pins: one file of pinned runs, one check, one re-pin command.

``tests/golden/pins.json`` holds one row per pinned run:

- ``fingerprint``: ``MetricsRecorder.fingerprint()``;
- ``trace``, ``series``, ``exposition``: SHA-256 digests of the JSONL
  trace (filtered by :func:`parent_view`), the telemetry series written
  by ``write_series_jsonl`` and the Prometheus exposition;
- ``counts``: a dozen public counts read from accessors the simulator
  already has, so a reviewer can see *what* moved, not only that a hash
  did.

A pin is exact. ``tests/test_pins.py`` replays every row with tracer
and telemetry attached (the *observed* run) and with no observers (the
*plain* run); both must give the pinned fingerprint, and the observed
run must give the whole row. When a change moves a run on purpose,
re-pin with::

    PYTHONPATH=src python -m tests.pins --update

It rewrites ``pins.json`` and ``golden/telemetry_exposition.prom`` and
prints a before -> after table of everything that moved; that table
goes into the change's CHANGES.md entry. Without ``--update`` the
command prints the same table, writes nothing, and exits 1 if anything
moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import Any

import repro
from repro.baselines import DhtDasScenario, GossipDasScenario, PeerDasScenario
from repro.core.seeding import RedundantSeeding
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults.plan import CrashWindow, FaultPlan, PartitionWindow
from repro.obs import JsonlSink, Telemetry, TraceRecorder
from repro.obs.export import prometheus_text, write_series_jsonl
from repro.params import PandasParams
from tests.helpers import FAULTS, dense_config, pipeline_config, synthetic_telemetry

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PINS_FILE = GOLDEN / "pins.json"
# built from a synthetic series: it pins the exposition's format only
EXPOSITION_FILE = GOLDEN / "telemetry_exposition.prom"
UPDATE = "PYTHONPATH=src python -m tests.pins --update"


def _pandas_100(**observers: Any) -> Scenario:
    """100 nodes, loss, two crash-restarts and a partition, invariants on."""
    return Scenario(
        ScenarioConfig(
            num_nodes=100,
            params=PandasParams(
                base_rows=16, base_cols=16, custody_rows=2, custody_cols=2, samples=10
            ),
            policy=RedundantSeeding(4),
            seed=11,
            slots=1,
            num_vertices=1000,
            faults=FaultPlan(
                loss=0.05,
                crashes=(CrashWindow(crash_at=1.0, restart_at=2.0, count=2),),
                partitions=(PartitionWindow(start=1.0, duration=0.5, fraction=0.2),),
            ),
            check_invariants=True,
            **observers,
        )
    )


def _pipeline_3(**observers: Any) -> PipelineScenario:
    """60 nodes, three overlapping slots with churn, on a 32x-reduced grid."""
    config = ScenarioConfig(
        num_nodes=60,
        params=PandasParams.reduced(32),
        policy=RedundantSeeding(4),
        seed=7,
        slots=3,
        num_vertices=600,
        **observers,
    )
    return PipelineScenario(config, churn_fraction=0.1)


def _dead(**observers: Any) -> Scenario:
    """60 nodes, 40% of them dead: fetchers time out, recycle behind a backoff
    and are abandoned at the deadline, invariants on (I2 and I6)."""
    return Scenario(
        ScenarioConfig(
            num_nodes=60,
            params=PandasParams.reduced(32),
            policy=RedundantSeeding(8),
            seed=7,
            slots=1,
            num_vertices=600,
            dead_fraction=0.4,
            check_invariants=True,
            **observers,
        )
    )


def _starved(**observers: Any) -> PipelineScenario:
    """150 nodes, two slots with churn on a 4x-reduced grid: fetchers run out
    of peers and retry waves, and probes need recycling."""
    config = ScenarioConfig(
        num_nodes=150,
        params=replace(PandasParams.reduced(4), pending_request_limit=256),
        policy=RedundantSeeding(8),
        seed=7,
        slots=2,
        num_vertices=600,
        check_invariants=True,
        **observers,
    )
    return PipelineScenario(config, churn_fraction=0.1, probes_per_slot=2)


# name -> (scenario factory taking the observer keywords, is a baseline)
ROWS: dict[str, tuple[Callable[..., Any], bool]] = {
    "pandas": (lambda **kw: Scenario(dense_config(**kw)), False),
    "faults": (
        lambda **kw: Scenario(
            dense_config(faults=FaultPlan.parse(FAULTS), check_invariants=True, **kw)
        ),
        False,
    ),
    "block": (
        lambda **kw: Scenario(dense_config(include_block_gossip=True, **kw)),
        False,
    ),
    "gossipsub": (lambda **kw: GossipDasScenario(dense_config(**kw)), True),
    "dht": (lambda **kw: DhtDasScenario(dense_config(**kw)), True),
    "peerdas": (lambda **kw: PeerDasScenario(dense_config(**kw)), True),
    # two slots: the baselines' slot retirement between slots
    "gossipsub-2": (lambda **kw: GossipDasScenario(dense_config(slots=2, **kw)), True),
    "peerdas-2": (lambda **kw: PeerDasScenario(dense_config(slots=2, **kw)), True),
    "pipeline": (
        lambda **kw: PipelineScenario(
            pipeline_config(check_invariants=True, **kw), churn_fraction=0.1
        ),
        False,
    ),
    "pandas-100": (_pandas_100, False),
    "pipeline-3": (_pipeline_3, False),
    "dead": (_dead, False),
    "starved": (_starved, False),
}

# the trace catalog before the event bus: records of any other kind are
# left out of the digest, so the digests recorded then still hold
PARENT_KINDS = frozenset(
    {
        "net_send", "net_deliver", "net_drop", "fault", "seed_slot",
        "seed_recv", "cells_ingest", "phase", "defense", "fetch_start",
        "fetch_round", "query_issue", "query_response", "query_timeout",
        "query_cancel", "query_late_reply", "query_recycle",
        "retry_backoff", "fetch_done",
        "queue_overflow", "load_shed", "sweep_point", "pipeline_slot",
    }
)


def parent_view(record: dict[str, Any], baseline: bool) -> bool:
    """True for trace records the pre-bus routes also wrote.

    Three kinds of record are new with the bus and filtered out:
    ``phase`` records of baselines and of ``block`` marks, ``load_shed``
    records of the retrieval client's shed, and records of kinds added
    to the catalog with the bus.
    """
    kind = record["kind"]
    if kind not in PARENT_KINDS:
        return False
    if kind == "phase":
        return not baseline and record["phase"] != "block"
    if kind == "load_shed":
        return record["shed"] != "retrieval_client"
    return True


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _number(value: float) -> float | int | None:
    """A JSON-exact count: integral values as ints, inf and nan as None."""
    if not math.isfinite(value):
        return None
    return int(value) if float(value).is_integer() else value


def counts(scenario: Any) -> dict[str, float | int | None]:
    """The row's public counts, read from existing accessors."""
    totals = scenario.metrics.summary()
    gauges = scenario.gauges()
    sampling = scenario.sampling_distribution()
    values = {
        "messages_sent": totals["messages_sent"],
        "bytes_sent": totals["bytes_sent"],
        "fetch_messages": totals["fetch_messages"],
        "fetch_bytes": totals["fetch_bytes"],
        "builder_bytes": totals["builder_bytes"],
        "datagrams_sent": gauges["datagrams_sent"],
        "datagrams_delivered": gauges["datagrams_delivered"],
        "datagrams_lost": gauges["datagrams_lost"],
        "events": scenario.sim.events_processed,
        "sampling_p50_ms": round(sampling.median * 1e3, 3),
        "sampling_p95_ms": round(sampling.quantile(95.0) * 1e3, 3),
        "within_deadline": round(sampling.fraction_within(scenario.params.deadline), 4),
        "round_stats": len(scenario.metrics.round_stats),
    }
    return {name: _number(value) for name, value in values.items()}


def observe(name: str) -> tuple[dict[str, Any], list[str]]:
    """Run ``name`` with tracer and telemetry: its row and its trace lines."""
    make, baseline = ROWS[name]
    buf = io.StringIO()
    tracer = TraceRecorder(sink=JsonlSink(buf))
    telemetry = Telemetry()
    scenario = make(tracer=tracer, telemetry=telemetry).run()
    tracer.close()
    lines = [
        line
        for line in buf.getvalue().splitlines(keepends=True)
        if parent_view(json.loads(line), baseline)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.jsonl"
        write_series_jsonl(telemetry, path)
        series = path.read_text(encoding="utf-8")
    row = {
        "fingerprint": scenario.metrics.fingerprint(),
        "trace": sha256("".join(lines)),
        "series": sha256(series),
        "exposition": sha256(prometheus_text(telemetry)),
        "counts": counts(scenario),
    }
    return row, lines


def plain_fingerprint(name: str) -> str:
    """The fingerprint of ``name`` run with no observers attached."""
    make, _baseline = ROWS[name]
    return make().run().metrics.fingerprint()


def load_pins() -> dict[str, dict[str, Any]]:
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# what moved
# ----------------------------------------------------------------------
def _entries(row: dict[str, Any] | None) -> dict[str, Any]:
    if row is None:
        return {}
    entries = {key: row[key][:12] for key in ("fingerprint", "trace", "series", "exposition")}
    entries.update(row["counts"])
    return entries


def table(before: dict[str, dict[str, Any]], after: dict[str, dict[str, Any]]) -> str:
    """A Markdown before -> after table of every entry that moved, per row."""
    lines = ["| row | entry | before | after |", "|---|---|---|---|"]
    for name in sorted(set(before) | set(after)):
        old, new = _entries(before.get(name)), _entries(after.get(name))
        moved = [key for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]
        if not moved:
            lines.append(f"| {name} | (unchanged) | | |")
        for key in moved:
            lines.append(f"| {name} | {key} | {old.get(key, '—')} | {new.get(key, '—')} |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# why it moved: one replay under another hash seed
# ----------------------------------------------------------------------
def diff_traces(
    first_path: str | Path, second_path: str | Path
) -> tuple[int, dict[str, Any], dict[str, Any]] | None:
    """(index, first event, second event) of the first difference.

    Streams both JSONL files in lockstep; a trace that ends early
    differs at its end by an ``<end of trace>`` event. None when they
    are identical.
    """
    end = {"kind": "<end of trace>"}
    with open(first_path, encoding="utf-8") as fa, open(second_path, encoding="utf-8") as fb:
        index = 0
        while True:
            line_a, line_b = fa.readline(), fb.readline()
            if not line_a and not line_b:
                return None
            event_a = json.loads(line_a) if line_a else end
            event_b = json.loads(line_b) if line_b else end
            if event_a != event_b:
                return index, event_a, event_b
            index += 1


def write_trace(name: str, path: str) -> str:
    """Write the observed run's filtered trace to ``path``; return its fingerprint."""
    row, lines = observe(name)
    Path(path).write_text("".join(lines), encoding="utf-8")
    return row["fingerprint"]


def other_hash_seed() -> str:
    return "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"


def replay_elsewhere(name: str, path: Path) -> str:
    """Replay ``name`` in a subprocess under :func:`other_hash_seed`.

    The hash seed is fixed at interpreter start, so a second seed needs
    a second interpreter. Writes its trace to ``path`` and returns its
    fingerprint.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    path_entries = [src, str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONHASHSEED=other_hash_seed(),
        PYTHONPATH=os.pathsep.join(entry for entry in path_entries if entry),
    )
    code = f"from tests.pins import write_trace; print(write_trace({name!r}, {str(path)!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"replay of {name} failed:\n{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def cause(here: Path, there: Path, fingerprint: str, elsewhere: str, seed: str) -> str:
    """Name the cause of a moved pin from two replays' traces."""
    located = diff_traces(here, there)
    if located is not None:
        index, first, second = located
        return (
            f"hash-order dependence: under PYTHONHASHSEED={seed} the trace first "
            f"differs at event #{index}:\n"
            f"  here:  {json.dumps(first, sort_keys=True)}\n"
            f"  there: {json.dumps(second, sort_keys=True)}"
        )
    if fingerprint != elsewhere:
        return (
            f"hash-order dependence outside traced events: the traces agree but "
            f"PYTHONHASHSEED={seed} gives fingerprint {elsewhere[:12]}"
        )
    return (
        "behaviour change, traces agree across hash seeds; if it is intended, "
        f"re-pin with `{UPDATE}` and commit the table it prints"
    )


def explain(
    name: str,
    pinned: dict[str, Any],
    row: dict[str, Any],
    lines: list[str],
    workdir: Path,
) -> str:
    """The failure message of a row whose observed run no longer replays its pin."""
    parts = [f"pin {name} moved:", table({name: pinned}, {name: row})]
    here, there = workdir / f"{name}-here.jsonl", workdir / f"{name}-there.jsonl"
    here.write_text("".join(lines), encoding="utf-8")
    elsewhere = replay_elsewhere(name, there)
    parts.append(cause(here, there, row["fingerprint"], elsewhere, other_hash_seed()))
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.pins",
        description="Replay every pinned run and print a before -> after "
        "table of what moved against tests/golden/pins.json.",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite tests/golden/pins.json and the golden exposition",
    )
    args = parser.parse_args(argv)
    before = load_pins()
    after = {name: observe(name)[0] for name in sorted(ROWS)}
    print(table(before, after))
    exposition = prometheus_text(synthetic_telemetry())
    exposition_moved = exposition != EXPOSITION_FILE.read_text(encoding="utf-8")
    if exposition_moved:
        print(f"{EXPOSITION_FILE.name} moved")
    if args.update:
        PINS_FILE.write_text(json.dumps(after, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        EXPOSITION_FILE.write_text(exposition, encoding="utf-8")
        print(f"wrote {PINS_FILE.relative_to(ROOT)} and {EXPOSITION_FILE.relative_to(ROOT)}")
        return 0
    return 1 if after != before or exposition_moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
