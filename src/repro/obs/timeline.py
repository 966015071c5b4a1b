"""Timeline reconstruction: from a trace to "why was this node slow".

Every helper takes flat records (``t``/``slot``/``node``/``kind`` plus
the payload): the dicts :func:`read_trace` reads back from a JSONL trace
file, or ``TraceEvent.to_dict()`` of a recorder's in-memory events.

The centerpiece is :func:`causal_report`: for one ``(slot, node)`` it
replays the query lifecycle (rounds attempted, peers queried, timeouts,
late replies, reconstructions, defense actions) and answers the
debugging question aggregate metrics cannot — *why did sampling take
X ms on this node*.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.events import QUERY_TERMINAL_KINDS, RESERVED_FIELDS
from repro.obs.sinks import read_jsonl

__all__ = [
    "QueryLifecycle",
    "query_lifecycles",
    "lifecycle_problems",
    "phase_completions",
    "slowest_nodes",
    "causal_report",
    "read_trace",
    "trace_report",
]

Record = Mapping[str, Any]


_NUMBER = (int, float)

# the type the helpers below assume of a field (a JSON true/false is no
# number here); ``req``, a payload field, is checked where present
FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "t": _NUMBER, "slot": (int,), "node": (int,), "kind": (str,), "req": (int,),
}

# by kind, the payload fields a helper below hashes, indexes or adds up,
# and the type it assumes of each; checked where present
PAYLOAD_TYPES: dict[str, dict[str, tuple[type, ...]]] = {
    "query_issue": {"peer": (int,), "round": (int,)},
    "query_response": {"new": _NUMBER},
    "fetch_round": {"round": (int,)},
    "phase": {"phase": (str,), "at": _NUMBER},
    "seed_recv": {"at": _NUMBER},
    "fetch_start": {"at": _NUMBER},
    "cells_ingest": {"new": _NUMBER, "reconstructed": _NUMBER},
    "query_recycle": {"pool": (str,), "count": _NUMBER},
    "defense": {"defense": (str,), "amount": _NUMBER},
    "load_shed": {"shed": (str,), "amount": _NUMBER},
}


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """A trace file's flat records, as :class:`~repro.obs.sinks.JsonlSink`
    wrote them. ``ValueError`` if the file holds no record, a line is not
    a JSON object, a record lacks one of ``t``/``slot``/``node``/``kind``
    or a payload field its kind's readers need (``phase`` of a ``phase``),
    or a field has another type than ``FIELD_TYPES`` or ``PAYLOAD_TYPES``
    gives."""
    records = read_jsonl(path)
    if not records:
        raise ValueError("no trace records")
    for number, record in enumerate(records, start=1):
        for name in RESERVED_FIELDS:
            if name not in record:
                raise ValueError(f"record {number}: no {name!r} field")
        _check_types(number, record, FIELD_TYPES)
        _check_types(number, record, PAYLOAD_TYPES.get(record["kind"], {}))
        # the one payload field a helper below indexes without a default
        if record["kind"] == "phase" and "phase" not in record:
            raise ValueError(f"record {number}: 'phase' record without 'phase'")
    return records


def _check_types(number: int, record: Record, fields: Mapping[str, tuple[type, ...]]) -> None:
    for name, types in fields.items():
        if name not in record:
            continue
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(kind.__name__ for kind in types)
            raise ValueError(f"record {number}: {name!r} is {value!r}, not {expected}")


# ----------------------------------------------------------------------
# query lifecycle
# ----------------------------------------------------------------------
@dataclass
class QueryLifecycle:
    """One request id from issue to termination."""

    req: int
    slot: int
    node: int
    peer: int
    round: int
    issued_at: float
    closed_at: float | None = None
    outcome: str | None = None  # response | timeout | cancel
    new_cells: int = 0
    late: bool = False
    usable: bool = False
    late_replies: int = 0

    @property
    def open(self) -> bool:
        return self.outcome is None


def query_lifecycles(events: Iterable[Record]) -> dict[int, QueryLifecycle]:
    """Reconstruct every query's lifecycle, keyed by request id."""
    lifecycles: dict[int, QueryLifecycle] = {}
    for event in events:
        kind = event["kind"]
        req = event.get("req")
        if kind == "query_issue" and req is not None:
            lifecycles[req] = QueryLifecycle(
                req=req,
                slot=event.get("slot", -1),
                node=event.get("node", -1),
                peer=event.get("peer", -1),
                round=event.get("round", 0),
                issued_at=event["t"],
            )
        elif kind in QUERY_TERMINAL_KINDS and req is not None:
            life = lifecycles.get(req)
            if life is None or life.outcome is not None:
                # unissued or double-closed: surfaced by lifecycle_problems
                lifecycles.setdefault(
                    -req, QueryLifecycle(req, -1, -1, -1, 0, event["t"], outcome="orphan")
                )
                continue
            life.closed_at = event["t"]
            life.outcome = kind[len("query_") :]
            life.new_cells = event.get("new", 0)
            life.late = bool(event.get("late", False))
            life.usable = bool(event.get("usable", False))
    return lifecycles


def lifecycle_problems(events: Iterable[Record]) -> list[str]:
    """Violations of the one-terminal-per-request invariant.

    Every ``query_issue`` must be closed by exactly one of
    ``query_response`` / ``query_timeout`` / ``query_cancel``; a
    terminal without a matching open issue is equally a bug. Returns
    human-readable problem strings (empty list = invariant holds).
    """
    problems: list[str] = []
    open_reqs: dict[int, Record] = {}
    closed: dict[int, str] = {}
    for event in events:
        kind = event["kind"]
        req = event.get("req")
        if kind == "query_issue":
            if req is None:
                problems.append(f"query_issue without req at t={event['t']}")
            elif req in open_reqs or req in closed:
                problems.append(f"req {req} issued twice")
            else:
                open_reqs[req] = event
        elif kind in QUERY_TERMINAL_KINDS:
            if req is None:
                problems.append(f"{kind} without req at t={event['t']}")
            elif req in closed:
                problems.append(f"req {req} closed twice ({closed[req]} then {kind})")
            elif req not in open_reqs:
                problems.append(f"req {req} closed ({kind}) but never issued")
            else:
                del open_reqs[req]
                closed[req] = kind
    for req in open_reqs:
        problems.append(f"req {req} issued but never closed")
    return problems


# ----------------------------------------------------------------------
# phase completion and ranking
# ----------------------------------------------------------------------
def phase_completions(
    events: Iterable[Record],
) -> dict[tuple[int, int], dict[str, float]]:
    """Per-``(slot, node)``: phase name -> completion time from slot start."""
    out: dict[tuple[int, int], dict[str, float]] = {}
    for event in events:
        if event["kind"] != "phase":
            continue
        key = (event.get("slot", -1), event.get("node", -1))
        out.setdefault(key, {})[event["phase"]] = event.get("at", event["t"])
    return out


def slowest_nodes(
    events: Iterable[Record],
    slot: int = 0,
    phase: str = "sampling",
    count: int = 3,
) -> list[tuple[int, float | None]]:
    """Nodes ranked slowest-first by ``phase`` completion in ``slot``.

    Nodes that appear in the slot's trace but never completed the phase
    rank slowest of all (completion ``None``). The node universe is
    every node id seen in an event of the slot other than ``net_drop``,
    so a node that only ever *received* traffic still shows up as a
    miss, while a dead node, seen only as the destination of dropped
    datagrams, does not. Builders — the ids that emitted ``seed_slot``
    — are excluded: they disseminate, they don't sample.
    """
    materialized = list(events)
    completions = phase_completions(materialized)
    builders = {
        e.get("node", -1) for e in materialized if e["kind"] == "seed_slot"
    }
    nodes: set = set()
    for event in materialized:
        if (
            event.get("slot", -1) == slot
            and event["kind"] != "net_drop"
            and event.get("node", -1) >= 0
            and event["node"] not in builders
        ):
            nodes.add(event["node"])
    ranked: list[tuple[int, float | None]] = []
    for node in nodes:
        at = completions.get((slot, node), {}).get(phase)
        ranked.append((node, at))
    ranked.sort(key=lambda item: (-(math.inf if item[1] is None else item[1]), item[0]))
    return ranked[:count]


# ----------------------------------------------------------------------
# the causal report
# ----------------------------------------------------------------------
def causal_report(
    events: Iterable[Record], slot: int, node: int
) -> list[str]:
    """Why did this node's slot take as long as it did — as text lines.

    Replays the node's timeline: seed arrival, every fetch round with
    its query fates, reconstructions, defense actions and the phase
    completions, ending with a one-line summary suitable for a
    "slowest node" report.
    """
    mine = [e for e in events if e.get("slot", -1) == slot and e.get("node", -1) == node]
    mine.sort(key=lambda e: e["t"])
    lives = [life for life in query_lifecycles(mine).values() if life.req > 0]

    lines: list[str] = []
    slot_start = None
    for event in mine:
        if event["kind"] in ("seed_recv", "phase", "fetch_start"):
            slot_start = event["t"] - event.get("at", 0.0)
            break

    def rel(t: float) -> str:
        if slot_start is None:
            return f"t={t * 1e3:.0f}ms"
        return f"{(t - slot_start) * 1e3:.0f}ms"

    seed = next((e for e in mine if e["kind"] == "seed_recv"), None)
    if seed is not None:
        lines.append(f"seed: first parcel at {rel(seed['t'])}")
    else:
        lines.append("seed: never received (fallback fetch path)")

    ingested = [e for e in mine if e["kind"] == "cells_ingest"]
    seed_cells = sum(e.get("new", 0) for e in ingested if e.get("source") == "seed")
    resp_cells = sum(e.get("new", 0) for e in ingested if e.get("source") == "response")
    reconstructed = sum(e.get("reconstructed", 0) for e in ingested)
    lines.append(
        f"cells: {seed_cells} from seeding, {resp_cells} from peers, "
        f"{reconstructed} by reconstruction"
    )

    by_round: dict[int, list[QueryLifecycle]] = {}
    for life in lives:
        by_round.setdefault(life.round, []).append(life)
    round_lines: list[str] = []
    for event in mine:
        if event["kind"] != "fetch_round":
            continue
        rnd = event.get("round", 0)
        fates = by_round.get(rnd, [])
        timeouts = sum(1 for f in fates if f.outcome == "timeout")
        cancels = sum(1 for f in fates if f.outcome == "cancel")
        answered = sum(1 for f in fates if f.outcome == "response")
        late = sum(1 for f in fates if f.outcome == "response" and f.late)
        round_lines.append(
            f"round {rnd} at {rel(event['t'])}: targets={event.get('targets', 0)} "
            f"queries={event.get('queries', 0)} answered={answered} ({late} late) "
            f"timeouts={timeouts} cancelled={cancels}"
        )
    # a node that never finishes keeps probing a long tail of identical
    # rounds — keep the report readable by eliding the middle
    if len(round_lines) > 12:
        elided = len(round_lines) - 10
        round_lines = round_lines[:8] + [f"... {elided} more round(s) ..."] + round_lines[-2:]
    lines.extend(round_lines)
    recycle_totals: dict[str, tuple[int, int]] = {}
    for event in mine:
        if event["kind"] != "query_recycle":
            continue
        pool = event.get("pool", "?")
        count, times = recycle_totals.get(pool, (0, 0))
        recycle_totals[pool] = (count + event.get("count", 0), times + 1)
    for pool, (count, times) in sorted(recycle_totals.items()):
        lines.append(f"recycled {count} {pool} peer(s) over {times} event(s)")

    defenses: dict[str, float] = {}
    for event in mine:
        if event["kind"] == "defense":
            name = event.get("defense", "?")
            defenses[name] = defenses.get(name, 0.0) + event.get("amount", 1.0)
    if defenses:
        lines.append(
            "defenses: "
            + ", ".join(f"{k}={int(v)}" for k, v in sorted(defenses.items()))
        )

    # overload causes (PR 7/8 trace kinds): a slow node under sustained
    # load is often not "unlucky peers" but backpressure — name it
    overflows = sum(1 for e in mine if e["kind"] == "queue_overflow")
    sheds: dict[str, float] = {}
    for event in mine:
        if event["kind"] == "load_shed":
            name = event.get("shed", "?")
            sheds[name] = sheds.get(name, 0.0) + event.get("amount", 1.0)
    backoff_waves = sum(1 for e in mine if e["kind"] == "retry_backoff")
    abandoned = sum(
        1 for e in mine if e["kind"] == "fetch_done" and e.get("reason") == "abandoned"
    )
    if overflows:
        lines.append(f"overload: inbox overflow dropped {overflows} datagram(s)")
    if sheds:
        lines.append(
            "overload: shed "
            + ", ".join(f"{k}={int(v)}" for k, v in sorted(sheds.items()))
        )
    if backoff_waves or abandoned:
        lines.append(
            f"overload: {backoff_waves} retry backoff wave(s), "
            f"{abandoned} retry(ies) abandoned at the deadline"
        )

    completions = phase_completions(mine).get((slot, node), {})
    for phase in ("consolidation", "sampling"):
        at = completions.get(phase)
        lines.append(
            f"{phase}: {'never completed' if at is None else f'done at {at * 1e3:.0f}ms'}"
        )

    peers = {life.peer for life in lives}
    timeouts = sum(1 for life in lives if life.outcome == "timeout")
    late = sum(1 for life in lives if life.outcome == "response" and life.late)
    sampling = completions.get("sampling")
    head = (
        f"sampling took {sampling * 1e3:.0f}ms"
        if sampling is not None
        else "sampling never completed"
    )
    why = (
        f"why: {head} — {len(by_round)} round(s), {len(peers)} peer(s) queried, "
        f"{timeouts} timeout(s), {late} late repl(ies), {reconstructed} cell(s) reconstructed"
    )
    causes: list[str] = []
    if overflows:
        causes.append(f"{overflows} inbox overflow(s)")
    if sheds:
        causes.append(f"{int(sum(sheds.values()))} shed")
    if abandoned:
        causes.append(f"{abandoned} abandoned retry(ies)")
    if causes:
        why += "; overloaded: " + ", ".join(causes)
    lines.append(why)
    return lines


def trace_report(
    events: Iterable[Record],
    slot: int = 0,
    phase: str = "sampling",
    count: int = 3,
) -> list[str]:
    """Slowest-node ranking plus a causal report for the very slowest,
    as the text lines ``repro trace FILE`` ends with."""
    materialized = list(events)
    problems = lifecycle_problems(materialized)
    lines = [
        f"trace report: slot {slot}, slowest by {phase}",
        f"  query lifecycle: {'OK' if not problems else f'{len(problems)} problem(s)'}",
    ]
    lines.extend(f"    !! {problem}" for problem in problems[:5])
    ranked = slowest_nodes(materialized, slot=slot, phase=phase, count=count)
    if not ranked:
        return [*lines, "  (no node events in this slot)"]
    for node, at in ranked:
        done = "miss" if at is None else f"{at * 1e3:.0f}ms"
        lines.append(f"  node {node:>5}: {phase} {done}")
    slowest, _at = ranked[0]
    lines.append(f"  -- node {slowest} causal timeline --")
    lines.extend("  " + line for line in causal_report(materialized, slot, slowest))
    return lines
