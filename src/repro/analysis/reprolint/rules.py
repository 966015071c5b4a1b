"""The built-in per-file reprolint rule catalog.

Each rule encodes one clause of this repo's determinism/protocol
contract (tests/README.md "The determinism contract"):

========  ==============================================================
RL001     all randomness flows through ``RngRegistry`` streams
RL002     no wall clock inside simulation logic
RL003     no hash-ordered iteration feeding RNG draws or sends
RL004     every emitted event kind is in the ``obs/events.py`` catalog
RL005     no float equality on simulated-time values
RL006     no silently swallowed exceptions in sim code
RL008     RNG streams are drawn only by their registered owner module
RL010     no sim-time accumulated by repeated float ``+=`` in loops
========  ==============================================================

Rules are registered via :func:`repro.analysis.reprolint.engine.register`
and instantiated fresh per :class:`Linter`, so per-file state on the
rule instance is safe.
"""

from __future__ import annotations

import ast

from repro.analysis.reprolint.engine import (
    Rule,
    RuleContext,
    dotted_name,
    register,
)
from repro.analysis.reprolint.settypes import ExprKind, SetTypeInferencer

__all__ = [
    "GlobalRandomState",
    "WallClock",
    "UnorderedIteration",
    "UnknownTraceKind",
    "FloatTimeEquality",
    "SwallowedException",
    "StreamOwnership",
    "AccumulatedFloatTime",
]


def _outermost_attribute(node: ast.AST, ctx: RuleContext) -> bool:
    """True when ``node`` is not itself part of a longer dotted chain.

    ``numpy.random.seed`` is one violation, not three: only the full
    chain reports; inner Attribute/Name links are skipped.
    """
    parent = ctx.parent(node)
    return not (isinstance(parent, ast.Attribute) and parent.value is node)


# ----------------------------------------------------------------------
# RL001
# ----------------------------------------------------------------------
@register
class GlobalRandomState(Rule):
    """Module-level RNG state outside the registry.

    ``random.random()`` / ``random.seed()`` / ``numpy.random.*`` share
    interpreter-global state: one stray draw re-aligns every subsequent
    draw in the process and silently breaks seeded replay. Only
    ``sim/rng.py`` (allowlisted) may touch the ``random`` module to
    build its independent streams; everything else receives a
    ``random.Random`` from ``RngRegistry.stream(...)``.
    """

    code = "RL001"
    name = "global-random-state"
    rationale = (
        "global random module state breaks seeded replay; draw from an "
        "RngRegistry stream instead"
    )
    node_types = (ast.Attribute, ast.Name)

    # referencing the classes is fine: instantiating random.Random(seed)
    # is exactly how the registry builds its streams
    _ALLOWED = {"random.Random", "random.SystemRandom"}

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if not _outermost_attribute(node, ctx):
            return
        if isinstance(node, ast.Name):
            resolved = ctx.imports.resolve(node)
            if resolved == node.id:
                return  # not an alias; bare names carry no module state
        else:
            resolved = ctx.imports.resolve(node)
        if resolved is None or resolved in self._ALLOWED:
            return
        if resolved.startswith("random.") or resolved.startswith("numpy.random"):
            ctx.report(
                self,
                node,
                f"global RNG state `{resolved}` used outside sim/rng.py; "
                "draw from an RngRegistry stream instead",
            )


# ----------------------------------------------------------------------
# RL002
# ----------------------------------------------------------------------
@register
class WallClock(Rule):
    """Wall-clock reads reachable from simulation logic.

    Simulated time is ``sim.now``; real time differs across hosts and
    runs, so any wall-clock value that feeds protocol state or metrics
    destroys bit-identical replay. The heartbeat (allowlisted) is the
    one legitimate consumer — it only prints progress. Host-time
    profiling attaches through ``Simulator.set_profiler`` and is pinned
    behavior-neutral by the fingerprint-equality tests.
    """

    code = "RL002"
    name = "wall-clock"
    rationale = "wall-clock time varies across runs; use sim.now"
    node_types = (ast.Attribute, ast.Name)

    _FORBIDDEN = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if not _outermost_attribute(node, ctx):
            return
        if isinstance(node, ast.Name):
            resolved = ctx.imports.resolve(node)
            if resolved == node.id:
                return
        else:
            resolved = ctx.imports.resolve(node)
        if resolved in self._FORBIDDEN:
            ctx.report(
                self,
                node,
                f"wall-clock `{resolved}` in simulation code; simulated "
                "time must come from sim.now (profilers attach via Simulator.set_profiler)",
            )


# ----------------------------------------------------------------------
# RL003
# ----------------------------------------------------------------------
_RNG_METHODS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "randint",
    "random",
    "randrange",
    "sample",
    "shuffle",
    "triangular",
    "uniform",
}
_EMIT_NAMES = {
    "broadcast",
    "call_after",
    "call_at",
    "emit",
    "_emit",
    "enqueue",
    "publish",
    "push",
    "_push",
    "schedule",
    "send",
    "send_query",
    "send_to",
}


@register
class UnorderedIteration(Rule):
    """Hash-ordered iteration feeding an RNG draw, peer choice or send.

    ``set`` iteration order depends on hash seeding and insertion
    history — an implementation detail, not part of the program's
    meaning. When loop order decides *which peer is drawn next* or *in
    what order messages leave a node*, that detail becomes protocol
    behaviour: a refactor that changes insertion order silently changes
    every downstream RNG draw. Dict views are insertion-ordered (hence
    deterministic per run) but still flagged when they feed an RNG
    draw, because consumption order re-aligns the stream across
    otherwise-equivalent code paths. Fix: iterate ``sorted(...)`` or an
    explicitly ordered list.
    """

    code = "RL003"
    name = "unordered-iteration"
    rationale = (
        "set/dict-view order is incidental; sorting makes the order part "
        "of the program text"
    )
    node_types = (ast.For, ast.Call)

    def start_file(self, ctx: RuleContext) -> None:
        self._types = SetTypeInferencer(ctx.tree)

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if isinstance(node, ast.For):
            self._visit_for(node, ctx)
        elif isinstance(node, ast.Call):
            self._visit_call(node, ctx)

    # -- for loops ------------------------------------------------------
    def _visit_for(self, node: ast.For, ctx: RuleContext) -> None:
        kind = self._types.kind(node.iter)
        if kind not in (ExprKind.SET, ExprKind.DICT_VIEW):
            return
        sink = self._body_sink(node.body)
        if sink is None:
            return
        if kind is ExprKind.DICT_VIEW and sink not in _RNG_METHODS:
            # dict views are insertion-ordered; only RNG consumption
            # order makes them a replay hazard
            return
        what = "a set" if kind is ExprKind.SET else "an unsorted dict view"
        ctx.report(
            self,
            node,
            f"iterating {what} while calling `{sink}(...)` makes "
            "hash/insertion order protocol behaviour; iterate sorted(...) "
            "or an explicitly ordered sequence",
        )

    def _body_sink(self, body) -> str | None:
        """Name of the first RNG/emission call inside the loop body."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = None
                if isinstance(func, ast.Attribute):
                    name = func.attr
                elif isinstance(func, ast.Name):
                    name = func.id
                if name in _RNG_METHODS or name in _EMIT_NAMES:
                    return name
        return None

    # -- rng calls over set-typed arguments -----------------------------
    def _visit_call(self, node: ast.Call, ctx: RuleContext) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _RNG_METHODS):
            return
        for arg in node.args:
            candidate = arg
            # list(s)/tuple(s) preserve the underlying set order;
            # sorted(s) launders it into a defined order
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id in {"list", "tuple"}
                and arg.args
            ):
                candidate = arg.args[0]
            if self._types.kind(candidate) is ExprKind.SET:
                ctx.report(
                    self,
                    node,
                    f"`{func.attr}(...)` consumes a set-ordered sequence; "
                    "RNG draws over hash order are not reproducible — "
                    "sort first (e.g. rng.choice(sorted(s)))",
                )
                return


# ----------------------------------------------------------------------
# RL004
# ----------------------------------------------------------------------
@register
class UnknownTraceKind(Rule):
    """Event emission with a kind missing from the catalog.

    The ``obs/events.py`` ``KINDS`` mapping is the contract between
    emitters and consumers (the recorder, telemetry, timeline analysis,
    lifecycle tests, CI schema checks). The bus deliberately carries
    unknown kinds at runtime, so a typo'd kind produces no error — just
    events that every subscriber silently ignores. This rule closes
    that gap at lint time: any literal first argument to ``.emit(...)``
    (``ProtocolContext.emit``, the bus, a subscriber) or the fetcher's
    ``._emit(...)`` must be cataloged.
    """

    code = "RL004"
    name = "unknown-trace-kind"
    rationale = "uncataloged event kinds are invisible to every trace consumer"
    node_types = (ast.Call,)

    _EMITTERS = {"emit", "_emit"}

    def __init__(self) -> None:
        from repro.obs.events import KINDS

        self._catalog = frozenset(KINDS)

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name not in self._EMITTERS or not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        kind = first.value
        if kind not in self._catalog:
            ctx.report(
                self,
                node,
                f"trace kind '{kind}' is not in the obs/events.py KINDS "
                "catalog; add it there (with a docstring) or fix the typo",
            )


# ----------------------------------------------------------------------
# RL005
# ----------------------------------------------------------------------
@register
class FloatTimeEquality(Rule):
    """``==`` / ``!=`` between simulated-time floats.

    Simulated timestamps are sums of float delays; two paths to "the
    same" instant can differ in the last ulp, so equality comparisons
    encode an accident of float arithmetic (the round-deadline timeout
    bug fixed in PR 2 was exactly this, written as a strict ``>`` that
    should have been ``>=``). Order comparisons are fine; equality on
    times is flagged. Identifiers are matched heuristically (``now``,
    ``t``, ``deadline``, ``*_at``, ``*_time`` …) — suppress with a
    justified pragma where an exact sentinel is intended.
    """

    code = "RL005"
    name = "float-time-equality"
    rationale = "float time equality is an accident of arithmetic, not a condition"
    node_types = (ast.Compare,)

    _TIME_TERMINALS = {"t", "now", "time", "deadline", "when", "at"}
    _TIME_SUFFIXES = ("_time", "_at", "_deadline", "_until")

    def _timeish(self, node: ast.AST) -> str | None:
        name = dotted_name(node)
        if name is None:
            return None
        terminal = name.rsplit(".", 1)[-1]
        if terminal in self._TIME_TERMINALS or terminal.endswith(self._TIME_SUFFIXES):
            return name
        return None

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:], strict=False):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            subject = self._timeish(left) or self._timeish(right)
            if subject is None:
                continue
            other = right if self._timeish(left) else left
            if isinstance(other, ast.UnaryOp) and isinstance(
                other.op, (ast.USub, ast.UAdd)
            ):
                other = other.operand  # -1 parses as USub(Constant(1))
            if isinstance(other, ast.Constant) and not isinstance(other.value, float):
                continue  # int/None/str sentinels are exact, not float math
            ctx.report(
                self,
                node,
                f"float equality on simulated time `{subject}`; compare "
                "with <=/>= (or an explicit tolerance) instead",
            )
            return


# ----------------------------------------------------------------------
# RL006
# ----------------------------------------------------------------------
@register
class SwallowedException(Rule):
    """``except: pass`` in simulation code.

    A swallowed exception inside an event callback turns a hard bug
    into a silent divergence: the run completes, the fingerprint
    changes, and nothing points at the handler that ate the traceback.
    The fault-injection subsystem exists to model failures *explicitly*
    (``faults/``); broad except-and-ignore is never the mechanism.
    """

    code = "RL006"
    name = "swallowed-exception"
    rationale = "silently dropped exceptions turn bugs into unexplained divergence"
    node_types = (ast.ExceptHandler,)

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        return any(
            isinstance(t, ast.Name) and t.id in self._BROAD for t in types
        )

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if not self._is_broad(node):
            return
        body_is_noop = all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        )
        if body_is_noop:
            ctx.report(
                self,
                node,
                "broad exception silently swallowed; narrow the type, "
                "handle it, or let it propagate (fault modelling belongs "
                "in repro.faults)",
            )


# ----------------------------------------------------------------------
# RL008
# ----------------------------------------------------------------------
@register
class StreamOwnership(Rule):
    """RNG stream drawn outside its registered owner module.

    ``RngRegistry`` gives every component an independent stream — but
    independence is only as good as ownership. If two components draw
    from the same named stream, one extra draw in either re-aligns the
    other, and A/B comparisons between policies measure stream
    contention instead of the policy. ``sim/rng.py`` exports
    ``STREAM_OWNERS`` (first label -> owning module paths); drawing a
    named stream anywhere else — or drawing an unregistered label —
    is a finding. Non-literal first labels are skipped (a registry
    passing labels through is not a draw site).
    """

    code = "RL008"
    name = "stream-ownership"
    rationale = (
        "a named RNG stream drawn from two modules re-couples their "
        "draws; every stream label has exactly one registered owner set"
    )
    node_types = (ast.Call,)

    def __init__(self) -> None:
        from repro.sim.rng import STREAM_OWNERS

        self._owners = STREAM_OWNERS

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
            return
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        label = first.value
        owners = self._owners.get(label)
        if owners is None:
            ctx.report(
                self,
                node,
                f"RNG stream label '{label}' is not registered in "
                "sim/rng.py STREAM_OWNERS; add it there with its owning "
                "module before drawing from it",
            )
            return
        if not any(ctx.rel_path.endswith(owner) for owner in owners):
            owned_by = ", ".join(owners)
            ctx.report(
                self,
                node,
                f"RNG stream '{label}' is owned by {owned_by} but drawn "
                f"here; use a stream this module owns (or transfer "
                "ownership in sim/rng.py STREAM_OWNERS)",
            )


# ----------------------------------------------------------------------
# RL010
# ----------------------------------------------------------------------
@register
class AccumulatedFloatTime(Rule):
    """Sim-time built by repeated float ``+=`` inside a loop.

    ``t += dt`` executed N times is not ``t0 + N*dt`` in float
    arithmetic: the rounding error depends on the magnitudes along the
    way, so two code paths that "obviously" reach the same instant
    disagree in the last ulp — and a heap scheduler then orders their
    events differently. Derive schedule times by multiplication
    (``t0 + i * dt``) so every path computes the identical value.
    Aggregation counters (``total_*``, ``sum_*``, ``cumulative_*``)
    are exempt: they measure, they do not schedule.
    """

    code = "RL010"
    name = "accumulated-float-time"
    rationale = (
        "repeated float += accumulates path-dependent rounding; derived "
        "multiplication gives every path the same timestamp"
    )
    node_types = (ast.AugAssign, ast.Assign)

    _TIME_TERMINALS = {"t", "now", "deadline", "when", "at"}
    _TIME_SUFFIXES = ("_time", "_at", "_deadline", "_until")
    _AGGREGATE_PREFIXES = ("total", "sum", "cum", "elapsed", "acc")

    def _timeish(self, name: str) -> bool:
        terminal = name.rsplit(".", 1)[-1]
        if terminal.startswith(self._AGGREGATE_PREFIXES):
            return False
        return terminal in self._TIME_TERMINALS or terminal.endswith(
            self._TIME_SUFFIXES
        )

    def _is_int_like(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, int)

    def _in_loop(self, node: ast.AST, ctx: RuleContext) -> bool:
        """True when ``node`` repeats: inside a loop, within one function."""
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False  # intraprocedural: the def boundary ends the walk
            if isinstance(current, (ast.For, ast.AsyncFor, ast.While)):
                return True
            current = ctx.parent(current)
        return False

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        target_name = self._accumulation(node)
        if target_name is None or not self._in_loop(node, ctx):
            return
        ctx.report(
            self,
            node,
            f"simulated time `{target_name}` accumulated by float "
            "`+=` in a loop drifts with iteration count; derive it "
            "(start + i * step) so every path computes the same "
            "timestamp",
        )

    def _accumulation(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            name = dotted_name(node.target)
            if name and self._timeish(name) and not self._is_int_like(node.value):
                return name
            return None
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
            if not isinstance(node.value.op, ast.Add):
                return None
            for target in node.targets:
                name = dotted_name(target)
                if name is None or not self._timeish(name):
                    continue
                left = dotted_name(node.value.left)
                right = dotted_name(node.value.right)
                operand = (
                    node.value.right if left == name else
                    node.value.left if right == name else None
                )
                if operand is not None and not self._is_int_like(operand):
                    return name
        return None

