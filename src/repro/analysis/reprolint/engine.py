"""The reprolint rule engine.

``reprolint`` is this repository's own static-analysis pass: it encodes
the determinism and protocol invariants that make seeded runs
bit-identical (ROADMAP "Tier-1 verify", tests/test_determinism.py) as
machine-checkable rules over the Python AST.

The engine is deliberately small:

- a **registry** of :class:`Rule` subclasses keyed by code (``RL001``);
- a single-pass **dispatching walker** — the tree is traversed once per
  file and each node is offered to every rule that declared interest in
  its type, so adding rules does not multiply traversal cost;
- per-file **context** (:class:`RuleContext`) with shared services the
  rules would otherwise each rebuild: import-alias resolution
  (``np.random`` -> ``numpy.random``), dotted-name rendering, and a
  lightweight set-type inferencer (:mod:`settypes`);
- **pragmas** — ``# reprolint: disable=RL003 -- <justification>`` —
  with the justification *required*: an undocumented suppression is
  itself a finding (``RL000``), which is how the acceptance criterion
  "zero undocumented pragmas" is enforced by the tool instead of by
  reviewers;
- per-rule **allowlists** for the files that legitimately own an
  invariant's implementation (``sim/rng.py`` may touch ``random``;
  ``obs/progress.py`` may read the wall clock).
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator, Sequence

__all__ = [
    "Finding",
    "LintConfig",
    "Linter",
    "Pragma",
    "Rule",
    "RuleContext",
    "iter_python_files",
    "parse_pragmas",
    "register",
    "registered_rules",
    "rule_code_span",
]


PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<verb>disable|disable-file)\s*=\s*"
    r"(?P<codes>(?:RL\d{3}|all)(?:\s*,\s*(?:RL\d{3}|all))*)"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation (or suppression problem) at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.suppressed:
            out["suppressed"] = True
            out["justification"] = self.justification
        return out


@dataclass(frozen=True)
class Pragma:
    """One ``# reprolint: disable=...`` comment.

    ``line`` is the physical line the comment sits on; a line-scoped
    pragma suppresses findings reported on that line or the next one
    (so it can ride above a long statement). ``file_wide`` pragmas
    (``disable-file``) suppress the rule everywhere in the module.
    """

    line: int
    codes: tuple[str, ...]
    justification: str | None
    file_wide: bool = False
    # True when the pragma line holds nothing but the comment; only
    # then does it also cover the next line (the ride-above style) —
    # a trailing pragma must not leak past its own statement.
    standalone: bool = False

    def covers(self, code: str, line: int) -> bool:
        if code not in self.codes and "all" not in self.codes:
            return False
        if self.file_wide:
            return True
        if self.standalone:
            return line in (self.line, self.line + 1)
        return line == self.line

    @property
    def documented(self) -> bool:
        return bool(self.justification)


def parse_pragmas(source: str) -> list[Pragma]:
    """Extract every reprolint pragma from ``source``.

    Comment detection is line-based: a ``#`` inside a string literal on
    the same physical line could false-positive, but writing the pragma
    token inside a string is contrived enough that the simplicity wins
    (and the fixture suite pins the behaviour).
    """
    pragmas: list[Pragma] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "reprolint" not in text or "#" not in text:
            continue
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = tuple(c.strip() for c in match.group("codes").split(","))
        pragmas.append(
            Pragma(
                line=lineno,
                codes=codes,
                justification=match.group("why"),
                file_wide=match.group("verb") == "disable-file",
                standalone=not text.split("#", 1)[0].strip(),
            )
        )
    return pragmas


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
# Files that legitimately own an invariant (matched as path suffixes or
# fnmatch patterns against the /-normalized relative path). These are
# the *repo's* defaults — LintConfig callers can extend or replace.
DEFAULT_ALLOWLISTS: dict[str, tuple[str, ...]] = {
    # The registry itself must touch ``random`` to build its streams.
    "RL001": ("sim/rng.py",),
    # The heartbeat progress line is the product's only wall clock
    # use — isolated in its own module precisely so telemetry.py
    # itself stays RL002-clean (the sampler runs on sim time only).
    # Host-time profiling attaches from outside through
    # Simulator.set_profiler and never lives under src/.
    "RL002": ("obs/progress.py",),
}


@dataclass
class LintConfig:
    """Engine + rule configuration.

    ``select``/``ignore`` filter rule codes; ``allowlists`` maps a rule
    code to path patterns it must skip; ``require_justification``
    turns undocumented pragmas into RL000 findings.
    """

    select: tuple[str, ...] | None = None
    ignore: tuple[str, ...] = ()
    allowlists: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOWLISTS)
    )
    require_justification: bool = True

    def rule_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        if self.select is not None:
            return code in self.select
        return True

    def allowlisted(self, code: str, rel_path: str) -> bool:
        patterns = self.allowlists.get(code, ())
        return any(
            rel_path.endswith(pattern) or fnmatch.fnmatch(rel_path, pattern)
            for pattern in patterns
        )


# ----------------------------------------------------------------------
# import-alias resolution
# ----------------------------------------------------------------------
class ImportMap:
    """Resolves names/attribute chains to canonical dotted module paths.

    ``import numpy as np`` maps ``np`` -> ``numpy``; ``from time import
    perf_counter as pc`` maps ``pc`` -> ``time.perf_counter``; ``from
    datetime import datetime`` maps ``datetime`` -> ``datetime.datetime``
    — so rules match on canonical names regardless of aliasing, the
    classic evasion in hand-written grep gates.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self._aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name for a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def dotted_name(node: ast.AST) -> str | None:
    """Source-level dotted rendering (``self.rng.choice``) or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call) or not parts:
        return None
    else:
        parts.append("?")
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
class RuleContext:
    """Per-file services and the findings sink handed to every rule."""

    def __init__(self, rel_path: str, tree: ast.Module) -> None:
        self.rel_path = rel_path
        self.tree = tree
        self.imports = ImportMap(tree)
        self.findings: list[Finding] = []
        # parents let rules look outward (RL003 asks "is this
        # comprehension an argument of an RNG call?")
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule.code,
                path=self.rel_path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )


class Rule:
    """Base class: subclass, set the metadata, register, visit.

    ``node_types`` declares which AST node classes the rule wants; the
    walker calls :meth:`visit` for exactly those. ``start_file`` /
    ``finish_file`` bracket each module for rules that carry per-file
    state (RL003's type inferencer).
    """

    code: str = "RL000"
    name: str = ""
    rationale: str = ""
    node_types: tuple[type[ast.AST], ...] = ()

    def start_file(self, ctx: RuleContext) -> None:  # pragma: no cover - default
        pass

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        raise NotImplementedError

    def finish_file(self, ctx: RuleContext) -> None:  # pragma: no cover - default
        pass


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    code = rule_cls.code
    if not re.fullmatch(r"RL\d{3}", code):
        raise ValueError(f"bad rule code {code!r}")
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code}")
    _REGISTRY[code] = rule_cls
    return rule_cls


def registered_rules() -> dict[str, type[Rule]]:
    """The registry by code, sorted (importing loads the built-in set)."""
    from repro.analysis.reprolint import rules as _rules  # noqa: F401

    return dict(sorted(_REGISTRY.items()))


def rule_code_span() -> str:
    """``"RL001-RL010"`` — derived from the registry, never hard-coded.

    Catalog strings in ``--help`` output and docs are built from this
    so a new rule cannot drift out of the documentation.
    """
    codes = list(registered_rules())
    if not codes:
        return "none"
    if len(codes) == 1:
        return codes[0]
    return f"{codes[0]}-{codes[-1]}"


# ----------------------------------------------------------------------
# the linter
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen = []
    for path in paths:
        if path.is_dir():
            seen.extend(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            seen.append(path)
    return iter(sorted(set(seen)))


class Linter:
    """Runs the registered rules over files and applies pragmas."""

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config or LintConfig()
        self.rules: list[Rule] = [
            rule_cls()
            for code, rule_cls in registered_rules().items()
            if self.config.rule_enabled(code)
        ]

    def lint_source(self, source: str, rel_path: str) -> list[Finding]:
        """Lint one module's source; returns findings incl. suppressed."""
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            return [
                Finding(
                    rule="RL000",
                    path=rel_path,
                    line=exc.lineno or 0,
                    col=(exc.offset or 0),
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        ctx = RuleContext(rel_path, tree)
        active = [
            rule
            for rule in self.rules
            if not self.config.allowlisted(rule.code, rel_path)
        ]
        dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in active:
            rule.start_file(ctx)
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        if dispatch:
            for node in ast.walk(tree):
                for rule in dispatch.get(type(node), ()):
                    rule.visit(node, ctx)
        for rule in active:
            rule.finish_file(ctx)
        return self._apply_pragmas(ctx.findings, source, rel_path)

    def _apply_pragmas(
        self, findings: list[Finding], source: str, rel_path: str
    ) -> list[Finding]:
        pragmas = parse_pragmas(source)
        out: list[Finding] = []
        for finding in findings:
            pragma = next(
                (p for p in pragmas if p.covers(finding.rule, finding.line)), None
            )
            if pragma is None:
                out.append(finding)
            else:
                out.append(
                    Finding(
                        rule=finding.rule,
                        path=finding.path,
                        line=finding.line,
                        col=finding.col,
                        message=finding.message,
                        suppressed=True,
                        justification=pragma.justification,
                    )
                )
        if self.config.require_justification:
            known = set(registered_rules()) | {"all", "RL000"}
            for pragma in pragmas:
                if not pragma.documented:
                    out.append(
                        Finding(
                            rule="RL000",
                            path=rel_path,
                            line=pragma.line,
                            col=1,
                            message=(
                                "undocumented suppression: add a justification "
                                "('# reprolint: disable=RLxxx -- <why>')"
                            ),
                        )
                    )
                for code in pragma.codes:
                    if code not in known:
                        out.append(
                            Finding(
                                rule="RL000",
                                path=rel_path,
                                line=pragma.line,
                                col=1,
                                message=f"pragma names unknown rule {code}",
                            )
                        )
        out.sort(key=Finding.sort_key)
        return out

    def lint_paths(
        self, paths: Sequence[Path], root: Path | None = None
    ) -> list[Finding]:
        """Lint files/directories; paths in findings are ``root``-relative."""
        findings: list[Finding] = []
        for file_path in iter_python_files([Path(p) for p in paths]):
            rel = _relativize(file_path, root)
            try:
                source = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(
                    Finding("RL000", rel, 0, 0, f"unreadable file: {exc}")
                )
                continue
            findings.extend(self.lint_source(source, rel))
        findings.sort(key=Finding.sort_key)
        return findings


def _relativize(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        rel = path.resolve().relative_to(Path(base).resolve())
    except ValueError:
        rel = path
    return rel.as_posix()
