"""``python -m repro.analysis`` — the reprolint command line.

Exit codes: 0 clean, 1 findings, 2 usage/IO error — the contract the
CI gate and pre-commit hook rely on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.reprolint.engine import (
    LintConfig,
    Linter,
    iter_python_files,
    rule_code_span,
)
from repro.analysis.reprolint.report import (
    active,
    render_human,
    render_json,
    render_rule_catalog,
)

__all__ = ["main", "build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "reprolint: determinism/protocol static analysis for this "
            f"repository (rules {rule_code_span()}; see tests/README.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default="", metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by pragmas",
    )
    parser.add_argument(
        "--allow-undocumented", action="store_true",
        help="do not require a justification on disable pragmas",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="base directory for reported paths (default: cwd)",
    )
    return parser


def _codes(spec: str | None) -> tuple | None:
    if spec is None:
        return None
    return tuple(code.strip() for code in spec.split(",") if code.strip())


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_catalog())
        return 0
    config = LintConfig(
        select=_codes(args.select),
        ignore=_codes(args.ignore) or (),
        require_justification=not args.allow_undocumented,
    )
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"reprolint: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    files = list(iter_python_files(paths))
    root = Path(args.root) if args.root else None
    findings = Linter(config).lint_paths(paths, root=root)
    if args.json:
        print(render_json(findings, len(files)))
    else:
        print(render_human(findings, len(files), show_suppressed=args.show_suppressed))
    return 1 if active(findings) else 0


def main() -> None:  # pragma: no cover - thin wrapper
    try:
        sys.exit(run())
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `... --json | head`); exit with
        # the conventional SIGPIPE status instead of a traceback
        sys.stderr.close()
        sys.exit(141)
