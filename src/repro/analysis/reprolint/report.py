"""Rendering lint results for humans and machines."""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.analysis.reprolint.engine import Finding, registered_rules

__all__ = ["active", "render_human", "render_json", "render_rule_catalog", "summary_line"]


def active(findings: Sequence[Finding]) -> list[Finding]:
    """Findings that gate the exit code (i.e. not suppressed)."""
    return [f for f in findings if not f.suppressed]


def summary_line(findings: Sequence[Finding], files: int) -> str:
    gating = active(findings)
    suppressed = len(findings) - len(gating)
    per_rule: dict[str, int] = {}
    for finding in gating:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    breakdown = (
        " (" + ", ".join(f"{code}={n}" for code, n in sorted(per_rule.items())) + ")"
        if per_rule
        else ""
    )
    return (
        f"reprolint: {len(gating)} finding(s){breakdown}, "
        f"{suppressed} suppressed, {files} file(s) checked"
    )


def render_human(
    findings: Sequence[Finding], files: int, show_suppressed: bool = False
) -> str:
    lines = [
        f.format()
        for f in findings
        if show_suppressed or not f.suppressed
    ]
    lines.append(summary_line(findings, files))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files: int) -> str:
    gating = active(findings)
    payload = {
        "findings": [f.to_dict() for f in gating],
        "suppressed": [f.to_dict() for f in findings if f.suppressed],
        "files_checked": files,
        "exit_code": 1 if gating else 0,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """The ``--list-rules`` table: code, name, first rationale line.

    Generated from the registry, so a newly registered rule appears
    here without touching any docs.
    """
    rows = []
    for code, rule_cls in registered_rules().items():
        doc = (rule_cls.__doc__ or "").strip().splitlines()
        headline = doc[0] if doc else rule_cls.rationale
        rows.append(f"{code}  {rule_cls.name:<24} {headline}")
    return "\n".join(rows)
