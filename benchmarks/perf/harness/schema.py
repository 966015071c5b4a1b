"""``BENCHMARK.json`` as the single list of metric names, units and bounds.

The runner reports exactly the metrics the file names — no more, no
fewer — and ``compare.py`` takes its bounds from it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["HOST_METRICS", "REPO_ROOT", "Benchmark", "check", "name_problems"]

# benchmarks/perf/harness/schema.py -> repo root
REPO_ROOT = Path(__file__).resolve().parents[3]

# End-to-end metrics on the host clock. Every other end-to-end metric
# is on the simulated clock and repeats exactly for a fixed seed.
HOST_METRICS = frozenset({"setup_s", "slot_cpu_s", "slot_wall_s", "peak_rss_mb"})

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass(frozen=True)
class Benchmark:
    """The parsed contract file."""

    workloads: dict[str, str]  # name -> why
    end_to_end: dict[str, dict[str, Any]]  # name -> unit / better / bound
    per_layer: dict[str, dict[str, Any]]  # name -> unit / better

    @staticmethod
    def load(root: Path = REPO_ROOT) -> Benchmark:
        raw = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        return Benchmark(
            workloads={w["name"]: w["why"] for w in raw["workloads"]},
            end_to_end={m["name"]: m for m in raw["end_to_end"]},
            per_layer={m["name"]: m for m in raw["per_layer"]},
        )


def check(name: str, ok: bool, detail: str = "") -> dict[str, Any]:
    """One correctness check's outcome, as result files store it."""
    return {"name": name, "ok": bool(ok), "detail": detail}


def name_problems(reported: dict[str, str], declared: dict[str, dict[str, Any]]) -> list[str]:
    """Why ``reported`` (name -> unit) is not exactly ``declared``."""
    problems = [f"bad metric name {name!r}" for name in reported if not _NAME.fullmatch(name)]
    problems += [f"{name} reported but not in BENCHMARK.json" for name in reported.keys() - declared.keys()]
    problems += [f"{name} in BENCHMARK.json but not reported" for name in declared.keys() - reported.keys()]
    problems += [
        f"{name}: unit {unit!r} reported, {declared[name]['unit']!r} declared"
        for name, unit in reported.items()
        if name in declared and declared[name]["unit"] != unit
    ]
    return sorted(problems)
