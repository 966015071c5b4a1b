"""reprolint: rule fixtures, pragma semantics, engine behaviour, and
the meta-test pinning that ``src/`` itself lints clean.

Every rule has a positive fixture (must fire, with the expected count)
and a negative fixture (must stay silent) under
``tests/analysis_fixtures/``; the fixtures double as documentation of
what each rule does and does not claim.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.reprolint import (
    Finding,
    LintConfig,
    Linter,
    active,
    parse_pragmas,
    registered_rules,
    rule_code_span,
)
from repro.analysis.reprolint.cli import run as reprolint_run
from repro.analysis.reprolint.rules import _EMIT_NAMES, UnknownTraceKind
from repro.core.context import ProtocolContext
from repro.core.fetching import AdaptiveFetcher
from repro.sim.bus import EventBus

TESTS_DIR = Path(__file__).parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
REPO_ROOT = TESTS_DIR.parent
SRC = REPO_ROOT / "src"

ALL_RULES = (
    "RL001",
    "RL002",
    "RL003",
    "RL004",
    "RL005",
    "RL006",
    "RL008",
    "RL010",
)


def lint_fixture(name: str, **config_kwargs) -> list[Finding]:
    config = LintConfig(**config_kwargs)
    path = FIXTURES / name
    return Linter(config).lint_paths([path], root=FIXTURES)


def codes(findings: list[Finding]) -> list[str]:
    return [f.rule for f in active(findings)]


# ----------------------------------------------------------------------
# rule fixtures: positive (exact count) and negative (silent)
# ----------------------------------------------------------------------
POSITIVE_EXPECTATIONS = {
    "rl001_bad.py": ("RL001", 6),
    "rl002_bad.py": ("RL002", 4),
    "rl002_telemetry_bad.py": ("RL002", 3),
    "rl003_bad.py": ("RL003", 4),
    "rl004_bad.py": ("RL004", 2),
    "rl004_bus_bad.py": ("RL004", 1),
    "rl005_bad.py": ("RL005", 3),
    "rl006_bad.py": ("RL006", 2),
    "rl008_bad.py": ("RL008", 2),
    "rl010_bad.py": ("RL010", 2),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("fixture", sorted(POSITIVE_EXPECTATIONS))
    def test_positive_fixture_fires(self, fixture):
        rule, count = POSITIVE_EXPECTATIONS[fixture]
        found = codes(lint_fixture(fixture))
        assert found == [rule] * count, found

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_negative_fixture_silent(self, rule):
        fixture = f"{rule.lower()}_good.py"
        assert codes(lint_fixture(fixture)) == []

    def test_every_rule_has_both_fixtures(self):
        for code in registered_rules():
            assert (FIXTURES / f"{code.lower()}_bad.py").exists(), code
            assert (FIXTURES / f"{code.lower()}_good.py").exists(), code

    def test_findings_carry_location(self):
        findings = active(lint_fixture("rl001_bad.py"))
        for finding in findings:
            assert finding.path == "rl001_bad.py"
            assert finding.line > 0 and finding.col > 0
            assert "RngRegistry" in finding.message


class TestRuleDetails:
    def test_rl001_allows_random_class_reference(self):
        findings = Linter().lint_source(
            "import random\nrng = random.Random(7)\n", "snippet.py"
        )
        assert codes(findings) == []

    def test_rl001_catches_aliased_numpy(self):
        source = "import numpy.random as npr\nnpr.standard_normal(4)\n"
        assert codes(Linter().lint_source(source, "s.py")) == ["RL001"]

    def test_rl001_catches_retry_jitter_regression(self):
        """Backoff jitter in the retry path must come from the seeded
        sim RNG (``RngRegistry.stream``), never the ``random`` module —
        a global draw would desync every `repro pipeline` replay."""
        assert codes(lint_fixture("rl001_retry_bad.py")) == ["RL001"] * 2
        assert codes(lint_fixture("rl001_retry_good.py")) == []

    def test_fetching_retry_path_draws_from_stream_rng(self):
        """The real retry implementation lints clean and carries no
        reprolint suppression around its jitter draw."""
        path = SRC / "repro" / "core" / "fetching.py"
        findings = Linter().lint_paths([path], root=SRC)
        assert [f.rule for f in active(findings)] == []
        assert "reprolint: disable=RL001" not in path.read_text()

    def test_rl002_allowlist_covers_profiler(self):
        source = "import time\nstart = time.perf_counter()\n"
        # same source: flagged at an arbitrary path, allowed in the profiler
        assert codes(Linter().lint_source(source, "repro/obs/other.py")) == ["RL002"]
        assert codes(Linter().lint_source(source, "repro/obs/profiler.py")) == []

    def test_rl002_telemetry_sampler_stays_sim_clocked(self):
        """Telemetry must not read the wall clock: the sampler fixture
        pair pins that real time is flagged inside sampling logic and
        that only the injected-heartbeat shape lints clean. The
        allowlist admits the heartbeat module, never the registry."""
        assert codes(lint_fixture("rl002_telemetry_good.py")) == []
        source = "import time\nlast = time.monotonic()\n"
        assert codes(Linter().lint_source(source, "repro/obs/progress.py")) == []
        assert (
            codes(Linter().lint_source(source, "repro/obs/telemetry.py"))
            == ["RL002"]
        )

    def test_rl003_requires_a_sink(self):
        source = (
            "def census(peers: set):\n"
            "    total = 0\n"
            "    for p in peers:\n"
            "        total += p\n"
            "    return total\n"
        )
        assert codes(Linter().lint_source(source, "s.py")) == []

    def test_rl003_infers_through_set_operators(self):
        source = (
            "def go(a: set, b: set, transport):\n"
            "    for p in a & b:\n"
            "        transport.send(p, None)\n"
        )
        assert codes(Linter().lint_source(source, "s.py")) == ["RL003"]

    def test_rl003_flags_set_into_send_in_gossip_loop(self):
        """The one real bug reprolint has found: mesh forwarding that
        walked a peer set in hash order straight into the send path."""
        source = (
            "class PubSub:\n"
            "    def __init__(self):\n"
            "        self._mesh: dict[tuple, set[int]] = {}\n"
            "    def on_datagram(self, member, dgram):\n"
            "        message = dgram.payload\n"
            "        for neighbor in self._mesh.get((message.topic, member), ()):\n"
            "            if neighbor != dgram.src:\n"
            "                self._push(member, neighbor, message)\n"
        )
        assert codes(Linter().lint_source(source, "s.py")) == ["RL003"]
        fixed = source.replace(
            "in self._mesh.get((message.topic, member), ())",
            "in sorted(self._mesh.get((message.topic, member), ()))",
        )
        assert codes(Linter().lint_source(fixed, "s.py")) == []

    def test_rl004_follows_the_bus(self):
        """A kind published on the bus is checked like any other: an
        uncataloged one is flagged, a cataloged one is not. The emitter
        vocabulary names exactly the bus's emission methods."""
        found = active(lint_fixture("rl004_bus_bad.py"))
        assert codes(found) == ["RL004"]
        assert "'uncataloged'" in found[0].message
        assert codes(lint_fixture("rl004_bus_good.py")) == []
        assert UnknownTraceKind._EMITTERS == {"emit", "_emit"}
        assert UnknownTraceKind._EMITTERS <= _EMIT_NAMES
        assert not {"trace", "_trace"} & _EMIT_NAMES
        for owner, name in (
            (ProtocolContext, "emit"),
            (EventBus, "emit"),
            (AdaptiveFetcher, "_emit"),
        ):
            assert callable(getattr(owner, name))

    def test_rl005_accepts_order_comparisons(self):
        source = "def f(now, deadline):\n    return deadline <= now\n"
        assert codes(Linter().lint_source(source, "s.py")) == []

    def test_rl006_allows_narrow_swallow(self):
        source = "try:\n    f()\nexcept KeyError:\n    pass\n"
        assert codes(Linter().lint_source(source, "s.py")) == []

    def test_rl008_owner_module_is_allowed(self):
        source = 'def go(rngs):\n    return rngs.stream("seeding", 1)\n'
        assert codes(Linter().lint_source(source, "repro/core/builder.py")) == []
        assert codes(Linter().lint_source(source, "repro/core/node.py")) == ["RL008"]

    def test_rl010_derived_time_is_silent_in_nested_function(self):
        # a def boundary ends the loop ancestry walk: the inner function
        # body does not repeat with the outer loop
        source = (
            "def outer(items, dt):\n"
            "    for item in items:\n"
            "        def later(t):\n"
            "            t += dt\n"
            "            return t\n"
        )
        assert codes(Linter().lint_source(source, "s.py")) == []

    def test_syntax_error_is_reported_not_raised(self):
        findings = Linter().lint_source("def broken(:\n", "s.py")
        assert codes(findings) == ["RL000"]
        assert "does not parse" in findings[0].message


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_parse_forms(self):
        source = (
            "x = 1  # reprolint: disable=RL001 -- because\n"
            "# reprolint: disable=RL001,RL003 -- two codes\n"
            "# reprolint: disable-file=RL005 -- whole module\n"
            "y = 2  # reprolint: disable=RL002\n"
        )
        pragmas = parse_pragmas(source)
        assert [p.line for p in pragmas] == [1, 2, 3, 4]
        assert pragmas[1].codes == ("RL001", "RL003")
        assert pragmas[2].file_wide
        assert not pragmas[3].documented

    def test_documented_pragmas_suppress(self):
        findings = lint_fixture("pragmas.py")
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 3
        # the only *active* finding is RL000 for the undocumented pragma
        assert codes(findings) == ["RL000"]
        documented = [f for f in suppressed if f.justification]
        assert len(documented) == 2

    def test_allow_undocumented_config(self):
        findings = lint_fixture("pragmas.py", require_justification=False)
        assert codes(findings) == []

    def test_file_wide_pragma(self):
        source = (
            "# reprolint: disable-file=RL001 -- fixture-style module\n"
            "import random\n"
            "a = random.random()\n"
            "b = random.random()\n"
        )
        findings = Linter().lint_source(source, "s.py")
        assert codes(findings) == []
        assert sum(f.suppressed for f in findings) == 2

    def test_unknown_code_in_pragma_flagged(self):
        source = "x = 1  # reprolint: disable=RL999 -- no such rule\n"
        findings = Linter().lint_source(source, "s.py")
        assert codes(findings) == ["RL000"]
        assert "unknown rule" in findings[0].message

    def test_pragma_does_not_leak_to_later_lines(self):
        source = (
            "import random\n"
            "a = random.random()  # reprolint: disable=RL001 -- this one only\n"
            "b = random.random()\n"
        )
        assert codes(Linter().lint_source(source, "s.py")) == ["RL001"]


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_select_and_ignore(self):
        findings = lint_fixture("rl001_bad.py", select=("RL002",))
        assert codes(findings) == []
        findings = lint_fixture("rl002_bad.py", ignore=("RL002",))
        assert codes(findings) == []

    def test_custom_allowlist(self):
        findings = lint_fixture(
            "rl001_bad.py",
            allowlists={"RL001": ("rl001_bad.py",)},
        )
        assert codes(findings) == []

    def test_findings_sorted_by_location(self):
        findings = active(lint_fixture("rl001_bad.py"))
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys)

    def test_registry_is_complete(self):
        assert tuple(registered_rules()) == ALL_RULES

    def test_rule_code_span_derives_from_registry(self):
        assert rule_code_span() == f"{ALL_RULES[0]}-{ALL_RULES[-1]}"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, capsys):
        assert reprolint_run([str(FIXTURES / "rl001_good.py")]) == 0
        assert reprolint_run([str(FIXTURES / "rl001_bad.py")]) == 1
        assert reprolint_run([str(FIXTURES / "no_such_file.py")]) == 2
        capsys.readouterr()

    def test_json_output(self, capsys):
        code = reprolint_run(["--json", str(FIXTURES / "rl005_bad.py")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert len(payload["findings"]) == 3
        assert {f["rule"] for f in payload["findings"]} == {"RL005"}

    def test_list_rules(self, capsys):
        assert reprolint_run(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == list(ALL_RULES)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "RL003" in proc.stdout


# ----------------------------------------------------------------------
# the meta-test: this repository obeys its own contract
# ----------------------------------------------------------------------
class TestTreeIsClean:
    def test_src_lints_clean(self):
        findings = Linter().lint_paths([SRC], root=REPO_ROOT)
        gating = active(findings)
        assert gating == [], "\n".join(f.format() for f in gating)

    def test_every_suppression_is_documented(self):
        findings = Linter().lint_paths([SRC], root=REPO_ROOT)
        undocumented = [
            f for f in findings if f.suppressed and not f.justification
        ]
        assert undocumented == [], "\n".join(f.format() for f in undocumented)
