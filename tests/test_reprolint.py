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
    all_rule_classes,
    load_stream_owners,
    load_trace_catalog,
    parse_pragmas,
    registered_program_rules,
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
    "RL007",
    "RL008",
    "RL009",
    "RL010",
)
PROGRAM_RULES = ("RL007",)


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
    "rl007_bad.py": ("RL007", 4),
    "rl008_bad.py": ("RL008", 2),
    "rl009_bad.py": ("RL009", 3),
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
        for code in all_rule_classes():
            if code == "RL000":
                continue
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

    def test_rl004_catalog_matches_ast_and_import(self):
        static = load_trace_catalog(SRC / "repro" / "obs" / "events.py")
        live = load_trace_catalog()
        assert static == live
        assert "fetch_start" in live

    def test_rl005_accepts_order_comparisons(self):
        source = "def f(now, deadline):\n    return deadline <= now\n"
        assert codes(Linter().lint_source(source, "s.py")) == []

    def test_rl006_allows_narrow_swallow(self):
        source = "try:\n    f()\nexcept KeyError:\n    pass\n"
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
        assert set(all_rule_classes()) == set(ALL_RULES)
        assert set(registered_program_rules()) == set(PROGRAM_RULES)
        assert set(registered_rules()) == set(ALL_RULES) - set(PROGRAM_RULES)

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
        for rule in ALL_RULES:
            assert rule in out

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

    def test_repro_lint_subcommand(self, capsys):
        from repro.cli import main

        assert main(["lint", str(FIXTURES / "rl002_good.py")]) == 0
        assert main(["lint", str(FIXTURES / "rl002_bad.py")]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# interprocedural rules (RL007-RL010) and the whole-program engine
# ----------------------------------------------------------------------
class TestInterprocedural:
    def test_cross_module_flow_found_and_anchored_at_source(self):
        findings = active(Linter().lint_paths([FIXTURES / "xmod"], root=FIXTURES))
        assert [f.rule for f in findings] == ["RL007"]
        finding = findings[0]
        assert finding.path == "xmod/source_mod.py"
        assert "custody_order -> run_bad -> relay" in finding.message
        assert "xmod/sink_mod.py" in finding.message

    def test_rl007_message_names_source_and_sink(self):
        findings = active(lint_fixture("rl007_bad.py"))
        kinds = {f.message.split(" from ")[0] for f in findings}
        assert kinds == {
            "nondeterministic set order",
            "nondeterministic id()",
            "nondeterministic os.environ",
            "nondeterministic hash()",
        }

    def test_rl007_not_reported_for_intraprocedural_flow(self):
        # same-function source→sink is RL003's territory; RL007 must
        # not double-report it
        source = (
            "def gossip(transport, peers: set):\n"
            "    for p in peers:\n"
            "        transport.send(p, b'')\n"
        )
        assert codes(Linter().lint_source(source, "s.py")) == ["RL003"]

    def test_rl007_sorted_launders_across_boundary(self):
        source = (
            "def order(peers: set):\n"
            "    return sorted(peers)\n"
            "def run(transport, peers: set):\n"
            "    for p in order(peers):\n"
            "        transport.send(p, b'')\n"
        )
        assert codes(Linter().lint_source(source, "s.py")) == []

    def test_rl008_loader_matches_ast_and_import(self):
        static = load_stream_owners(SRC / "repro" / "sim" / "rng.py")
        live = load_stream_owners()
        assert static == live
        assert "samples" in live

    def test_rl008_owner_module_is_allowed(self):
        source = 'def go(rngs):\n    return rngs.stream("seeding", 1)\n'
        assert codes(Linter().lint_source(source, "repro/core/builder.py")) == []
        assert codes(Linter().lint_source(source, "repro/core/node.py")) == ["RL008"]

    def test_rl008_extra_owners_config(self):
        source = 'def go(rngs):\n    return rngs.stream("custom", 1)\n'
        assert codes(
            Linter(
                LintConfig(extra_stream_owners={"custom": ("s.py",)})
            ).lint_source(source, "s.py")
        ) == []

    def test_rl009_engine_registry_is_allowlisted(self):
        # the linter's own rule registry is module-level but written
        # only at import time; the default allowlist admits it
        path = SRC / "repro" / "analysis" / "reprolint" / "engine.py"
        findings = Linter().lint_paths([path], root=SRC)
        assert [f.rule for f in active(findings)] == []

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


class TestCache:
    def _tree(self, tmp_path: Path) -> Path:
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "a.py").write_text(
            "def order(peers: set):\n    return list(peers)\n",
            encoding="utf-8",
        )
        (tree / "b.py").write_text(
            "from a import order\n"
            "def run(transport, peers: set):\n"
            "    for p in order(peers):\n"
            "        transport.send(p, b'')\n",
            encoding="utf-8",
        )
        return tree

    def test_cold_then_warm_and_results_identical(self, tmp_path):
        from repro.analysis.reprolint.cache import LintCache

        tree = self._tree(tmp_path)
        config = LintConfig()
        cache_path = tmp_path / "cache.json"

        cache = LintCache(cache_path, config)
        first = Linter(config).lint_paths([tree], root=tree, cache=cache)
        cache.save()
        assert cache.file_misses == 2 and cache.file_hits == 0
        assert not cache.program_hit

        warm = LintCache(cache_path, config)
        second = Linter(config).lint_paths([tree], root=tree, cache=warm)
        assert warm.file_hits == 2 and warm.file_misses == 0
        assert warm.program_hit
        assert [f.format() for f in first] == [f.format() for f in second]
        assert [f.rule for f in active(second)] == ["RL007"]

    def test_content_change_invalidates_file_and_program(self, tmp_path):
        from repro.analysis.reprolint.cache import LintCache

        tree = self._tree(tmp_path)
        config = LintConfig()
        cache_path = tmp_path / "cache.json"
        cache = LintCache(cache_path, config)
        Linter(config).lint_paths([tree], root=tree, cache=cache)
        cache.save()

        # sorting at the source removes the cross-module flow; the
        # cache must not resurrect it
        (tree / "a.py").write_text(
            "def order(peers: set):\n    return sorted(peers)\n",
            encoding="utf-8",
        )
        warm = LintCache(cache_path, config)
        findings = Linter(config).lint_paths([tree], root=tree, cache=warm)
        assert warm.file_hits == 1 and warm.file_misses == 1
        assert not warm.program_hit
        assert [f.rule for f in active(findings)] == []

    def test_changed_config_invalidates_everything(self, tmp_path):
        from repro.analysis.reprolint.cache import LintCache

        tree = self._tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache = LintCache(cache_path, LintConfig())
        Linter(LintConfig()).lint_paths([tree], root=tree, cache=cache)
        cache.save()

        narrowed = LintConfig(select=("RL003",))
        cold = LintCache(cache_path, narrowed)
        Linter(narrowed).lint_paths([tree], root=tree, cache=cold)
        assert cold.file_misses == 2 and cold.file_hits == 0

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        from repro.analysis.reprolint.cache import LintCache

        tree = self._tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json", encoding="utf-8")
        cache = LintCache(cache_path, LintConfig())
        findings = Linter(LintConfig()).lint_paths([tree], root=tree, cache=cache)
        assert [f.rule for f in active(findings)] == ["RL007"]

    def test_pragmas_reapplied_on_warm_hits(self, tmp_path):
        from repro.analysis.reprolint.cache import LintCache

        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "m.py").write_text(
            "import random\n"
            "x = random.random()  # reprolint: disable=RL001 -- fixture\n",
            encoding="utf-8",
        )
        cache_path = tmp_path / "cache.json"
        config = LintConfig()
        cache = LintCache(cache_path, config)
        Linter(config).lint_paths([tree], root=tree, cache=cache)
        cache.save()
        warm = LintCache(cache_path, config)
        findings = Linter(config).lint_paths([tree], root=tree, cache=warm)
        assert warm.file_hits == 1
        assert [f.rule for f in active(findings)] == []
        assert sum(f.suppressed for f in findings) == 1

    def test_cli_cache_flag(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.json"
        target = str(FIXTURES / "rl001_good.py")
        assert reprolint_run([target, "--cache", str(cache_path)]) == 0
        assert cache_path.exists()
        assert reprolint_run([target, "--cache", str(cache_path)]) == 0
        err = capsys.readouterr().err
        assert "1 hit(s), 0 miss(es)" in err


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
