"""The cyclic collector is out of the run loop — and may stay out.

``Scenario.run`` / ``PipelineScenario.run`` execute under
``repro.sim.engine.collector_paused()``. That is only sound while a run
creates no cyclic garbage (DESIGN.md, "Memory and the collector"), so
besides the helper's semantics this file pins the property itself: the
cycle-free matrix runs every scenario family and fails, naming the
offending types, the day one of them starts leaking a cycle per slot.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.baselines import DhtDasScenario, GossipDasScenario, PeerDasScenario
from repro.core.seeding import RedundantSeeding
from repro.experiments.pipeline import PipelineScenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults.invariants import InvariantViolation
from repro.faults.plan import FaultPlan
from repro.params import PandasParams
from repro.sim.engine import collector_paused


@pytest.fixture(autouse=True)
def collector_state_restored():
    """Every test here toggles process-wide collector state."""
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    yield
    gc.set_debug(debug)
    gc.garbage.clear()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def small_config(**overrides) -> ScenarioConfig:
    """60 nodes on a dense 8x8 base grid: every line has custodians."""
    defaults = dict(
        num_nodes=60,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=10
        ),
        policy=RedundantSeeding(4),
        seed=5,
        slots=1,
        num_vertices=300,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def small_pipeline() -> PipelineScenario:
    """3 overlapping slots, churn, probes, every bounded queue engaged."""
    config = small_config(
        params=replace(
            small_config().params,
            pending_request_limit=256,
            retrieval_admit_rate=50.0,
        ),
        slots=3,
        check_invariants=True,
    )
    return PipelineScenario(
        config,
        churn_fraction=0.1,
        retention_slots=2,
        probes_per_slot=4,
    )


@contextmanager
def collection_starts(stamp: Callable[[], object] = lambda: None) -> Iterator[list[object]]:
    """Collects ``stamp()`` at the start of every collection in the block."""
    starts: list[object] = []

    def observer(phase: str, _info: dict[str, int]) -> None:
        if phase == "start":
            starts.append(stamp())

    gc.callbacks.append(observer)
    try:
        yield starts
    finally:
        gc.callbacks.remove(observer)


# ----------------------------------------------------------------------
# (a) the helper
# ----------------------------------------------------------------------
class TestCollectorPaused:
    def test_restored_after_normal_exit(self):
        gc.enable()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restored_after_exception(self):
        gc.enable()
        with pytest.raises(ZeroDivisionError), collector_paused():
            1 / 0  # noqa: B018
        assert gc.isenabled()

    def test_nested_use_resumes_only_at_the_outermost_exit(self):
        gc.enable()
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_who_disabled_finds_it_still_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nothing_is_collected_on_exit(self):
        gc.enable()
        gc.collect()  # zero the allocation counts: no pass is due by itself
        with collection_starts() as starts, collector_paused():
            pass
        assert starts == []


# ----------------------------------------------------------------------
# (b) the two drivers that own a run end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build", [lambda: Scenario(small_config()), small_pipeline], ids=["slot", "pipeline"]
)
class TestRunPausesTheCollector:
    def test_no_collection_starts_inside_run(self, build):
        gc.enable()
        scenario = build()
        with collection_starts(lambda: scenario.sim.events_processed) as starts:
            scenario.run()
        assert gc.isenabled()
        # the run did real work: an unpaused collector fires many times
        done = scenario.sim.events_processed
        assert done > 1_000
        # allocations are counted while the collector is off, so CPython
        # runs one deferred pass the moment it is switched back on — over
        # what the run allocated and still holds, which after drop_slot is
        # the metrics and little else. Nothing may start before that.
        assert len(starts) <= 1
        assert all(at == done for at in starts)

    def test_disabled_collector_stays_disabled(self, build):
        gc.disable()
        build().run()
        assert not gc.isenabled()

    def test_restored_when_run_raises(self, build):
        gc.enable()
        scenario = build()

        def explode() -> None:
            assert not gc.isenabled()
            raise InvariantViolation("raised from inside the run loop")

        scenario.sim.call_after(0.5, explode)
        with pytest.raises(InvariantViolation):
            scenario.run()
        assert gc.isenabled()


# ----------------------------------------------------------------------
# (c) the property that makes the pause sound: a run leaves no cycles
# ----------------------------------------------------------------------
FAULTS = "loss=0.1,dup=0.05,jitter=0.02,crash=2@0.3:0.8,partition=0.25@0.2+0.4,slow=2@0.05"
ADVERSARIES = "corrupt=0.1,flood=2@25,withhold=2,equivocate=2@1,stall=2@0.5"

FAMILIES = {
    "plain": lambda: Scenario(small_config()),
    "faults": lambda: Scenario(
        small_config(faults=FaultPlan.parse(FAULTS), check_invariants=True)
    ),
    "dead-out-of-view": lambda: Scenario(
        small_config(dead_fraction=0.2, out_of_view_fraction=0.2)
    ),
    "block-gossip": lambda: Scenario(small_config(include_block_gossip=True)),
    "pipeline": small_pipeline,
    "adversaries": lambda: Scenario(
        small_config(
            num_nodes=100, faults=FaultPlan.parse(ADVERSARIES), check_invariants=True
        )
    ),
    "gossipsub": lambda: GossipDasScenario(small_config()),
    "dht": lambda: DhtDasScenario(small_config()),
    "peerdas": lambda: PeerDasScenario(small_config()),
}


def cyclic_garbage_of_run(scenario) -> list[object]:
    """Everything only the cyclic collector could free after ``run()``.

    The collector is held off for the whole run (on any commit, paused
    or not), then one full pass under ``DEBUG_SAVEALL`` parks whatever
    it finds unreachable in ``gc.garbage`` instead of freeing it.
    """
    gc.collect()  # construction and earlier tests are not the run's doing
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the autouse fixture undoes this
    scenario.run()
    gc.collect()
    return list(gc.garbage)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_run_creates_no_cyclic_garbage(family):
    scenario = FAMILIES[family]()
    garbage = cyclic_garbage_of_run(scenario)
    assert scenario.sim.events_processed > 1_000
    offenders = Counter(type(obj).__qualname__ for obj in garbage)
    assert not garbage, (
        f"{family}: run() left {len(garbage)} objects only the cyclic collector "
        f"can free — with the collector paused they leak until the run ends. "
        f"By type: {offenders.most_common(12)}"
    )


# ----------------------------------------------------------------------
# (d) the scenario graph itself is cyclic, and is still reclaimed
# ----------------------------------------------------------------------
def test_restored_collector_reclaims_a_dropped_scenario():
    gc.enable()
    scenario = Scenario(small_config()).run()
    node = weakref.ref(scenario.nodes[0])
    del scenario
    gc.collect()
    assert node() is None
