"""The host-time profiler hook: ``Simulator.set_profiler`` and
``callback_site``, the two pieces the benchmark's per-layer ledger
attaches through."""

from __future__ import annotations

import functools
from collections import Counter

from repro.core.seeding import RedundantSeeding
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.obs.profiler import callback_site
from repro.params import PandasParams
from repro.sim.engine import Simulator


def module_level_fn():
    return 42


class Widget:
    def method(self):
        return 1

    def __call__(self):
        return 2


class SiteCounter:
    """A minimal ``SimProfiler``: counts executed callbacks per site."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()

    def run(self, callback, *args) -> None:
        self.calls[callback_site(callback)] += 1
        callback(*args)


def test_callback_site_names_plain_functions():
    assert callback_site(module_level_fn) == f"{__name__}:module_level_fn"


def test_callback_site_unwraps_bound_methods_and_partials():
    widget = Widget()
    assert callback_site(widget.method) == f"{__name__}:Widget.method"
    wrapped = functools.partial(functools.partial(module_level_fn))
    assert callback_site(wrapped) == f"{__name__}:module_level_fn"


def test_callback_site_falls_back_to_type():
    assert callback_site(Widget()) == f"{__name__}:Widget"


def test_profiler_attributes_calls_to_sites():
    """The engine routes every executed event, arguments included,
    through the attached profiler's ``run``."""
    sim = Simulator()
    profiler = SiteCounter()
    sim.set_profiler(profiler)
    seen = []
    for delay in (0.1, 0.2, 0.3):
        sim.call_after(delay, module_level_fn)
    sim.call_after(0.4, seen.append, "arg")
    sim.call_after(0.5, Widget().method).cancel()  # cancelled: never runs
    sim.run()
    assert seen == ["arg"]
    assert profiler.calls[f"{__name__}:module_level_fn"] == 3
    assert sum(profiler.calls.values()) == sim.events_processed == 4
    sim.set_profiler(None)
    assert sim.profiler is None


def test_profiler_maps_a_real_run():
    """A profiled scenario routes every simulator event through the
    hook, and the hot sites are real protocol code paths."""
    profiler = SiteCounter()
    config = ScenarioConfig(
        num_nodes=35,
        params=PandasParams(
            base_rows=8, base_cols=8, custody_rows=4, custody_cols=4, samples=8
        ),
        policy=RedundantSeeding(4),
        seed=9,
        slots=1,
        num_vertices=300,
        profiler=profiler,
    )
    scenario = Scenario(config).run()
    assert sum(profiler.calls.values()) == scenario.sim.events_processed > 0
    assert any(site.startswith("repro.") for site in profiler.calls)
