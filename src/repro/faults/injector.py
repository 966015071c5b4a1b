"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live run.

The injector is the only place where a fault plan meets randomness.
Every draw comes from dedicated ``RngRegistry`` streams (``("faults",
"link")`` for the per-datagram process, ``("faults", "crash", i)`` etc.
for victim selection), so fault realizations are decoupled from the
base loss process and from protocol randomness: adding a fault plan
never perturbs the seeding shuffle or the fetchers' tie-breaks, and
the same seed replays the same faults bit-identically.

Wire-level faults are applied through ``Network.fault_filter`` — a
hook :meth:`install` sets on the transport. The filter returns a tuple
of extra delivery delays, one per delivered copy of the datagram:
``()`` drops it, ``(0.0,)`` is undisturbed delivery, ``(0.0, j)`` is a
duplicate. Node-level faults (crash/restart) are plain simulator
events that toggle endpoint liveness and reset node state.

Every injected fault is published as one ``fault`` event on the run's
bus, which counts it in ``MetricsRecorder.fault_counts`` so experiment
reports can state the realized fault load, not just the configured
probabilities.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from typing import Any

from repro.faults.plan import FaultPlan
from repro.net.transport import Datagram, Network
from repro.params import SLOT_SECONDS
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["FaultInjector"]


class FaultInjector:
    """Wires one fault plan into a simulator + network.

    ``candidates`` is the ordered pool of node addresses eligible to be
    victims (typically live honest nodes — never the builder, never
    statically dead nodes). ``node_lookup`` maps an address to the
    protocol node object, if any; objects exposing ``crash()`` /
    ``restart(slot)`` get their volatile state handled on those
    transitions (duck-typed so baselines without those methods still
    lose connectivity, just not state). ``emit`` publishes on the run's
    event bus (``ProtocolContext.emit``).
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sim: Simulator,
        network: Network,
        rngs: RngRegistry,
        emit: Callable[..., None],
        candidates: Sequence[int],
        node_lookup: Callable[[int], Any] | None = None,
    ) -> None:
        self.plan = plan
        self.sim = sim
        self.network = network
        self.rngs = rngs
        self.emit = emit
        self.candidates = list(candidates)
        self.node_lookup = node_lookup

        self.crash_targets: set[int] = set()
        self.slow_nodes: dict[int, float] = {}
        self.partition_groups: list[set[int]] = []
        self._active_partitions: list[set[int]] = []
        self._link_rng = rngs.stream("faults", "link")
        self._installed = False

    def _record(self, kind: str, **data: int) -> None:
        """Publish one realized fault."""
        self.emit("fault", node=data.pop("node", -1), fault=kind, **data)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> FaultInjector:
        """Resolve victims, schedule timed faults, hook the transport."""
        if self._installed:
            raise RuntimeError("fault injector already installed")
        self._installed = True
        self._schedule_crashes()
        self._schedule_partitions()
        self._pick_slow_nodes()
        if (
            self.plan.loss
            or self.plan.duplication
            or self.plan.jitter
            or self.plan.partitions
            or self.plan.slow
        ):
            if self.network.fault_filter is not None:
                raise RuntimeError("network already has a fault filter")
            self.network.fault_filter = self._filter
        return self

    def _draw_victims(
        self, rng: random.Random, count: int, pinned: tuple[int, ...], exclude: set[int]
    ) -> list[int]:
        if pinned:
            return list(pinned)
        pool = [node for node in self.candidates if node not in exclude]
        if count > len(pool):
            raise ValueError(
                f"fault plan wants {count} victims, only {len(pool)} candidates left"
            )
        return rng.sample(pool, count)

    def _schedule_crashes(self) -> None:
        for i, window in enumerate(self.plan.crashes):
            rng = self.rngs.stream("faults", "crash", i)
            victims = self._draw_victims(rng, window.count, window.nodes, self.crash_targets)
            self.crash_targets.update(victims)
            for node_id in victims:
                self.sim.call_at(window.crash_at, lambda n=node_id: self._crash(n))
                if window.restart_at is not None:
                    self.sim.call_at(window.restart_at, lambda n=node_id: self._restart(n))

    def _schedule_partitions(self) -> None:
        for i, window in enumerate(self.plan.partitions):
            rng = self.rngs.stream("faults", "partition", i)
            if window.nodes:
                group = set(window.nodes)
            else:
                size = max(1, int(round(window.fraction * len(self.candidates))))
                group = set(rng.sample(self.candidates, min(size, len(self.candidates))))
            self.partition_groups.append(group)
            self.sim.call_at(window.start, lambda g=group: self._open_partition(g))
            self.sim.call_at(window.end, lambda g=group: self._close_partition(g))

    def _pick_slow_nodes(self) -> None:
        for i, lag in enumerate(self.plan.slow):
            rng = self.rngs.stream("faults", "slow", i)
            victims = self._draw_victims(
                rng, lag.count, lag.nodes, set(self.slow_nodes)
            )
            for node_id in victims:
                self.slow_nodes[node_id] = lag.extra_delay

    # ------------------------------------------------------------------
    # timed fault transitions
    # ------------------------------------------------------------------
    def _crash(self, node_id: int) -> None:
        self.network.kill(node_id)
        node = self.node_lookup(node_id) if self.node_lookup is not None else None
        if node is not None and hasattr(node, "crash"):
            node.crash()
        self._record("crash", node=node_id)

    def _restart(self, node_id: int) -> None:
        self.network.revive(node_id)
        node = self.node_lookup(node_id) if self.node_lookup is not None else None
        if node is not None and hasattr(node, "restart"):
            node.restart(int(self.sim.now // SLOT_SECONDS))
        self._record("restart", node=node_id)

    def _open_partition(self, group: set[int]) -> None:
        self._active_partitions.append(group)
        self._record("partition_open", size=len(group))

    def _close_partition(self, group: set[int]) -> None:
        self._active_partitions.remove(group)
        self._record("partition_close", size=len(group))

    # ------------------------------------------------------------------
    # per-datagram filter (Network.fault_filter)
    # ------------------------------------------------------------------
    def _filter(self, dgram: Datagram, reliable: bool) -> tuple[float, ...]:
        """Decide the fate of one datagram; see module docstring.

        Draw order is fixed (loss, jitter, duplication, dup-jitter) so
        the stream consumption — and therefore the whole run — is
        deterministic. Partitions cut reliable (TCP-modelled) traffic
        too; Bernoulli loss and duplication do not, matching how the
        base transport hides loss under retransmission.
        """
        for group in self._active_partitions:
            if (dgram.src in group) != (dgram.dst in group):
                self._record("partition_drop", node=dgram.dst, src=dgram.src)
                return ()
        plan = self.plan
        rng = self._link_rng
        if not reliable and plan.loss > 0.0 and rng.random() < plan.loss:
            self._record("link_drop", node=dgram.dst, src=dgram.src)
            return ()
        delay = self.slow_nodes.get(dgram.src, 0.0)
        if delay:
            self._record("slow_delay", node=dgram.src)
        if plan.jitter > 0.0:
            delay += rng.uniform(0.0, plan.jitter)
        delays = [delay]
        if not reliable and plan.duplication > 0.0 and rng.random() < plan.duplication:
            copy_delay = delay
            if plan.jitter > 0.0:
                copy_delay += rng.uniform(0.0, plan.jitter)
            delays.append(copy_delay)
            self._record("duplicate", node=dgram.dst, src=dgram.src)
        return tuple(delays)
