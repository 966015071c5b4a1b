"""Scenario drivers: build a network, run slots, extract distributions.

``BaseScenario`` owns everything protocol-independent — the simulation
engine, WAN latency model, shaped transport, topology placement, fault
injection and traffic accounting — and is shared by the PANDAS
scenario here and the two baselines in :mod:`repro.baselines`.

Defaults mirror Section 8.1: full Danksharding parameters, the
IPFS-like latency model, 25 Mbps node links, a 10 Gbps builder placed
in the best-connected 20% of vertices, 3% UDP loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections.abc import Callable
from typing import Any

from repro.analysis.stats import Distribution
from repro.core.assignment import AssignmentIndex, CellAssignment
from repro.core.builder import Builder
from repro.core.context import ProtocolContext
from repro.core.node import PandasNode
from repro.core.seeding import RedundantSeeding, SeedingPolicy
from repro.crypto.randao import RandaoBeacon
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import AdversarySpec, FaultPlan
from repro.gossip.pubsub import GossipMessage, GossipOverlay
from repro.net.latency import ClusteredWanModel, LatencyModel
from repro.net.topology import DEFAULT_BUILDER_PROFILE, DEFAULT_NODE_PROFILE, Topology
from repro.net.transport import DEFAULT_LOSS_RATE, Datagram, Network
from repro.obs.events import TraceRecorder
from repro.obs.telemetry import Telemetry
from repro.params import SLOT_SECONDS, PandasParams
from repro.sim.engine import SimProfiler, Simulator, collector_paused
from repro.sim.metrics import MetricsRecorder
from repro.sim.rng import RngRegistry

__all__ = ["ScenarioConfig", "BaseScenario", "Scenario", "PhaseDistributions"]

# size of the block gossiped beside DAS when ``include_block_gossip`` is on
BLOCK_BYTES = 120_000


@dataclass
class ScenarioConfig:
    """All knobs of one experiment."""

    num_nodes: int = 200
    params: PandasParams = field(default_factory=PandasParams.full)
    policy: SeedingPolicy = field(default_factory=RedundantSeeding)
    seed: int = 0
    loss_rate: float = DEFAULT_LOSS_RATE
    slots: int = 1
    dead_fraction: float = 0.0
    out_of_view_fraction: float = 0.0
    latency: LatencyModel | None = None  # default: ClusteredWanModel
    num_vertices: int = 2_000
    # disseminate the block over a global GossipSub channel alongside
    # DAS (Figure 9a's comparison curve); off by default so pure DAS
    # timing runs are undisturbed
    include_block_gossip: bool = False
    # deterministic dynamic faults (crash/restart, partitions, link
    # faults) driven by dedicated RNG streams; None leaves the
    # transport untouched
    faults: FaultPlan | None = None
    # attach the online protocol-invariant checker (repro.faults.
    # invariants) — any violation raises mid-run
    check_invariants: bool = False
    # structured event tracing (repro.obs): pure observation — a
    # recorder here must never change simulation behavior, and a
    # dedicated test pins MetricsRecorder.fingerprint() to be
    # bit-identical with tracing on or off
    tracer: TraceRecorder | None = None
    # opt-in host-time hook around every simulator callback
    # (Simulator.set_profiler); also behavior-neutral
    profiler: SimProfiler | None = None
    # run-health telemetry (repro.obs.telemetry): a sim-time cadence
    # sampler over a fixed table of counters/gauges/histograms. Same
    # neutrality contract as the tracer — fingerprints are pinned
    # bit-identical with telemetry on or off
    telemetry: Telemetry | None = None
    # bounded per-endpoint transport queues: overflowing datagrams are
    # tail-dropped with reason "overflow", and the I5 backlog invariant
    # enforces the bound when check_invariants is on
    max_inbox: int = 4096

    def make_latency(self) -> LatencyModel:
        if self.latency is not None:
            return self.latency
        return ClusteredWanModel(num_vertices=self.num_vertices, seed=self.seed)

    def with_changes(self, **changes) -> ScenarioConfig:
        return replace(self, **changes)


@dataclass
class PhaseDistributions:
    seeding: Distribution
    consolidation: Distribution
    sampling: Distribution


class BaseScenario:
    """Protocol-independent scaffolding for one constructed network."""

    # the lowest address of the retrieval-client population; telemetry
    # classes traffic to and from it as the ``retrieval`` layer
    retrieval_floor: float = math.inf
    # a slot's state is released this many slots after it began
    retention_slots: int = 1
    # the gossip overlay a scenario runs, if any; its dedup ids are
    # expired with the slot that sent them
    overlay: GossipOverlay | None = None
    # node id -> node; a node releases a slot's state in drop_slot()
    nodes: dict[int, Any]

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.latency = config.make_latency()
        self.network = Network(
            self.sim,
            self.latency,
            config.loss_rate,
            self.rngs.stream("loss"),
            max_inbox=config.max_inbox,
        )
        self.metrics = MetricsRecorder()
        self.params = config.params
        self.assignment = CellAssignment(self.params, RandaoBeacon(config.seed))
        self._indexes: dict[int, AssignmentIndex] = {}

        self.node_ids = list(range(config.num_nodes))
        self.builder_id = config.num_nodes

        self.tracer = config.tracer
        if config.profiler is not None:
            self.sim.set_profiler(config.profiler)

        self.ctx = ProtocolContext(
            sim=self.sim,
            network=self.network,
            params=self.params,
            assignment=self.assignment,
            metrics=self.metrics,
            rngs=self.rngs,
            index_for_epoch=self._index_for_epoch,
            builder_id=self.builder_id,
        )

        self._place_participants()
        self.dead_nodes = self._pick_dead_nodes()
        self.byzantine = self._pick_adversaries()
        self._build_participants()
        self._wire_metrics()
        self._wire_telemetry()
        for dead in self.dead_nodes:
            self.network.kill(dead)
        self.fault_injector = self._install_faults()
        self.invariants = self._install_invariants()
        self._wire_bus()

    # ------------------------------------------------------------------
    # hooks for protocol-specific subclasses
    # ------------------------------------------------------------------
    def _build_participants(self) -> None:
        raise NotImplementedError

    def _node_handler(self, node_id: int) -> Callable[[Datagram], None]:
        raise NotImplementedError

    def _begin_slot(self, slot: int) -> None:
        """Kick off the slot (seed dissemination etc.)."""
        raise NotImplementedError

    def _end_slot(self, slot: int) -> None:
        """Release per-slot state: every node's, and the overlay's dedup ids."""
        for node in self.nodes.values():
            node.drop_slot(slot)
        if self.overlay is not None:
            self.overlay.expire_seen(slot + 1)

    def _after_slot(self, slot: int) -> None:
        """Called once the slot's ``SLOT_SECONDS`` have elapsed, before
        the next slot begins or any slot is released."""

    def _members(self, slot: int) -> set[int]:
        """The nodes that ran ``slot``, statically dead ones left out.

        Every population count reads this one rule: the distributions
        (less the Byzantine members), the telemetry's expected samples
        and the pipeline's per-slot hit rates and rows.
        """
        return set(self.node_ids) - self.dead_nodes

    def _expected_samples(self) -> int:
        """Node-slots the telemetry's deadline-hit counter counts.

        Every member, Byzantine ones included, of every slot run.
        """
        return sum(len(self._members(slot)) for slot in self.ctx.slot_starts)

    # ------------------------------------------------------------------
    # shared construction
    # ------------------------------------------------------------------
    def _index_for_epoch(self, epoch: int) -> AssignmentIndex:
        index = self._indexes.get(epoch)
        if index is None:
            index = AssignmentIndex(self.assignment, epoch, self.node_ids)
            self._indexes[epoch] = index
        return index

    def _place_participants(self) -> None:
        rng = self.rngs.stream("topology")
        self.topology = Topology.build(
            self.latency, self.node_ids, [self.builder_id], rng
        )
        for node_id in self.node_ids:
            self.network.register(
                node_id,
                self.topology.vertex_of(node_id),
                self._node_handler(node_id),
                DEFAULT_NODE_PROFILE.up_rate,
                DEFAULT_NODE_PROFILE.down_rate,
            )
        self.network.register(
            self.builder_id,
            self.topology.vertex_of(self.builder_id),
            self._builder_handler(),
            DEFAULT_BUILDER_PROFILE.up_rate,
            DEFAULT_BUILDER_PROFILE.down_rate,
        )

    def _builder_handler(self) -> Callable[[Datagram], None]:
        return lambda dgram: None

    def _pick_dead_nodes(self) -> set[int]:
        fraction = self.config.dead_fraction
        if fraction <= 0.0:
            return set()
        rng = self.rngs.stream("dead")
        count = int(round(fraction * len(self.node_ids)))
        return set(rng.sample(self.node_ids, count))

    def _node_view(self, node_id: int) -> set[int] | None:
        """Out-of-view fault model: a random subset of the node set."""
        fraction = self.config.out_of_view_fraction
        if fraction <= 0.0:
            return None  # complete, consistent view
        rng = self.rngs.stream("view", node_id)
        keep = int(round((1.0 - fraction) * len(self.node_ids)))
        view = set(rng.sample(self.node_ids, keep))
        view.add(node_id)
        return view

    def _pick_adversaries(self) -> dict[int, AdversarySpec]:
        """Resolve the fault plan's Byzantine roster (node -> spec).

        Resolution uses dedicated ``("faults", "adversary", i)`` RNG
        streams, so an adversarial plan never perturbs the clean run's
        draws. Statically dead nodes are not eligible — a dead
        adversary attacks nobody.
        """
        plan = self.config.faults
        if plan is None or not plan.adversaries:
            return {}
        from repro.faults.adversary import resolve_adversaries

        candidates = [n for n in self.node_ids if n not in self.dead_nodes]
        return resolve_adversaries(plan, self.rngs, candidates)

    @property
    def byzantine_nodes(self) -> set[int]:
        return set(self.byzantine)

    def _install_faults(self) -> FaultInjector | None:
        """Attach the configured fault plan (dead nodes are immune —
        they are a separate, static fault dimension)."""
        plan = self.config.faults
        if plan is None or plan.is_empty:
            return None
        # Byzantine nodes are not crash/slow candidates: each node runs
        # exactly one fault dimension, keeping realized mixes legible.
        candidates = [
            n
            for n in self.node_ids
            if n not in self.dead_nodes and n not in self.byzantine
        ]
        injector = FaultInjector(
            plan,
            sim=self.sim,
            network=self.network,
            rngs=self.rngs,
            emit=self.ctx.emit,
            candidates=candidates,
            node_lookup=lambda nid: getattr(self, "nodes", {}).get(nid),
        )
        return injector.install()

    def _install_invariants(self) -> InvariantChecker | None:
        if not self.config.check_invariants:
            return None
        return InvariantChecker(self).install()

    @property
    def crashed_nodes(self) -> set[int]:
        """Nodes the fault plan crashes at some point during the run."""
        if self.fault_injector is None:
            return set()
        return set(self.fault_injector.crash_targets)

    def _wire_metrics(self) -> None:
        """Account traffic: builder egress vs node fetch traffic.

        "Fetch" traffic is everything nodes exchange among themselves
        (queries, responses, gossip forwards, DHT RPCs) in both
        directions — the quantity of Figures 10, 12b, 13b/c, 14b/c.
        Builder-sourced seeding is tracked separately.
        """
        metrics = self.metrics
        builder_id = self.builder_id

        def on_send(dgram: Datagram) -> None:
            slot = getattr(dgram.payload, "slot", None)
            if slot is None or slot < 0:
                return
            if dgram.src == builder_id:
                metrics.record_builder_send(slot, dgram.size)
                return
            metrics.record_send(slot, dgram.src, dgram.size)
            if dgram.dst != builder_id:
                metrics.fetch_messages.add(slot, dgram.src)
                metrics.fetch_bytes.add(slot, dgram.src, dgram.size)

        def on_deliver(dgram: Datagram) -> None:
            slot = getattr(dgram.payload, "slot", None)
            if slot is None or slot < 0 or dgram.dst == builder_id:
                return
            metrics.record_receive(slot, dgram.dst, dgram.size)
            if dgram.src != builder_id:
                metrics.fetch_messages.add(slot, dgram.dst)
                metrics.fetch_bytes.add(slot, dgram.dst, dgram.size)

        def on_drop(dgram: Datagram, reason: str) -> None:
            # bounded-inbox drops feed the backlog counters the
            # pipeline report surfaces
            if reason == "overflow":
                metrics.record_queue_drop("inbox_overflow")

        self.network.on_send.append(on_send)
        self.network.on_deliver.append(on_deliver)
        self.network.on_drop.append(on_drop)

    def _wire_telemetry(self) -> None:
        """Install the run-health telemetry sampler, if any.

        Everything here is read-only observation: :meth:`gauges` only
        reads state, and events arrive through the bus
        (:meth:`_wire_bus`). The sampler's cadence ticks are extra
        simulator events, but they schedule nothing and draw no RNG, so
        the fingerprint-equality tests hold.
        """
        tel = self.config.telemetry
        self.telemetry = tel
        if tel is None:
            return
        config = self.config
        tel.set_run_info(
            nodes=config.num_nodes,
            slots=config.slots,
            slot_duration=SLOT_SECONDS,
            deadline=self.params.deadline,
            seed=config.seed,
        )
        tel.expected_end = config.slots * SLOT_SECONDS
        tel.install(
            self.sim, self.metrics, self.gauges, self.builder_id, self.retrieval_floor
        )

    def gauges(self) -> dict[str, float]:
        """The telemetry gauges at this instant (read-only)."""
        network = self.network
        values: dict[str, float] = {
            "inbox_depth_max": network.max_queue_depth(),
            "inbox_overflows": network.datagrams_overflowed,
            "datagrams_sent": network.datagrams_sent,
            "datagrams_delivered": network.datagrams_delivered,
            "datagrams_lost": network.datagrams_lost,
            "live_nodes": sum(1 for n in self.node_ids if network.is_alive(n)),
        }
        nodes = getattr(self, "nodes", None)
        if nodes:
            quarantined = 0
            pending = 0
            for node in nodes.values():
                reputation = getattr(node, "reputation", None)
                if reputation is not None:
                    quarantined += reputation.quarantined_count()
                depth = getattr(node, "pending_depth", None)
                if depth is not None:
                    pending += depth()
            values["quarantined_peers"] = quarantined
            values["pending_requests"] = pending
        return values

    def _wire_bus(self) -> None:
        """Subscribe the optional observers to the event bus, in its fixed
        order after the recorder (invariant checker, telemetry, tracer),
        and bridge the datagram flow to them.

        Each bridge observer is attached only when some subscriber
        consumes its kinds, so a bare run keeps exactly
        :meth:`_wire_metrics`'s three observers.
        """
        events = self.ctx.events
        optional = (self.invariants, self.telemetry, self.tracer)
        events.subscribe(*(observer for observer in optional if observer is not None))
        emit = events.emit
        network = self.network

        def slot_of(dgram: Datagram) -> int:
            slot = getattr(dgram.payload, "slot", None)
            return slot if isinstance(slot, int) else -1

        def on_send(d: Datagram) -> None:
            name = type(d.payload).__name__
            emit("net_send", slot=slot_of(d), node=d.src, dst=d.dst, size=d.size, payload=name)

        def on_deliver(d: Datagram) -> None:
            name = type(d.payload).__name__
            emit("net_deliver", slot=slot_of(d), node=d.dst, src=d.src, size=d.size, payload=name)

        def on_drop(d: Datagram, reason: str) -> None:
            slot, name = slot_of(d), type(d.payload).__name__
            emit(
                "net_drop", slot=slot, node=d.dst, src=d.src, size=d.size, payload=name,
                reason=reason,
            )
            if reason == "overflow":
                emit("queue_overflow", slot=slot, node=d.dst, src=d.src, size=d.size)

        if events.wants("net_send"):
            network.on_send.append(on_send)
        if events.wants("net_deliver"):
            network.on_deliver.append(on_deliver)
        if events.wants("net_drop") or events.wants("queue_overflow"):
            network.on_drop.append(on_drop)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    # the pause spans slot set-up and retirement too: seed_slot and
    # drop_slot churn tens of thousands of containers between the
    # sim.run() calls, on the largest heap of the run
    @collector_paused()
    def run(self) -> BaseScenario:
        """Run ``config.slots`` slots, slot ``s`` beginning at
        ``s * SLOT_SECONDS`` whatever is still in flight.

        A slot's state is released (:meth:`_end_slot`) when the slot
        ``retention_slots`` later begins, and the slots still held are
        released after the last one, so late replies keep landing in
        state that is still there.
        """
        retention = self.retention_slots
        slots = self.config.slots
        for slot in range(slots):
            if slot >= retention:
                self._end_slot(slot - retention)
            self.ctx.begin_slot(slot)
            self._begin_slot(slot)
            self.sim.run(until=slot * SLOT_SECONDS + SLOT_SECONDS)
            self._after_slot(slot)
        for slot in range(max(0, slots - retention), slots):
            self._end_slot(slot)
        if self.invariants is not None:
            self.invariants.check_final()
        if self.telemetry is not None:
            self.telemetry.finalize(expected_samples=self._expected_samples())
        return self

    # ------------------------------------------------------------------
    # result extraction
    # ------------------------------------------------------------------
    @property
    def live_node_count(self) -> int:
        return len(self.node_ids) - len(self.dead_nodes)

    @property
    def honest_live_count(self) -> int:
        """Live nodes that are not running a Byzantine behavior."""
        return len(self.node_ids) - len(self.dead_nodes | set(self.byzantine))

    def _alive_phase(self, phase: str) -> list[float | None]:
        """Phase times over each slot's *honest* members; a member with
        no time for the phase is a miss.

        Byzantine nodes are excluded: they run the protocol too (which
        is what makes them hard to spot), but the paper's question —
        and the adversarial sweeps' — is whether honest nodes finish
        in time, not whether the attackers do.
        """
        values: list[float | None] = []
        phase_times = self.metrics.phase_times
        for slot in self.ctx.slot_starts:
            for node in self._members(slot) - self.byzantine.keys():
                times = phase_times.get((slot, node))
                values.append(None if times is None else getattr(times, phase))
        return values

    def phase_distributions(self) -> PhaseDistributions:
        return PhaseDistributions(
            seeding=Distribution.from_optional(self._alive_phase("seeding")),
            consolidation=Distribution.from_optional(self._alive_phase("consolidation")),
            sampling=Distribution.from_optional(self._alive_phase("sampling")),
        )

    def sampling_distribution(self) -> Distribution:
        return Distribution.from_optional(self._alive_phase("sampling"))

    def fetch_message_distribution(self) -> Distribution:
        values = [
            value
            for (slot, node), value in self.metrics.fetch_messages.items()
            if node not in self.dead_nodes and node not in self.byzantine
        ]
        return Distribution(sorted(values))

    def fetch_bytes_distribution(self) -> Distribution:
        values = [
            value
            for (slot, node), value in self.metrics.fetch_bytes.items()
            if node not in self.dead_nodes and node not in self.byzantine
        ]
        return Distribution(sorted(values))

    def builder_egress_bytes(self, slot: int = 0) -> float:
        return self.metrics.builder_bytes_sent.get(slot, 0.0)


class Scenario(BaseScenario):
    """The PANDAS protocol scenario (builder seeding + adaptive fetch)."""

    def _build_participants(self) -> None:
        self.nodes: dict[int, PandasNode] = {}
        for node_id in self.node_ids:
            spec = self.byzantine.get(node_id)
            if spec is None:
                self.nodes[node_id] = PandasNode(
                    self.ctx, node_id, self._node_view(node_id)
                )
            else:
                from repro.faults.adversary import ByzantineNode

                self.nodes[node_id] = ByzantineNode(
                    self.ctx,
                    node_id,
                    spec,
                    victims=[n for n in self.node_ids if n not in self.dead_nodes],
                    view=self._node_view(node_id),
                )
        self.builder = Builder(self.ctx, self.builder_id, self.config.policy)
        if self.config.include_block_gossip:
            self.overlay = GossipOverlay(self.network, self.rngs.stream("block-mesh"))
            self.overlay.create_topic("blocks", self.node_ids, handler=self._on_block)

    def _on_block(self, member: int, message) -> None:
        self.ctx.emit(
            "phase", slot=message.slot, node=member, phase="block",
            at=self.ctx.since_slot_start(message.slot),
        )

    def _node_handler(self, node_id: int) -> Callable[[Datagram], None]:
        def handler(dgram: Datagram) -> None:
            if isinstance(dgram.payload, GossipMessage):
                if self.overlay is not None:
                    self.overlay.on_datagram(node_id, dgram)
                return
            self.nodes[node_id].on_datagram(dgram)

        return handler

    def _begin_slot(self, slot: int) -> None:
        if self.overlay is not None:
            # a randomly chosen node acts as the proposer and gossips
            # the block, concurrently with the builder's seeding
            proposer = self.rngs.stream("proposer").choice(self.node_ids)
            self.ctx.emit("phase", slot=slot, node=proposer, phase="block", at=0.0)
            self.overlay.publish(
                publisher=proposer,
                topic="blocks",
                msg_id=("block", slot),
                payload=None,
                payload_size=BLOCK_BYTES,
                slot=slot,
            )
        self.builder.seed_slot(slot)
        for node_id in self.byzantine:
            node = self.nodes[node_id]
            if hasattr(node, "on_slot_begin"):
                node.on_slot_begin(slot)

    def block_distribution(self) -> Distribution:
        return Distribution.from_optional(self._alive_phase("block"))
