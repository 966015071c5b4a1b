"""Shared per-run protocol context.

Bundles the simulation engine, network, parameters, assignment
function, metrics sink, event bus and RNG registry that every PANDAS
participant needs, plus slot bookkeeping (start times, epoch mapping)
maintained by the experiment driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.core.assignment import AssignmentIndex, CellAssignment
from repro.net.transport import Network
from repro.params import PandasParams
from repro.sim.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder
from repro.sim.rng import RngRegistry

__all__ = ["ProtocolContext"]


@dataclass
class ProtocolContext:
    """Everything shared by nodes and builders in one run."""

    sim: Simulator
    network: Network
    params: PandasParams
    assignment: CellAssignment
    metrics: MetricsRecorder
    rngs: RngRegistry
    index_for_epoch: Callable[[int], AssignmentIndex]
    slot_starts: dict[int, float] = field(default_factory=dict)
    # The slot builder's address, when globally known (the proposer's
    # signature binds it — Section 6.1). Nodes reject seed parcels from
    # any other source; ``None`` disables the check (unit harnesses).
    builder_id: int | None = None
    # The run's event bus (repro.sim.bus), with ``metrics`` as its first
    # subscriber; the scenario subscribes the optional observers
    # (invariant checker, telemetry, tracer) after it.
    events: EventBus = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.events = EventBus(self.sim, (self.metrics,))

    def emit(self, kind: str, *, slot: int = -1, node: int = -1, **data: Any) -> None:
        """Publish one protocol event at the current simulated time."""
        self.events.emit(kind, slot=slot, node=node, **data)

    def epoch_of(self, slot: int) -> int:
        return slot // self.params.slots_per_epoch

    def begin_slot(self, slot: int) -> None:
        """Record the slot's start time (call at proposer selection)."""
        self.slot_starts.setdefault(slot, self.sim.now)

    def slot_start(self, slot: int) -> float:
        return self.slot_starts.get(slot, 0.0)

    def since_slot_start(self, slot: int) -> float:
        return self.sim.now - self.slot_start(slot)
