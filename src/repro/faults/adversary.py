"""Seeded, deterministic Byzantine node behaviors.

The paper's evaluation treats misbehaving nodes as merely *absent*
(dead or out of view). This module models nodes that actively lie —
the threat model the node-side defenses in :mod:`repro.core.node` and
:mod:`repro.core.reputation` exist for:

- **corrupt responders** serve the requested cells, but their proofs
  fail KZG verification against the slot commitment;
- **garbage flooders** push unsolicited ``CellResponse`` datagrams at
  random honest nodes throughout the slot;
- **selective withholders** answer queries normally except for one
  custody line per epoch, starving co-custodians' consolidation of
  that line while staying useful enough elsewhere to dodge cheap
  detection;
- **equivocators** answer only the first ``k`` requesters of a slot
  and ghost everyone else;
- **stalling responders** defer every reply so it lands just after the
  fetching round deadlines.

:class:`ByzantineNode` subclasses :class:`~repro.core.node.PandasNode`
and overrides only the *serving* side — Byzantine nodes still custody,
consolidate and sample like everyone else, which is exactly what makes
them hard to spot from the outside.

Determinism: victim selection (:func:`resolve_adversaries`) and every
in-run adversarial draw use dedicated ``("faults", "adversary", ...)``
RNG streams, so adversarial runs replay bit-identically from their
seed and adding adversaries never perturbs the clean run's protocol
draws (seeding shuffles, sample choices, fetcher tie-breaks).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.assignment import cells_of_line
from repro.core.context import ProtocolContext
from repro.core.messages import CellRequest, CellResponse
from repro.core.node import PandasNode
from repro.faults.plan import AdversarySpec, FaultPlan
from repro.params import SLOT_SECONDS
from repro.sim.engine import Event
from repro.sim.rng import RngRegistry

__all__ = ["ByzantineNode", "resolve_adversaries"]

# how many garbage cells each flood datagram carries: enough to make
# the victim pay real verification time, small enough that the flood
# is bandwidth-plausible for the attacker
FLOOD_CELLS_PER_MESSAGE = 4


def resolve_adversaries(
    plan: FaultPlan,
    rngs: RngRegistry,
    candidates: Sequence[int],
) -> dict[int, AdversarySpec]:
    """Assign each adversary spec its victims; node -> spec.

    Victims are drawn without replacement across specs (a node runs
    exactly one behavior) from dedicated ``("faults", "adversary", i)``
    streams. Fractional shares are resolved against the *full*
    candidate pool, so ``corrupt=0.1,flood=0.1`` means 10% each.
    """
    assigned: dict[int, AdversarySpec] = {}
    for i, spec in enumerate(plan.adversaries):
        rng = rngs.stream("faults", "adversary", i)
        if spec.nodes:
            victims = list(spec.nodes)
        else:
            pool = [node for node in candidates if node not in assigned]
            count = spec.resolve_count(len(candidates))
            if count > len(pool):
                raise ValueError(
                    f"adversary spec {spec.behavior!r} wants {count} nodes, "
                    f"only {len(pool)} candidates left"
                )
            victims = rng.sample(pool, count)
        for node_id in victims:
            if node_id in assigned:
                raise ValueError(f"node {node_id} assigned two adversary behaviors")
            assigned[node_id] = spec
    return assigned


class ByzantineNode(PandasNode):
    """A PANDAS node running one :class:`AdversarySpec` behavior.

    ``victims`` is the roster of addresses a flooder may target
    (typically all other nodes); behaviors that never originate
    traffic ignore it.
    """

    def __init__(
        self,
        ctx: ProtocolContext,
        node_id: int,
        spec: AdversarySpec,
        victims: Sequence[int] = (),
        view: set[int] | None = None,
    ) -> None:
        super().__init__(ctx, node_id, view)
        self.spec = spec
        self.victims: list[int] = [v for v in victims if v != node_id]
        # all in-run adversarial randomness for this node, isolated
        # from every protocol stream
        self._adv_rng = ctx.rngs.stream("faults", "adversary", "node", node_id)
        self._flood_timer: Event | None = None
        self._served_requesters: dict[int, set[int]] = {}
        self._withheld_cache: dict[int, set[int]] = {}

    def _misbehaved(self, fault: str, slot: int, amount: float = 1.0) -> None:
        """Publish one realized Byzantine action (counted with faults)."""
        self.ctx.emit(
            "adversary", slot=slot, node=self.node_id, fault=fault, amount=amount
        )

    # ------------------------------------------------------------------
    # scenario hook
    # ------------------------------------------------------------------
    def on_slot_begin(self, slot: int) -> None:
        """Called by the scenario right after seeding starts."""
        if self.spec.behavior == "flood" and self.victims:
            end = self.ctx.slot_start(slot) + SLOT_SECONDS
            self._flood_tick(slot, end)

    def _flood_tick(self, slot: int, end: float) -> None:
        self._flood_timer = None
        sim = self.ctx.sim
        if sim.now >= end:
            return
        params = self.ctx.params
        victim = self._adv_rng.choice(self.victims)
        cells = tuple(
            sorted(
                self._adv_rng.sample(
                    range(params.total_cells),
                    min(FLOOD_CELLS_PER_MESSAGE, params.total_cells),
                )
            )
        )
        response = CellResponse(
            slot=slot,
            epoch=self.ctx.epoch_of(slot),
            cells=cells,
            invalid=frozenset(cells),
        )
        self.ctx.network.send(
            self.node_id, victim, response, response.wire_size(params)
        )
        self._misbehaved("byz_flood", slot)
        self._flood_timer = sim.call_after(
            1.0 / self.spec.rate, lambda: self._flood_tick(slot, end)
        )

    # ------------------------------------------------------------------
    # serving side overrides
    # ------------------------------------------------------------------
    def _on_request(self, src: int, msg: CellRequest) -> None:
        behavior = self.spec.behavior
        if behavior == "equivocate":
            served = self._served_requesters.setdefault(msg.slot, set())
            if src not in served and len(served) >= self.spec.first_k:
                self._misbehaved("byz_equivocate_drop", msg.slot)
                return
            served.add(src)
        elif behavior == "withhold":
            withheld = self._withheld_cells(msg.epoch)
            starved = msg.cells & withheld
            if starved:
                self._misbehaved("byz_withhold_cells", msg.slot, len(starved))
                remaining = msg.cells - withheld
                if not remaining:
                    return
                msg = CellRequest(slot=msg.slot, epoch=msg.epoch, cells=remaining)
        super()._on_request(src, msg)

    def _respond(self, slot: int, epoch: int, dst: int, cells: tuple[int, ...]) -> None:
        behavior = self.spec.behavior
        ctx = self.ctx
        if behavior == "corrupt":
            response = CellResponse(
                slot=slot, epoch=epoch, cells=cells, invalid=frozenset(cells)
            )
            self._misbehaved("byz_corrupt_cells", slot, len(cells))
            ctx.network.send(
                self.node_id, dst, response, response.wire_size(ctx.params)
            )
            return
        if behavior == "stall":
            self._misbehaved("byz_stall", slot)
            send = PandasNode._respond
            ctx.sim.call_after(
                self.spec.delay, lambda: send(self, slot, epoch, dst, cells)
            )
            return
        super()._respond(slot, epoch, dst, cells)

    def _withheld_cells(self, epoch: int) -> set[int]:
        """The one custody line this node starves in ``epoch``."""
        cached = self._withheld_cache.get(epoch)
        if cached is None:
            params = self.ctx.params
            lines = self.ctx.assignment.lines(self.node_id, epoch)
            rng = self.ctx.rngs.stream(
                "faults", "adversary", "withhold", self.node_id, epoch
            )
            line = rng.choice(sorted(lines))
            cached = set(cells_of_line(line, params.ext_rows, params.ext_cols))
            self._withheld_cache[epoch] = cached
        return cached

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        if self._flood_timer is not None:
            self._flood_timer.cancel()
            self._flood_timer = None
        super().crash()

    def drop_slot(self, slot: int) -> None:
        self._served_requesters.pop(slot, None)
        super().drop_slot(slot)
