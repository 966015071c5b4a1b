"""Kademlia-DHT-based DAS baseline (Section 8.1, Figures 12 & 14).

The extended blob is flattened row-major and split into parcels of 64
adjacent cells. The builder put()s every parcel under the hash of its
content, storing it at the eight closest peers — the same egress
budget as PANDAS's redundant policy. Nodes are implicitly responsible
for the key ranges near their DHT id; consolidation is disabled.
Sampling maps each of the 73 random cells to its parcel and issues
iterative get(key) lookups, retrying with a backoff while the parcel
has not yet been stored (the builder's puts race the samplers, as they
do in the paper's deployment). The multi-hop routing overhead is
exactly what makes this baseline slow and chatty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.dht.enr import EnrDirectory
from repro.dht.kademlia import KademliaNode, LookupResult
from repro.experiments.scenario import BaseScenario
from repro.net.transport import Datagram
from repro.params import SLOT_SECONDS
from repro.sim.rng import derive_seed

__all__ = ["DhtDasScenario", "PARCEL_CELLS", "parcel_of_cell", "parcel_key"]

PARCEL_CELLS = 64
GET_RETRY_DELAY = 0.5
STORE_REPLICAS = 8


def parcel_of_cell(cid: int) -> int:
    """Index of the 64-cell parcel containing ``cid`` (row-major grid)."""
    return cid // PARCEL_CELLS


def parcel_key(slot: int, parcel_index: int, namespace: int = 0) -> int:
    """The DHT key of a parcel.

    The paper keys parcels by the hash of their contents; content is
    not materialized in the simulation, so a (slot, index) digest
    stands in — equally uniform over the keyspace.
    """
    return derive_seed(namespace, "parcel", slot, parcel_index) << 192


@dataclass
class _SamplerState:
    """One node's sampling progress for one slot."""

    slot: int
    wanted_parcels: set[int] = field(default_factory=set)
    fetched_parcels: set[int] = field(default_factory=set)
    done: bool = False


class DhtDasScenario(BaseScenario):
    """Figures 12/14: store/sample cells through Kademlia put/get."""

    def _build_participants(self) -> None:
        self.directory = EnrDirectory()
        for address in [*self.node_ids, self.builder_id]:
            self.directory.register(address)
        self.dht_nodes: dict[int, KademliaNode] = {}
        for address in [*self.node_ids, self.builder_id]:
            node = KademliaNode(
                self.sim,
                self.network,
                self.directory,
                address,
                rng=self.rngs.stream("dht-boot", address),
            )
            node.bootstrap_from_directory()
            self.dht_nodes[address] = node
        self._samplers: dict[int, dict[int, _SamplerState]] = {
            node_id: {} for node_id in self.node_ids
        }

    def _node_handler(self, node_id: int) -> Callable[[Datagram], None]:
        return lambda dgram: self.dht_nodes[node_id].on_datagram(dgram)

    def _builder_handler(self) -> Callable[[Datagram], None]:
        return lambda dgram: self.dht_nodes[self.builder_id].on_datagram(dgram)

    # ------------------------------------------------------------------
    def _begin_slot(self, slot: int) -> None:
        self._seed_parcels(slot)
        for node_id in self.node_ids:
            self._start_sampling(node_id, slot)

    def _seed_parcels(self, slot: int) -> None:
        """Builder put()s every parcel at its 8 closest peers."""
        params = self.params
        builder = self.dht_nodes[self.builder_id]
        parcel_size = PARCEL_CELLS * params.cell_bytes
        num_parcels = params.total_cells // PARCEL_CELLS
        for index in range(num_parcels):
            builder.store(
                parcel_key(slot, index),
                parcel_size,
                replicas=STORE_REPLICAS,
                slot=slot,
            )

    # ------------------------------------------------------------------
    def _start_sampling(self, node_id: int, slot: int) -> None:
        params = self.params
        rng = self.rngs.stream("samples", node_id, slot)
        samples = rng.sample(range(params.total_cells), params.samples)
        state = _SamplerState(slot, wanted_parcels={parcel_of_cell(c) for c in samples})
        self._samplers[node_id][slot] = state
        for parcel in sorted(state.wanted_parcels):
            self._fetch_parcel(node_id, state, parcel)

    def _fetch_parcel(self, node_id: int, state: _SamplerState, parcel: int) -> None:
        if state.done or parcel in state.fetched_parcels:
            return
        window_end = state.slot * SLOT_SECONDS + SLOT_SECONDS

        def on_result(result: LookupResult) -> None:
            if state.done or parcel in state.fetched_parcels:
                return
            if result.found_value:
                state.fetched_parcels.add(parcel)
                if state.fetched_parcels >= state.wanted_parcels:
                    state.done = True
                    self.ctx.emit(
                        "phase", slot=state.slot, node=node_id, phase="sampling",
                        at=self.ctx.since_slot_start(state.slot),
                    )
                return
            # parcel not stored yet (or holders unresponsive): retry
            # with a backoff until the slot window closes
            if self.sim.now + GET_RETRY_DELAY < window_end:
                self.sim.call_after(
                    GET_RETRY_DELAY,
                    lambda: self._fetch_parcel(node_id, state, parcel),
                )

        self.dht_nodes[node_id].get(
            parcel_key(state.slot, parcel), on_result, slot=state.slot
        )

    def _end_slot(self, slot: int) -> None:
        for node_id in self.node_ids:
            state = self._samplers[node_id].pop(slot, None)
            if state is not None:
                state.done = True
        # drop stored parcels between slots to bound memory
        for node in self.dht_nodes.values():
            node.storage.clear()
