"""GossipSub-style topic pub/sub over the simulated network.

Used in two places, matching the paper:

- the system-wide channel that disseminates each new *block* (step 2
  of Figure 4), whose reception-time CDF Figure 9a shows next to the
  PANDAS phases;
- the GossipSub DAS baseline of Figures 12 and 14 (one channel per
  unit of custody).

The model captures what matters for dissemination timing: per-topic
meshes of bounded degree (libp2p default D=8), eager push of full
messages along mesh edges, duplicate suppression by message id, and
TCP transport (reliable, so no Bernoulli loss — retransmission is
already abstracted by the latency/bandwidth path). Control-plane
details (IHAVE/IWANT lazy gossip, heartbeat GRAFT/PRUNE churn) shift
tail behaviour only on much longer timescales than one slot, and are
deliberately out of scope; the mesh is built at subscription time and
static within a run, as in PeerSim-style evaluations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable, Hashable

from repro.net.transport import Datagram, Network

__all__ = [
    "GossipMessage",
    "GossipOverlay",
    "DEFAULT_MESH_DEGREE",
    "DEFAULT_DEGREE_CAP",
]

DEFAULT_MESH_DEGREE = 8
# D_hi-style upper bound on realized mesh degree. Symmetric GRAFTing
# lands each member between mesh_degree (its own picks) and whatever
# incoming edges add on top; without a cap the realized distribution
# spans 1-2x the target, and a node subscribed to many topics (the
# PeerDAS column subnets) multiplies that overshoot per topic. The cap
# is opt-in per overlay/topic so legacy meshes replay unchanged.
DEFAULT_DEGREE_CAP = 12
GOSSIP_HEADER_BYTES = 80  # topic id, message id, framing


@dataclass(frozen=True)
class GossipMessage:
    """One pub/sub data frame.

    ``slot`` mirrors the protocol messages so traffic observers can
    attribute gossip bytes to a slot.
    """

    topic: Hashable
    msg_id: Hashable
    payload: object
    payload_size: int
    slot: int = -1

    @property
    def size(self) -> int:
        return self.payload_size + GOSSIP_HEADER_BYTES


class GossipOverlay:
    """All topics' meshes plus per-member routing state.

    One overlay instance serves every participant; members are network
    addresses. The owner routes incoming ``GossipMessage`` datagrams
    to :meth:`on_datagram`.
    """

    def __init__(
        self,
        network: Network,
        rng: random.Random,
        mesh_degree: int = DEFAULT_MESH_DEGREE,
        degree_cap: int | None = None,
    ) -> None:
        if mesh_degree < 1:
            raise ValueError("mesh degree must be positive")
        if degree_cap is not None and degree_cap < mesh_degree:
            raise ValueError("degree_cap must be at least mesh_degree")
        self.network = network
        self.rng = rng
        self.mesh_degree = mesh_degree
        self.degree_cap = degree_cap
        self._mesh: dict[tuple[Hashable, int], set[int]] = {}
        self._members: dict[Hashable, list[int]] = {}
        # per-member dedup state: (topic, msg_id) -> slot of the message.
        # The slot tag is what lets sustained multi-slot runs retire
        # entries for finished slots instead of accumulating forever.
        self._seen: dict[int, dict[tuple[Hashable, Hashable], int]] = {}
        self._handlers: dict[Hashable, Callable[[int, GossipMessage], None]] = {}
        self.messages_forwarded = 0
        self.duplicates_suppressed = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def create_topic(
        self,
        topic: Hashable,
        members: list[int],
        handler: Callable[[int, GossipMessage], None] | None = None,
        degree_cap: int | None = None,
    ) -> None:
        """Subscribe ``members`` and build the topic mesh.

        Each member GRAFTs ``mesh_degree`` random peers; meshes are
        symmetric (an edge serves both directions), giving the usual
        degree distribution around 1-2x the target.

        With a ``degree_cap`` (here or on the overlay), grafting
        respects a D_hi-style bound: a member stops accepting incoming
        edges at the cap and skips grafting peers already there, so the
        realized degree distribution stays within
        ``[min(mesh_degree, len-1), degree_cap]``. The uncapped path is
        kept byte-identical (same RNG draws, same edges) so legacy
        meshes replay unchanged.
        """
        if topic in self._members:
            raise ValueError(f"topic {topic!r} already exists")
        cap = degree_cap if degree_cap is not None else self.degree_cap
        if cap is not None and cap < self.mesh_degree:
            raise ValueError("degree_cap must be at least mesh_degree")
        self._members[topic] = list(members)
        if handler is not None:
            self._handlers[topic] = handler
        for member in members:
            self._mesh.setdefault((topic, member), set())
        if len(members) < 2:
            return
        if cap is None:
            for member in members:
                others = [m for m in members if m != member]
                picks = self.rng.sample(others, min(self.mesh_degree, len(others)))
                for pick in picks:
                    self._mesh[(topic, member)].add(pick)
                    self._mesh[(topic, pick)].add(member)
            return
        mesh = self._mesh
        for member in members:
            own = mesh[(topic, member)]
            others = [m for m in members if m != member and m not in own]
            # a full random order, walked until the member holds
            # mesh_degree edges: skipped-at-cap peers cost nothing
            order = self.rng.sample(others, len(others))
            for pick in order:
                if len(own) >= self.mesh_degree:
                    break
                peer_mesh = mesh[(topic, pick)]
                if len(peer_mesh) >= cap:
                    continue
                own.add(pick)
                peer_mesh.add(member)

    def mesh_neighbors(self, topic: Hashable, member: int) -> set[int]:
        return self._mesh.get((topic, member), set())

    def topic_members(self, topic: Hashable) -> list[int]:
        return self._members.get(topic, [])

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def publish(
        self,
        publisher: int,
        topic: Hashable,
        msg_id: Hashable,
        payload: object,
        payload_size: int,
        slot: int = -1,
        fanout: int | None = None,
    ) -> None:
        """Inject a message.

        A publisher subscribed to the topic pushes to its mesh; an
        external publisher (e.g. the builder) pushes to ``fanout``
        random members, per GossipSub's fanout rule.
        """
        message = GossipMessage(topic, msg_id, payload, payload_size, slot)
        mesh = self._mesh.get((topic, publisher))
        if mesh is not None:
            # sorted, not raw set order: which neighbor's datagram is
            # scheduled first must be program text, not hash layout
            targets = sorted(mesh)
        else:
            members = self._members.get(topic, [])
            if not members:
                return
            count = min(fanout if fanout is not None else self.mesh_degree, len(members))
            targets = self.rng.sample(members, count)
        self._seen.setdefault(publisher, {})[(topic, msg_id)] = slot
        for neighbor in targets:
            self._push(publisher, neighbor, message)

    def _push(self, src: int, dst: int, message: GossipMessage) -> None:
        self.messages_forwarded += 1
        self.network.send(src, dst, message, message.size, reliable=True)

    def on_datagram(self, member: int, dgram: Datagram) -> None:
        """Mesh forwarding with duplicate suppression."""
        message = dgram.payload
        if not isinstance(message, GossipMessage):
            return
        seen = self._seen.setdefault(member, {})
        key = (message.topic, message.msg_id)
        if key in seen:
            self.duplicates_suppressed += 1
            return
        seen[key] = message.slot
        handler = self._handlers.get(message.topic)
        if handler is not None:
            handler(member, message)
        for neighbor in sorted(self._mesh.get((message.topic, member), ())):
            if neighbor != dgram.src:
                self._push(member, neighbor, message)

    def expire_seen(self, min_slot: int) -> None:
        """Drop dedup entries for messages from slots before ``min_slot``.

        Scenarios call this as they release a slot, to bound memory.
        Forgetting every id instead would also forget the ids of slots
        still running and re-open the mesh to duplicate storms
        mid-dissemination. Entries published without a slot tag (slot
        ``-1``) are treated as slot-less housekeeping and also expire
        once any real slot is released.
        """
        emptied = []
        for member, seen in self._seen.items():
            stale = [key for key, slot in seen.items() if slot < min_slot]
            for key in stale:
                del seen[key]
            if not seen:
                emptied.append(member)
        for member in emptied:
            del self._seen[member]

    def retire_member(self, member: int) -> None:
        """Forget all per-member state for a node leaving the overlay.

        Removes the member's dedup set, unsubscribes it from every
        topic, and detaches both directions of its mesh edges, so
        churned-out nodes cost nothing for the rest of a sustained run.
        """
        self._seen.pop(member, None)
        for topic, members in self._members.items():
            if member in members:
                members.remove(member)
            edges = self._mesh.pop((topic, member), None)
            if edges:
                for peer in sorted(edges):
                    self._mesh.get((topic, peer), set()).discard(member)

    def seen_entries(self) -> int:
        """Total dedup entries across members (memory-bound tests)."""
        return sum(len(seen) for seen in self._seen.values())
