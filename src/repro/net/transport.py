"""Lossy, connectionless (UDP-like) message transport.

PANDAS deliberately uses one-way UDP datagrams with no connection
establishment, keep-alives, or negative acknowledgments; requests and
responses "may fail silently due to packet loss or incorrect nodes".
The transport reproduces exactly that contract:

- ``send`` never fails at the caller; loss is a Bernoulli draw
  (the paper's testbed observed 3% UDP loss);
- delivery time = sender uplink serialization + propagation latency +
  receiver downlink serialization (see :mod:`repro.net.link`) + the
  receiver's ``Endpoint.verify_cost`` of the payload (a PANDAS node's
  KZG check; 0 at receivers that do not verify);
- datagrams to unregistered/destroyed addresses vanish silently, which
  models departed nodes that are still present in stale views.

Every datagram copy that survives send-time resolution is one
simulator event at its delivery instant (``Network._deliver``), so
deliveries interleave with every other event by the engine's
``(time, seq)`` order and the transport keeps no reference to a
datagram once it is delivered. A delivery is posted without a handle
(``Simulator.post_at``): nothing cancels one, so it costs a queue
entry and its argument tuple, not an ``Event`` and a bound method.
Delivered means verified too: the ``on_deliver`` observers (so
``net_deliver`` records), then the receiver's handler, run at that
instant, ``verify_cost`` after the copy arrived. A copy whose receiver
was down at any instant since it arrived is dropped ``dead_late`` at
that instant instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from repro.net.latency import LatencyModel
from repro.net.link import AccessLink
from repro.sim.engine import Simulator

__all__ = ["Datagram", "Endpoint", "Network", "DEFAULT_LOSS_RATE"]

DEFAULT_LOSS_RATE = 0.03  # observed UDP loss in the paper's cluster


@dataclass(slots=True)
class Datagram:
    """One message on the wire. Treated as immutable once sent.

    Not ``frozen=True``: a full-parameter slot creates hundreds of
    thousands of datagrams, and the frozen ``__init__`` pays an
    ``object.__setattr__`` per field on the hottest allocation site
    in the transport.
    """

    src: int
    dst: int
    payload: Any
    size: int
    sent_at: float


@dataclass(slots=True)
class Endpoint:
    """A registered network participant."""

    address: int
    vertex: int
    link: AccessLink
    handler: Callable[[Datagram], None]
    alive: bool = True
    # copies sent toward this endpoint and not yet delivered (verified) —
    # the live queue depth that ``max_inbox`` and the I5 backlog gauge read
    in_flight: int = 0
    # datagrams this endpoint rejected because its queue was full
    overflowed: int = 0
    # seconds of verification per payload, added to its delivery instant
    verify_cost: Callable[[Any], float] | None = None
    # when a killed endpoint last came back up (``Network.revive``)
    revived_at: float = float("-inf")


class Network:
    """Connects endpoints through latency, bandwidth and loss.

    ``on_send`` / ``on_deliver`` observers let the experiment layer
    account messages and bytes without protocol code knowing about
    metrics objects.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        loss_rate: float = DEFAULT_LOSS_RATE,
        rng: random.Random | None = None,
        max_inbox: int = 4096,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if max_inbox <= 0:
            raise ValueError(f"max_inbox must be positive, got {max_inbox}")
        self.sim = sim
        self.latency = latency
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else random.Random(0)
        # Bound on in-flight datagrams per endpoint: a datagram arriving
        # at a full queue is dropped at send-resolution time with reason
        # "overflow" — real NICs tail-drop, they do not buffer forever.
        # This is the transport half of the I5 "no unbounded backlog"
        # invariant (repro.faults.invariants).
        self.max_inbox = max_inbox
        self._endpoints: dict[int, Endpoint] = {}
        self.on_send: list[Callable[[Datagram], None]] = []
        self.on_deliver: list[Callable[[Datagram], None]] = []
        # Loss observers for the tracing layer: called with the dropped
        # datagram and a reason — "dead" (destination unregistered or
        # not alive at send time), "loss" (Bernoulli draw), "fault"
        # (fault_filter returned no copies), "dead_late" (receiver was
        # down between arrival and delivery), "overflow" (receiver's
        # bounded queue was full).
        self.on_drop: list[Callable[[Datagram, str], None]] = []
        # Optional fault-injection hook (see repro.faults.injector):
        # called per datagram with (dgram, reliable), returns one extra
        # delivery delay per copy to deliver — () drops the datagram,
        # (0.0,) is undisturbed delivery, (0.0, j) adds a duplicate.
        self.fault_filter: Callable[[Datagram, bool], tuple[float, ...]] | None = None
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_lost = 0
        self.datagrams_duplicated = 0
        self.datagrams_overflowed = 0
        # one bound method for every delivery this network posts
        self._bound_deliver = self._deliver

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(
        self,
        address: int,
        vertex: int,
        handler: Callable[[Datagram], None],
        up_rate: float | None,
        down_rate: float | None,
    ) -> Endpoint:
        """Attach a participant; ``address`` must be unique."""
        if address in self._endpoints:
            raise ValueError(f"address {address} already registered")
        endpoint = Endpoint(address, vertex, AccessLink(up_rate, down_rate), handler)
        self._endpoints[address] = endpoint
        return endpoint

    def kill(self, address: int) -> None:
        """Silence an endpoint (fail-silent crash / free-rider model).

        The endpoint stays registered so senders still pay uplink cost,
        but nothing is ever delivered to or emitted by it.
        """
        endpoint = self._endpoints.get(address)
        if endpoint is not None:
            endpoint.alive = False

    def revive(self, address: int) -> None:
        """Bring a killed endpoint back (crash/recovery fault model).

        The link's serialization state resets: a rebooted process does
        not resume the backlog its dead NIC never drained. Datagrams
        already in flight toward the endpoint are delivered if they
        arrive after the revival — to senders the outage was silent.
        """
        endpoint = self._endpoints.get(address)
        if endpoint is not None and not endpoint.alive:
            endpoint.alive = True
            endpoint.revived_at = self.sim.now
            endpoint.link.reset()

    def is_alive(self, address: int) -> bool:
        endpoint = self._endpoints.get(address)
        return endpoint is not None and endpoint.alive

    def endpoint(self, address: int) -> Endpoint:
        return self._endpoints[address]

    @property
    def addresses(self) -> list[int]:
        return list(self._endpoints)

    def queue_depth(self, address: int) -> int:
        """Live in-flight datagram count toward ``address`` (0 if unknown).

        This is the gauge the I5 backlog invariant and the overload
        metrics sample.
        """
        endpoint = self._endpoints.get(address)
        return 0 if endpoint is None else endpoint.in_flight

    def max_queue_depth(self) -> int:
        """Largest live queue depth across all endpoints."""
        if not self._endpoints:
            return 0
        return max(e.in_flight for e in self._endpoints.values())

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(
        self, src: int, dst: int, payload: Any, size: int, reliable: bool = False
    ) -> None:
        """Fire-and-forget datagram from ``src`` to ``dst``.

        The sender always pays uplink serialization (bytes leave the
        NIC whether or not they arrive). Loss and dead destinations
        are resolved at delivery time, silently.

        ``reliable=True`` models a TCP stream segment (as used by
        GossipSub in libp2p): retransmission hides Bernoulli loss, so
        the loss draw is skipped; dead endpoints still receive nothing.
        """
        sender = self._endpoints.get(src)
        if sender is None:
            raise ValueError(f"unknown sender {src}")
        if size <= 0:
            raise ValueError(f"datagram size must be positive, got {size}")
        now = self.sim.now
        dgram = Datagram(src, dst, payload, size, now)
        self.datagrams_sent += 1
        for observer in self.on_send:
            observer(dgram)

        departure = sender.link.reserve_uplink(now, size)
        receiver = self._endpoints.get(dst)
        if receiver is None or not receiver.alive or not sender.alive:
            self._drop(dgram, "dead")
            return
        if not reliable and self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self._drop(dgram, "loss")
            return
        extra_delays: tuple[float, ...] = (0.0,)
        if self.fault_filter is not None:
            extra_delays = self.fault_filter(dgram, reliable)
            if not extra_delays:
                self._drop(dgram, "fault")
                return
        arrival = departure + self.latency.one_way(sender.vertex, receiver.vertex)
        cost = 0.0 if receiver.verify_cost is None else receiver.verify_cost(payload)
        max_inbox = self.max_inbox
        for copy_index, extra in enumerate(extra_delays):
            if receiver.in_flight >= max_inbox:
                # bounded queue full: tail-drop this copy. Checked per
                # copy so a duplicate can overflow while the original
                # squeaked in — exactly what a real NIC queue would do.
                receiver.overflowed += 1
                self.datagrams_overflowed += 1
                self._drop(dgram, "overflow")
                continue
            if copy_index:
                self.datagrams_duplicated += 1
            receiver.in_flight += 1
            arrived_at = receiver.link.reserve_downlink(arrival + extra, size)
            self.sim.post_at(
                arrived_at + cost, self._bound_deliver, receiver, dgram, arrived_at
            )

    def _drop(self, dgram: Datagram, reason: str) -> None:
        """Account one lost datagram and notify drop observers."""
        self.datagrams_lost += 1
        for observer in self.on_drop:
            observer(dgram, reason)

    def _deliver(self, receiver: Endpoint, dgram: Datagram, arrived_at: float) -> None:
        receiver.in_flight -= 1
        if not receiver.alive or receiver.revived_at > arrived_at:
            self._drop(dgram, "dead_late")
            return
        self.datagrams_delivered += 1
        for observer in self.on_deliver:
            observer(dgram)
        receiver.handler(dgram)
