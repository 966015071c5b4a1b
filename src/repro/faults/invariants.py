"""Runtime protocol-invariant checking for (faulty) scenario runs.

``tests/test_protocol_invariants.py`` asserts message-level properties
post-hoc on recorded traffic. This module is the reusable, online
version: an :class:`InvariantChecker` attaches to a live scenario and
enforces, *while the run executes and under any fault mix*:

- **I1 — causality**: no datagram is delivered before it was sent, and
  observed simulation time never goes backwards (the engine already
  refuses to schedule into the past; this catches clock misuse too);
- **I2 — bounded fetch traffic**: no node's per-slot fetch traffic
  exceeds the parameter-derived ceiling (catches retry loops that a
  fault mix could otherwise send into a meltdown);
- **I3 — honest consolidation**: a node is marked
  consolidation-complete only when every one of its custody lines is
  actually fully held or reconstructable;
- **I4 — honest sampling**: sampling success is only recorded when all
  ``params.samples`` (73 at full scale) sample cells are verified held,
  and never with a negative completion time;
- **I5 — no unbounded backlog**: no live queue depth ever exceeds its
  bound (transport ``max_inbox``, and node ``pending_request_limit``
  when one is set). Depth checks are O(1) against live gauges on every
  delivery, plus a final sweep over every endpoint/node — a leak that
  only shows up between deliveries still fails at
  :meth:`InvariantChecker.check_final`;
- **I6 — every fetch ends, by the deadline**: each ``fetch_done``
  names a reason of ``FETCH_DONE_REASONS`` and closes an open fetch of
  its (slot, node); a node holds at most one open fetch per slot (a
  crash's ``stopped`` closes it, a restart reopens it), a retrieval
  client one per request; none is open at
  :meth:`InvariantChecker.check_final` (retirement stops them all); and
  no node's fetch round issues a query at or after its slot's start +
  ``params.deadline``.

I1 and I5 watch the ``Network`` observer lists; I3 and I4 watch the
``phase`` events and I6 the ``fetch_start`` / ``fetch_round`` /
``fetch_done`` events of the run's event bus (:mod:`repro.sim.bus`), on
which the checker is subscribed right after the metrics recorder.
Violations raise :class:`InvariantViolation` (an ``AssertionError``
subclass, so plain pytest runs fail loudly) at the moment the bad
transition happens, which keeps the offending event on the stack.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable
from typing import TYPE_CHECKING, Any, ClassVar

from repro.net.transport import Datagram
from repro.obs.events import FETCH_DONE_REASONS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import BaseScenario

__all__ = ["InvariantChecker", "InvariantViolation"]

_TIME_EPS = 1e-9


class InvariantViolation(AssertionError):
    """A protocol invariant was broken during a simulated run."""


class InvariantChecker:
    """Watches one scenario run; see module docstring for the checks."""

    # the bus events I3/I4 (consolidation and sampling marks) and I6 check
    kinds: ClassVar[frozenset[str]] = frozenset(
        {"phase", "fetch_start", "fetch_round", "fetch_done"}
    )

    def __init__(self, scenario: BaseScenario) -> None:
        self.scenario = scenario
        self.checks_run = 0
        self._last_seen_now: float = 0.0
        self._installed = False
        # I6: open fetches per (slot, node)
        self._open_fetches: Counter[tuple[int, int]] = Counter()

    # ------------------------------------------------------------------
    def install(self) -> InvariantChecker:
        """Hook the transport observers (the scenario subscribes the
        checker to its event bus)."""
        if self._installed:
            raise RuntimeError("invariant checker already installed")
        self._installed = True
        network = self.scenario.network
        network.on_send.append(self._on_send)
        network.on_deliver.append(self._on_deliver)
        return self

    # ------------------------------------------------------------------
    # I1: causality
    # ------------------------------------------------------------------
    def _observe_clock(self) -> None:
        now = self.scenario.sim.now
        if now < self._last_seen_now - _TIME_EPS:
            raise InvariantViolation(
                f"simulation time went backwards: {now:.6f} after {self._last_seen_now:.6f}"
            )
        self._last_seen_now = now

    def _on_send(self, dgram: Datagram) -> None:
        self.checks_run += 1
        self._observe_clock()

    def _on_deliver(self, dgram: Datagram) -> None:
        self.checks_run += 1
        self._observe_clock()
        if dgram.sent_at > self.scenario.sim.now + _TIME_EPS:
            raise InvariantViolation(
                f"datagram {dgram.src}->{dgram.dst} delivered at "
                f"{self.scenario.sim.now:.6f} before being sent at {dgram.sent_at:.6f}"
            )
        self._check_backlog_bounds(dgram.dst)

    # ------------------------------------------------------------------
    # I5: bounded backlog
    # ------------------------------------------------------------------
    def _check_backlog_bounds(self, address: int | None = None) -> None:
        network = self.scenario.network
        max_inbox = network.max_inbox
        self.checks_run += 1
        addresses = network.addresses if address is None else [address]
        for addr in addresses:
            depth = network.queue_depth(addr)
            if depth > max_inbox:
                raise InvariantViolation(
                    f"endpoint {addr} holds {depth} in-flight datagrams, "
                    f"bounded inbox is {max_inbox}"
                )
        limit = self.scenario.params.pending_request_limit
        if limit is None:
            return
        nodes = getattr(self.scenario, "nodes", None)
        if not nodes:
            return
        if address is not None:
            candidates = [nodes.get(address)]
        else:
            candidates = list(nodes.values())
        for node_obj in candidates:
            if node_obj is None or not hasattr(node_obj, "pending_depth"):
                continue
            self.checks_run += 1
            slots = getattr(node_obj, "_slots", {})
            for slot in slots:
                depth = node_obj.pending_depth(slot)
                if depth > limit:
                    raise InvariantViolation(
                        f"node {getattr(node_obj, 'node_id', '?')} buffered "
                        f"{depth} request remainders for slot {slot}, "
                        f"pending_request_limit is {limit}"
                    )

    # ------------------------------------------------------------------
    # I3 / I4: completion marks must reflect real cell state
    # ------------------------------------------------------------------
    def _node_cells(self, slot: Hashable, node: Hashable) -> Any | None:
        nodes = getattr(self.scenario, "nodes", None)
        if not nodes:
            return None
        node_obj = nodes.get(node)
        if node_obj is None or not hasattr(node_obj, "slot_cells"):
            return None
        return node_obj.slot_cells(slot)

    def emit(
        self, kind: str, *, t: float, slot: int = -1, node: int = -1, **data: Any
    ) -> None:
        """Bus entry point: check one consolidation (I3) or sampling (I4)
        completion against the node's cell state, or one fetch's start,
        round or end (I6)."""
        if kind == "fetch_round":
            self._check_round(t, slot, node, data["queries"])
            return
        if kind != "phase":
            self._check_fetch(kind, slot, node, data.get("reason"))
            return
        phase, at = data["phase"], data["at"]
        if phase not in ("consolidation", "sampling"):
            return
        self.checks_run += 1
        if at < -_TIME_EPS:
            raise InvariantViolation(f"node {node} {phase} marked at negative time {at:.6f}")
        state = self._node_cells(slot, node)
        if state is None:
            return
        if phase == "consolidation":
            for line in state.custody_lines:
                if not state.line_complete(line):
                    raise InvariantViolation(
                        f"node {node} marked consolidation-complete for slot {slot} "
                        f"with custody line {line} at {state.line_count(line)} cells "
                        "(not reconstructable)"
                    )
        else:
            if len(state.samples) != self.scenario.params.samples:
                raise InvariantViolation(
                    f"node {node} sampled {len(state.samples)} cells, protocol "
                    f"requires {self.scenario.params.samples}"
                )
            missing = state.missing_samples()
            if missing:
                raise InvariantViolation(
                    f"node {node} marked sampling-complete for slot {slot} with "
                    f"{len(missing)} sample cells unverified"
                )

    # ------------------------------------------------------------------
    # I6: every fetch ends, once, with a known reason
    # ------------------------------------------------------------------
    def _check_fetch(self, kind: str, slot: int, node: int, reason: str | None) -> None:
        self.checks_run += 1
        key = (slot, node)
        opened = self._open_fetches[key]
        problem: str | None = None
        if kind == "fetch_start":
            if opened and node in getattr(self.scenario, "nodes", ()):
                problem = "opened a second fetch"
            else:
                self._open_fetches[key] += 1
        elif reason not in FETCH_DONE_REASONS:
            problem = f"ended a fetch with unknown reason {reason!r}"
        elif not opened:
            problem = f"ended a fetch that was not open ({reason})"
        else:
            self._open_fetches[key] -= 1
        if problem is not None:
            raise InvariantViolation(f"node {node} {problem} for slot {slot}")

    def _check_round(self, t: float, slot: int, node: int, queries: int) -> None:
        """A node's fetch asks nothing once its slot's deadline is reached
        (a retrieval client's fetch has no deadline)."""
        self.checks_run += 1
        scenario = self.scenario
        if not queries or node not in getattr(scenario, "nodes", ()):
            return
        deadline = scenario.ctx.slot_start(slot) + scenario.params.deadline
        if t >= deadline:
            raise InvariantViolation(
                f"node {node} issued {queries} queries for slot {slot} at "
                f"{t:.6f}, past its deadline {deadline:.6f}"
            )

    # ------------------------------------------------------------------
    # end-of-run checks (I1 tail + I2 + I6)
    # ------------------------------------------------------------------
    def check_final(self) -> None:
        """Run the whole-run invariants after the last slot."""
        scenario = self.scenario
        sim = scenario.sim
        # I5 full sweep: every endpoint and every node, not just the
        # ones that happened to receive the last datagrams
        self._check_backlog_bounds()
        self.checks_run += 1
        unended = +self._open_fetches  # the positive counts
        if unended:
            slot, node = min(unended)
            raise InvariantViolation(
                f"{unended.total()} fetch(es) never ended, e.g. node {node} for slot {slot}"
            )
        # timers and posted deliveries alike: a delivery left behind
        # the clock is as much a lost event as a timer
        for entry in sim.iter_pending():
            self.checks_run += 1
            if entry.active and entry.time < sim.now - _TIME_EPS:
                raise InvariantViolation(
                    f"pending event scheduled at {entry.time:.6f}, now {sim.now:.6f}"
                )
        bound = self.fetch_bytes_bound()
        byzantine = getattr(scenario, "byzantine_nodes", set())
        for (slot, node), value in scenario.metrics.fetch_bytes.items():
            self.checks_run += 1
            if node in byzantine:
                # Byzantine nodes do not follow the protocol — a
                # flooder's egress legitimately dwarfs the honest
                # ceiling. Honest nodes stay bounded even under attack
                # (the whole point of checking I2 in adversarial runs).
                continue
            if value > bound:
                raise InvariantViolation(
                    f"node {node} fetch traffic for slot {slot} is {value:.0f} B, "
                    f"invariant ceiling is {bound:.0f} B"
                )

    def fetch_bytes_bound(self) -> float:
        """I2's ceiling for this scenario's parameters and node count
        (generous: a physical ceiling, not a performance target)."""
        scenario = self.scenario
        return scenario.params.fetch_bytes_invariant_bound(len(scenario.node_ids))
