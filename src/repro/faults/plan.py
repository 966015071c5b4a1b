"""Declarative, deterministic fault plans.

The paper's evaluation (Section 8.4) probes robustness with *static*
fault snapshots: a fixed fraction of nodes dead or out of view for the
whole run. Follow-up DAS studies show the interesting failures are
dynamic — packet loss and reordering dominate the sampling-latency
tail, and crash/recovery mid-slot is what actually stresses the
retry machinery. A :class:`FaultPlan` describes such a scenario as
pure data:

- **link faults** applied to every datagram: extra Bernoulli loss,
  probabilistic duplication, and uniform delivery jitter (reordering);
- **partition windows**: for ``[start, start+duration)`` a group of
  nodes is cut off from the rest (both directions drop silently);
- **crash windows**: nodes fail-stop at ``crash_at`` and, optionally,
  restart with empty volatile state at ``restart_at``;
- **slow responders**: nodes whose outgoing datagrams suffer a fixed
  extra delay (overloaded peers, the paper's "late builder" analogue);
- **adversaries**: Byzantine per-node behaviors (corrupt responders,
  garbage flooders, selective withholders, equivocators, stalling
  responders) executed by :mod:`repro.faults.adversary`.

The plan itself contains no randomness. Victim selection and every
probabilistic draw happen inside :class:`repro.faults.injector.
FaultInjector` / :func:`repro.faults.adversary.resolve_adversaries`
using dedicated :class:`repro.sim.rng.RngRegistry` streams, so a
faulty run replays bit-identically from its seed and never perturbs
the clean run's protocol draws.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AdversarySpec",
    "BEHAVIORS",
    "CrashWindow",
    "PartitionWindow",
    "SlowResponders",
    "FaultPlan",
]

BEHAVIORS = ("corrupt", "flood", "withhold", "equivocate", "stall")


@dataclass(frozen=True)
class CrashWindow:
    """``count`` nodes fail-stop at ``crash_at``; optional restart.

    ``nodes`` pins explicit victims; when empty, the injector draws
    ``count`` victims deterministically from its crash RNG stream.
    A ``None`` ``restart_at`` is a permanent crash.
    """

    crash_at: float
    restart_at: float | None = None
    count: int = 1
    nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.crash_at < 0.0:
            raise ValueError(f"crash_at must be >= 0, got {self.crash_at}")
        if self.restart_at is not None and self.restart_at <= self.crash_at:
            raise ValueError(
                f"restart_at ({self.restart_at}) must be after crash_at ({self.crash_at})"
            )
        if self.count < 1 and not self.nodes:
            raise ValueError("a crash window needs count >= 1 or explicit nodes")


@dataclass(frozen=True)
class PartitionWindow:
    """A network split over ``[start, start + duration)``.

    ``fraction`` of the eligible nodes form the minority side; traffic
    crossing the cut is dropped silently in both directions. The
    builder always stays on the majority side (a partitioned builder
    is a different experiment: a withheld block).
    """

    start: float
    duration: float
    fraction: float = 0.0
    nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not self.nodes and not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be in (0, 1) unless nodes are pinned")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class SlowResponders:
    """``count`` nodes whose *outgoing* datagrams gain ``extra_delay``.

    Models overloaded or badly-connected peers: their replies arrive
    late, exercising the adaptive fetcher's after-round accounting and
    retry escalation. Applies for the whole run.
    """

    count: int = 1
    extra_delay: float = 0.05
    nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.extra_delay <= 0.0:
            raise ValueError(f"extra_delay must be positive, got {self.extra_delay}")
        if self.count < 1 and not self.nodes:
            raise ValueError("slow responders need count >= 1 or explicit nodes")


@dataclass(frozen=True)
class AdversarySpec:
    """Byzantine behavior for a group of nodes (Section 9 threat model).

    ``share`` selects how many nodes run the behavior: a value below
    1.0 is a fraction of the eligible pool, 1.0 and above is an
    absolute count. ``nodes`` pins explicit victims instead. The
    behaviors (executed by :class:`repro.faults.adversary.
    ByzantineNode`):

    - ``corrupt``    — serve requested cells whose proofs fail KZG
      verification against the slot commitment;
    - ``flood``      — push ``rate`` unsolicited garbage responses per
      second at random honest nodes throughout the slot;
    - ``withhold``   — serve normally except for one custody line per
      epoch, starving co-custodians' consolidation of that line while
      still answering sampling-sized queries elsewhere;
    - ``equivocate`` — answer only the first ``first_k`` requesters of
      a slot, ghosting everyone else;
    - ``stall``      — defer every reply by ``delay`` seconds, landing
      it just after the fetching round deadlines.
    """

    behavior: str
    share: float = 0.0
    nodes: tuple[int, ...] = ()
    rate: float = 20.0  # flood: garbage datagrams per second
    first_k: int = 1  # equivocate: requesters served per slot
    delay: float = 0.5  # stall: seconds between request and reply

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ValueError(
                f"unknown adversary behavior {self.behavior!r}; expected one of {BEHAVIORS}"
            )
        if not self.nodes and self.share <= 0.0:
            raise ValueError("an adversary spec needs share > 0 or explicit nodes")
        if self.rate <= 0.0:
            raise ValueError(f"flood rate must be positive, got {self.rate}")
        if self.first_k < 1:
            raise ValueError(f"first_k must be >= 1, got {self.first_k}")
        if self.delay <= 0.0:
            raise ValueError(f"stall delay must be positive, got {self.delay}")

    def resolve_count(self, pool_size: int) -> int:
        """How many victims this spec wants from a pool of ``pool_size``."""
        if self.nodes:
            return len(self.nodes)
        if self.share >= 1.0:
            return int(round(self.share))
        return max(1, int(round(self.share * pool_size)))


@dataclass(frozen=True)
class FaultPlan:
    """The full fault mix for one run. Pure data; see module docstring."""

    loss: float = 0.0
    duplication: float = 0.0
    jitter: float = 0.0
    crashes: tuple[CrashWindow, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    slow: tuple[SlowResponders, ...] = ()
    adversaries: tuple[AdversarySpec, ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss", "duplication"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    @property
    def is_empty(self) -> bool:
        return not (
            self.loss
            or self.duplication
            or self.jitter
            or self.crashes
            or self.partitions
            or self.slow
            or self.adversaries
        )

    # ------------------------------------------------------------------
    # CLI spec
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> FaultPlan:
        """Build a plan from a compact comma-separated spec.

        Grammar (entries may repeat where it makes sense)::

            loss=P                     extra per-datagram loss probability
            dup=P                      duplication probability
            jitter=S                   uniform extra delivery delay in [0, S] s
            crash=N@T1[:T2]            N nodes crash at T1, restart at T2
            partition=F@T+D            fraction F split off at T for D seconds
            slow=N@D                   N nodes answer D seconds late
            corrupt=X                  X nodes serve cells failing KZG checks
            flood=X@R                  X nodes push R garbage responses/s
            withhold=X                 X nodes starve one custody line/epoch
            equivocate=X@K             X nodes answer only K requesters/slot
            stall=X@D                  X nodes reply D seconds late

        For the adversary entries, ``X`` below 1 is a fraction of the
        eligible nodes, 1 and above an absolute count.

        Example: ``loss=0.05,crash=2@1.0:2.0,corrupt=0.1,flood=2@20``.
        """
        loss = duplication = jitter = 0.0
        crashes: list[CrashWindow] = []
        partitions: list[PartitionWindow] = []
        slow: list[SlowResponders] = []
        adversaries: list[AdversarySpec] = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            key, sep, value = entry.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if not sep:
                    raise ValueError("not key=value")
                if key == "loss":
                    loss = float(value)
                elif key == "dup":
                    duplication = float(value)
                elif key == "jitter":
                    jitter = float(value)
                elif key == "crash":
                    count, _, window = value.partition("@")
                    if not window:
                        raise ValueError("crash needs N@T1[:T2]")
                    crash_at, _, restart_at = window.partition(":")
                    crashes.append(
                        CrashWindow(
                            crash_at=float(crash_at),
                            restart_at=float(restart_at) if restart_at else None,
                            count=int(count),
                        )
                    )
                elif key == "partition":
                    fraction, _, window = value.partition("@")
                    start, _, duration = window.partition("+")
                    if not window or not duration:
                        raise ValueError("partition needs F@T+D")
                    partitions.append(
                        PartitionWindow(
                            start=float(start),
                            duration=float(duration),
                            fraction=float(fraction),
                        )
                    )
                elif key == "slow":
                    count, _, delay = value.partition("@")
                    if not delay:
                        raise ValueError("slow needs N@D")
                    slow.append(
                        SlowResponders(count=int(count), extra_delay=float(delay))
                    )
                elif key in ("corrupt", "withhold"):
                    adversaries.append(AdversarySpec(behavior=key, share=float(value)))
                elif key == "flood":
                    share, _, rate = value.partition("@")
                    adv = AdversarySpec(behavior=key, share=float(share))
                    if rate:
                        adv = AdversarySpec(behavior=key, share=float(share), rate=float(rate))
                    adversaries.append(adv)
                elif key == "equivocate":
                    share, _, first_k = value.partition("@")
                    adv = AdversarySpec(behavior=key, share=float(share))
                    if first_k:
                        adv = AdversarySpec(
                            behavior=key, share=float(share), first_k=int(first_k)
                        )
                    adversaries.append(adv)
                elif key == "stall":
                    share, _, delay = value.partition("@")
                    adv = AdversarySpec(behavior=key, share=float(share))
                    if delay:
                        adv = AdversarySpec(behavior=key, share=float(share), delay=float(delay))
                    adversaries.append(adv)
                else:
                    raise ValueError(f"unknown fault kind {key!r}")
                # the plan's own range checks, run here so an error names its entry
                cls(loss=loss, duplication=duplication, jitter=jitter)
            except ValueError as exc:
                raise ValueError(f"malformed fault entry {entry!r}: {exc}") from exc
        return cls(
            loss=loss,
            duplication=duplication,
            jitter=jitter,
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            slow=tuple(slow),
            adversaries=tuple(adversaries),
        )

    def describe(self) -> str:
        """One-line human summary for CLI output and experiment logs."""
        parts = []
        if self.loss:
            parts.append(f"loss={self.loss:g}")
        if self.duplication:
            parts.append(f"dup={self.duplication:g}")
        if self.jitter:
            parts.append(f"jitter={self.jitter:g}s")
        for crash in self.crashes:
            victims = len(crash.nodes) or crash.count
            restart = f":{crash.restart_at:g}" if crash.restart_at is not None else ""
            parts.append(f"crash={victims}@{crash.crash_at:g}{restart}")
        for part in self.partitions:
            size = len(part.nodes) or part.fraction
            parts.append(f"partition={size:g}@{part.start:g}+{part.duration:g}")
        for lag in self.slow:
            victims = len(lag.nodes) or lag.count
            parts.append(f"slow={victims}@{lag.extra_delay:g}")
        for spec in self.adversaries:
            share = len(spec.nodes) or spec.share
            extra = ""
            if spec.behavior == "flood":
                extra = f"@{spec.rate:g}"
            elif spec.behavior == "equivocate":
                extra = f"@{spec.first_k}"
            elif spec.behavior == "stall":
                extra = f"@{spec.delay:g}"
            parts.append(f"{spec.behavior}={share:g}{extra}")
        return ",".join(parts) if parts else "none"
