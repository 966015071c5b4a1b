"""Danksharding / PANDAS parameter presets.

Section 3 of the paper fixes the target parameters discussed in the
Ethereum community:

- base blob: 32 MB as a 256 x 256 matrix of 512 B cells;
- 2D Reed-Solomon extension to 512 x 512 (each row and column doubles
  and becomes reconstructable from any half of its cells);
- each cell carries a 48 B KZG proof, so the extended blob is
  (512 * 512) * (512 + 48) = 140 MB;
- custody: 8 distinct rows + 8 distinct columns per node (~4.4 MB);
- sampling: 73 random cells -> false-positive probability < 1e-9;
- deadline: 4 s (a third of the 12 s slot), epochs of 32 slots.

Section 7 fixes the adaptive fetching schedule: round timeouts
400, 200, then 100 ms (up to 50 rounds) and redundancy 1, 2, 4, 6, 8,
then 10; cb_boost = 10,000; consolidation timer 400 ms.

``PandasParams.full()`` reproduces these numbers exactly.
``PandasParams.reduced()`` scales the grid down proportionally so that
timing experiments with hundreds-to-thousands of simulated nodes run
on one machine; the sample count is re-derived from the same 1e-9
false-positive bound so the security semantics are preserved (see
``repro.das.security``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "PandasParams",
    "FetchSchedule",
    "RetryPolicy",
    "SLOT_SECONDS",
    "DEADLINE_SECONDS",
    "CELL_DATA_BYTES",
    "PROOF_BYTES",
    "MESSAGE_OVERHEAD_BYTES",
    "SEEDING_REDUNDANCY",
    "CONSOLIDATION_TIMER",
    "MAX_CELLS_PER_QUERY",
]

# Section 3: the 12 s slot and its 4 s sampling deadline; 512 B cells,
# each with a 48 B KZG proof
SLOT_SECONDS = 12.0
DEADLINE_SECONDS = 4.0
CELL_DATA_BYTES = 512
PROOF_BYTES = 48
# every UDP datagram: headers plus the proposer signature binding the
# builder identity (Section 6.1)
MESSAGE_OVERHEAD_BYTES = 120
# Section 8.1: the builder sends every parcel to r = 8 custodians
SEEDING_REDUNDANCY = 8
# Section 7: consolidation starts 400 ms after the last seed datagram
# (or after a query for a slot the node has no seed for)
CONSOLIDATION_TIMER = 0.4
# cells per fetch query, about one seeding parcel (Table 1's ~12 cells
# per round-1 message); ``plan_queries`` explains the cap
MAX_CELLS_PER_QUERY = 16


@dataclass(frozen=True)
class FetchSchedule:
    """Round timeouts (seconds) and redundancy factors for Algorithm 1.

    Rounds beyond the listed vectors repeat the last entry, up to
    ``max_rounds`` (the paper uses t up to t50).
    """

    timeouts: tuple[float, ...] = (0.4, 0.2, 0.1)
    redundancy: tuple[int, ...] = (1, 2, 4, 6, 8, 10)
    max_rounds: int = 50

    def timeout(self, round_index: int) -> float:
        """Timeout for 1-based ``round_index``."""
        if round_index < 1:
            raise ValueError(f"rounds are 1-based, got {round_index}")
        return self.timeouts[min(round_index, len(self.timeouts)) - 1]

    def redundancy_for(self, round_index: int) -> int:
        """Redundancy factor k_i for 1-based ``round_index``."""
        if round_index < 1:
            raise ValueError(f"rounds are 1-based, got {round_index}")
        return self.redundancy[min(round_index, len(self.redundancy)) - 1]

    @property
    def settle_round(self) -> int:
        """First round running on the schedule's repeating tail timeout.

        Round ``i > len(timeouts)`` reuses the last timeout entry, so by
        round ``len(timeouts)`` the escalation phase of the schedule has
        "settled". Two gates key off this round rather than a hard-coded
        ``3``: declared-inbound cells stop being trusted (the builder's
        burst plus the escalation rounds have elapsed — anything still
        undelivered is presumed lost), and the exhausted-pool retry
        machinery becomes eligible. Deriving it here keeps both gates
        correct when the timeout vector is reconfigured.
        """
        return min(len(self.timeouts), self.max_rounds)

    @staticmethod
    def constant(
        timeout: float = 0.4, redundancy: int = 1, max_rounds: int = 50
    ) -> FetchSchedule:
        """The non-adaptive baseline of Figure 11 (fixed t, fixed k)."""
        return FetchSchedule((timeout,), (redundancy,), max_rounds)


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware retry with seeded exponential backoff + jitter.

    Governs what happens when a fetch with a deadline exhausts its
    candidate pool (every custodian of the remaining targets has been
    queried). Recycling silent peers at once, every round, would turn
    loss bursts into synchronized re-query storms and keep re-asking
    dead custodians after the deadline. Instead each retry *wave* ``k``
    (0-based) waits

        ``min(base * multiplier**k, max_backoff) * (1 + jitter * u)``

    where ``u`` is a uniform draw from the fetcher's own seeded RNG
    stream (never the global ``random`` module — reprolint RL001
    enforces this), so replays stay bit-identical while concurrent
    retriers decorrelate. A wave is only scheduled if the backed-off
    round could still complete before the fetcher's deadline; work
    that can no longer meet the slot deadline is abandoned instead of
    retried. ``max_waves`` caps total retry waves per fetcher.
    """

    base: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 0.8
    jitter: float = 0.5
    max_waves: int = 6

    def __post_init__(self) -> None:
        if self.base < 0.0 or self.max_backoff < 0.0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0.0:
            raise ValueError("jitter fraction must be non-negative")
        if self.max_waves < 0:
            raise ValueError("max_waves must be non-negative")

    def backoff(self, wave: int) -> float:
        """Deterministic (pre-jitter) backoff delay of 0-based ``wave``."""
        if wave < 0:
            raise ValueError(f"waves are 0-based, got {wave}")
        return min(self.base * self.multiplier**wave, self.max_backoff)


@dataclass(frozen=True)
class PandasParams:
    """The protocol values a run may vary, in one immutable bundle.

    Values the paper or the PeerDAS spec fixes are module constants
    (above, and in ``repro.baselines.peerdas_das``), not fields. The
    extended grid is ``(2 * base_rows) x (2 * base_cols)``; cell
    indices are ``row * ext_cols + col``.
    """

    base_rows: int = 256
    base_cols: int = 256
    custody_rows: int = 8
    custody_cols: int = 8
    samples: int = 73
    cb_boost: float = 10_000.0
    deadline: float = DEADLINE_SECONDS
    slots_per_epoch: int = 32
    fetch_schedule: FetchSchedule = field(default_factory=FetchSchedule)
    # --- node-side defenses (Section 9 threat model) ---------------------
    # CPU time to verify one cell's KZG proof on ingest; every peer- or
    # builder-supplied cell is checked before storage and the cost is
    # charged to the receiving node's clock (order of magnitude of a
    # real pairing check on commodity hardware). Verification enters the
    # model only as this delay; no proof bytes are computed.
    cell_verify_seconds: float = 0.0002
    # Per-peer token bucket on inbound request/response datagrams. An
    # honest peer sends a handful of messages per slot (one query, the
    # immediate reply plus one deferred reply), so these defaults only
    # ever bite flooders.
    inbound_msg_rate: float = 50.0
    inbound_msg_burst: float = 100.0
    # --- overload control ------------------------------------------------
    # Deadline-aware retry with seeded exponential backoff + jitter:
    # every fetch with a deadline (a node's, for its slot) backs its
    # exhausted-pool retries off instead of hammering the same peers
    # every round, and stops once the slot deadline is out of reach.
    fetch_retry: RetryPolicy = field(default_factory=RetryPolicy)
    # Bound on a node's buffered deferred-reply remainders per slot
    # (the waiting_by_cell records). ``None`` is unbounded; with a
    # limit, new remainders are shed once the buffer is full —
    # retrieval-class requests first, so client load can never crowd
    # out the sampling traffic the consensus timebound depends on.
    pending_request_limit: int | None = None
    # Aggregate admission control for retrieval-class (layer-2 client)
    # requests: a per-node token bucket (tokens/s, burst) over *all*
    # inbound retrieval traffic, independent of the per-peer buckets.
    # Sampling/consolidation traffic never passes through this bucket —
    # it is the load-shedding priority lane.
    retrieval_admit_rate: float = 200.0
    retrieval_admit_burst: float = 20.0

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    @property
    def ext_rows(self) -> int:
        return 2 * self.base_rows

    @property
    def ext_cols(self) -> int:
        return 2 * self.base_cols

    @property
    def total_cells(self) -> int:
        return self.ext_rows * self.ext_cols

    @property
    def cell_bytes(self) -> int:
        """Wire size of one cell: data plus its KZG proof (512+48 B)."""
        return CELL_DATA_BYTES + PROOF_BYTES

    @property
    def blob_bytes(self) -> int:
        """Size of the original (unextended) blob payload."""
        return self.base_rows * self.base_cols * CELL_DATA_BYTES

    @property
    def extended_blob_bytes(self) -> int:
        """Size of the full extended blob including proofs (140 MB full-scale)."""
        return self.total_cells * self.cell_bytes

    @property
    def custody_cells(self) -> int:
        """Distinct cells per node: 8 full rows + 8 columns minus overlaps.

        The paper counts 8 * 512 + 8 * (512 - 8) = 8,176 cells for the
        default custody (each of the 8 columns intersects the 8 rows).
        """
        return (
            self.custody_rows * self.ext_cols
            + self.custody_cols * (self.ext_rows - self.custody_rows)
        )

    @property
    def custody_bytes(self) -> int:
        return self.custody_cells * self.cell_bytes

    @property
    def sample_bytes(self) -> int:
        """Total size of the sampled cells (73 * 560 B = ~40 KB full-scale)."""
        return self.samples * self.cell_bytes

    def fetch_bytes_invariant_bound(self, num_nodes: int) -> float:
        """Physical ceiling on one node's per-slot fetch traffic.

        Used by the protocol-invariant checker (I2): whatever the fault
        mix, a node's fetch traffic (bytes it sends plus bytes it
        receives in node-to-node queries and responses) cannot
        legitimately exceed

        - *requesting*: ``max(k_i)`` redundant copies of everything it
          could ever want (custody cells plus samples), each carried as
          a full cell, plus ``num_nodes`` queries at the capped query
          size — a budget, not one query per peer: the recycle rule
          re-asks peers whose query expired — and
        - *serving*: one capped query received from every peer plus the
          matching full-cell response.

        Anything above this ceiling means a retry loop is melting down,
        which is exactly what the checker exists to catch.
        """
        schedule = self.fetch_schedule
        max_k = max(schedule.redundancy)
        query_bytes = MESSAGE_OVERHEAD_BYTES + MAX_CELLS_PER_QUERY * 8
        response_bytes = (
            MESSAGE_OVERHEAD_BYTES + MAX_CELLS_PER_QUERY * self.cell_bytes
        )
        requesting = (
            max_k * (self.custody_cells + self.samples) * self.cell_bytes
            + num_nodes * query_bytes
        )
        serving = num_nodes * (query_bytes + response_bytes)
        return float(requesting + serving)

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @staticmethod
    def full() -> PandasParams:
        """The exact Danksharding target parameters from the paper."""
        return PandasParams()

    @staticmethod
    def reduced(factor: int = 8, samples: int | None = None) -> PandasParams:
        """Paper parameters with the grid scaled down by ``factor``.

        ``factor=8`` gives a 32x32 base grid (64x64 extended), one
        row/one column custody scaled to keep the same *fraction* of
        the grid in custody, and a sample count re-derived from the
        1e-9 false-positive bound for the smaller grid. Used for
        timing experiments; the protocol logic is scale-free.
        """
        if factor < 1 or 256 % factor:
            raise ValueError(f"factor must divide 256, got {factor}")
        base = 256 // factor
        custody = max(1, 8 // factor)
        params = PandasParams(
            base_rows=base,
            base_cols=base,
            custody_rows=custody,
            custody_cols=custody,
        )
        if samples is None:
            from repro.das.security import required_samples

            samples = required_samples(2 * base, 2 * base, target=1e-9)
        return replace(params, samples=samples)

    def with_schedule(self, schedule: FetchSchedule) -> PandasParams:
        """A copy of these parameters with a different fetch schedule."""
        return replace(self, fetch_schedule=schedule)

    def validate(self) -> None:
        """Sanity-check internal consistency; raises ValueError."""
        if self.custody_rows > self.ext_rows or self.custody_cols > self.ext_cols:
            raise ValueError("custody exceeds grid dimensions")
        if self.samples > self.total_cells:
            raise ValueError("cannot sample more cells than exist")
        if not 0 < self.deadline <= SLOT_SECONDS:
            raise ValueError("deadline must lie within the slot")
