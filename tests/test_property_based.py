"""Property-based tests (hypothesis) for the codec and the assignment.

These complement the example-based suites with randomized coverage of
the components whose correctness the whole protocol leans on:

- ``ReedSolomon``: any >= k surviving symbols reconstruct the exact
  codeword; any < k symbols are rejected (the information-theoretic
  threshold behind the withholding analysis);
- ``CellAssignment``: ``S(node, epoch)`` is a pure function of
  ``(epoch_seed, node_id)`` — view-independent, distinct, in-range —
  and a realistic node population covers every line of the grid;
- ``AdaptiveFetcher`` on the builder's shared per-line boost maps
  targets, offers and scores exactly as on a private flat copy;
- ``SlotCellState`` reconstructs exactly the cells the byte-level
  Reed-Solomon codec can decode from the same offered cells, and its
  per-line byte maps behave exactly like the set-based state they
  replaced.

Kept in its own file so CI can run it as a separate (non-blocking)
job: hypothesis shrinks aggressively on failure and example-based
tier-1 signal should not wait on it.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.assignment import CellAssignment, cells_of_line, lines_of_cell  # noqa: E402
from repro.crypto.randao import RandaoBeacon  # noqa: E402
from repro.erasure.reed_solomon import ReedSolomon  # noqa: E402
from repro.params import PandasParams  # noqa: E402

FAST = settings(max_examples=25, deadline=None)


# ----------------------------------------------------------------------
# Reed-Solomon round trips
# ----------------------------------------------------------------------
@st.composite
def codeword_with_erasures(draw):
    """A random RS(k, 2k) codeword plus a survivor set of >= k positions."""
    k = draw(st.integers(min_value=1, max_value=16))
    data = draw(st.lists(st.integers(0, 255), min_size=k, max_size=k))
    n = 2 * k
    survivors = draw(
        st.sets(st.integers(0, n - 1), min_size=k, max_size=n).map(sorted)
    )
    return k, data, survivors


class TestReedSolomonProperties:
    @FAST
    @given(codeword_with_erasures())
    def test_any_k_survivors_reconstruct_exactly(self, case):
        k, data, survivors = case
        rs = ReedSolomon(k, 2 * k)
        codeword = rs.encode(data)
        known = {pos: codeword[pos] for pos in survivors}
        assert rs.decode(known) == codeword

    @FAST
    @given(codeword_with_erasures())
    def test_systematic_prefix_is_the_data(self, case):
        k, data, _ = case
        rs = ReedSolomon(k, 2 * k)
        assert rs.encode(data)[:k] == data

    @FAST
    @given(
        st.integers(min_value=2, max_value=16),
        st.data(),
    )
    def test_below_threshold_is_rejected(self, k, data):
        rs = ReedSolomon(k, 2 * k)
        codeword = rs.encode([0] * k)
        count = data.draw(st.integers(0, k - 1))
        survivors = data.draw(
            st.sets(st.integers(0, 2 * k - 1), min_size=count, max_size=count)
        )
        with pytest.raises(ValueError):
            rs.decode({pos: codeword[pos] for pos in survivors})

    @FAST
    @given(st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_encode_is_deterministic(self, data):
        rs = ReedSolomon(4, 8)
        assert rs.encode(data) == rs.encode(data)


# ----------------------------------------------------------------------
# Assignment purity and coverage
# ----------------------------------------------------------------------
def small_params() -> PandasParams:
    return PandasParams(
        base_rows=4, base_cols=4, custody_rows=2, custody_cols=2, samples=5
    )


class TestAssignmentProperties:
    @FAST
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=100),
    )
    def test_custody_is_pure_in_seed_and_node(self, genesis, node, epoch):
        """Two independent instances agree: no hidden view/order state."""
        params = small_params()
        a = CellAssignment(params, RandaoBeacon(genesis))
        b = CellAssignment(params, RandaoBeacon(genesis))
        assert a.custody(node, epoch) == b.custody(node, epoch)

    @FAST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=100),
    )
    def test_custody_lines_distinct_sorted_in_range(self, node, epoch):
        params = small_params()
        assignment = CellAssignment(params, RandaoBeacon(7))
        custody = assignment.custody(node, epoch)
        assert len(set(custody.rows)) == params.custody_rows
        assert len(set(custody.cols)) == params.custody_cols
        assert list(custody.rows) == sorted(custody.rows)
        assert list(custody.cols) == sorted(custody.cols)
        assert all(0 <= r < params.ext_rows for r in custody.rows)
        assert all(0 <= c < params.ext_cols for c in custody.cols)

    @FAST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=100),
    )
    def test_custody_cells_match_lines(self, node, epoch):
        params = small_params()
        assignment = CellAssignment(params, RandaoBeacon(7))
        lines = assignment.lines(node, epoch)
        expected = set()
        for line in lines:
            expected.update(cells_of_line(line, params.ext_rows, params.ext_cols))
        assert assignment.custody_cells(node, epoch) == expected

    @FAST
    @given(st.integers(min_value=0, max_value=2**32))
    def test_population_covers_every_line(self, genesis):
        """200 nodes leave no line of the small grid uncustodied."""
        params = small_params()
        assignment = CellAssignment(params, RandaoBeacon(genesis))
        covered = set()
        for node in range(200):
            covered.update(assignment.lines(node, epoch=0))
        assert covered == set(range(params.ext_rows + params.ext_cols))

    @FAST
    @given(st.integers(min_value=0, max_value=63))
    def test_cell_line_duality(self, cid):
        params = small_params()
        row_line, col_line = lines_of_cell(cid, params.ext_rows, params.ext_cols)
        assert cid in cells_of_line(row_line, params.ext_rows, params.ext_cols)
        assert cid in cells_of_line(col_line, params.ext_rows, params.ext_cols)


# ----------------------------------------------------------------------
# shared per-line boost maps vs the old per-node dict[peer, set]
# ----------------------------------------------------------------------
class TestSharedBoostMapEquivalence:
    @FAST
    @given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=6))
    def test_fetcher_matches_the_flat_dict_reference(self, rnd, round_index):
        """Targets, candidates and scores equal the flat-dict oracle's
        (the generator and the oracle live beside the fixed seeded
        cases the blocking tier-1 job runs)."""
        from tests.test_seed_sharing import check_boost_equivalence, random_boost_case

        check_boost_equivalence(random_boost_case(rnd), round_index)


# ----------------------------------------------------------------------
# custody reconstruction vs the byte-level codec
# ----------------------------------------------------------------------
class TestCustodyMatchesTheCodec:
    @FAST
    @given(st.randoms(use_true_random=False))
    def test_custody_reconstruction_matches_the_codec(self, rnd):
        """``SlotCellState`` holds exactly what ``ReedSolomon`` can
        decode from the offered cells, and the bytes are the original's
        (the fixed seeded cases run in the blocking tier-1 job)."""
        from tests.test_erasure_oracle import check_against_codec, random_oracle_case

        check_against_codec(random_oracle_case(rnd))


# ----------------------------------------------------------------------
# byte-map cell state vs the set-based reference
# ----------------------------------------------------------------------
class TestCellStateMatchesTheSetReference:
    @FAST
    @given(st.randoms(use_true_random=False))
    def test_byte_maps_match_the_set_reference(self, rnd):
        """Every result and every ``on_store`` call equal the set-based
        implementation's (the fixed seeded cases run in the blocking
        tier-1 job)."""
        from tests.test_cell_state_equivalence import check_equivalence, random_case

        check_equivalence(random_case(rnd))


# ----------------------------------------------------------------------
# event-queue backend equivalence
# ----------------------------------------------------------------------
@st.composite
def event_schedule(draw):
    """A batch of event times with deliberate tie mass, plus a subset
    to cancel. Times are snapped to a coarse grid so exact-equality
    ties, which only the seq tie-break orders, occur constantly."""
    times = draw(
        st.lists(
            st.integers(min_value=0, max_value=5000).map(lambda t: t / 1000.0),
            min_size=1,
            max_size=120,
        )
    )
    cancel_mask = draw(
        st.lists(st.booleans(), min_size=len(times), max_size=len(times))
    )
    return times, cancel_mask


class TestQueuePopOrder:
    @FAST
    @given(event_schedule())
    def test_pop_order_is_sorted_schedule(self, schedule):
        """The engine fires exactly the uncancelled events, in sorted
        ``(time, seq)`` order: ties fire in scheduling order."""
        from repro.sim.engine import Simulator

        times, cancel_mask = schedule
        sim = Simulator()
        popped: list[int] = []
        events = [sim.call_at(t, lambda i=i: popped.append(i)) for i, t in enumerate(times)]
        for event, cancel in zip(events, cancel_mask):
            if cancel:
                event.cancel()
        sim.run()
        fired = [(events[i].time, events[i].seq) for i in popped]
        live = [(e.time, e.seq) for e, cancel in zip(events, cancel_mask) if not cancel]
        assert fired == sorted(live)


# ----------------------------------------------------------------------
# telemetry histograms: determinism under reordering, quantiles
# ----------------------------------------------------------------------
@st.composite
def histogram_values(draw):
    """Values spanning underflow, every pow2 bucket, and overflow."""
    return draw(
        st.lists(
            st.floats(
                min_value=1e-5,
                max_value=64.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=60,
        )
    )


class TestTelemetryHistogramProperties:
    @FAST
    @given(histogram_values(), st.randoms(use_true_random=False))
    def test_insertion_order_never_changes_the_histogram(self, values, rnd):
        from repro.obs.telemetry import Histogram

        shuffled = list(values)
        rnd.shuffle(shuffled)
        a, b = Histogram(), Histogram()
        for v in values:
            a.observe(v)
        for v in shuffled:
            b.observe(v)
        assert a.counts == b.counts
        assert a.count == b.count
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            assert a.quantile(q) == b.quantile(q)

    @FAST
    @given(histogram_values(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_quantiles_monotone_in_q(self, values, qs):
        from repro.obs.telemetry import Histogram

        hist = Histogram()
        for v in values:
            hist.observe(v)
        estimates = [hist.quantile(q) for q in sorted(qs)]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))
        # estimates live inside the representable range
        assert all(0.0 <= e <= hist.bounds[-1] for e in estimates)

    @FAST
    @given(histogram_values())
    def test_round_trip_through_parts_is_lossless(self, values):
        from repro.obs.telemetry import Histogram

        hist = Histogram()
        for v in values:
            hist.observe(v)
        d = hist.to_dict()
        rebuilt = Histogram.from_parts(d["bounds"], d["counts"], d["sum"])
        assert rebuilt.counts == hist.counts
        for q in (0.1, 0.5, 0.99):
            assert rebuilt.quantile(q) == hist.quantile(q)
