"""Parameter presets and Section 3's derived quantities."""

from __future__ import annotations

import pytest

from repro.das.security import false_positive_probability
from repro.params import (
    DEADLINE_SECONDS,
    SLOT_SECONDS,
    FetchSchedule,
    PandasParams,
    RetryPolicy,
)


class TestFullParams:
    def test_grid_geometry(self):
        p = PandasParams.full()
        assert (p.base_rows, p.base_cols) == (256, 256)
        assert (p.ext_rows, p.ext_cols) == (512, 512)
        assert p.total_cells == 512 * 512

    def test_cell_and_blob_sizes_match_paper(self):
        p = PandasParams.full()
        assert p.cell_bytes == 560  # 512 B data + 48 B KZG proof
        assert p.blob_bytes == 32 * 1024 * 1024  # the 32 MB blob
        # "(512 x 512) x (512 + 48) = 140 MB"
        assert p.extended_blob_bytes == 512 * 512 * 560

    def test_custody_cells(self):
        """8 rows + 8 columns minus the 64 intersections = 8,128 cells.

        (The paper's prose says 8,176 via '8 x (512-2)', an arithmetic
        slip; 8 x 512 + 8 x (512 - 8) is the consistent count. Both
        round to the ~4.4-4.6 MB the paper reports.)
        """
        p = PandasParams.full()
        assert p.custody_cells == 8 * 512 + 8 * (512 - 8)
        assert 4.4e6 < p.custody_bytes < 4.6e6

    def test_sample_volume_about_40kb(self):
        p = PandasParams.full()
        assert p.samples == 73
        assert p.sample_bytes == 73 * 560  # ~40 KB

    def test_deadline_is_a_third_of_slot(self):
        p = PandasParams.full()
        assert p.deadline == pytest.approx(SLOT_SECONDS / 3)
        assert p.deadline == DEADLINE_SECONDS

    def test_validate_passes(self):
        PandasParams.full().validate()


class TestReducedParams:
    def test_grid_scaled(self):
        p = PandasParams.reduced(8)
        assert p.ext_rows == 64

    def test_security_preserved(self):
        p = PandasParams.reduced(8)
        assert false_positive_probability(p.samples, p.ext_rows, p.ext_cols) < 1e-9

    def test_explicit_sample_override(self):
        p = PandasParams.reduced(8, samples=10)
        assert p.samples == 10

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            PandasParams.reduced(3)

    def test_custody_fraction_preserved(self):
        full = PandasParams.full()
        reduced = PandasParams.reduced(8)
        full_fraction = (full.custody_rows + full.custody_cols) / (full.ext_rows + full.ext_cols)
        red_fraction = (reduced.custody_rows + reduced.custody_cols) / (
            reduced.ext_rows + reduced.ext_cols
        )
        assert red_fraction == pytest.approx(full_fraction)


class TestValidation:
    def test_custody_exceeding_grid(self):
        with pytest.raises(ValueError):
            PandasParams(base_rows=4, base_cols=4, custody_rows=100).validate()

    def test_oversampling(self):
        with pytest.raises(ValueError):
            PandasParams(
                base_rows=2, base_cols=2, custody_rows=1, custody_cols=1, samples=100
            ).validate()


class TestRetryPolicy:
    def test_defaults_construct(self):
        assert PandasParams().fetch_retry == RetryPolicy()

    @pytest.mark.parametrize(
        "bad",
        [
            {"base": -0.1},
            {"max_backoff": -1.0},
            {"multiplier": 0.5},
            {"jitter": -0.5},
            {"max_waves": -1},
        ],
    )
    def test_out_of_range_policy_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)


class TestFetchSchedule:
    def test_paper_defaults(self):
        s = FetchSchedule()
        assert [s.timeout(i) for i in (1, 2, 3, 4, 50)] == [0.4, 0.2, 0.1, 0.1, 0.1]
        assert [s.redundancy_for(i) for i in range(1, 8)] == [1, 2, 4, 6, 8, 10, 10]

    def test_rounds_are_one_based(self):
        with pytest.raises(ValueError):
            FetchSchedule().timeout(0)
        with pytest.raises(ValueError):
            FetchSchedule().redundancy_for(0)

    def test_constant_schedule(self):
        s = FetchSchedule.constant(timeout=0.4, redundancy=1)
        assert s.timeout(10) == 0.4
        assert s.redundancy_for(10) == 1

    def test_with_schedule_returns_copy(self):
        p = PandasParams.full()
        q = p.with_schedule(FetchSchedule.constant())
        assert p.fetch_schedule != q.fetch_schedule
        assert q.ext_rows == p.ext_rows
