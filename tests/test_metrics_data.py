"""Tests for metrics helpers and the Figure 1 dataset."""

import pytest

from repro.core.metrics import (cdf_points, fold_stats, format_series,
                                mean, median, percentile, sample_indices)
from repro.data import SYSCALL_HISTORY, counts_by_year, growth_per_year


class TestPercentiles:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_p0_and_p100(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_p90(self):
        values = list(range(1, 101))
        assert percentile(values, 90) == pytest.approx(90.1)

    def test_single_value(self):
        assert percentile([7], 33) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            mean([])

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_mean(self):
        assert mean([1, 2, 3]) == 2


class TestCdf:
    def test_cdf_reaches_one(self):
        points = cdf_points([4, 1, 3, 2])
        assert points[-1][1] == 1.0
        assert points[-1][0] == 4

    def test_cdf_monotone(self):
        points = cdf_points(list(range(100)), points=10)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_points([])

    def test_single_value(self):
        assert cdf_points([7.5]) == [(7.5, 1.0)]

    def test_two_values(self):
        assert cdf_points([2.0, 1.0]) == [(1.0, 0.5), (2.0, 1.0)]

    def test_two_equal_values_collapse(self):
        """Duplicates map to one point at the full cumulative fraction."""
        assert cdf_points([3.0, 3.0]) == [(3.0, 1.0)]

    def test_duplicated_value_reports_full_fraction(self):
        """P(X <= v) counts every copy of v, not the sampled copy's rank."""
        points = cdf_points([1.0, 2.0, 2.0, 2.0])
        assert points == [(1.0, 0.25), (2.0, 1.0)]

    def test_duplicated_maximum_after_subsampling(self):
        """A subsample landing on an early copy of the maximum must not
        emit a fraction below 1.0 for it."""
        values = list(range(50)) + [49.0] * 50
        points = cdf_points(values, points=10)
        xs = [x for x, _f in points]
        assert xs == sorted(set(xs))  # strictly increasing
        assert points[-1] == (49.0, 1.0)
        # The maximum appears exactly once, at fraction 1.0.
        assert [f for x, f in points if x == 49.0] == [1.0]

    def test_values_strictly_increasing(self):
        points = cdf_points([5, 5, 1, 1, 3, 3, 3], points=50)
        xs = [x for x, _f in points]
        assert xs == sorted(set(xs))
        assert points == [(1, 2 / 7), (3, 5 / 7), (5, 1.0)]


class TestSampling:
    def test_includes_endpoints(self):
        indices = sample_indices(1000, 5)
        assert indices[0] == 0
        assert indices[-1] == 999

    def test_small_total_returns_all(self):
        assert sample_indices(3, 10) == [0, 1, 2]

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            sample_indices(0, 5)

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            sample_indices(10, 0)
        with pytest.raises(ValueError):
            sample_indices(10, -3)

    def test_single_sample_pins_to_start(self):
        """samples == 1 used to divide by zero; it pins to index 0."""
        assert sample_indices(1000, 1) == [0]
        assert sample_indices(1, 1) == [0]

    def test_two_samples_cover_endpoints(self):
        assert sample_indices(1000, 2) == [0, 999]

    def test_two_value_percentiles(self):
        """n == 2 interpolates linearly between the two order statistics."""
        assert percentile([10.0, 20.0], 0) == 10.0
        assert percentile([10.0, 20.0], 50) == 15.0
        assert percentile([10.0, 20.0], 90) == pytest.approx(19.0)
        assert percentile([10.0, 20.0], 100) == 20.0


class TestFoldStats:
    def test_latencies_take_the_worst_and_counters_sum(self):
        totals = fold_stats({}, {"booted": 3.0, "create_ms_max": 2.0,
                                 "boot_ms_sum": 5.0, "latency_ms_max": 1.0})
        fold_stats(totals, {"booted": 4.0, "create_ms_max": 1.5,
                            "boot_ms_sum": 6.0, "latency_ms_max": 3.0})
        assert totals == {"booted": 7.0, "create_ms_max": 2.0,
                          "boot_ms_sum": 11.0, "latency_ms_max": 3.0}

    def test_maxima_start_from_the_first_value(self):
        # died_at = -1 ("never died") must survive a fold of such runs.
        totals = fold_stats({}, {"died_at": -1.0, "start_ms_first": -0.5})
        fold_stats(totals, {"died_at": -1.0, "start_ms_first": -2.0})
        assert totals == {"died_at": -1.0, "start_ms_first": -0.5}

    def test_folds_into_existing_totals(self):
        totals = {"unplaced": 1}
        assert fold_stats(totals, {"unplaced": 2, "served": 3}) is totals
        assert totals == {"unplaced": 3, "served": 3}


class TestFormatSeries:
    def test_contains_all_series_and_rows(self):
        text = format_series("T", [1, 2], {"a": [0.5, 1.5],
                                           "b": [2.5, 3.5]})
        assert "T" in text
        assert "a" in text and "b" in text
        assert "0.500" in text and "3.500" in text


class TestSyscallData:
    def test_span_matches_figure_axes(self):
        """Fig 1: x from 2002 to ~2018, y from ~200 to ~400."""
        years = [y for y, _c in counts_by_year()]
        counts = [c for _y, c in counts_by_year()]
        assert min(years) == 2002
        assert max(years) >= 2016
        assert 200 <= min(counts) <= 260
        assert 350 <= max(counts) <= 400

    def test_monotone_growth(self):
        counts = [c for _y, c in counts_by_year()]
        assert counts == sorted(counts)

    def test_releases_recorded(self):
        assert any(release.startswith("4.") for _y, release, _c
                   in SYSCALL_HISTORY)

    def test_growth_rate_positive(self):
        assert 5 <= growth_per_year() <= 15
