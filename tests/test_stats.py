"""Unit tests for statistics helpers (percentiles, CDFs, curve fits)."""

import numpy as np
import pytest

from repro.stats.fitting import (
    PiecewiseFit,
    fit_piecewise_linear_quadratic,
)
from repro.stats.percentiles import (
    LatencySummary,
    cdf_points,
    median_of_runs,
    percentile,
    summarize_latencies,
)


class TestPercentiles:
    def test_basic_percentile(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 99) == pytest.approx(99.01)

    def test_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summary_contains_paper_percentiles(self):
        summary = summarize_latencies(np.arange(1000.0))
        assert set(summary.percentiles) == {75.0, 90.0, 95.0, 99.0}
        assert summary.count == 1000
        assert summary.mean == pytest.approx(499.5)

    def test_improvement_over(self):
        fast = summarize_latencies(np.full(100, 80.0))
        slow = summarize_latencies(np.full(100, 100.0))
        imp = fast.improvement_over(slow)
        assert imp["p99_abs"] == pytest.approx(20.0)
        assert imp["p99_rel"] == pytest.approx(0.2)
        assert imp["mean_abs"] == pytest.approx(20.0)

    def test_median_of_runs(self):
        runs = [
            summarize_latencies(np.full(10, value)) for value in (10.0, 30.0, 20.0)
        ]
        combined = median_of_runs(runs)
        assert combined[99] == pytest.approx(20.0)
        assert combined.mean == pytest.approx(20.0)

    def test_median_of_runs_empty(self):
        with pytest.raises(ValueError):
            median_of_runs([])

    def test_cdf_points_monotone(self):
        xs, fs = cdf_points(np.random.default_rng(0).exponential(1, 1000))
        assert np.all(np.diff(xs) >= 0)
        assert fs[0] == 0.0
        assert fs[-1] == 1.0


class TestPiecewiseFit:
    def make_knee_data(self, knee=37.0):
        x = np.linspace(5, 80, 40)
        y = np.where(
            x < knee,
            15.0 + 0.24 * x,
            2000.0 - 95.0 * x + 1.16 * x**2,
        )
        return x, y

    def test_fits_clean_data_exactly(self):
        x, y = self.make_knee_data()
        fit = fit_piecewise_linear_quadratic(x, y, knee=37.0)
        assert fit.r2_linear > 0.999
        assert fit.r2_quadratic > 0.999
        assert fit.linear_coeffs[1] == pytest.approx(0.24, rel=0.01)
        assert fit.quadratic_coeffs[2] == pytest.approx(1.16, rel=0.01)

    def test_predict_continuity_classes(self):
        x, y = self.make_knee_data()
        fit = fit_piecewise_linear_quadratic(x, y, knee=37.0)
        assert fit.predict(10.0) == pytest.approx(15.0 + 2.4, rel=0.01)
        assert fit.predict(60.0) == pytest.approx(2000 - 95 * 60 + 1.16 * 3600, rel=0.01)

    def test_noise_tolerance(self):
        x, y = self.make_knee_data()
        rng = np.random.default_rng(0)
        y_noisy = y + rng.normal(0, 5, len(y))
        fit = fit_piecewise_linear_quadratic(x, y_noisy, knee=37.0)
        assert fit.r2_quadratic > 0.98

    def test_insufficient_points_rejected(self):
        with pytest.raises(ValueError):
            fit_piecewise_linear_quadratic([1, 50], [1, 2], knee=37.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_piecewise_linear_quadratic([1, 2, 3], [1, 2], knee=2)

    def test_format_paper_style(self):
        x, y = self.make_knee_data()
        fit = fit_piecewise_linear_quadratic(x, y, knee=37.0)
        rendered = fit.format_paper_style("DPDK")
        assert "DPDK" in rendered
        assert "X^2" in rendered


class TestQuartilesOfRuns:
    def test_quartiles(self):
        from repro.stats.percentiles import quartiles_of_runs

        runs = [summarize_latencies(np.full(10, v)) for v in (10.0, 20.0, 30.0, 40.0)]
        q1, median, q3 = quartiles_of_runs(runs, 99.0)
        assert q1 < median < q3
        assert median == pytest.approx(25.0)

    def test_empty_rejected(self):
        from repro.stats.percentiles import quartiles_of_runs

        with pytest.raises(ValueError):
            quartiles_of_runs([], 99.0)
