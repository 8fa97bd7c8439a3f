"""Tests for power-law fitting."""

import pytest

from repro.analysis.fitting import (
    fit_power_law,
    is_subquadratic,
    is_superquadratic,
)


class TestFit:
    def test_exact_quadratic(self):
        ts = [4, 8, 16, 32]
        fit = fit_power_law(ts, [3 * t * t for t in ts])
        assert abs(fit.exponent - 2.0) < 1e-9
        assert abs(fit.coefficient - 3.0) < 1e-9
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_linear(self):
        ts = [4, 8, 16, 32]
        fit = fit_power_law(ts, [5 * t for t in ts])
        assert abs(fit.exponent - 1.0) < 1e-9

    def test_prediction(self):
        ts = [2, 4, 8]
        fit = fit_power_law(ts, [t * t for t in ts])
        assert fit.predict(16) == pytest.approx(256.0)

    def test_all_zero_degenerate(self):
        fit = fit_power_law([4, 8], [0, 0])
        assert fit.points == 0
        assert fit.coefficient == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_power_law([1, 2], [1])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two non-zero"):
            fit_power_law([4, 8], [0, 16])

    def test_equal_ts_rejected(self):
        with pytest.raises(ValueError, match="two distinct t"):
            fit_power_law([8, 8, 8], [16, 32, 64])

    def test_render(self):
        fit = fit_power_law([4, 8], [16, 64])
        assert "t^2.00" in fit.render()


class TestClassifiers:
    def test_quadratic_is_superquadratic(self):
        fit = fit_power_law([4, 8, 16], [t * t for t in (4, 8, 16)])
        assert is_superquadratic(fit)
        assert not is_subquadratic(fit)

    def test_linear_is_subquadratic(self):
        fit = fit_power_law([4, 8, 16], [t for t in (4, 8, 16)])
        assert is_subquadratic(fit)
        assert not is_superquadratic(fit)

    def test_degenerate_counts_as_subquadratic(self):
        fit = fit_power_law([4, 8], [0, 0])
        assert is_subquadratic(fit)
        assert not is_superquadratic(fit)
