"""Scalar profile f(x,y) = |x+y|^p - |x|^p - y p |x|^(p-1) sign(x), g = f(1, .), its scan."""

import numpy as np
import pytest

from twosticks import PNorm, onev_default_grid, onev_g, onev_scan

PS = (1.1, 1.5, 2.0, 3.0, 4.0, 8.0)


def coordinate_sum(p, x, y):
    """||x+y||^p - ||x||^p - p ||x||^(p-1) <y, N(x)> in the p-norm: the sum of f(x_i, y_i)."""
    norm = PNorm(p, np.shape(x)[-1])
    nx = norm.value(x)
    return norm.value(np.add(x, y)) ** p - nx ** p \
        - p * nx ** (p - 1.0) * np.sum(y * norm.normal(x), axis=-1)


class TestOnevF:
    def test_at_x_zero(self):
        # f(1, 0) + f(0, y) = |y|^p
        for p in PS:
            y = np.array([0.3, -1.7, 2.0])
            x, rows = [1.0, 0.0], np.outer(y, [0.0, 1.0])
            np.testing.assert_allclose(coordinate_sum(p, x, rows), np.abs(y) ** p, rtol=1e-10)
            np.testing.assert_allclose(coordinate_sum(p, x, 2 * rows),
                                       2.0 ** p * coordinate_sum(p, x, rows), rtol=1e-10)

    def test_at_y_zero(self):
        for p in PS:
            assert coordinate_sum(p, [1.3], [0.0]) == 0.0 and onev_g(p, 0.0) == 0.0

    def test_quadratic_case(self):
        # p = 2: f(x, y) = y^2, so the doubling ratio is exactly 4
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((100, 1)), rng.standard_normal((100, 1))
        np.testing.assert_allclose(coordinate_sum(2.0, x, y), y[:, 0] ** 2, atol=1e-12)
        nz = np.abs(y[:, 0]) > 1e-6
        np.testing.assert_allclose(coordinate_sum(2.0, x, 2 * y)[nz]
                                   / coordinate_sum(2.0, x, y)[nz], 4.0, rtol=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for p in PS:
            x, y = rng.standard_normal((500, 1)), rng.standard_normal((500, 1))
            scale = 1.0 + np.abs(x + y)[:, 0] ** p + np.abs(x)[:, 0] ** p
            assert np.all(coordinate_sum(p, x, y) >= -1e-12 * scale)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            onev_g(1.0, 1.0)


class TestOnevG:
    def test_matches_f_at_x_one(self):
        # f(x, y) = |x|^p g(y/x), so the p-norm sums the terms |x_i|^p g(y_i/x_i)
        rng = np.random.default_rng(2)
        x = rng.choice([-1.0, 1.0], (200, 3)) * rng.uniform(0.5, 2.0, (200, 3))
        y = rng.uniform(-3.0, 3.0, (200, 3))
        for p in (1.5, 3.0):
            np.testing.assert_allclose(np.sum(np.abs(x) ** p * onev_g(p, y / x), axis=-1),
                                       coordinate_sum(p, x, y), rtol=1e-10, atol=1e-12)

    def test_small_z_accuracy(self):
        # naive evaluation loses every digit at z = 1e-8; the expm1 path keeps them
        p = 3.0
        z = 1e-8
        exact = p * (p - 1) / 2 * z * z  # + O(z^3)
        assert float(onev_g(p, z)) == pytest.approx(exact, rel=1e-6)

    def test_positive_away_from_zero(self):
        z = np.concatenate([-np.logspace(-6, 6, 200), np.logspace(-6, 6, 200)])
        for p in PS:
            assert float(np.min(onev_g(p, z))) > 0.0

    @pytest.mark.parametrize("p, z", [(1e300, 1e-6), (200.0, 40.0), (1e300, 1e10), (1.0001, 1e308)])
    def test_overflow_rejected_with_the_largest_admissible_z(self, p, z):
        # g overflowed into inf (with a RuntimeWarning) or nan; for p near 1
        # the p|z| term binds at negative z.
        with pytest.raises(ValueError, match=r"need \|z\| <= ") as err:
            onev_g(p, [z])
        limit = float(str(err.value).rsplit(" ", 1)[1])
        assert 0.0 < limit < z
        assert np.all(np.isfinite(onev_g(p, [-limit, -0.5 * limit, 0.5 * limit, limit])))

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
    def test_nonfinite_z_is_rejected_as_such(self, z):
        # NaN fails |z| <= limit too, and was reported as an overflow.
        with pytest.raises(ValueError, match=r"^z must be finite$"):
            onev_g(3.0, [0.5, z])


class TestOnevScan:
    def test_quadratic_exact(self):
        scan = onev_scan(2.0)
        assert scan.inf_double_ratio == pytest.approx(4.0, abs=1e-6)
        assert scan.sup_double_ratio == pytest.approx(4.0, abs=1e-6)
        assert scan.sup_balance_ratio == pytest.approx(1.0, abs=1e-6)

    def test_p4_limits(self):
        scan = onev_scan(4.0)
        assert scan.zero_limit == pytest.approx(4.0, rel=1e-2)
        assert scan.infinity_limit == pytest.approx(2.0 ** 4, rel=1e-2)

    def test_doubling_ratio_above_two_all_p(self):
        for p in PS:
            scan = onev_scan(p)
            assert scan.inf_double_ratio > 2.0, f"p={p}"
            assert np.isfinite(scan.sup_double_ratio)
            assert np.isfinite(scan.sup_balance_ratio)

    def test_p15_scan_values(self):
        scan = onev_scan(1.5, onev_default_grid(100000))
        assert scan.inf_double_ratio > 2.0
        # margin recorded: the scalar convexity constant has real room above 2
        assert scan.inf_double_ratio - 2.0 > 0.1

    @pytest.mark.parametrize("p", [50.0, 200.0, 1000.0])
    def test_overflowing_grid_rejected_with_its_limit(self, p):
        with pytest.raises(ValueError, match="need z_max <= ") as err:
            onev_scan(p, onev_default_grid(200))
        limit = float(str(err.value).rsplit(" ", 1)[1])
        scan = onev_scan(p, onev_default_grid(200, z_max=limit))
        assert np.isfinite(scan.sup_double_ratio) and scan.inf_double_ratio > 2.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            onev_scan(3.0, np.array([-1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_value_rejected_first(self, bad):
        # A NaN value was reported as an overflow of g, with a z_max to keep.
        for grid in ([-1.0, 1.0, bad], [bad, 0.0, 1e300]):
            with pytest.raises(ValueError, match="^grid values must be finite$"):
                onev_scan(3.0, grid)

    def test_default_grid_shape(self):
        grid = onev_default_grid(1000, 1e-4, 1e4)
        assert grid.size == 1000
        assert np.min(np.abs(grid)) == pytest.approx(1e-4)
        assert np.max(np.abs(grid)) == pytest.approx(1e4)
        assert np.all(grid[:-1] < grid[1:])
