"""Gap function algebra: sign, zero set, scalings, and the exact identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosticks import EuclideanNorm, PNorm, gap

RNG = np.random.default_rng(77)
NORMS = [EuclideanNorm(3), PNorm(1.5, 3), PNorm(3, 3), PNorm(4, 3)]


def unit(norm, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(norm.dim)
    return x / norm.value(x)


class TestGapValues:
    def test_positive_multiple_gives_zero(self):
        for norm in NORMS:
            x = unit(norm, 1)
            assert abs(float(gap(norm, x, 2.0 * x))) < 1e-14

    def test_negative_x_gives_twice_norm(self):
        # h(x, a*x) = 2|a| ||x|| for a <= 0
        for norm in NORMS:
            x = 3.0 * unit(norm, 2)
            assert float(gap(norm, x, -x)) == pytest.approx(2.0 * 3.0, rel=1e-12)
            assert float(gap(norm, x, -0.5 * x)) == pytest.approx(3.0, rel=1e-12)

    def test_euclidean_chord_value(self):
        # unit x, z unit at chord distance t: h(x, z) = t^2/2
        norm = EuclideanNorm(2)
        for t in (0.1, 0.5, 1.0, 1.8):
            angle = 2.0 * np.arcsin(t / 2.0)
            x = np.array([1.0, 0.0])
            z = np.array([np.cos(angle), np.sin(angle)])
            assert float(gap(norm, x, z)) == pytest.approx(t * t / 2.0, abs=1e-12)

    def test_zero_first_argument_convention(self):
        for norm in NORMS:
            z = RNG.standard_normal(3)
            assert float(gap(norm, np.zeros(3), z)) == 0.0

    def test_zero_second_argument(self):
        for norm in NORMS:
            x = unit(norm, 3)
            assert float(gap(norm, x, np.zeros(3))) == 0.0

    def test_batched(self):
        norm = PNorm(3, 3)
        x = RNG.standard_normal((50, 3))
        y = RNG.standard_normal((50, 3))
        vals = gap(norm, x, y)
        assert vals.shape == (50,)
        for i in (0, 17, 49):
            assert vals[i] == pytest.approx(float(gap(norm, x[i], y[i])), rel=1e-12)


class TestGapScalings:
    def test_first_argument_scale_invariance(self):
        for norm in NORMS:
            x, y = unit(norm, 4), RNG.standard_normal(3)
            base = float(gap(norm, x, y))
            for a in (0.5, 2.0, 11.0):
                assert float(gap(norm, a * x, y)) == pytest.approx(base, rel=1e-10, abs=1e-12)

    def test_joint_homogeneity(self):
        for norm in NORMS:
            x, y = unit(norm, 5), RNG.standard_normal(3)
            base = float(gap(norm, x, y))
            for a in (0.25, 3.0):
                assert float(gap(norm, a * x, a * y)) == pytest.approx(a * base,
                                                                       rel=1e-10, abs=1e-12)

    def test_double_negation(self):
        for norm in NORMS:
            x, y = unit(norm, 6), RNG.standard_normal(3)
            assert float(gap(norm, -x, -y)) == pytest.approx(float(gap(norm, x, y)),
                                                             rel=1e-12)

    def test_cross_negation(self):
        for norm in NORMS:
            x, y = unit(norm, 7), RNG.standard_normal(3)
            assert float(gap(norm, x, -y)) == pytest.approx(float(gap(norm, -x, y)),
                                                            rel=1e-12, abs=1e-12)


class TestGapShape:
    def test_nonnegative_on_random_samples(self):
        for norm in NORMS:
            x = RNG.standard_normal((2000, 3))
            y = RNG.standard_normal((2000, 3))
            assert float(np.min(gap(norm, x, y))) >= -1e-12

    def test_convex_in_second_argument(self):
        for norm in NORMS:
            rng = np.random.default_rng(8)
            for _ in range(200):
                x = rng.standard_normal(3)
                y1, y2 = rng.standard_normal(3), rng.standard_normal(3)
                theta = rng.uniform()
                mix = float(gap(norm, x, theta * y1 + (1 - theta) * y2))
                bound = theta * float(gap(norm, x, y1)) + (1 - theta) * float(gap(norm, x, y2))
                assert mix <= bound + 1e-9

    def test_zero_set_is_positive_ray(self):
        # tiny h forces y to point along x
        for norm in NORMS:
            x = unit(norm, 9)
            y = 1.7 * x
            h = float(gap(norm, x, y))
            assert h < 1e-12 * (1.0 + float(norm.value(y)))
            dirgap = norm.value(y / norm.value(y) - x)
            assert float(dirgap) <= 1e-5


def triangle_residual(norm, x, y):
    """| ||x+y|| - (||x|| + ||y|| - h(x+y, x) - h(x+y, y)) |, zero for x + y != 0."""
    s = np.add(x, y)
    return np.abs(norm.value(s) - (norm.value(x) + norm.value(y)
                                   - gap(norm, s, x) - gap(norm, s, y)))


def linearization_residual(norm, x, y):
    """| ||y|| - (||x|| + h(x, y) + <y - x, N(x)>) |, zero for x != 0."""
    dot = np.sum(np.subtract(y, x) * norm.normal(x), axis=-1)
    return np.abs(norm.value(y) - (norm.value(x) + gap(norm, x, y) + dot))


class TestIdentities:
    def test_triangle_equality_parallel(self):
        for norm in NORMS:
            x = unit(norm, 10)
            y = 2.5 * x
            assert triangle_residual(norm, x, y) < 1e-12
            # the correction terms themselves vanish on parallel input
            s = x + y
            assert float(gap(norm, s, x)) < 1e-12 and float(gap(norm, s, y)) < 1e-12

    def test_triangle_equality_axes(self):
        assert triangle_residual(EuclideanNorm(2), [1.0, 0.0], [0.0, 1.0]) < 1e-12

    def test_triangle_equality_random(self):
        norm = PNorm(3, 4)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((500, 4))
        y = rng.standard_normal((500, 4))
        res = triangle_residual(norm, x, y)
        assert float(np.max(res)) < 1e-9 * (1.0 + float(np.max(norm.value(x) + norm.value(y))))

    def test_triangle_equality_domain_error(self):
        # At x + y = 0 the convention h(0, .) = 0 leaves ||x|| + ||y|| = 2 against 0.
        assert triangle_residual(EuclideanNorm(2), [1.0, 0.0], [-1.0, 0.0]) == 2.0

    def test_linearization_at_x(self):
        for norm in NORMS:
            x = unit(norm, 12)
            assert linearization_residual(norm, x, x) < 1e-14

    def test_linearization_tangent_perturbation(self):
        norm = EuclideanNorm(3)
        x = unit(norm, 13)
        v = np.cross(x, [0.0, 0.0, 1.0])
        v /= np.linalg.norm(v)
        for t in (1e-4, 1e-2):
            assert linearization_residual(norm, x, x + t * v) < 1e-12

    def test_linearization_random(self):
        norm = PNorm(1.5, 3)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((500, 3))
        y = rng.standard_normal((500, 3))
        res = linearization_residual(norm, x, y)
        assert float(np.max(res)) < 1e-9

    def test_linearization_domain_error(self):
        # The identity needs N(x), which is undefined at x = 0.
        with pytest.raises(ValueError):
            linearization_residual(EuclideanNorm(2), [0.0, 0.0], [1.0, 0.0])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_gap_nonnegativity_property(a, b):
    norm = PNorm(2.5, 2)
    x, y = np.asarray(a), np.asarray(b)
    assert float(gap(norm, x, y)) >= -1e-12
