"""Norm evaluation, normal maps, the norm axioms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from twosticks import (
    EuclideanNorm,
    PluginNorm,
    PNorm,
    ZeroVectorError,
    finite_diff_gradient,
)
from twosticks import norms

RNG = np.random.default_rng(20240901)


def random_unit(norm, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    x = rng.standard_normal(norm.dim)
    return x / norm.value(x)


class TestEvalNorm:
    def test_pythagorean(self):
        assert EuclideanNorm(2).value([3.0, 4.0]) == pytest.approx(5.0, abs=0)

    def test_p3_by_direct_summation(self):
        # |1|^3 + |-2|^3 = 9
        assert PNorm(3, 2).value([1.0, -2.0]) == pytest.approx(9.0 ** (1 / 3), rel=1e-15)

    def test_zero_vector(self):
        for norm in (EuclideanNorm(3), PNorm(1.5, 3), PNorm(4, 3)):
            assert norm.value(np.zeros(3)) == 0.0

    def test_batched_matches_rows(self):
        norm = PNorm(2.5, 4)
        xs = RNG.standard_normal((40, 4))
        batch = norm.value(xs)
        rows = [float(norm.value(x)) for x in xs]
        np.testing.assert_allclose(batch, rows, rtol=1e-15)

    def test_extreme_p_stability(self):
        # Max-coordinate scaling keeps powers in range for large p.
        norm = PNorm(64, 2)
        val = float(norm.value(np.array([1e200, 5e199])))
        assert np.isfinite(val) and val >= 1e200

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EuclideanNorm(3).value([1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EuclideanNorm(2).value([np.nan, 0.0])

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            PNorm(1.0, 2)
        with pytest.raises(ValueError):
            PNorm(np.inf, 2)


class TestNormalMap:
    def test_euclidean_direction(self):
        np.testing.assert_allclose(EuclideanNorm(2).normal([3.0, 4.0]),
                                   [0.6, 0.8], atol=1e-15)

    def test_p3_closed_form(self):
        got = PNorm(3, 2).normal([1.0, -2.0])
        want = np.array([1.0, -4.0]) / 9.0 ** (2 / 3)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_matches_finite_differences(self):
        for norm in (EuclideanNorm(3), PNorm(1.5, 3), PNorm(3, 5), PNorm(4, 2)):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                x = rng.standard_normal(norm.dim)
                # keep coordinates away from the p < 2 kink, where the
                # centered difference itself loses accuracy
                x = np.where(np.abs(x) < 0.05, 0.05, x)
                x = x / norm.value(x)
                fd = finite_diff_gradient(norm, x, 1e-6)
                np.testing.assert_allclose(norm.normal(x), fd, atol=1e-8)

    def test_support_identity(self):
        for norm in (EuclideanNorm(4), PNorm(1.5, 4), PNorm(4, 4)):
            x = RNG.standard_normal((100, 4))
            n = norm.normal(x)
            np.testing.assert_allclose(np.sum(x * n, axis=-1), norm.value(x), rtol=1e-12)

    def test_positive_homogeneity(self):
        norm = PNorm(3, 3)
        x = random_unit(norm, 11)
        base = norm.normal(x)
        for t in (0.5, 2.0, 7.0, 10.0):
            np.testing.assert_allclose(norm.normal(t * x), base, atol=1e-9)

    def test_odd_symmetry(self):
        norm = PNorm(1.7, 3)
        x = RNG.standard_normal(3)
        np.testing.assert_allclose(norm.normal(-x), -norm.normal(x), atol=1e-14)

    def test_zero_raises(self):
        with pytest.raises(ZeroVectorError):
            PNorm(2.5, 2).normal(np.zeros(2))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_plugin_fallback_on_a_batch(self, order):
        # A Fortran-ordered batch of rank 3 must not lose the per-row writes.
        plugin = PluginNorm(lambda v: float(np.linalg.norm(v)), dim=2)
        x = np.arange(1.0, 13.0).reshape((2, 3, 2), order=order)
        np.testing.assert_allclose(plugin.normal(x), EuclideanNorm(2).normal(x), atol=1e-9)

    def test_support_inequality_random(self):
        for norm in (EuclideanNorm(3), PNorm(1.5, 3), PNorm(4, 3)):
            x = RNG.standard_normal((200, 3))
            y = RNG.standard_normal((200, 3))
            n = norm.normal(x)
            assert np.all(np.sum(y * n, axis=-1) <= norm.value(y) + 1e-9)


class TestFiniteDiff:
    def test_axis_gradient(self):
        got = finite_diff_gradient(EuclideanNorm(2), [1.0, 0.0], 1e-6)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-10)

    def test_p4_agreement(self):
        norm = PNorm(4, 2)
        fd = finite_diff_gradient(norm, [1.0, 1.0], 1e-5)
        np.testing.assert_allclose(fd, norm.normal([1.0, 1.0]), atol=1e-8)

    def test_p2_is_euclidean(self):
        p2, euc = PNorm(2, 3), EuclideanNorm(3)
        x = RNG.standard_normal(3)
        np.testing.assert_allclose(finite_diff_gradient(p2, x, 1e-6),
                                   euc.normal(x), atol=1e-9)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(EuclideanNorm(2), [1.0, 0.0], 0.0)


class TestSerialization:
    def test_expected_wire_format(self):
        assert PNorm(3.0, 3).descriptor() == {"kind": "p_norm", "p": 3.0, "dim": 3}
        assert EuclideanNorm(2).descriptor() == {"kind": "euclidean", "dim": 2}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=5),
       st.floats(0.01, 50.0), st.sampled_from([2.5, "euclidean"]))
def test_homogeneity_property(coords, t, p):
    norm = EuclideanNorm(len(coords)) if p == "euclidean" else PNorm(p, len(coords))
    x = np.asarray(coords)
    for tx in (t * x, -t * x):   # ||t x|| = |t| ||x||: symmetry at t < 0
        assert float(norm.value(tx)) == pytest.approx(t * float(norm.value(x)),
                                                      rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.sampled_from([PNorm(1.5, 3), EuclideanNorm(3)]))
def test_triangle_inequality_property(a, b, norm):
    x, y = np.asarray(a), np.asarray(b)
    assert float(norm.value(x + y)) <= float(norm.value(x)) + float(norm.value(y)) + 1e-12


# ---------------------------------------------------------------------------
# column-form last-axis reductions
# ---------------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _row_shapes(dim):
    return st.sampled_from([(dim,), (5, dim), (3, 4, dim)])


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(_row_shapes).flatmap(lambda shape: hnp.arrays(float, shape,
                                                                                 elements=finite)))
def test_row_reductions_match_numpy_bit_for_bit_up_to_dim_7(a):
    assert np.array_equal(_bits(norms._row_max(a)), _bits(np.max(a, axis=-1)))
    got, ref = norms._row_sum(a), np.sum(a, axis=-1)
    # The one stated exception: numpy starts its sum from +0.0, so a row of
    # only -0.0 sums to +0.0 there and to -0.0 in `_row_sum`.
    negative_zero_rows = np.all(_bits(a) == _bits(-0.0), axis=-1)
    assert np.all(_bits(np.where(negative_zero_rows, np.abs(got), got)) == _bits(ref))
    assert np.all(np.signbit(got)[negative_zero_rows])


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("shape", [(300_000,), (60, 5_000)], ids=["rows", "problems-starts"])
def test_row_reductions_match_numpy_bit_for_bit_on_large_batches(dim, shape):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((*shape, dim)) * 10.0 ** rng.uniform(-8, 8, size=(*shape, dim))
    assert np.array_equal(_bits(norms._row_sum(a)), _bits(np.sum(a, axis=-1)))
    assert np.array_equal(_bits(norms._row_max(a)), _bits(np.max(a, axis=-1)))


@pytest.mark.parametrize("dim", [8, 16])
def test_row_sum_reassociates_within_the_rounding_bound_from_dim_8(dim):
    # numpy sums a last axis of 8 or more in unrolled blocks, so the order
    # differs from left to right; each order is within gamma_(dim-1) * sum|a|
    # of the exact sum, gamma_k = k u / (1 - k u) with u the unit roundoff.
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((20_000, dim)) * 10.0 ** rng.uniform(-8, 8, size=(20_000, dim))
    u = np.finfo(float).eps / 2.0
    gamma = (dim - 1) * u / (1.0 - (dim - 1) * u)
    diff = np.abs(norms._row_sum(a) - np.sum(a, axis=-1))
    assert np.all(diff <= 2.0 * gamma * np.sum(np.abs(a), axis=-1))
    assert np.array_equal(norms._row_max(a), np.max(a, axis=-1))
