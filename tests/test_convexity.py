"""Modulus of geometric convexity, constant estimators, duality, transfer."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosticks import (
    DegenerateSampleError,
    EuclideanNorm,
    ModulusResult,
    PluginNorm,
    PNorm,
    ZeroVectorError,
    estimate_balanced,
    estimate_doubling,
    estimate_lambda,
    estimate_uniform_constants,
    extend_constants,
    extend_constants_to,
    gap,
    moduli,
    modulus,
    modulus_grid,
    transfer_check,
)
from twosticks.convexity import (
    TransferWindowError,
    _ascended,
    _coarse_directions,
    _halton_directions,
    _kkt,
    _polish_on_sphere,
)
from twosticks.norms import ZERO_THRESHOLD, _value_and_normal
from twosticks.reporting import to_jsonable


def unit(norm, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(norm.dim)
    return x / norm.value(x)


def euclid_full_lambda_oracle(r: float) -> float:
    """Planar reduction of the Euclidean doubling ratio: with y = a*x + b*v,
    the ratio depends only on (a, b), so a dense polar grid is exhaustive."""
    ss = np.linspace(r * 1e-3, r, 400)
    th = np.linspace(0.0, np.pi, 720)
    a = np.outer(ss, np.cos(th))
    b = np.outer(ss, np.sin(th))
    num = np.sqrt((1 + 2 * a) ** 2 + 4 * b * b) - 1 - 2 * a
    den = np.sqrt((1 + a) ** 2 + b * b) - 1 - a
    ok = den > 1e-14
    return float(np.min(num[ok] / den[ok]))


def euclid_tangent_lambda_closed_form(r: float) -> float:
    # ratio (sqrt(1+4e^2)-1)/(sqrt(1+e^2)-1) decreases in e; inf at e = r
    return (np.sqrt(1 + 4 * r * r) - 1) / (np.sqrt(1 + r * r) - 1)


class TestModulus:
    def test_euclidean_closed_form(self):
        for dim in (2, 3):
            norm = EuclideanNorm(dim)
            x = unit(norm, dim)
            for t in (0.1, 0.4, 0.8, 1.0):
                res = modulus(norm, x, t)
                assert res.sigma == pytest.approx(t * t / 2.0, abs=1e-9)
                # maximizers are chords of the unit sphere: ||x + y|| = 1
                assert float(norm.value(x + res.maximizer_y)) == pytest.approx(1.0, abs=1e-6)

    def test_maximizer_on_boundary(self):
        norm = PNorm(3, 3)
        x = unit(norm, 5)
        res = modulus(norm, x, 0.3)
        assert float(norm.value(res.maximizer_y)) == pytest.approx(0.3, rel=1e-9)
        assert res.sigma == pytest.approx(float(gap(norm, x, x + res.maximizer_y)), abs=1e-12)
        assert res.converged

    def test_superlinear_vanishing(self):
        norm = PNorm(4, 2)
        x = unit(norm, 6)
        ratios = [modulus(norm, x, t).sigma / t for t in (0.5, 0.05, 0.005)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-2 * ratios[0]

    def test_grid_agreement_p4_axis(self):
        norm = PNorm(4, 3)
        x = np.array([1.0, 0.0, 0.0])
        a = modulus(norm, x, 0.3).sigma
        b = modulus_grid(norm, x, 0.3, resolution=1e-3).sigma
        assert abs(a - b) <= 1e-5

    def test_grid_agreement_random(self):
        for p, seed, t in ((1.5, 0, 0.2), (3.0, 1, 0.5), (4.0, 2, 0.1)):
            norm = PNorm(p, 3)
            x = unit(norm, seed)
            a = modulus(norm, x, t).sigma
            b = modulus_grid(norm, x, t).sigma
            assert abs(a - b) <= 1e-5

    def test_grid_agreement_dim2(self):
        norm = PNorm(3, 2)
        x = unit(norm, 3)
        a = modulus(norm, x, 0.4).sigma
        b = modulus_grid(norm, x, 0.4).sigma
        assert abs(a - b) <= 1e-6

    def test_normal_multiplier_sign(self):
        # stationarity: N(x+y) - N(x) = alpha N(y) with alpha > 0
        norm = PNorm(3, 3)
        x = unit(norm, 8)
        res = modulus(norm, x, 0.25)
        assert res.kkt_multiplier > 0.0
        assert res.kkt_residual < 1e-7

    def test_axy_inequality_at_maximizer(self):
        # -t <= <x, N(y)> <= 0 at every computed maximizer
        for norm in (EuclideanNorm(3), PNorm(1.5, 3), PNorm(4, 3)):
            x = unit(norm, 9)
            for t in (0.1, 0.5, 0.9):
                res = modulus(norm, x, t)
                proj = float(np.dot(x, res.normal_at_y))
                assert -t - 1e-9 <= proj <= 1e-9

    def test_half_space_minimality(self):
        # h(x, w) >= sigma for w on the far side of the supporting plane at x+y
        norm = PNorm(3, 3)
        x = unit(norm, 10)
        res = modulus(norm, x, 0.4)
        rng = np.random.default_rng(11)
        base = x + res.maximizer_y
        for _ in range(300):
            d = rng.standard_normal(3)
            if float(np.dot(d, res.normal_at_y)) < 0.0:
                d = -d
            w = base + rng.uniform(0.0, 2.0) * d
            assert float(gap(norm, x, w)) >= res.sigma - 1e-8

    def test_modulus_doubling_euclid_exact(self):
        norm = EuclideanNorm(2)
        x = unit(norm, 12)
        s1 = modulus(norm, x, 0.2).sigma
        s2 = modulus(norm, x, 0.4).sigma
        assert s2 / s1 == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.xfail(strict=True, reason="the first start within an absolute 1e-9 of "
                       "the best wins, and sigma here is about 1.2e-6")
    @pytest.mark.parametrize("opts", [{}, {"n_starts": 8, "max_iter": 80}],
                             ids=["defaults", "strip"])
    def test_first_start_window_is_relative(self, opts):
        # A strip-p3 (seed 19) ebar problem: the BFGS polish of the second
        # best start reaches the maximum, and an unpolished start wins.
        norm = PNorm(3, 3)
        x = np.array([0.81268865, -0.13057149, 0.77251622])
        x = x / norm.value(x)
        t = 0.001112037809285516
        res = modulus(norm, x, t, **opts)
        assert res.converged
        assert res.sigma >= modulus_grid(norm, x, t, resolution=1e-4).sigma * (1.0 - 1e-6)

    def test_rejects_bad_input(self):
        norm = EuclideanNorm(2)
        with pytest.raises(ValueError):
            modulus(norm, [1.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            modulus(norm, [0.0, 0.0], 0.5)
        with pytest.raises(ValueError):
            modulus_grid(PNorm(2, 5), np.ones(5) / PNorm(2, 5).value(np.ones(5)), 0.3)


def oracle_modulus(norm, x, t, *, n_starts=32, max_iter=200):
    """The per-problem solver `moduli` batches: one problem's multi-start
    projected ascent with N(x) from the one-vector `Norm.normal`, then the
    same polish and ranking."""
    x = np.asarray(x, dtype=float)
    t = float(t)
    n_of_x = norm.normal(x)
    n = norm.dim
    k = max(4, int(n_starts)) if n > 1 else 2
    u = _halton_directions(n, k)

    def objective(yy):
        z = x + yy
        return norm._value(z) - np.sum(z * n_of_x, axis=-1)

    if 2 <= n <= 3:
        sweep = _coarse_directions(n)
        y_sweep = t * sweep / norm._value(sweep)[:, None]
        top = np.argsort(objective(y_sweep))[::-1][:4]
        u = np.vstack([sweep[top], u])
        k = u.shape[0]
    y = t * u / norm._value(u)[:, None]
    f = objective(y)
    step = np.full(k, 0.3 * t)
    iterations = max_iter
    for it in range(max_iter):
        grad = _value_and_normal(norm, x + y)[1] - n_of_x
        cand = y + step[:, None] * grad
        nc = norm._value(cand)
        ok = nc > ZERO_THRESHOLD
        cand = np.where(ok[:, None], cand, y)
        nc = np.where(ok, nc, t)
        cand = t * cand / nc[:, None]
        fc = objective(cand)
        better = fc > f
        y = np.where(better[:, None], cand, y)
        f = np.where(better, fc, f)
        step = np.where(better, step * 1.3, step * 0.5)
        np.clip(step, None, t, out=step)
        if np.all(step < 1e-9 * t):
            iterations = it + 1
            break
    for row in np.argsort(f)[::-1][:2]:
        yp, fp = _polish_on_sphere(norm, x, t, y[row], n_of_x)
        if fp > f[row]:
            y[row], f[row] = yp, fp
    best = int(np.nonzero(f >= float(np.max(f)) - 1e-9)[0][0])
    n_of_y, alpha, kkt = _kkt(norm, x, t, y[best], n_of_x)
    return ModulusResult(sigma=float(f[best]), t=t, maximizer_y=y[best], normal_at_y=n_of_y,
                         kkt_residual=kkt, kkt_multiplier=alpha,
                         converged=bool(kkt <= 1e-7 and alpha >= -1e-9),
                         iterations=iterations)


def plugin_norm(dim):
    """A 2.5-norm known to the library only through its values."""
    return PluginNorm(lambda v: float(np.sum(np.abs(v) ** 2.5) ** 0.4), dim, "p2.5")


def assert_same_result(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


class TestBatchedModulus:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["euclidean", "p1.5", "p3", "p4", "plugin"]),
           dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           problems=st.integers(1, 4), max_iter=st.sampled_from([0, 6, 80, 300]))
    def test_moduli_equals_modulus_per_problem(self, kind, dim, seed, problems, max_iter):
        if kind == "plugin":
            norm, max_iter = plugin_norm(dim), min(max_iter, 6)
        elif kind == "euclidean":
            norm = EuclideanNorm(dim)
        else:
            norm = PNorm(float(kind[1:]), dim)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((problems, dim))
        xs[0] = np.eye(dim)[0]                       # an axis: symmetric ties
        xs = xs * rng.uniform(0.5, 2.0, size=(problems, 1))
        ts = 10.0 ** rng.uniform(-6.0, 0.0, size=problems)   # mixed radii
        opts = {"n_starts": int(rng.integers(1, 10)), "max_iter": max_iter}
        got = moduli(norm, xs, ts, **opts)
        assert len(got) == problems
        for x, t, res in zip(xs, ts, got):
            assert_same_result(res, modulus(norm, x, t, **opts))
            assert_same_result(res, oracle_modulus(norm, x, t, **opts))

    def test_problems_stop_on_their_own(self):
        # The three problems leave the ascent at different iterations.
        norm = EuclideanNorm(2)
        xs, ts = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], [1e-3, 0.5, 0.2]
        got = moduli(norm, xs, ts)
        assert len({res.iterations for res in got}) == 3
        assert min(res.iterations for res in got) < 200
        for x, t, res in zip(xs, ts, got):
            assert_same_result(res, oracle_modulus(norm, x, t))

    def test_inputs_checked_in_problem_order(self):
        norm = PNorm(3, 2)
        assert moduli(norm, [], []) == []
        with pytest.raises(ValueError, match="t must be positive"):
            moduli(norm, [[1.0, 0.0], [0.0, 0.0]], [0.3, 0.0])
        with pytest.raises(ZeroVectorError):
            moduli(norm, [[1.0, 0.0], [0.0, 0.0], [1.0]], [0.3, 0.3, 0.3])
        with pytest.raises(ValueError, match="dimension mismatch"):
            moduli(norm, [[1.0, 0.0], [1.0]], [0.3, 0.3])
        with pytest.raises(ValueError):
            moduli(norm, [[1.0, 0.0], [0.0, 1.0]], [0.3])

    def test_modulus_leaves_the_handed_ascent_unchanged(self):
        norm, x, t = PNorm(3, 3), np.array([1.0, 0.0, 0.0]), 0.2
        y, f, iterations = _ascended(norm, [x], [t], [norm.normal(x)], 8, 80)
        y0, f0 = y[0].copy(), f[0].copy()
        res = modulus(norm, x, t, ascent=(y[0], f[0], int(iterations[0])))
        assert np.array_equal(y[0], y0) and np.array_equal(f[0], f0)
        assert_same_result(res, modulus(norm, x, t, n_starts=8, max_iter=80))

    def test_start_sets_are_cached_read_only(self):
        for start_set in (_halton_directions(3, 8), _halton_directions(1, 2),
                          _coarse_directions(2), _coarse_directions(3)):
            assert not start_set.flags.writeable
            with pytest.raises(ValueError):
                start_set[0, 0] = 0.0
        assert _halton_directions(3, 8) is _halton_directions(3, 8)
        assert _coarse_directions(3) is _coarse_directions(3)


class TestHaltonDirections:
    def test_matches_scipy_construction(self):
        # The reference is the unscrambled SciPy Halton sequence with its
        # all-zeros first point skipped, mapped through the Gaussian quantile.
        from scipy.stats import norm as gauss
        from scipy.stats import qmc

        for dim in range(2, 6):
            for count in (4, 8, 36, 68):
                sampler = qmc.Halton(d=dim, scramble=False)
                sampler.fast_forward(1)
                g = gauss.ppf(np.clip(sampler.random(count), 1e-12, 1.0 - 1e-12))
                want = g / np.sqrt(np.sum(g * g, axis=-1))[:, None]
                np.testing.assert_allclose(_halton_directions(dim, count), want,
                                           rtol=0, atol=1e-14)


class TestLambdaEstimator:
    def test_euclid_full_matches_planar_oracle(self):
        norm = EuclideanNorm(3)
        for r in (0.25, 0.5):
            rep = estimate_lambda(norm, r, "full", samples=100000, seed=3)
            oracle = euclid_full_lambda_oracle(r)
            # the sampled infimum approaches the oracle from above
            assert oracle - 1e-9 <= rep.lambda_hat <= oracle + 2e-2
            assert rep.lambda_hat > 2.0

    def test_euclid_tangent_matches_closed_form(self):
        norm = EuclideanNorm(3)
        rep = estimate_lambda(norm, 0.5, "tangent", samples=100000, seed=3)
        assert rep.lambda_hat == pytest.approx(euclid_tangent_lambda_closed_form(0.5),
                                               abs=5e-3)

    def test_p2_tangent_equals_euclid(self):
        a = estimate_lambda(PNorm(2, 3), 0.5, "tangent", samples=50000, seed=4)
        b = estimate_lambda(EuclideanNorm(3), 0.5, "tangent", samples=50000, seed=4)
        assert a.lambda_hat == pytest.approx(b.lambda_hat, abs=1e-9)

    def test_p3_tangent_has_margin(self):
        rep = estimate_lambda(PNorm(3, 3), 0.25, "tangent", samples=100000, seed=5)
        assert rep.lambda_hat > 2.1

    def test_witness_recorded(self):
        rep = estimate_lambda(EuclideanNorm(2), 0.3, "full", samples=1000, seed=6)
        (xw, yw), = rep.worst_witnesses
        x, y = np.asarray(xw), np.asarray(yw)
        ratio = float(gap(EuclideanNorm(2), x, x + 2 * y) / gap(EuclideanNorm(2), x, x + y))
        assert ratio == pytest.approx(rep.lambda_hat, rel=1e-12)

    def test_degenerate_sampling_raises(self):
        # dim 1: every direction is parallel, all denominators hit the floor
        with pytest.raises(DegenerateSampleError):
            estimate_lambda(PNorm(3, 1), 0.5, "full", samples=200, seed=0)

    def test_report_round_trip(self):
        rep = estimate_lambda(EuclideanNorm(2), 0.3, "full", samples=500, seed=7)
        doc = json.loads(json.dumps(to_jsonable(rep)))
        assert set(doc) == {f.name for f in dataclasses.fields(rep)}
        assert doc["lambda_hat"] == rep.lambda_hat
        assert doc["norm"] == {"kind": "euclidean", "dim": 2}
        assert doc["worst_witnesses"] == rep.worst_witnesses


class TestDoublingEstimator:
    def test_euclid_tangent_sup_is_four(self):
        rep = estimate_doubling(EuclideanNorm(3), 0.1, "tangent", samples=100000, seed=8)
        # exact ratio < 4; observed sup may carry ~1e-4 cancellation fuzz
        assert rep.t_hat == pytest.approx(4.0, abs=1e-3)

    def test_p15_tangent_finite(self):
        rep = estimate_doubling(PNorm(1.5, 3), 0.25, "tangent", samples=50000, seed=9)
        assert np.isfinite(rep.t_hat) and rep.t_hat >= 2.0

    def test_parallel_directions_excluded(self):
        # full mode in dim 1 only produces 0/0 candidates
        with pytest.raises(DegenerateSampleError):
            estimate_doubling(EuclideanNorm(1), 0.5, "full", samples=100, seed=1)


class TestBalancedEstimator:
    def test_euclid_tangent_is_one(self):
        rep = estimate_balanced(EuclideanNorm(3), 0.5, "tangent", samples=50000, seed=10)
        assert rep.k_hat == pytest.approx(1.0, abs=1e-6)

    def test_euclid_full_matches_ray_oracle(self):
        # near-antipodal rays give the sup (1+R)/(1-R)
        big_r = 0.2
        rep = estimate_balanced(EuclideanNorm(3), big_r, "full", samples=200000, seed=11)
        oracle = (1 + big_r) / (1 - big_r)
        assert rep.k_hat == pytest.approx(oracle, abs=2e-2)

    def test_p3_tangent_bounded(self):
        rep = estimate_balanced(PNorm(3, 3), 1.0, "tangent", samples=50000, seed=12)
        assert 1.0 <= rep.k_hat < 50.0


class TestExtendConstants:
    def test_single_step(self):
        assert extend_constants(1.0, 4.0) == (2.0, 2.5)

    def test_double_step(self):
        r, lam = extend_constants(*extend_constants(1.0, 4.0))
        assert (r, lam) == (4.0, pytest.approx(2.2))

    def test_limit_toward_two(self):
        _, lam = extend_constants(1.0, 2.0 + 1e-9)
        assert 2.0 < lam < 2.0 + 1e-8

    def test_rejects_non_convex(self):
        with pytest.raises(ValueError):
            extend_constants(1.0, 2.0)

    def test_extend_to_radius(self):
        r, lam, n = extend_constants_to(1 / 16, 3.8, 1.0)
        assert r >= 1.0 and n == 4 and 2.0 < lam < 3.8


def duality_excess(norm, x, z, lam):
    """h(x, z) - Lambda/(Lambda-2) h(z, x), at most 0 for ||z - x|| <= 2r||x||."""
    return gap(norm, x, z) - lam / (lam - 2.0) * gap(norm, z, x)


class TestDuality:
    def test_parallel_z(self):
        norm = PNorm(3, 3)
        x = unit(norm, 13)
        assert duality_excess(norm, x, 1.4 * x, lam=2.5) <= 0.0

    def test_zero_z(self):
        assert duality_excess(EuclideanNorm(2), [1.0, 0.0], [0.0, 0.0], lam=2.5) == 0.0

    def test_euclid_with_certified_constants(self):
        norm = EuclideanNorm(3)
        r = 0.25
        lam = euclid_full_lambda_oracle(r) * (1.0 - 1e-6)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((500, 3))
        x /= norm.value(x)[:, None]
        y = rng.standard_normal((500, 3))
        y *= (r * rng.uniform(1e-3, 1.0, 500) / norm.value(y))[:, None]
        assert np.all(duality_excess(norm, x, x + 2 * y, lam=lam) <= 1e-9)

    def test_radius_precondition(self):
        # Euclidean, unit x: h(x, z) = ||z|| h(z, x); outside the radius ||z|| > 5.
        norm = EuclideanNorm(2)
        x, z = np.array([1.0, 0.0]), np.array([6.0, 1.0])
        assert gap(norm, x, z) == pytest.approx(norm.value(z) * gap(norm, z, x), rel=1e-12)
        assert duality_excess(norm, x, z, lam=2.5) > 0.0

    def test_lambda_precondition(self):
        # Inside r = 0.25, ||z|| nears 1 + 2r: it fails at Lambda = 7 (factor 7/5).
        norm = EuclideanNorm(2)
        x, z = np.array([1.0, 0.0]), 1.49 * np.array([np.cos(0.01), np.sin(0.01)])
        assert norm.value(z - x) <= 2.0 * 0.25
        assert duality_excess(norm, x, z, lam=euclid_full_lambda_oracle(0.25)) <= 0.0
        assert duality_excess(norm, x, z, lam=7.0) > 0.0


class TestUniformConstants:
    @staticmethod
    def euclid_oracles():
        # one-parameter reductions on the unit circle
        d = np.linspace(1e-3, 2.0, 20000)
        a_oracle = float(np.min((2.0 - np.sqrt(4.0 - d * d)) / d ** 2))
        s = np.linspace(1e-3, 1.0, 20000)
        b_oracle = float(np.max((2.0 * np.sqrt(1.0 + s * s) - 2.0) / s ** 2))
        return a_oracle, b_oracle

    def test_euclidean_reference_values(self):
        rep = estimate_uniform_constants(EuclideanNorm(3), 2.0, 2.0,
                                         samples=100000, seed=15)
        a_oracle, b_oracle = self.euclid_oracles()
        assert rep.a_hat == pytest.approx(a_oracle, abs=2e-2)
        assert rep.b_hat == pytest.approx(b_oracle, abs=2e-2)
        assert rep.a_hat == pytest.approx(0.25, abs=2e-2)
        assert rep.b_hat == pytest.approx(1.0, abs=2e-2)

    def test_p4_constants_exist(self):
        rep = estimate_uniform_constants(PNorm(4, 3), 4.0, 2.0, samples=50000, seed=16)
        assert rep.a_hat > 0.0 and np.isfinite(rep.b_hat) and rep.b_hat > 0.0

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            estimate_uniform_constants(EuclideanNorm(2), 2.0, 3.0, samples=10, seed=0)


@pytest.fixture(scope="module")
def p3_constants():
    norm = PNorm(3, 3)
    lam = estimate_lambda(norm, 0.25, "tangent", samples=100000, seed=1).lambda_hat
    t_const = estimate_doubling(norm, 0.25, "tangent", samples=100000, seed=2).t_hat
    k_const = estimate_balanced(norm, 0.5, "tangent", samples=100000, seed=3).k_hat
    return norm, lam, t_const, k_const


class TestTransfer:

    def test_p3_no_violations(self, p3_constants):
        norm, lam, t_const, k_const = p3_constants
        rep = transfer_check(norm, lam=lam * 0.98, r=0.25, t_const=t_const * 1.02,
                             k_const=k_const * 1.02, samples=5000, seed=4)
        assert rep.passed and rep.checked > 4000
        assert rep.convexity_violations == 0
        assert rep.doubling_violations == 0
        assert rep.balanced_violations == 0

    def test_tangent_samples_reduce_to_tangent_constants(self, p3_constants):
        norm, lam, t_const, k_const = p3_constants
        rep = transfer_check(norm, lam=lam * 0.99, r=0.25, t_const=t_const * 1.01,
                             k_const=k_const * 1.01, samples=2000, seed=5, kappa=0.0)
        assert rep.passed

    def test_euclid_admissibility_window(self):
        # T = 4 gives L = 7.5 and the window min(1/4, 1/15)
        rep = transfer_check(EuclideanNorm(3), lam=3.0, r=0.25, t_const=4.0,
                             samples=500, seed=6)
        assert rep.lipschitz_l == pytest.approx(7.5)
        assert rep.kappa == pytest.approx(1.0 / 15.0)
        assert rep.passed

    def test_kappa_outside_window_rejected(self):
        with pytest.raises(TransferWindowError):
            transfer_check(EuclideanNorm(3), lam=3.0, r=0.25, t_const=4.0,
                           samples=100, seed=7, kappa=0.2)

    def test_empty_window_rejected(self):
        with pytest.raises(TransferWindowError):
            transfer_check(EuclideanNorm(3), lam=3.0, r=0.0, t_const=4.0,
                           samples=100, seed=8)
