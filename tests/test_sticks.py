"""Two-sticks predicate, symmetry chain, endpoint bounds, strip experiment."""

import math

import numpy as np
import pytest

from twosticks import (
    EuclideanNorm,
    PNorm,
    PreconditionError,
    SiteSet,
    Stick,
    build_ray_family,
    estimate_balanced,
    estimate_lambda,
    euclid_interp_bound_residual,
    euclid_lipschitz_ratio,
    euclid_monotonicity,
    extend_constants_to,
    flip_chain_verify,
    generate_strip_pairs,
    holder_ratio,
    modulus,
    modulus_grid,
    segment_point_distance,
    select_special_stick,
    strip_experiment,
    two_sticks_check,
)


def euclid_family(dim=2, queries=25, seed=0, length=1.0):
    norm = EuclideanNorm(dim)
    rng = np.random.default_rng(seed)
    sites = SiteSet(rng.uniform(-2, 2, size=(4, dim)), norm)
    family = build_ray_family(sites, rng.uniform(-2, 2, size=(queries, dim)), length)
    return norm, family


class TestPredicate:
    def test_common_start_always_holds(self):
        norm = PNorm(3, 3)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(3)
        for _ in range(20):
            l = Stick(a, rng.standard_normal(3))
            m = Stick(a, rng.standard_normal(3))
            assert two_sticks_check(norm, l, m)

    def test_one_dimensional_unequal_lengths(self):
        norm = EuclideanNorm(1)
        assert two_sticks_check(norm, Stick([0.0], [1.0]), Stick([0.0], [2.0]))

    def test_swapped_pair_fails(self):
        norm = EuclideanNorm(2)
        l = Stick([0.0, 0.0], [1.0, 0.0])
        m = Stick([1.0, 0.0], [0.0, 0.0])
        # ||m1 - l0|| = 0 < 1 = ||m1 - m0||
        assert not two_sticks_check(norm, l, m)

    def test_sub_stick_closure(self):
        norm, family = euclid_family(dim=3, queries=10, seed=2)
        rng = np.random.default_rng(3)
        sticks = family.sticks
        for _ in range(50):
            i, j = rng.choice(len(sticks), 2, replace=False)
            l, m = sticks[i], sticks[j]
            s, t = rng.uniform(size=2)
            sub_l = Stick(l.start, l.point_at(t))
            sub_m = Stick(m.start, m.point_at(s))
            assert two_sticks_check(norm, sub_l, sub_m)

    def test_equal_length_flip(self):
        norm, family = euclid_family(dim=2, queries=12, seed=4)
        sticks = family.sticks
        for i in range(len(sticks)):
            for j in range(i + 1, len(sticks)):
                assert two_sticks_check(norm, sticks[i].reversed(), sticks[j].reversed())


class TestPointAt:
    def test_endpoints(self):
        l = Stick([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_array_equal(l.point_at(0.0), l.start)
        np.testing.assert_array_equal(l.point_at(1.0), l.end)

    def test_midpoint(self):
        l = Stick([0.0, 0.0], [2.0, 0.0])
        np.testing.assert_allclose(l.point_at(0.5), [1.0, 0.0])

    def test_sub_stick_reparametrization(self):
        # reversing a stick maps parameter t to 1 - t
        l = Stick([0.5, -1.0], [2.0, 3.0])
        rev = l.reversed()
        for t in (0.0, 0.3, 0.77, 1.0):
            np.testing.assert_allclose(rev.point_at(1.0 - t), l.point_at(t), atol=1e-15)
        # a stick cut at t and extended to the end interpolates consistently
        cut = Stick(l.point_at(0.25), l.end)
        s = (0.6 - 0.25) / (1.0 - 0.25)
        np.testing.assert_allclose(cut.point_at(s), l.point_at(0.6), atol=1e-15)


class TestFlipChain:
    def test_identity_case(self):
        norm, family = euclid_family(dim=2, queries=8, seed=5)
        l, m = family.sticks[0], family.sticks[1]
        rep = flip_chain_verify(norm, l, m, s=1.0, t=0.0)
        assert rep.passed and not rep.degenerate

    def test_degenerate_parameters_flagged(self):
        norm, family = euclid_family(dim=2, queries=8, seed=6)
        l, m = family.sticks[0], family.sticks[1]
        rep = flip_chain_verify(norm, l, m, s=0.5, t=0.5)
        assert rep.degenerate and rep.passed

    def test_random_pairs_pass(self):
        norm, family = euclid_family(dim=3, queries=14, seed=7)
        rng = np.random.default_rng(8)
        sticks = family.sticks
        for _ in range(40):
            i, j = rng.choice(len(sticks), 2, replace=False)
            s, t = rng.uniform(size=2)
            rep = flip_chain_verify(norm, sticks[i], sticks[j], s=float(s), t=float(t))
            assert rep.passed

    def test_p_norm_pairs_pass(self):
        norm = PNorm(3, 3)
        rng = np.random.default_rng(9)
        sites = SiteSet(rng.uniform(-2, 2, size=(3, 3)), norm)
        family = build_ray_family(sites, rng.uniform(-2, 2, size=(12, 3)), 1.0)
        sticks = family.sticks
        for _ in range(30):
            i, j = rng.choice(len(sticks), 2, replace=False)
            s, t = rng.uniform(size=2)
            rep = flip_chain_verify(norm, sticks[i], sticks[j], s=float(s), t=float(t))
            assert rep.passed

    def test_precondition_enforced(self):
        norm = EuclideanNorm(2)
        l = Stick([0.0, 0.0], [1.0, 0.0])
        m = Stick([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(PreconditionError):
            flip_chain_verify(norm, l, m, 0.5, 0.5)


class TestEuclideanBounds:
    def test_monotonicity_coincident(self):
        l = Stick([0.0, 1.0], [2.0, 3.0])
        assert euclid_monotonicity(l, l) == 0.0

    def test_monotonicity_common_start(self):
        l = Stick([1.0, 1.0], [2.0, 3.0])
        m = Stick([1.0, 1.0], [0.0, -4.0])
        assert euclid_monotonicity(l, m) == 0.0

    def test_monotonicity_random_pairs(self):
        _, family = euclid_family(dim=3, queries=20, seed=10)
        sticks = family.sticks
        for i in range(len(sticks)):
            for j in range(i + 1, len(sticks)):
                assert euclid_monotonicity(sticks[i], sticks[j]) >= -1e-12

    def test_interp_residual_endpoints(self):
        _, family = euclid_family(dim=2, queries=10, seed=11)
        l, m = family.sticks[2], family.sticks[3]
        assert euclid_interp_bound_residual(l, m, 0.0) == 0.0
        assert euclid_interp_bound_residual(l, m, 1.0) == 0.0

    def test_interp_residual_random(self):
        _, family = euclid_family(dim=3, queries=16, seed=12)
        rng = np.random.default_rng(13)
        sticks = family.sticks
        for _ in range(100):
            i, j = rng.choice(len(sticks), 2, replace=False)
            t = float(rng.uniform())
            scale = 1.0 + float(np.linalg.norm(sticks[i].start - sticks[j].start)) ** 2
            assert euclid_interp_bound_residual(sticks[i], sticks[j], t) <= 1e-12 * scale

    def test_lipschitz_coincident(self):
        l = Stick([0.0, 0.0], [1.0, 0.0])
        assert euclid_lipschitz_ratio(l, l, 0.5, 0.5) == 0.0

    def test_lipschitz_at_s_equals_t_equals_one(self):
        _, family = euclid_family(dim=2, queries=10, seed=14)
        l, m = family.sticks[0], family.sticks[4]
        if not np.allclose(l.end, m.end):
            assert euclid_lipschitz_ratio(l, m, 1.0, 1.0) == pytest.approx(0.5)

    def test_lipschitz_ratio_bounded_random(self):
        _, family = euclid_family(dim=3, queries=20, seed=15)
        rng = np.random.default_rng(16)
        sticks = family.sticks
        for _ in range(400):
            i, j = rng.choice(len(sticks), 2, replace=False)
            t = float(rng.uniform(0.01, 1.0))
            s = float(rng.uniform(t, 1.0))
            assert euclid_lipschitz_ratio(sticks[i], sticks[j], s, t) <= 1.0 + 1e-9

    def test_unequal_length_flagged_not_crashed(self):
        # the classical one-dimensional counterexample: no Lipschitz bound
        # without equal lengths; the operation must flag it as a typed error
        l = Stick([0.0], [1.0])
        m = Stick([0.0], [2.0])
        assert two_sticks_check(EuclideanNorm(1), l, m)
        with pytest.raises(PreconditionError) as err:
            euclid_lipschitz_ratio(l, m, s=1.0, t=0.5)
        assert err.value.hypothesis == "equal_length"

    def test_parameter_order_enforced(self):
        _, family = euclid_family(dim=2, queries=8, seed=17)
        with pytest.raises(PreconditionError):
            euclid_lipschitz_ratio(family.sticks[0], family.sticks[1], s=0.3, t=0.6)


class TestHolder:
    def test_coincident_sticks(self):
        norm = PNorm(4, 3)
        rng = np.random.default_rng(18)
        sites = SiteSet(rng.uniform(-2, 2, size=(3, 3)), norm)
        family = build_ray_family(sites, rng.uniform(-2, 2, size=(6, 3)), 1.0)
        l = family.sticks[0]
        assert holder_ratio(norm, l, l, 0.5, 2.0, 4.0) == 0.0

    def test_euclidean_consistency_with_lipschitz(self):
        # with q = p = 2 the Hölder ratio reproduces the Lipschitz one up to
        # the factor 2 absorbed in the constant
        norm, family = euclid_family(dim=2, queries=16, seed=19)
        rng = np.random.default_rng(20)
        sticks = family.sticks
        for _ in range(100):
            i, j = rng.choice(len(sticks), 2, replace=False)
            t = float(rng.uniform(0.05, 1.0))
            h = holder_ratio(norm, sticks[i], sticks[j], t, 2.0, 2.0)
            lip = euclid_lipschitz_ratio(sticks[i], sticks[j], t, t)
            assert h == pytest.approx(2.0 * lip, rel=1e-9, abs=1e-12)
            assert h <= 2.0 + 1e-9

    def test_p4_ratios_stable(self):
        norm = PNorm(4, 3)
        rng = np.random.default_rng(21)
        sites = SiteSet(rng.uniform(-2, 2, size=(4, 3)), norm)
        family = build_ray_family(sites, rng.uniform(-2, 2, size=(30, 3)), 1.0)
        sticks = family.sticks
        sup_first, sup_all = 0.0, 0.0
        count = 0
        for i in range(len(sticks)):
            for j in range(i + 1, len(sticks)):
                t = float(rng.uniform(0.2, 1.0))
                ratio = holder_ratio(norm, sticks[i], sticks[j], t, 2.0, 4.0)
                assert np.isfinite(ratio)
                sup_all = max(sup_all, ratio)
                count += 1
                if count == 100:
                    sup_first = sup_all
        # empirical sup stabilizes: doubling the trials does not blow it up
        assert sup_all <= 4.0 * max(sup_first, 1e-12) + 1.0

    def test_length_normalization(self):
        # ratios computed on a double-size copy match the unit-length ones
        norm, family = euclid_family(dim=2, queries=10, seed=22)
        l, m = family.sticks[1], family.sticks[2]
        big_l = Stick(2.0 * l.start, 2.0 * l.end)
        big_m = Stick(2.0 * m.start, 2.0 * m.end)
        a = holder_ratio(norm, l, m, 0.4, 2.0, 2.0)
        b = holder_ratio(norm, big_l, big_m, 0.4, 2.0, 2.0)
        assert a == pytest.approx(b, rel=1e-9)


class TestSpecialStick:
    def test_single_stick(self):
        norm = EuclideanNorm(2)
        assert select_special_stick(norm, [Stick([0.0, 0.0], [1.0, 0.0])], 0.3) == 0

    def test_euclidean_tie_break(self):
        norm = EuclideanNorm(2)
        sticks = [Stick([0.0, 0.0], [math.cos(a), math.sin(a)])
                  for a in (0.0, 0.7, 2.1)]
        # isotropy: all modulus values equal, lowest index wins
        assert select_special_stick(norm, sticks, 0.25) == 0

    def test_p4_tie_away_from_index_zero(self):
        norm = PNorm(4, 2)
        scale = norm.value(np.array([1.0, 1.0]))
        axis = Stick([0.0, 0.0], [1.0, 0.0])
        diag = Stick([0.0, 0.0], np.array([1.0, 1.0]) / scale)
        anti = Stick([0.0, 0.0], np.array([-1.0, 1.0]) / scale)
        # the two diagonals tie by symmetry and beat the axis: lower index wins
        assert select_special_stick(norm, [axis, diag, anti], 0.3) == 1
        # the two axes tie below the diagonal: the winner is last in the list
        assert select_special_stick(norm, [axis, Stick([0.0, 0.0], [0.0, 1.0]), diag], 0.3) == 2

    def test_p4_axis_vs_diagonal(self):
        norm = PNorm(4, 2)
        axis = Stick([0.0, 0.0], [1.0, 0.0])
        diag_dir = np.array([1.0, 1.0]) / norm.value(np.array([1.0, 1.0]))
        diag = Stick([0.0, 0.0], diag_dir)
        radius = 0.3
        sig_axis = modulus(norm, axis.direction(), radius).sigma
        sig_diag = modulus(norm, diag.direction(), radius).sigma
        # the grid oracle, independent of the ascent, fixes the ordering: the
        # l4 circle is flat to third order at (1, 0), so h(e, e+y) is O(t^4)
        # there, while it is strictly curved at the diagonal
        grid_axis = modulus_grid(norm, axis.direction(), radius, 1e-4).sigma
        grid_diag = modulus_grid(norm, diag.direction(), radius, 1e-4).sigma
        assert grid_diag > grid_axis
        assert sig_axis == pytest.approx(grid_axis, abs=1e-8)
        assert sig_diag == pytest.approx(grid_diag, abs=1e-8)
        # recorded winner for this configuration: the diagonal direction,
        # whatever its place in the list
        assert sig_diag > sig_axis
        assert select_special_stick(norm, [axis, diag], radius) == 1
        assert select_special_stick(norm, [diag, axis], radius) == 0

    def test_unit_length_required(self):
        norm = EuclideanNorm(2)
        with pytest.raises(PreconditionError):
            select_special_stick(norm, [Stick([0.0, 0.0], [2.0, 0.0])], 0.3)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            select_special_stick(EuclideanNorm(2), [], 0.3)


class TestSegmentDistance:
    def test_interior_projection(self):
        norm = EuclideanNorm(2)
        stick = Stick([-1.0, 0.0], [1.0, 0.0])
        d, t = segment_point_distance(norm, stick, [0.25, 0.7])
        assert d == pytest.approx(0.7, abs=1e-9)
        assert t == pytest.approx(0.625, abs=1e-6)

    def test_endpoint_clamp(self):
        norm = EuclideanNorm(2)
        stick = Stick([0.0, 0.0], [1.0, 0.0])
        d, t = segment_point_distance(norm, stick, [2.0, 0.0])
        assert d == pytest.approx(1.0, abs=1e-12) and t == 1.0


def certified_euclid_constants():
    norm = EuclideanNorm(3)
    rep = estimate_lambda(norm, 1 / 16, "full", samples=100000, seed=9)
    lam0 = 2.0 + (rep.lambda_hat - 2.0) * 0.98
    _, lam, _ = extend_constants_to(1 / 16, lam0, 1.0)
    bal = estimate_balanced(norm, 0.05, "full", samples=100000, seed=10)
    return norm, lam, max(1.0, bal.k_hat * 1.05)


class TestStripExperiment:
    @pytest.fixture(scope="class")
    def euclid_setup(self):
        norm, lam, k_const = certified_euclid_constants()
        pairs = generate_strip_pairs(norm, 25, delta=5e-4, rho=0.36, seed=42,
                                     endpoint_gap_max=0.05)
        return norm, lam, k_const, pairs

    def test_coincident_sticks_trivially_inside(self, euclid_setup):
        norm, lam, k_const, pairs = euclid_setup
        l, _, x0 = pairs[0]
        rep = strip_experiment(norm, l, Stick(l.start.copy(), l.end.copy()), x0,
                               5e-4, 0.36, lam, k_const, 0.05,
                               modulus_opts={"n_starts": 8, "max_iter": 80})
        assert rep.passed
        assert rep.projection == pytest.approx(0.0, abs=1e-12)

    def test_random_configurations_pass(self, euclid_setup):
        norm, lam, k_const, pairs = euclid_setup
        opts = {"n_starts": 8, "max_iter": 80}
        for l, m, x0 in pairs:
            rep = strip_experiment(norm, l, m, x0, 5e-4, 0.36, lam, k_const, 0.05,
                                   modulus_opts=opts, auto_orient=True)
            assert rep.passed and rep.axya_ok
            assert rep.bound == pytest.approx(
                k_const * lam * lam / (lam - 2.0) * rep.kappa * rep.delta)
            # interior construction stays inside the proof's windows
            assert -1e-9 <= rep.t_star <= 1.0 + 1e-9
            assert float(norm.value(rep.l_star - rep.lambda_star)) <= 4 * rep.delta + 1e-9

    def test_width_scales_linearly_in_delta(self, euclid_setup):
        norm, lam, k_const, _ = euclid_setup
        kappa = 4.0 / (0.36 - 3.0 * 1e-4)
        w1 = k_const * lam * lam / (lam - 2.0) * kappa * 1e-4
        w2 = k_const * lam * lam / (lam - 2.0) * kappa * 2e-4
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_precondition_names(self, euclid_setup):
        norm, lam, k_const, pairs = euclid_setup
        l, m, x0 = pairs[0]
        with pytest.raises(PreconditionError) as err:
            strip_experiment(norm, l, m, x0, 5e-4, 0.36, 2.0, k_const, 0.05)
        assert err.value.hypothesis == "lambda_range"
        with pytest.raises(PreconditionError) as err:
            strip_experiment(norm, l, m, x0, 0.3, 1.2, lam, k_const, 0.05)
        assert err.value.hypothesis == "delta_range"
        with pytest.raises(PreconditionError) as err:
            strip_experiment(norm, l, m, x0, 5e-4, 1e-3, lam, k_const, 0.05)
        assert err.value.hypothesis == "rho_range"
        with pytest.raises(PreconditionError) as err:
            strip_experiment(norm, l, m, x0 + 10.0, 5e-4, 0.36, lam, k_const, 0.05)
        assert err.value.hypothesis == "near"
        with pytest.raises(PreconditionError) as err:
            strip_experiment(norm, l, m, x0, 5e-4, 0.36, lam, k_const, 1e-9)
        assert err.value.hypothesis == "eta_radius"
        with pytest.raises(PreconditionError) as err:
            # huge K blows the width past 1
            strip_experiment(norm, l, m, x0, 5e-4, 0.36, lam, 500.0, 0.05)
        assert err.value.hypothesis == "eta_width"

    def test_p3_configurations_pass(self):
        norm = PNorm(3, 3)
        rep = estimate_lambda(norm, 1 / 16, "full", samples=100000, seed=9)
        lam0 = 2.0 + (rep.lambda_hat - 2.0) * 0.98
        _, lam, _ = extend_constants_to(1 / 16, lam0, 1.0)
        bal = estimate_balanced(norm, 0.05, "full", samples=100000, seed=10)
        k_const = max(1.0, bal.k_hat * 1.05)
        pairs = generate_strip_pairs(norm, 10, delta=1e-4, rho=0.36, seed=7,
                                     endpoint_gap_max=0.05)
        opts = {"n_starts": 8, "max_iter": 80}
        for l, m, x0 in pairs:
            rep = strip_experiment(norm, l, m, x0, 1e-4, 0.36, lam, k_const, 0.05,
                                   modulus_opts=opts, auto_orient=True)
            assert rep.passed and rep.axya_ok

    def test_unconverged_solve_fails_closed(self):
        norm = PNorm(3, 3)
        l, m, x0 = generate_strip_pairs(norm, 1, delta=1e-4, rho=0.36, seed=0,
                                        endpoint_gap_max=0.05)[0]
        args = (norm, l, m, x0, 1e-4, 0.36, 2.0279, 3.5555, 0.05)
        opts = {"n_starts": 8, "max_iter": 80}
        rep = strip_experiment(*args, modulus_opts=opts, auto_orient=True)
        assert rep.converged and rep.passed
        # No KKT residual is exactly zero, so no solve counts as converged.
        rep = strip_experiment(*args, modulus_opts={**opts, "kkt_tol": 0.0}, auto_orient=True)
        assert not rep.converged and not rep.passed
