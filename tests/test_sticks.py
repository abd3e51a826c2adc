"""Two-sticks predicate, symmetry chain, endpoint bounds, strip experiment."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twosticks import (
    DegenerateStickError,
    EuclideanNorm,
    PNorm,
    PreconditionError,
    SiteSet,
    Stick,
    build_ray_family,
    estimate_balanced,
    estimate_lambda,
    extend_constants_to,
    generate_strip_pairs,
    holder_ratio,
    modulus,
    pair_verdicts,
    segment_point_distance,
    strip_experiment,
    strip_experiments,
    two_sticks_check,
)
from twosticks import cli
from twosticks import convexity as convexity_module
from twosticks import sticks as sticks_module
from twosticks.sticks import (INTERP_SLACK, INTERP_TS, LIPSCHITZ_SLACK, MONOTONICITY_SLACK,
                              StripReport, _special_index)

from oracles import LinearImageNorm, modulus_grid


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
                assert two_sticks_check(norm, Stick(sticks[i].end, sticks[i].start),
                                        Stick(sticks[j].end, sticks[j].start))


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
        rev = Stick(l.end, l.start)
        for t in (0.0, 0.3, 0.77, 1.0):
            np.testing.assert_allclose(rev.point_at(1.0 - t), l.point_at(t), atol=1e-15)
        # a stick cut at t and extended to the end interpolates consistently
        cut = Stick(l.point_at(0.25), l.end)
        s = (0.6 - 0.25) / (1.0 - 0.25)
        np.testing.assert_allclose(cut.point_at(s), l.point_at(0.6), atol=1e-15)


def chain_verdicts(norm, chains):
    """One `pair_verdicts` call over each (l, m, s, t) and its derived pairs:
    reversed, tails [l1, l_t] and [l_t, l1], and [l_t, l_s], whose two-sticks
    inequalities are ||l_s - m_t|| >= ||l_s - l_t||, ||m_s - l_t|| >= ||m_s - m_t||."""
    rows = []
    for l, m, s, t in chains:
        lt, ls, mt, ms = l.point_at(t), l.point_at(s), m.point_at(t), m.point_at(s)
        rows += [(l.start, l.end, m.start, m.end), (l.end, l.start, m.end, m.start),
                 (l.end, lt, m.end, mt), (lt, l.end, mt, m.end), (lt, ls, mt, ms)]
    return pair_verdicts(norm, *(np.array(ends) for ends in zip(*rows)))


class TestFlipChain:
    # Derived pairs of an equal-length two-sticks pair inherit both conditions.
    def test_identity_case(self):
        norm, family = euclid_family(dim=2, queries=8, seed=5)
        v = chain_verdicts(norm, [(family.sticks[0], family.sticks[1], 1.0, 0.0)])
        assert v.two_sticks.all() and v.equal_length.all()
        assert v.len_l[4] == v.len_l[0] > 0.0   # [l_0, l_1] is l

    def test_degenerate_parameters_flagged(self):
        norm, family = euclid_family(dim=2, queries=8, seed=6)
        l, m = family.sticks[0], family.sticks[1]
        v = chain_verdicts(norm, [(l, m, 0.5, 0.5)])
        assert v.len_l[4] == v.len_m[4] == 0.0
        assert v.two_sticks.all() and v.equal_length.all()

    def test_random_pairs_pass(self):
        norm, family = euclid_family(dim=3, queries=14, seed=7)
        rng = np.random.default_rng(8)
        sticks = family.sticks
        draws = (rng.choice(len(sticks), 2, replace=False) for _ in range(40))
        v = chain_verdicts(norm, [(sticks[i], sticks[j], *rng.uniform(size=2)) for i, j in draws])
        assert v.two_sticks.all() and v.equal_length.all()

    def test_p_norm_pairs_pass(self):
        norm = PNorm(3, 3)
        rng = np.random.default_rng(9)
        sites = SiteSet(rng.uniform(-2, 2, size=(3, 3)), norm)
        family = build_ray_family(sites, rng.uniform(-2, 2, size=(12, 3)), 1.0)
        sticks = family.sticks
        draws = (rng.choice(len(sticks), 2, replace=False) for _ in range(30))
        v = chain_verdicts(norm, [(sticks[i], sticks[j], *rng.uniform(size=2)) for i, j in draws])
        assert v.two_sticks.all() and v.equal_length.all()

    def test_precondition_enforced(self):
        # Without the two-sticks hypothesis the chain breaks: the reversal fails too.
        norm = EuclideanNorm(2)
        l = Stick([0.0, 0.0], [1.0, 0.0])
        m = Stick([1.0, 0.0], [0.0, 0.0])
        v = chain_verdicts(norm, [(l, m, 0.5, 0.5)])
        assert not v.two_sticks[0] and not v.two_sticks[1]


class TestEuclideanBounds:
    # The Euclidean estimates of `pair_verdicts` (s given), one row or one
    # batch per call; a residual at one fixed t comes from `_interp_residual`,
    # whose maximum over INTERP_TS `pair_verdicts` reports.
    def test_monotonicity_coincident(self):
        l = Stick([0.0, 1.0], [2.0, 3.0])
        assert pair_verdicts(EuclideanNorm(2), *batch([(l, l)]), 1.0, 1.0).monotonicity[0] == 0.0

    def test_monotonicity_common_start(self):
        # unequal lengths, so the formula alone: pair_verdicts needs equal ones
        l = Stick([1.0, 1.0], [2.0, 3.0])
        m = Stick([1.0, 1.0], [0.0, -4.0])
        assert two_sticks_check(EuclideanNorm(2), l, m)
        assert sticks_module._monotonicity(*batch([(l, m)]))[0] == 0.0

    def test_monotonicity_random_pairs(self):
        _, family = euclid_family(dim=3, queries=20, seed=10)
        sticks = family.sticks
        pairs = [(sticks[i], sticks[j]) for i in range(len(sticks))
                 for j in range(i + 1, len(sticks))]
        v = pair_verdicts(EuclideanNorm(3), *batch(pairs), 1.0, 1.0)
        assert np.all(v.monotonicity >= -1e-12)

    def test_interp_residual_endpoints(self):
        _, family = euclid_family(dim=2, queries=10, seed=11)
        rows = batch([(family.sticks[2], family.sticks[3])])
        assert sticks_module._interp_residual(*rows, 0.0)[0] == 0.0
        assert sticks_module._interp_residual(*rows, 1.0)[0] == 0.0

    def test_interp_residual_random(self):
        _, family = euclid_family(dim=3, queries=16, seed=12)
        rng = np.random.default_rng(13)
        sticks = family.sticks
        for _ in range(100):
            i, j = rng.choice(len(sticks), 2, replace=False)
            t = float(rng.uniform())
            rows = batch([(sticks[i], sticks[j])])
            assert pair_verdicts(EuclideanNorm(3), *rows).two_sticks[0]
            scale = 1.0 + float(np.linalg.norm(sticks[i].start - sticks[j].start)) ** 2
            assert sticks_module._interp_residual(*rows, t)[0] <= 1e-12 * scale

    def test_lipschitz_coincident(self):
        l = Stick([0.0, 0.0], [1.0, 0.0])
        assert pair_verdicts(EuclideanNorm(2), *batch([(l, l)]), 0.5, 0.5).lipschitz_ratio[0] \
            == 0.0

    def test_lipschitz_at_s_equals_t_equals_one(self):
        _, family = euclid_family(dim=2, queries=10, seed=14)
        l, m = family.sticks[0], family.sticks[4]
        if not np.allclose(l.end, m.end):
            v = pair_verdicts(EuclideanNorm(2), *batch([(l, m)]), 1.0, 1.0)
            assert v.lipschitz_ratio[0] == pytest.approx(0.5)

    def test_lipschitz_ratio_bounded_random(self):
        _, family = euclid_family(dim=3, queries=20, seed=15)
        rng = np.random.default_rng(16)
        sticks = family.sticks
        pairs, ts, ss = [], [], []
        for _ in range(400):
            i, j = rng.choice(len(sticks), 2, replace=False)
            t = float(rng.uniform(0.01, 1.0))
            pairs.append((sticks[i], sticks[j]))
            ts.append(t)
            ss.append(float(rng.uniform(t, 1.0)))
        v = pair_verdicts(EuclideanNorm(3), *batch(pairs), ts, ss)
        assert np.all(v.lipschitz_ratio <= 1.0 + 1e-9)

    def test_unequal_length_flagged_not_crashed(self):
        # the classical one-dimensional counterexample: no Lipschitz bound
        # without equal lengths; the operation must flag it as a typed error
        l = Stick([0.0], [1.0])
        m = Stick([0.0], [2.0])
        assert two_sticks_check(EuclideanNorm(1), l, m)
        with pytest.raises(PreconditionError) as err:
            pair_verdicts(EuclideanNorm(1), *batch([(l, m)]), 0.5, 1.0)
        assert err.value.hypothesis == "equal_length"

    def test_parameter_order_enforced(self):
        _, family = euclid_family(dim=2, queries=8, seed=17)
        with pytest.raises(PreconditionError):
            pair_verdicts(EuclideanNorm(2), *batch([(family.sticks[0], family.sticks[1])]),
                          0.6, 0.3)


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
            lip = pair_verdicts(norm, *batch([(sticks[i], sticks[j])]), t, t).lipschitz_ratio[0]
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


# ---------------------------------------------------------------------------
# Scalar oracle: the one-pair bodies that the array path `pair_verdicts`
# replaced, kept here with their own length and predicate helpers.
# ---------------------------------------------------------------------------

def oracle_length(norm, stick):
    return float(norm._value(stick.end - stick.start))


def oracle_two_sticks(norm, l, m):
    len_l = oracle_length(norm, l)
    len_m = oracle_length(norm, m)
    slack = 1e-12 * (1.0 + len_l + len_m)
    first = float(norm._value(l.end - m.start)) >= len_l - slack
    second = float(norm._value(m.end - l.start)) >= len_m - slack
    return first and second


def oracle_equal_length(norm, l, m, tol=1e-9):
    len_l = oracle_length(norm, l)
    len_m = oracle_length(norm, m)
    return abs(len_l - len_m) <= tol * (1.0 + len_l + len_m)


def oracle_holder_ratio(norm, l, m, t, q, p):
    length = oracle_length(norm, l)
    if not (0.0 < t <= 1.0):
        raise PreconditionError("parameters", "need 0 < t <= 1")
    if not (1.0 < q <= p):
        raise ValueError("need 1 < q <= p")
    if length < 1e-12:
        raise DegenerateStickError("sticks must have positive length")
    if not oracle_two_sticks(norm, l, m):
        raise PreconditionError("two_sticks", "pair fails the two-sticks condition")
    if not oracle_equal_length(norm, l, m):
        raise PreconditionError("equal_length", "pair must have equal length")
    scale = 1.0 / length
    lu, mu = l.scaled(scale), m.scaled(scale)
    num = float(norm._value(lu.end - mu.end))
    if num == 0.0:
        return 0.0
    den = float(norm._value(lu.point_at(t) - mu.point_at(t)))
    if den < 1e-300:
        return math.inf
    return t * num / den ** (q / p)


def oracle_require_euclid(l, m, equal_length=False):
    norm = EuclideanNorm(l.dim)
    if not oracle_two_sticks(norm, l, m):
        raise PreconditionError("two_sticks", "pair fails the Euclidean two-sticks condition")
    if equal_length and not oracle_equal_length(norm, l, m):
        raise PreconditionError("equal_length", "pair must have equal length")


def oracle_monotonicity(l, m):
    oracle_require_euclid(l, m)
    return float(np.dot(l.end - m.end, l.start - m.start))


def oracle_interp_residual(l, m, t):
    oracle_require_euclid(l, m)
    lhs = (1.0 - t) ** 2 * float(np.sum((l.start - m.start) ** 2)) \
        + t ** 2 * float(np.sum((l.end - m.end) ** 2))
    rhs = float(np.sum((l.point_at(t) - m.point_at(t)) ** 2))
    return max(0.0, lhs - rhs)


def oracle_lipschitz_ratio(l, m, s, t):
    oracle_require_euclid(l, m, equal_length=True)
    if not (0.0 < t <= s <= 1.0):
        raise PreconditionError("parameters", "need 0 < t <= s <= 1")
    num = float(np.linalg.norm(l.end - m.end))
    if num == 0.0:
        return 0.0
    den = float(np.linalg.norm(l.point_at(s) - m.point_at(t)))
    if den < 1e-300:
        return math.inf
    return t * num / (2.0 * den)


def oracle_euclid_violated(l, m, s, t):
    scale = 1.0 + float(np.linalg.norm(l.start - m.start))
    return (oracle_monotonicity(l, m) < -MONOTONICITY_SLACK * scale
            or max(oracle_interp_residual(l, m, tt) for tt in INTERP_TS) > INTERP_SLACK * scale
            or oracle_lipschitz_ratio(l, m, s, t) > 1.0 + LIPSCHITZ_SLACK)


def cli_exponents(norm):
    """The (q, p) that `twosticks sticks` uses by default for a p-norm."""
    return (2.0 if norm.p >= 2.0 else norm.p), max(norm.p, 2.0)


def batch(pairs):
    """Endpoint arrays l0, l1, m0, m1 of a list of stick pairs."""
    return [np.array([l.start for l, _ in pairs]), np.array([l.end for l, _ in pairs]),
            np.array([m.start for _, m in pairs]), np.array([m.end for _, m in pairs])]


ORACLE_NORMS = ["p:1.5", "p:3", "p:4", "euclidean"]


class TestPairVerdictsOracle:
    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from(ORACLE_NORMS), dim=st.integers(2, 4),
           seed=st.integers(0, 2 ** 32 - 1), length=st.floats(0.25, 4.0))
    def test_matches_scalar_oracle(self, spec, dim, seed, length):
        norm = cli.parse_norm(spec, dim)
        rng = np.random.default_rng(seed)
        sites = SiteSet(rng.uniform(-2, 2, size=(3, dim)), norm)
        family = build_ray_family(sites, rng.uniform(-2, 2, size=(8, dim)), length)
        assume(len(family) >= 2)
        sticks = family.sticks
        pairs = [(sticks[i], sticks[j]) for i in range(len(sticks))
                 for j in range(i + 1, len(sticks))]
        n = len(pairs)
        t = rng.uniform(0.05, 1.0, size=n)
        t[rng.random(n) < 0.1] = 1.0
        s = np.where(rng.random(n) < 0.2, t, t + (1.0 - t) * rng.random(n))

        # Predicates on admissible pairs and on reversed, swapped and
        # rescaled partners, most of which fail one of them.
        mixed = pairs + [(l, Stick(m.end, m.start)) for l, m in pairs] \
            + [(Stick(m.end, m.start), l) for l, m in pairs] \
            + [(l, m.scaled(1.5)) for l, m in pairs]
        v = pair_verdicts(norm, *batch(mixed))
        assert v.two_sticks.tolist() == [oracle_two_sticks(norm, l, m) for l, m in mixed]
        assert v.equal_length.tolist() == [oracle_equal_length(norm, l, m) for l, m in mixed]
        np.testing.assert_allclose(v.len_l, [oracle_length(norm, l) for l, _ in mixed],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(v.len_m, [oracle_length(norm, m) for _, m in mixed],
                                   rtol=1e-13, atol=0)
        assert v.holder_ratio is None and v.monotonicity is None and v.violated is None

        q, p = cli_exponents(norm) if spec != "euclidean" else (2.0, 2.0)
        v = pair_verdicts(norm, *batch(pairs), t, q=q, p=p)
        expect = [oracle_holder_ratio(norm, l, m, tk, q, p) for (l, m), tk in zip(pairs, t)]
        np.testing.assert_allclose(v.holder_ratio, expect, rtol=1e-13, atol=0)
        assert v.violated.tolist() == [not math.isfinite(r) for r in expect]
        assert v.two_sticks.all() and v.equal_length.all()

        if spec == "euclidean":
            v = pair_verdicts(norm, *batch(pairs), t, s)
            np.testing.assert_allclose(
                v.monotonicity, [oracle_monotonicity(l, m) for l, m in pairs],
                rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                v.interp_residual,
                [max(oracle_interp_residual(l, m, tt) for tt in INTERP_TS) for l, m in pairs],
                rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                v.lipschitz_ratio,
                [oracle_lipschitz_ratio(l, m, sk, tk) for (l, m), sk, tk in zip(pairs, s, t)],
                rtol=1e-13, atol=0)
            assert v.violated.tolist() == [oracle_euclid_violated(l, m, sk, tk)
                                           for (l, m), sk, tk in zip(pairs, s, t)]
            assert v.holder_ratio is None


E1 = np.array([1.0, 0.0, 0.0])
ORIGIN = np.zeros(3)
# One pair (l0, l1, m0, m1) per hypothesis it fails, and no earlier one.
FAILING_PAIRS = {
    "two_sticks": (ORIGIN, E1, E1, ORIGIN),            # ||m1 - l0|| = 0 < ||m1 - m0||
    "equal_length": (ORIGIN, E1, ORIGIN, 2.0 * E1),
    "degenerate": (E1, E1, E1, E1),
}


def p3_batch(broken):
    """Ten admissible p3 pairs and t = 0.5, with pair k broken as broken[k] says."""
    norm = PNorm(3, 3)
    rng = np.random.default_rng(31)
    sites = SiteSet(rng.uniform(-2, 2, size=(4, 3)), norm)
    family = build_ray_family(sites, rng.uniform(-2, 2, size=(12, 3)), 1.0)
    sticks = family.sticks
    pairs = [(sticks[i], sticks[i + 1]) for i in range(10)]
    ends = batch(pairs)
    t = np.full(10, 0.5)
    for k, kind in broken.items():
        if kind == "parameters":
            t[k] = 1.5
        else:
            for arr, row in zip(ends, FAILING_PAIRS[kind]):
                arr[k] = row
    return norm, ends, t


class TestPairVerdictPreconditions:
    @pytest.mark.parametrize("first, later", [
        ("two_sticks", "parameters"),
        ("equal_length", "degenerate"),
        ("degenerate", "parameters"),
        ("parameters", "two_sticks"),
    ])
    def test_lowest_index_pair_raises(self, first, later):
        norm, ends, t = p3_batch({3: first, 6: later})
        error = DegenerateStickError if first == "degenerate" else PreconditionError
        with pytest.raises(error, match=r"pair 3\b") as err:
            pair_verdicts(norm, *ends, t, q=2.0, p=3.0)
        if first != "degenerate":
            assert err.value.hypothesis == first

    @pytest.mark.parametrize("pair, t, error, hypothesis", [
        (FAILING_PAIRS["two_sticks"], 1.5, PreconditionError, "parameters"),
        (FAILING_PAIRS["degenerate"], 0.0, PreconditionError, "parameters"),
        ((E1, E1, ORIGIN, E1), 0.5, DegenerateStickError, None),      # also two-sticks, length
        ((ORIGIN, E1, 2.0 * E1, ORIGIN), 0.5, PreconditionError, "two_sticks"),  # also length
    ])
    def test_first_failed_hypothesis_of_a_pair_in_order(self, pair, t, error, hypothesis):
        norm, ends, ts = p3_batch({})
        for arr, row in zip(ends, pair):
            arr[5] = row
        ts[5] = t
        with pytest.raises(error, match=r"pair 5\b") as err:
            pair_verdicts(norm, *ends, ts, q=2.0, p=3.0)
        if hypothesis is not None:
            assert err.value.hypothesis == hypothesis

    @pytest.mark.parametrize("bad_t", [0.0, -0.25, 1.0 + 1e-12, math.nan])
    def test_t_outside_unit_interval(self, bad_t):
        norm, ends, t = p3_batch({})
        t[4] = bad_t
        with pytest.raises(PreconditionError, match=r"pair 4\b") as err:
            pair_verdicts(norm, *ends, t, q=2.0, p=3.0)
        assert err.value.hypothesis == "parameters"

    def test_s_below_t_rejected(self):
        _, family = euclid_family(dim=3, queries=12, seed=32)
        sticks = family.sticks
        pairs = [(sticks[0], sticks[k]) for k in range(1, 5)]
        t = np.full(4, 0.5)
        s = np.array([0.5, 1.0, 0.4, 0.7])
        with pytest.raises(PreconditionError, match=r"pair 2\b") as err:
            pair_verdicts(EuclideanNorm(3), *batch(pairs), t, s)
        assert err.value.hypothesis == "parameters"

    def test_bad_exponents_and_shapes(self):
        norm, ends, t = p3_batch({})
        with pytest.raises(ValueError, match="1 < q <= p"):
            pair_verdicts(norm, *ends, t, q=3.0, p=2.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pair_verdicts(norm, *ends[:3], ends[3][:, :2], t, q=2.0, p=3.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pair_verdicts(norm, *ends[:3], ends[3][:5], t, q=2.0, p=3.0)
        with pytest.raises(ValueError, match="Euclidean norm"):
            pair_verdicts(norm, *ends, t, t, q=2.0, p=3.0)

    def test_predicates_alone_check_nothing(self):
        norm, ends, _ = p3_batch({2: "two_sticks", 5: "equal_length", 7: "degenerate"})
        v = pair_verdicts(norm, *ends)
        assert np.flatnonzero(~v.two_sticks).tolist() == [2]
        assert np.flatnonzero(~v.equal_length).tolist() == [5]
        assert v.len_l[7] == 0.0


class TestPairVerdictsCanFail:
    # The quantity at pair 1 set to k times its slack past its bound, given
    # scale = 1 + ||l0 - m0||_2 of each pair.
    @pytest.mark.parametrize("name, at", [
        ("_monotonicity", lambda k, scale: -k * MONOTONICITY_SLACK * scale),
        ("_interp_residual", lambda k, scale: k * INTERP_SLACK * scale),
        ("_lipschitz", lambda k, scale: 1.0 + k * LIPSCHITZ_SLACK),
    ], ids=["monotonicity", "interp_residual", "lipschitz_ratio"])
    @pytest.mark.parametrize("k, violated", [(1.0, []), (2.0, [1])], ids=["at", "twice"])
    def test_euclidean_quantity_past_its_slack(self, name, at, k, violated, monkeypatch):
        _, family = euclid_family(dim=3, queries=12, seed=32)
        sticks = family.sticks
        ends = batch([(sticks[0], sticks[j]) for j in range(1, 5)])
        real = getattr(sticks_module, name)

        def patched(l0, l1, m0, m1, *params):
            values = real(l0, l1, m0, m1, *params)
            values[1] = at(k, 1.0 + np.linalg.norm(l0 - m0, axis=-1)[1])
            return values

        monkeypatch.setattr(sticks_module, name, patched)
        v = pair_verdicts(EuclideanNorm(3), *ends, 0.5, 0.75)
        assert np.flatnonzero(v.violated).tolist() == violated

    def test_holder_ratio_that_is_not_finite(self, monkeypatch):
        norm, ends, t = p3_batch({})
        assert not pair_verdicts(norm, *ends, t, q=2.0, p=3.0).violated.any()
        real = sticks_module._holder

        def inf_at_4(*args):
            ratio = real(*args)
            ratio[4] = math.inf
            return ratio

        monkeypatch.setattr(sticks_module, "_holder", inf_at_4)
        v = pair_verdicts(norm, *ends, t, q=2.0, p=3.0)
        assert np.flatnonzero(v.violated).tolist() == [4]


def raised_hypothesis(call) -> str:
    """The hypothesis `call` raises; "degenerate" for a zero-length stick."""
    with pytest.raises((PreconditionError, DegenerateStickError)) as err:
        call()
    return getattr(err.value, "hypothesis", "degenerate")


STRIP_ARGS = (1e-4, 0.36, 2.0279, 3.5555, 0.05)   # delta, rho, Lambda, K, R


class TestOnePreconditionPath:
    # FAILING_PAIRS plus a pair that fails two-sticks and equal length.
    PAIRS = {**FAILING_PAIRS, "both": (ORIGIN, E1, E1, -E1)}

    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_one_pair_functions_raise_as_pair_verdicts(self, kind):
        norm = EuclideanNorm(3)
        ends = self.PAIRS[kind]
        rows = [a[None] for a in ends]
        l, m = Stick(ends[0], ends[1]), Stick(ends[2], ends[3])
        # degenerate length, two-sticks, equal length
        expect = raised_hypothesis(lambda: pair_verdicts(norm, *rows, 0.5, q=2.0, p=2.0))
        assert raised_hypothesis(lambda: holder_ratio(norm, l, m, 0.5, 2.0, 2.0)) == expect
        assert raised_hypothesis(
            lambda: strip_experiment(norm, l, m, ORIGIN, *STRIP_ARGS)) == expect
        if kind != "degenerate":
            # two-sticks, equal length
            expect = raised_hypothesis(lambda: pair_verdicts(norm, *rows, 0.5, 1.0))
        if kind in ("two_sticks", "both"):
            assert expect == "two_sticks"

    def test_two_sticks_is_checked_before_equal_length(self):
        norm = EuclideanNorm(1)
        l, m = Stick([0.0], [1.0]), Stick([1.0], [-1.0])   # fails both
        calls = [
            lambda: strip_experiment(norm, l, m, [0.0], *STRIP_ARGS),
            lambda: pair_verdicts(norm, *batch([(l, m)]), 0.2, 0.7),
        ]
        for call in calls:
            assert raised_hypothesis(call) == "two_sticks"


def sticks_csv(path):
    """(header, rows) of a sticks CSV, every cell as text."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def scalar_draws(norm, seed, sites=4, queries=20, cap=30):
    """(i, j, l, m, t, s) per pair, drawn one pair at a time as the per-pair loop did."""
    rng = np.random.default_rng(seed)
    sticks = cli._random_family(norm, rng, sites, queries, 1.0, 2.0).sticks
    pairs = [(i, j) for i in range(len(sticks)) for j in range(i + 1, len(sticks))]
    if len(pairs) > cap:
        idx = rng.choice(len(pairs), size=cap, replace=False)
        pairs = [pairs[k] for k in sorted(idx)]
    out = []
    for i, j in pairs:
        t = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(t, 1.0))
        out.append((i, j, sticks[i], sticks[j], t, s))
    return out


class TestSticksCommand:
    ARGS = ["sticks", "--dim", "3", "--queries", "20", "--pairs", "30"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_p3_columns_match_scalar_draws_and_oracle(self, tmp_path, seed):
        out = tmp_path / "sticks.csv"
        argv = self.ARGS + ["--norm", "p:3", "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        header, rows = sticks_csv(out)
        assert header == ["i", "j", "holder_ratio", "t", "q", "p", "violated"]
        norm = PNorm(3, 3)
        draws = scalar_draws(norm, seed)
        assert len(rows) == len(draws) == 30
        for row, (i, j, l, m, t, _) in zip(rows, draws):
            assert (int(row[0]), int(row[1])) == (i, j)
            assert float(row[3]) == t
            expect = oracle_holder_ratio(norm, l, m, t, 2.0, 3.0)
            assert float(row[2]) == pytest.approx(expect, rel=1e-13, abs=0)
            assert row[4:] == ["2.0", "3.0", "false"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_euclidean_columns_match_scalar_draws_and_oracle(self, tmp_path, seed):
        out = tmp_path / "sticks.csv"
        argv = self.ARGS + ["--norm", "euclidean", "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        header, rows = sticks_csv(out)
        assert header == ["i", "j", "monotonicity", "interp_residual", "lipschitz_ratio",
                          "s", "t", "violated"]
        draws = scalar_draws(EuclideanNorm(3), seed)
        assert len(rows) == len(draws) == 30
        for row, (i, j, l, m, t, s) in zip(rows, draws):
            assert (int(row[0]), int(row[1])) == (i, j)
            assert (float(row[5]), float(row[6])) == (s, t)
            expect = [oracle_monotonicity(l, m),
                      max(oracle_interp_residual(l, m, tt) for tt in INTERP_TS),
                      oracle_lipschitz_ratio(l, m, s, t)]
            for cell, value in zip(row[2:5], expect):
                assert float(cell) == pytest.approx(value, rel=1e-13, abs=0)
            assert row[7] == "false"


def special_stick(norm, sticks, radius):
    """`_special_index` over the `modulus` sigmas of the sticks' directions."""
    return _special_index([modulus(norm, stick.direction(), radius).sigma for stick in sticks])


class TestSpecialStick:
    def test_single_stick(self):
        norm = EuclideanNorm(2)
        assert special_stick(norm, [Stick([0.0, 0.0], [1.0, 0.0])], 0.3) == 0

    def test_euclidean_tie_break(self):
        norm = EuclideanNorm(2)
        sticks = [Stick([0.0, 0.0], [math.cos(a), math.sin(a)])
                  for a in (0.0, 0.7, 2.1)]
        # isotropy: all modulus values equal, lowest index wins
        assert special_stick(norm, sticks, 0.25) == 0

    def test_p4_tie_away_from_index_zero(self):
        norm = PNorm(4, 2)
        scale = norm.value(np.array([1.0, 1.0]))
        axis = Stick([0.0, 0.0], [1.0, 0.0])
        diag = Stick([0.0, 0.0], np.array([1.0, 1.0]) / scale)
        anti = Stick([0.0, 0.0], np.array([-1.0, 1.0]) / scale)
        # the two diagonals tie by symmetry and beat the axis: lower index wins
        assert special_stick(norm, [axis, diag, anti], 0.3) == 1
        # the two axes tie below the diagonal: the winner is last in the list
        assert special_stick(norm, [axis, Stick([0.0, 0.0], [0.0, 1.0]), diag], 0.3) == 2

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
        assert special_stick(norm, [axis, diag], radius) == 1
        assert special_stick(norm, [diag, axis], radius) == 0

    def test_unit_length_required(self):
        # sigma(a e, t) = a sigma(e, t/a), so the rule ranks unit directions:
        # `strip_experiment` scales a pair of length 2 (exactly) to unit length.
        norm = PNorm(3, 3)
        (l, m, x0), = generate_strip_pairs(norm, 1, 1e-4, 0.36, seed=0, endpoint_gap_max=0.05)
        one = strip_experiment(norm, l, m, x0, *STRIP_ARGS)
        two = strip_experiment(norm, l.scaled(2.0), m.scaled(2.0), 2.0 * x0, 2e-4, 0.72,
                               *STRIP_ARGS[2:])
        assert (two.sigma_e, two.sigma_ebar) == (one.sigma_e, one.sigma_ebar)

    def test_empty_list(self):
        # No configuration, no stick to rank and no solve.
        assert strip_experiments(EuclideanNorm(2), [], *STRIP_ARGS) == []

    @pytest.mark.parametrize("lam, k_const, hypothesis", [
        (2.0, 3.5555, "lambda_range"), (math.inf, 3.5555, "lambda_range"),
        (2.0279, 0.5, "k_range"), (2.0279, math.inf, "k_range"),
    ], ids=["lambda-2", "lambda-inf", "k-half", "k-inf"])
    def test_constants_are_checked_without_configurations(self, lam, k_const, hypothesis):
        with pytest.raises(PreconditionError) as err:
            strip_experiments(EuclideanNorm(2), [], 1e-4, 0.36, lam, k_const, 0.05)
        assert err.value.hypothesis == hypothesis


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
                               5e-4, 0.36, lam, k_const, 0.05)
        assert rep.passed
        assert rep.projection == pytest.approx(0.0, abs=1e-12)

    def test_random_configurations_pass(self, euclid_setup):
        norm, lam, k_const, pairs = euclid_setup
        for l, m, x0 in pairs:
            rep = strip_experiment(norm, l, m, x0, 5e-4, 0.36, lam, k_const, 0.05)
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

    @pytest.mark.parametrize("rho, big_r, hypothesis", [
        (0.36, math.nan, "eta_radius"), (math.nan, 0.05, "rho_range"),
        (math.inf, 0.05, "rho_range"),
    ], ids=["big-r-nan", "rho-nan", "rho-inf"])
    def test_non_finite_geometry_fails_the_check_that_names_it(self, rho, big_r, hypothesis):
        # A NaN R passed [eta_radius] on every configuration, and a NaN or
        # infinite rho failed deep in `moduli` instead of at [rho_range].
        norm = PNorm(3, 3)
        configs = generate_strip_pairs(norm, 2, delta=1e-4, rho=0.36, seed=0,
                                       endpoint_gap_max=0.05)
        with pytest.raises(PreconditionError) as err:
            strip_experiments(norm, configs, 1e-4, rho, 2.0279, 3.5555, big_r)
        assert err.value.hypothesis == hypothesis

    def test_p3_configurations_pass(self):
        norm = PNorm(3, 3)
        rep = estimate_lambda(norm, 1 / 16, "full", samples=100000, seed=9)
        lam0 = 2.0 + (rep.lambda_hat - 2.0) * 0.98
        _, lam, _ = extend_constants_to(1 / 16, lam0, 1.0)
        bal = estimate_balanced(norm, 0.05, "full", samples=100000, seed=10)
        k_const = max(1.0, bal.k_hat * 1.05)
        pairs = generate_strip_pairs(norm, 10, delta=1e-4, rho=0.36, seed=7,
                                     endpoint_gap_max=0.05)
        for l, m, x0 in pairs:
            rep = strip_experiment(norm, l, m, x0, 1e-4, 0.36, lam, k_const, 0.05)
            assert rep.passed and rep.axya_ok

    def test_special_stick_is_chosen_whatever_the_order(self, monkeypatch):
        norm = PNorm(3, 3)
        l, m, x0 = generate_strip_pairs(norm, 1, delta=1e-4, rho=0.36, seed=0,
                                        endpoint_gap_max=0.05)[0]
        e = l.direction() / l.length(norm)
        real = sticks_module.moduli

        def l_ranked_first(norm, xs, ts, **opts):
            # sigma along l's direction exceeds sigma(ebar) by about 1e-6
            results = real(norm, xs, ts, **opts)
            for x, res in zip(xs, results):
                if np.allclose(x, e, rtol=0.0, atol=1e-12):
                    res.sigma += 1e-6
            return results

        monkeypatch.setattr(sticks_module, "moduli", l_ranked_first)
        rep = strip_experiment(norm, l, m, x0, *STRIP_ARGS)
        assert rep.sigma_e <= rep.sigma_ebar
        swapped = strip_experiment(norm, m, l, x0, *STRIP_ARGS)
        for f in dataclasses.fields(StripReport):
            got, want = getattr(rep, f.name), getattr(swapped, f.name)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f.name)

    def test_batch_equals_one_configuration_at_a_time(self):
        norm = PNorm(3, 3)
        configs = generate_strip_pairs(norm, 3, delta=1e-4, rho=0.36, seed=5,
                                       endpoint_gap_max=0.05)
        configs.append((configs[0][1], configs[0][0], configs[0][2]))   # swapped pair
        reports = strip_experiments(norm, configs, *STRIP_ARGS)
        assert len(reports) == len(configs)
        for (l, m, x0), rep in zip(configs, reports):
            want = strip_experiment(norm, l, m, x0, *STRIP_ARGS)
            for f in dataclasses.fields(StripReport):
                got, expect = getattr(rep, f.name), getattr(want, f.name)
                assert np.array_equal(got, expect), f.name
        assert strip_experiments(norm, [], *STRIP_ARGS) == []

    def test_batch_raises_the_first_configuration_error(self, monkeypatch):
        norm = PNorm(3, 3)
        good = generate_strip_pairs(norm, 1, delta=1e-4, rho=0.36, seed=0,
                                    endpoint_gap_max=0.05)[0]
        near = (good[0], good[1], good[2] + 10.0)      # fails after the first solve
        two_sticks = (Stick(ORIGIN, E1), Stick(E1, ORIGIN), ORIGIN)   # fails before it
        solved = []
        real = sticks_module.moduli

        def counting(norm, xs, ts, **kw):
            solved.append(len(ts))
            return real(norm, xs, ts, **kw)

        monkeypatch.setattr(sticks_module, "moduli", counting)

        def first_error(configs):
            return raised_hypothesis(lambda: strip_experiments(norm, configs, *STRIP_ARGS))

        assert first_error([near]) == "near"
        assert first_error([two_sticks]) == "two_sticks"
        solved.clear()
        assert first_error([near, two_sticks]) == "near"
        assert solved == [2]        # sigma(e), sigma(ebar) of config 0 only
        assert first_error([two_sticks, near]) == "two_sticks"
        assert first_error([good, two_sticks, near]) == "two_sticks"
        assert first_error([good, near, two_sticks]) == "near"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_axya_outside_the_strip_fails_the_verdict(self, sign, monkeypatch):
        norm = PNorm(3, 3)
        l, m, x0 = generate_strip_pairs(norm, 1, delta=1e-4, rho=0.36, seed=0,
                                        endpoint_gap_max=0.05)[0]
        real = sticks_module.moduli

        def ybar_along_ebar(norm, xs, ts, **opts):
            results = real(norm, xs, ts, **opts)
            if len(xs) == 1:    # the ybar solve: ybar = +-ebar gives axya = +-1
                ybar = sign * np.asarray(xs[0])
                results[0].maximizer_y, results[0].normal_at_y = ybar, norm.normal(ybar)
            return results

        monkeypatch.setattr(sticks_module, "moduli", ybar_along_ebar)
        rep = strip_experiment(norm, l, m, x0, *STRIP_ARGS)
        assert rep.axya_value == pytest.approx(sign, abs=1e-12) and rep.bound < 1.0
        # Only axya fails: the other parts of the verdict hold.
        assert rep.converged and abs(rep.projection) <= rep.bound
        assert rep.promise_lhs <= rep.promise_rhs
        assert not rep.axya_ok and not rep.passed

    def test_unconverged_solve_fails_closed(self, monkeypatch):
        norm = PNorm(3, 3)
        l, m, x0 = generate_strip_pairs(norm, 1, delta=1e-4, rho=0.36, seed=0,
                                        endpoint_gap_max=0.05)[0]
        args = (norm, l, m, x0, 1e-4, 0.36, 2.0279, 3.5555, 0.05)
        rep = strip_experiment(*args)
        assert rep.converged and rep.passed
        # No KKT residual is exactly zero, so no solve counts as converged.
        monkeypatch.setattr(convexity_module, "KKT_TOL", 0.0)
        rep = strip_experiment(*args)
        assert not rep.converged and not rep.passed


@pytest.mark.parametrize("length", [1.0, 3.0])
@pytest.mark.parametrize("perm, factors", [((2, 0, 1), (-2.0, 0.5, 4.0)),
                                           ((1, 0, 2), (0.25, -1.0, -8.0))],
                         ids=["cycle", "swap"])
def test_sticks_path_is_invariant_under_an_exact_linear_image(perm, factors, length):
    # Metamorphic control: under ||x||_A = ||Ax||_3 the ray family and the
    # verdicts of `sticks` are those of PNorm(3, 3) on the images of the
    # sites and queries, bit for bit.  The sites and queries are sticks-p3's;
    # at length 1 no query is skipped, at length 3 some are.
    norm = LinearImageNorm(PNorm(3, 3), perm, factors)
    rng = np.random.default_rng(0)
    sites = rng.uniform(-2.0, 2.0, size=(4, 3))
    queries = rng.uniform(-2.0, 2.0, size=(160, 3))
    family = build_ray_family(SiteSet(sites, norm), queries, length)
    image = build_ray_family(SiteSet(norm.image(sites), norm.inner), norm.image(queries),
                             length)
    assert len(family) >= 100 and bool(family.skipped) == (length == 3.0)
    assert family.site_index == image.site_index
    assert family.skipped == image.skipped
    starts, ends = family.endpoints()
    image_starts, image_ends = image.endpoints()
    assert norm.image(starts).tobytes() == image_starts.tobytes()
    assert norm.image(ends).tobytes() == image_ends.tobytes()

    i, j = np.triu_indices(len(family), k=1)
    t = 0.05 + 0.95 * rng.random(len(i))
    got = pair_verdicts(norm, starts[i], ends[i], starts[j], ends[j], t, q=2.0, p=3.0)
    want = pair_verdicts(norm.inner, image_starts[i], image_ends[i], image_starts[j],
                         image_ends[j], t, q=2.0, p=3.0)
    for name in ("len_l", "len_m", "two_sticks", "equal_length", "holder_ratio", "violated"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
