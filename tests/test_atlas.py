"""Nearest sites, distance-ray stick families and the strip-pair generator."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosticks import (
    DegenerateSampleError,
    EuclideanNorm,
    PNorm,
    SiteSet,
    Stick,
    build_ray_family,
    generate_strip_pairs,
    nearest_point,
    segment_point_distance,
    two_sticks_check,
)
from twosticks import atlas, sticks
from twosticks.atlas import TIE_TOL

import oracles
from oracles import PluginNorm

NORMS = [EuclideanNorm(2), EuclideanNorm(3), PNorm(3, 2), PNorm(3, 3), PNorm(1.5, 3)]
coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def brute_nearest(norm, sites, x):
    """Plain loop over the sites: (index, distance, unique)."""
    dists = [float(norm.value(site - x)) for site in sites]
    best = 0
    for i, d in enumerate(dists):
        if d < dists[best]:
            best = i
    ties = sum(1 for d in dists if d <= dists[best] + TIE_TOL)
    return best, dists[best], ties == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NORMS), st.data())
def test_nearest_point_matches_brute_force(norm, data):
    n_sites = data.draw(st.integers(1, 7))
    sites = np.array(data.draw(st.lists(st.lists(coord, min_size=norm.dim, max_size=norm.dim),
                                        min_size=n_sites, max_size=n_sites)))
    x = np.array(data.draw(st.lists(coord, min_size=norm.dim, max_size=norm.dim)))
    hit = nearest_point(SiteSet(sites, norm), x)
    index, distance, unique = brute_nearest(norm, sites, x)
    # One batched evaluation and one per row may differ in the last bit.
    assert hit.distance == pytest.approx(distance, rel=1e-14, abs=0.0)
    assert hit.unique == unique
    if unique:
        assert hit.index == index
    assert np.array_equal(hit.site, sites[hit.index])
    assert float(norm.value(hit.site - x)) <= distance + TIE_TOL


@pytest.mark.parametrize("norm", [EuclideanNorm(2), PNorm(3, 2)], ids=repr)
def test_nearest_point_exact_tie_is_not_unique(norm):
    x = np.array([0.25, -0.5])
    sites = np.array([[1.25, -0.5], [-0.75, -0.5], [0.25, 3.0]])
    hit = nearest_point(SiteSet(sites, norm), x)
    assert not hit.unique
    assert (hit.index, hit.distance) == (0, 1.0)
    assert brute_nearest(norm, sites, x) == (0, 1.0, False)


@pytest.mark.parametrize("norm", NORMS, ids=repr)
@pytest.mark.parametrize("seed", [0, 1])
def test_ray_family_pairs_are_two_sticks_of_common_length(norm, seed):
    rng = np.random.default_rng(seed)
    length = 0.75
    sites = SiteSet(rng.uniform(-2, 2, size=(4, norm.dim)), norm)
    family = build_ray_family(sites, rng.uniform(-2, 2, size=(30, norm.dim)), length)
    assert len(family) >= 10
    for stick in family.sticks:
        assert abs(stick.length(norm) - length) <= 1e-9
    for i, l in enumerate(family.sticks):
        for m in family.sticks[i + 1:]:
            assert two_sticks_check(norm, l, m) and two_sticks_check(norm, m, l)


STRIP_ARGS = dict(delta=1e-4, rho=0.36, endpoint_gap_max=0.05)


@pytest.fixture(scope="module")
def strip_pairs():
    return generate_strip_pairs(PNorm(3, 3), 4, seed=3, **STRIP_ARGS)


def test_strip_pairs_meet_the_ball_and_clear_rho(strip_pairs):
    norm, delta, rho = PNorm(3, 3), STRIP_ARGS["delta"], STRIP_ARGS["rho"]
    assert len(strip_pairs) == 4
    for l, m, x0 in strip_pairs:
        assert segment_point_distance(norm, l, x0)[0] <= delta
        assert segment_point_distance(norm, m, x0)[0] <= delta
        for point in (l.start, l.end, m.start, m.end):
            assert float(norm.value(point - x0)) > rho


def test_strip_pairs_are_deterministic(strip_pairs):
    again = generate_strip_pairs(PNorm(3, 3), 4, seed=3, **STRIP_ARGS)
    for (l, m, x0), (l2, m2, x02) in zip(strip_pairs, again):
        for a, b in ((l.start, l2.start), (l.end, l2.end), (m.start, m2.start),
                     (m.end, m2.end), (x0, x02)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("norm, count, kwargs", [
    (EuclideanNorm(1), 1, STRIP_ARGS),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, endpoint_gap_max=0.0)),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, endpoint_gap_max=-1.0)),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, delta=0.0)),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, delta=0.25)),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, rho=3e-4)),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, rho=np.nan)),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, rho=np.inf)),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, rho=0.5 + 0.4 * STRIP_ARGS["delta"])),
    (PNorm(3, 3), 1, dict(STRIP_ARGS, rho=0.6)),
    (PNorm(3, 3), 0, STRIP_ARGS),
], ids=["dim1", "gap0", "gap-negative", "delta0", "delta-quarter",
        "rho-3delta", "rho-nan", "rho-inf", "rho-bound", "rho-0.6", "count0"])
def test_strip_pairs_reject_impossible_requests_before_drawing(norm, count, kwargs,
                                                                monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("a generator was seeded for a rejected request")

    monkeypatch.setattr(np.random, "default_rng", fail)
    with pytest.raises(ValueError):
        generate_strip_pairs(norm, count, **kwargs)


def test_strip_pairs_just_below_the_rho_bound():
    # The bound 1/2 + 0.4 delta is nearly tight: nothing below it is refused.
    norm, rho = EuclideanNorm(2), 0.4999
    pairs = generate_strip_pairs(norm, 3, 1e-4, rho, seed=0, endpoint_gap_max=0.05)
    assert len(pairs) == 3
    for l, m, x0 in pairs:
        for point in (l.start, l.end, m.start, m.end):
            assert float(norm.value(point - x0)) > rho


@pytest.mark.parametrize("norm", NORMS + [PNorm(8, 3), PNorm(1.1, 2)], ids=repr)
def test_no_proposal_clears_the_rho_bound(norm):
    # The module docstring's bound: one end of each stick lies within
    # 1/2 + 0.4 delta of x0, whatever the norm and the draw.
    delta = 1e-2
    normals, uniforms = atlas._draw_block(np.random.default_rng(4), 400, norm.dim)
    _, x0, sites, queries = atlas._screen(norm, delta, 0.0, 1.0, normals, uniforms)
    own = norm.value(queries - sites)
    ends = sites + (queries - sites) / own[..., None]
    start_clear = norm.value(sites - x0[:, None])
    end_clear = norm.value(ends - x0[:, None])
    closest = np.minimum(start_clear, end_clear)
    assert np.all(closest <= 0.5 + 0.4 * delta)
    assert np.max(closest) > 0.499     # and some proposals come near it


def test_strip_pairs_in_one_dimension_raise_at_once():
    # Without the up-front check, MAX_PROPOSALS proposals take about 1.7 s
    # (2 vCPUs): in one dimension the two sites coincide, so every query ties.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="dim must be >= 2"):
        generate_strip_pairs(PNorm(3, 1), 1, 1e-4, 0.36, endpoint_gap_max=0.05)
    assert time.perf_counter() - start < 1.0


def reference_proposals(norm, delta, rho, seed, endpoint_gap_max):
    """Each proposal's (l, m, x0), or None when rejected, one proposal at a time.

    The reference for `generate_strip_pairs`: each proposal alone, through
    `build_ray_family` and `two_sticks_check` (`continue` is `yield None`).
    """
    rng = np.random.default_rng(seed)
    n = norm.dim
    while True:
        x0 = rng.standard_normal(n) * 0.1
        e = rng.standard_normal(n)
        e = e / float(norm._value(e))
        spread = delta * rng.uniform(0.5, 4.0)
        ebar = e + spread * rng.standard_normal(n)
        ebar = ebar / float(norm._value(ebar))

        tau = rng.uniform(0.42, 0.58)
        xi1 = rng.standard_normal(n)
        xi1 = xi1 / float(norm._value(xi1)) * 0.4 * delta * rng.uniform(0.0, 1.0)
        xi2 = rng.standard_normal(n)
        xi2 = xi2 / float(norm._value(xi2)) * 0.4 * delta * rng.uniform(0.0, 1.0)
        q1 = x0 + xi1
        q2 = x0 + xi2

        sites = SiteSet(np.array([x0 - tau * e, x0 - tau * ebar]), norm)
        family = build_ray_family(sites, [q1, q2], 1.0)
        if len(family) != 2 or family.site_index != [0, 1]:
            yield None
            continue
        l, m = family.sticks
        if not two_sticks_check(norm, l, m):
            yield None
            continue
        if float(norm._value(l.end - m.end)) > endpoint_gap_max:
            yield None
            continue
        endpoints_clear = all(
            float(norm._value(p - x0)) > rho * (1.0 + 1e-9)
            for p in (l.start, l.end, m.start, m.end))
        if not endpoints_clear:
            yield None
            continue
        if segment_point_distance(norm, l, x0)[0] > delta:
            yield None
            continue
        if segment_point_distance(norm, m, x0)[0] > delta:
            yield None
            continue
        yield l, m, x0


def reference_strip_pairs(norm, count, delta, rho, seed=0, *, endpoint_gap_max=0.2,
                          max_proposals=atlas.MAX_PROPOSALS):
    """`generate_strip_pairs` one proposal at a time, through `reference_proposals`."""
    out = []
    proposals = reference_proposals(norm, delta, rho, seed, endpoint_gap_max)
    for config in itertools.islice(proposals, max_proposals):
        if config is not None:
            out.append(config)
            if len(out) == count:
                return out
    raise DegenerateSampleError(
        f"only {len(out)} admissible configurations in {max_proposals} tries")


def assert_same_configs(got, want):
    assert len(got) == len(want)
    for (l, m, x0), (l2, m2, x02) in zip(got, want):
        for a, b in ((l.start, l2.start), (l.end, l2.end), (m.start, m2.start),
                     (m.end, m2.end), (x0, x02)):
            assert a.tobytes() == b.tobytes()


def p25(dim):
    return PluginNorm(lambda v: float(np.sum(np.abs(v) ** 2.5) ** 0.4), dim, "p2.5")


MATRIX_NORMS = [EuclideanNorm, *(lambda d, p=p: PNorm(p, d) for p in (1.25, 1.5, 3, 4)), p25]
MATRIX_IDS = ["euclidean", "p1.25", "p1.5", "p3", "p4", "plugin-p2.5"]


# (delta, seed, rho, endpoint_gap_max): 18 cases, then ones where the
# rho-clearance (rho = 0.45) and the endpoint gap (delta / 2) reject
# proposals that pass every other test.
LOOP_CASES = [*((delta, seed, 0.36, 0.2)
                for delta, seed in itertools.product((1e-3, 1e-4, 1e-5), range(6))),
              *((delta, seed, rho, gap)
                for delta, seed in itertools.product((1e-3, 1e-4, 1e-5), range(2))
                for rho, gap in ((0.45, 0.2), (0.36, delta / 2)))]


@pytest.mark.parametrize("make_norm", MATRIX_NORMS, ids=MATRIX_IDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_strip_pairs_match_the_one_proposal_loop(make_norm, dim):
    # The block screen is the loop's verdict on every proposal up to the
    # loop's first acceptance, the loop's two ball searches included: the
    # screen's ball mask is the certificate that the construction gives.
    norm = make_norm(dim)
    for delta, seed, rho, gap in LOOP_CASES:
        verdicts = []
        for config in reference_proposals(norm, delta, rho, seed, gap):
            verdicts.append(config is not None)
            if config is not None:
                break
        assert_same_configs(
            generate_strip_pairs(norm, 1, delta, rho, seed=seed, endpoint_gap_max=gap), [config])
        normals, uniforms = atlas._draw_block(np.random.default_rng(seed), len(verdicts), dim)
        assert atlas._screen(norm, delta, rho, gap, normals, uniforms)[0].tolist() == verdicts


def assert_sticks_meet_the_ball(norm, configs, delta):
    assert configs
    for l, m, x0 in configs:
        assert segment_point_distance(norm, l, x0)[0] <= delta
        assert segment_point_distance(norm, m, x0)[0] <= delta


@pytest.mark.parametrize("make_norm", MATRIX_NORMS, ids=MATRIX_IDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_strip_pairs_meet_the_ball_by_the_search(make_norm, dim):
    # The generator takes the ball test from its construction; the search
    # along each stick must agree on every configuration it emits.
    norm = make_norm(dim)
    for delta, seed in itertools.product((1e-3, 1e-4, 1e-5), range(3)):
        assert_sticks_meet_the_ball(norm, generate_strip_pairs(norm, 2, delta, 0.36, seed=seed),
                                    delta)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strip_pairs_meet_the_ball_by_the_search_at_delta_1e_6(dim, seed):
    # At delta = 1e-6 almost every query ties within TIE_TOL; of the matrix's
    # norms p1.25 still accepts in two and three dimensions.
    norm = PNorm(1.25, dim)
    assert_sticks_meet_the_ball(norm, generate_strip_pairs(norm, 2, 1e-6, 0.36, seed=seed), 1e-6)


@pytest.mark.parametrize("seed", [0, 1, 28, 2**40 + 3])
@pytest.mark.parametrize("size, dim", [(1, 2), (7, 3), (300, 4)])
def test_draw_block_matches_a_loop_of_rng_uniform(seed, size, dim):
    # The same bits as drawing each proposal with rng.uniform, and the
    # generator left in the same state.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    normals, uniforms = atlas._draw_block(rng, size, dim)
    for z, u in zip(normals, uniforms):
        draws = [ref.standard_normal(dim), ref.standard_normal(dim), ref.uniform(0.5, 4.0),
                 ref.standard_normal(dim), ref.uniform(0.42, 0.58), ref.standard_normal(dim),
                 ref.uniform(0.0, 1.0), ref.standard_normal(dim), ref.uniform(0.0, 1.0)]
        assert z.tobytes() == np.array(draws[0:2] + draws[3:8:2]).tobytes()
        assert u.tobytes() == np.array(draws[2:9:2]).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


STRIP_P3 = (PNorm(3, 3), 20, 1e-4, 0.36)


@pytest.fixture(scope="module")
def strip_p3_reference():
    return reference_strip_pairs(*STRIP_P3, seed=0)


@pytest.mark.parametrize("block", [1, 1000])
def test_strip_pairs_do_not_depend_on_the_block_size(block, strip_p3_reference, monkeypatch):
    monkeypatch.setattr(atlas, "PROPOSAL_BLOCK", block)
    assert_same_configs(generate_strip_pairs(*STRIP_P3, seed=0), strip_p3_reference)


@pytest.mark.parametrize("max_proposals", [30, 100])
def test_strip_pairs_give_up_where_the_one_proposal_loop_does(max_proposals, monkeypatch):
    with pytest.raises(DegenerateSampleError) as want:
        reference_strip_pairs(*STRIP_P3, seed=0, max_proposals=max_proposals)
    monkeypatch.setattr(atlas, "MAX_PROPOSALS", max_proposals)
    with pytest.raises(DegenerateSampleError) as got:
        generate_strip_pairs(*STRIP_P3, seed=0)
    assert str(got.value) == str(want.value)


def test_strip_pairs_run_the_exact_path_on_few_proposals(strip_p3_reference, monkeypatch):
    # The one-proposal loop builds a ray family for each of 1,029 proposals here.
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return build_ray_family(*args, **kwargs)

    monkeypatch.setattr(atlas, "build_ray_family", counting)
    assert_same_configs(generate_strip_pairs(*STRIP_P3, seed=0), strip_p3_reference)
    assert len(strip_p3_reference) <= len(calls) <= 25


def test_strip_pairs_check_no_proposal_alone(strip_p3_reference, monkeypatch):
    # Only the proposals that pass every mask get a ray family, and each is
    # accepted: no pair is checked on its own and no stick is searched for
    # its distance to x0.
    def alone(*args, **kwargs):
        raise AssertionError("a pair was checked alone")

    def search(*args, **kwargs):
        raise AssertionError("a stick was searched")

    passed, families = [], []
    real_screen = atlas._screen

    def screen(*args):
        out = real_screen(*args)
        passed.append(int(np.count_nonzero(out[0])))
        return out

    def family(*args):
        families.append(1)
        return build_ray_family(*args)

    monkeypatch.setattr(sticks, "two_sticks_check", alone)
    monkeypatch.setattr(atlas, "two_sticks_check", alone, raising=False)
    monkeypatch.setattr(sticks, "segment_point_distance", search)
    monkeypatch.setattr(sticks, "minimize_scalar", search)
    monkeypatch.setattr(atlas, "segment_point_distance", search, raising=False)
    monkeypatch.setattr(atlas, "_screen", screen)
    monkeypatch.setattr(atlas, "build_ray_family", family)
    assert_same_configs(generate_strip_pairs(*STRIP_P3, seed=0), strip_p3_reference)
    assert len(strip_p3_reference) == len(families) <= sum(passed)


PARITY_NORMS = [EuclideanNorm, *(lambda d, p=p: PNorm(p, d) for p in (1.5, 3, 4)), p25]
PARITY_IDS = ["euclidean", "p1.5", "p3", "p4", "plugin-p2.5"]


def assert_same_family(got, want):
    assert len(got) == len(want)
    for l, l2 in zip(got.sticks, want.sticks):
        assert np.array_equal(l.start, l2.start) and l.start.tobytes() == l2.start.tobytes()
        assert np.array_equal(l.end, l2.end) and l.end.tobytes() == l2.end.tobytes()
    assert got.site_index == want.site_index
    assert got.skipped == want.skipped
    assert got.length == want.length


@pytest.mark.parametrize("make_norm", PARITY_NORMS, ids=PARITY_IDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 2, 160])
def test_ray_family_matches_the_one_query_loop(make_norm, dim, count):
    norm = make_norm(dim)
    rng = np.random.default_rng(100 * dim + count)
    sites = SiteSet(rng.uniform(-2, 2, size=(5, dim)), norm)
    queries = rng.uniform(-2, 2, size=(count, dim))
    family = build_ray_family(sites, queries, 0.75)
    assert_same_family(family, oracles.ray_family_loop(sites, queries, 0.75))
    if count == 160:
        assert len(family) >= 20


@pytest.mark.parametrize("make_norm", PARITY_NORMS, ids=PARITY_IDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ray_family_skips_a_tie_and_a_long_ray_like_the_loop(make_norm, dim):
    # Query 0 is exactly as far from site 0 as from site 1.  Queries 1 and 2
    # are nearest site 0; query 1's ray, of length 3, crosses into site 2's
    # region, and query 2's stays in site 0's.
    norm = make_norm(dim)
    e = np.eye(dim)
    sites = SiteSet(np.array([e[0], -e[0], 4.0 * e[0]]), norm)
    queries = np.array([0.5 * e[1], 1.5 * e[0] + 0.2 * e[1], 1.1 * e[0] - 0.5 * e[1]])
    family = build_ray_family(sites, queries, 3.0)
    assert family.skipped == [(0, "tied nearest site"),
                              (1, "extension left the nearest-site region")]
    assert family.site_index == [0]
    assert_same_family(family, oracles.ray_family_loop(sites, queries, 3.0))


@pytest.mark.parametrize("block_rows", [None, 1, 3, 9])
def test_ray_family_does_not_depend_on_the_block(block_rows, monkeypatch):
    # 160 queries and 60 sites make 9,600 query-site rows, more than one
    # BLOCK_ROWS block of 8,192; the patched sizes give blocks of one query,
    # of one query though 60 sites exceed it, and of two queries with 4 sites.
    rng = np.random.default_rng(7)
    for norm, n_sites in ((PNorm(3, 3), 60), (EuclideanNorm(3), 60), (PNorm(1.5, 2), 4)):
        sites = SiteSet(rng.uniform(-2, 2, size=(n_sites, norm.dim)), norm)
        queries = rng.uniform(-2, 2, size=(160, norm.dim))
        want = oracles.ray_family_loop(sites, queries, 0.2)
        if block_rows is not None:
            monkeypatch.setattr(atlas, "BLOCK_ROWS", block_rows)
        assert_same_family(build_ray_family(sites, queries, 0.2), want)
        monkeypatch.undo()


def raised(build, sites, queries, length):
    with pytest.raises(Exception) as info:
        build(sites, queries, length)
    return type(info.value), str(info.value)


E3 = np.eye(3)
# A query 1.7e-11 from site 0, whose ray of length 1e300 overflows to inf;
# TIED, equally far from all three sites, is skipped before its ray is made.
NEAR_SITE = E3[0] + 1e-11
TIED = np.zeros(3)
ERROR_CASES = {
    "length-zero": ([[np.nan, 0.0, 0.0]], 0.0, "length must be positive"),
    "length-negative": ([[5.0, 5.0]], -1.0, "length must be positive"),
    "nan-query": ([[0.3, 0.2, 0.1], [np.nan, 0.0, 0.0], E3[0]], 1.0,
                  "input has non-finite entries"),
    "inf-query": ([[0.3, 0.2, 0.1], [0.0, -np.inf, 0.0]], 1.0,
                  "input has non-finite entries"),
    "nan-query-alone": ([[np.nan, np.nan, np.nan]], 1.0, "input has non-finite entries"),
    "wrong-dim": ([[0.3, 0.2], [0.1, 0.4]], 1.0,
                  "dimension mismatch: last axis must be 3, got shape (2,)"),
    "three-axes": (np.full((2, 2, 3), 0.3), 1.0,
                   "expected a 1-d vector, got shape (2, 3)"),
    "zero-width": (np.empty((2, 0)), 1.0, "expected a 1-d vector, got shape (0,)"),
    "empty-vector": (np.empty(0), 1.0, "expected a 1-d vector, got shape (0,)"),
    "site-query": ([[0.3, 0.2, 0.1], E3[1], [np.nan, 0.0, 0.0]], 1.0,
                   "query 1 lies in the site set"),
    "site-query-before-end": ([TIED, E3[2], NEAR_SITE], 1e300,
                              "query 1 lies in the site set"),
    "end-before-site-query": ([TIED, NEAR_SITE, E3[2]], 1e300,
                              "input has non-finite entries"),
    "end-before-nan-query": ([NEAR_SITE, [np.nan, 0.0, 0.0]], 1e300,
                             "input has non-finite entries"),
}


@pytest.mark.parametrize("make_norm", PARITY_NORMS, ids=PARITY_IDS)
@pytest.mark.parametrize("case", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_ray_family_raises_what_the_loop_raises_first(make_norm, case):
    # Under the suite's warnings-as-errors filter: a NaN query is reported as
    # non-finite, not as lying in the site set (where a p-norm puts it at
    # distance 0), and no stacked row raises a floating-point warning.
    queries, length, message = case
    sites = SiteSet(E3, make_norm(3))
    want = raised(oracles.ray_family_loop, sites, queries, length)
    assert want == (ValueError, message)
    assert raised(build_ray_family, sites, queries, length) == want


def test_ray_family_of_no_queries_is_empty():
    sites = SiteSet(E3, PNorm(3, 3))
    for queries in (np.empty((0, 3)), np.empty((0, 5)), np.empty((0, 2, 3))):
        family = build_ray_family(sites, queries, 1.0)
        assert_same_family(family, oracles.ray_family_loop(sites, queries, 1.0))
        assert len(family) == 0 and family.skipped == []


@pytest.mark.parametrize("make_norm", PARITY_NORMS, ids=PARITY_IDS)
def test_ray_family_sticks_are_what_stick_builds(make_norm):
    # The family builds its sticks from rows it has checked, without
    # `Stick`'s checks; each must still be what `Stick(start, end)` makes,
    # holding rows of its own.
    norm = make_norm(3)
    rng = np.random.default_rng(11)
    sites = SiteSet(rng.uniform(-2, 2, size=(4, 3)), norm)
    queries = rng.uniform(-2, 2, size=(40, 3))
    family = build_ray_family(sites, queries, 1.0)
    assert len(family) >= 20
    rows = []
    for stick in family.sticks:
        built = Stick(stick.start, stick.end)
        for got, want in ((stick.start, built.start), (stick.end, built.end)):
            assert got.dtype == np.float64 and got.shape == (3,) and got.flags.owndata
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, queries)
            assert not np.shares_memory(got, sites.sites)
        rows += [stick.start, stick.end]
    for a, b in itertools.combinations(rows, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("start, end", [([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                        ([0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]),
                                        ([0.0, 0.0, 0.0], [1.0, 0.0])],
                         ids=["nan-start", "inf-end", "short-end"])
def test_stick_still_checks_its_endpoints(start, end):
    with pytest.raises(ValueError):
        Stick(start, end)
