"""Nearest sites, distance-ray stick families and the strip-pair generator."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosticks import (
    DegenerateSampleError,
    EuclideanNorm,
    PluginNorm,
    PNorm,
    SiteSet,
    build_ray_family,
    generate_strip_pairs,
    nearest_point,
    segment_point_distance,
    two_sticks_check,
)
from twosticks import atlas
from twosticks.atlas import TIE_TOL

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
    (PNorm(3, 3), 0, STRIP_ARGS),
], ids=["dim1", "gap0", "gap-negative", "delta0", "delta-quarter",
        "rho-3delta", "count0"])
def test_strip_pairs_reject_impossible_requests_before_drawing(norm, count, kwargs,
                                                                monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("a generator was seeded for a rejected request")

    monkeypatch.setattr(np.random, "default_rng", fail)
    with pytest.raises(ValueError):
        generate_strip_pairs(norm, count, **kwargs)


def test_strip_pairs_in_one_dimension_raise_at_once():
    # Without the up-front check, MAX_PROPOSALS proposals take about 17 s (2 vCPUs):
    # in one dimension the two sites coincide, so every query ties, and the
    # block screen leaves ties to the exact path.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="dim must be >= 2"):
        generate_strip_pairs(PNorm(3, 1), 1, 1e-4, 0.36, endpoint_gap_max=0.05)
    assert time.perf_counter() - start < 1.0


def reference_proposals(norm, delta, rho, seed, endpoint_gap_max):
    """Each proposal's (l, m, x0), or None when rejected, one proposal at a time.

    The reference for `generate_strip_pairs`: its per-proposal loop with no
    block screen, every proposal on the exact path (`continue` is `yield None`).
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
    """`generate_strip_pairs` with no block screen: every proposal on the exact path."""
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


@pytest.mark.parametrize("make_norm", MATRIX_NORMS,
                         ids=["euclidean", "p1.25", "p1.5", "p3", "p4", "plugin-p2.5"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_strip_pairs_match_the_one_proposal_loop(make_norm, dim):
    # Over the 18 cases of each test, about 36k proposals in all, every
    # proposal `_screen` drops is also one the loop rejects.
    norm = make_norm(dim)
    proposals = kept = 0
    for delta, seed in itertools.product((1e-3, 1e-4, 1e-5), range(6)):
        verdicts = []
        for config in reference_proposals(norm, delta, 0.36, seed, 0.2):
            verdicts.append(config is not None)
            if config is not None:
                break
        assert_same_configs(generate_strip_pairs(norm, 1, delta, 0.36, seed=seed), [config])
        normals, uniforms = atlas._draw_block(np.random.default_rng(seed), len(verdicts), dim)
        screened = atlas._screen(norm, delta, normals, uniforms)
        assert not np.any(np.array(verdicts) & ~screened)
        proposals += len(verdicts)
        kept += int(np.count_nonzero(screened))
    assert kept <= 0.1 * proposals, (kept, proposals)


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
