"""Nearest sites, distance-ray stick families and the strip-pair generator."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosticks import (
    EuclideanNorm,
    PNorm,
    SiteSet,
    build_ray_family,
    generate_strip_pairs,
    nearest_point,
    segment_point_distance,
    two_sticks_check,
)
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
    # Without the up-front check, drawing MAX_PROPOSALS proposals takes about 23 s.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="dim must be >= 2"):
        generate_strip_pairs(PNorm(3, 1), 1, 1e-4, 0.36, endpoint_gap_max=0.05)
    assert time.perf_counter() - start < 1.0
