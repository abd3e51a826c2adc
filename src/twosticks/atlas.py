"""Stick families as rays of the norm distance function to a finite site set.

If l0 is a nearest site to l1 and m0 one to m1, the segments [l0, l1] and
[m0, m1] satisfy the two-sticks condition, so rays shot from nearest sites
toward query points give honest two-sticks pairs of a common length.
`build_ray_family` finds the nearest sites of all its queries, then of all
their extended endpoints, in stacked norm evaluations (`_nearest`, which
`nearest_point` calls on one query), and keeps the sticks in query order.

`generate_strip_pairs` builds each strip configuration from two such rays
and draws its proposals by rejection, PROPOSAL_BLOCK at a time.  `_screen`
builds a whole block and takes every test as a mask over it:
`build_ray_family`'s site tests of the queries and extended endpoints, its
distance identity at the endpoints, the two-sticks check, the endpoint gap,
the rho-clearance and the delta-ball test.  Each mask rounds as one
proposal alone does, since a norm kernel gives every row the bits of its
one-vector call.  The few proposals that pass every mask go in draw order
through `build_ray_family`, which makes their sticks.  So blocks change
neither the draws nor a verdict.

The ball test is the construction's certificate, not a search: a query
q = x0 + xi, ||xi|| <= 0.4 delta, lies on its stick [s, s + (q - s)/own],
own = ||q - s||, at parameter own <= tau + 0.4 delta < 1, so dist(stick,
x0) <= ||q - x0|| < delta.  The mask tests own <= 1 and ||q - x0|| <= delta,
a sufficient condition.  It and the two-sticks and endpoint-identity masks
hold by construction: no input tried has made one bind, so dropping one
fails no test.

The construction also bounds rho.  A stick's start s lies at distance tau
from x0, its end within 1 - own + ||xi|| <= 1 - tau + 0.8 delta (triangle
inequality, own >= tau - ||xi||), so in every norm one of them lies within
1/2 + 0.4 delta of x0.  The clearance mask asks for more than rho (1 + 1e-9),
so it fails every proposal at rho >= 1/2 + 0.4 delta: `generate_strip_pairs`
refuses such a rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .convexity import BLOCK_ROWS, DegenerateSampleError, _check_radius
from .norms import Norm, as_vector
from .sticks import Stick, _pair_checks

# Sites whose distances to a query differ by at most TIE_TOL tie.  It is
# absolute: a site set carries no scale, and at the distances of order 1 of
# every family built here 1e-12 is a rounding guard of some thousands of
# ulps.  Its cost falls on the strip generator, whose two sites' distances to
# a query differ by about 0.12 delta^2 (median of 2,000 p = 3 draws): 0.2% of
# its queries tie at delta = 1e-4, 11% at 1e-5 and 94% at 1e-6, so
# `strip --norm p:3 --delta 1e-6` accepts nothing.  Scaling it with delta
# changes which proposals are accepted.
TIE_TOL = 1e-12
# Proposals `generate_strip_pairs` draws before it gives up.
MAX_PROPOSALS = 100000
# Proposals `generate_strip_pairs` draws and screens together.
PROPOSAL_BLOCK = 64


class NearestResult(NamedTuple):
    site: np.ndarray
    distance: float
    unique: bool
    index: int


@dataclass
class SiteSet:
    """A finite set of sites together with the norm measuring distances."""

    sites: np.ndarray
    norm: Norm

    def __post_init__(self):
        self.sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        if self.sites.shape[0] < 1:
            raise ValueError("need at least one site")
        if self.sites.shape[1] != self.norm.dim:
            raise ValueError("site dimension does not match the norm")
        if not np.all(np.isfinite(self.sites)):
            raise ValueError("sites must be finite")


def _nearest(norm: Norm, sites: np.ndarray, queries: np.ndarray) -> tuple:
    """(index, distance, unique) of each query's nearest site, as `nearest_point`
    gives them, from stacked evaluations of at most BLOCK_ROWS query-site rows."""
    step = max(1, BLOCK_ROWS // len(sites))
    d = np.concatenate([np.empty((0, len(sites)))] + [
        norm._value(sites - queries[lo:lo + step, None]) for lo in range(0, len(queries), step)])
    index = d.argmin(axis=1)
    dmin = d[np.arange(len(d)), index]
    return index, dmin, (d <= (dmin + TIE_TOL)[:, None]).sum(axis=1) == 1


def nearest_point(sites: SiteSet, x) -> NearestResult:
    """Exhaustive nearest-site query; `unique` is False on ties within 1e-12."""
    x = as_vector(x, sites.norm.dim)
    (idx,), (dmin,), (unique,) = _nearest(sites.norm, sites.sites, x[None])
    return NearestResult(site=sites.sites[idx].copy(), distance=float(dmin),
                         unique=bool(unique), index=int(idx))


@dataclass
class RayFamily:
    """Equal-length sticks anchored at their nearest sites.

    Every stick starts at a site, has norm length `length`, and keeps that
    site nearest at its far endpoint, so ||end - start|| = dist(end, sites).
    `skipped` records (query index, reason) for discarded queries.
    """

    sticks: list
    length: float
    site_index: list
    skipped: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sticks)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        starts = np.array([s.start for s in self.sticks])
        ends = np.array([s.end for s in self.sticks])
        return starts, ends


def build_ray_family(sites: SiteSet, query_points, length: float) -> RayFamily:
    """One stick per query: from its nearest site toward the query, extended to
    exact norm length.  Queries with tied nearest sites are skipped, and so are
    rays whose extension leaves the nearest-site region (the distance-function
    identity would break there).

    The queries are checked once, and two stacked passes find the sites of all
    of them and of their endpoints; an error is the first one-by-one checks raise.
    The sticks are built from those checked rows without checking them again,
    each holding its own copies, equal to what `Stick(start, end)` holds.
    """
    _check_radius(length, "length")
    queries = np.atleast_2d(np.asarray(query_points, dtype=float))
    norm, points = sites.norm, sites.sites
    if len(queries):  # every row has the first's shape: check it once
        as_vector(queries[0], norm.dim)
    queries = queries.reshape(-1, norm.dim)  # an empty batch of any shape is empty
    n = int(np.argmin(np.append(np.isfinite(queries).all(axis=1), False)))  # first non-finite
    index, dist, unique = _nearest(norm, points, queries[:n])
    start = points[index]
    with np.errstate(all="ignore"):  # a site-set query divides by 0, a long ray overflows
        ends = start + (length / dist)[:, None] * (queries[:n] - start)
    ends_finite = np.isfinite(ends).all(axis=1)
    rechecks = zip(*(a.tolist() for a in _nearest(
        norm, points, ends[unique & (dist > 1e-12) & ends_finite])))
    sticks, indices, skipped = [], [], []
    for qi, (i, d, u, end_finite) in enumerate(zip(
            index.tolist(), dist.tolist(), unique.tolist(), ends_finite.tolist())):
        if d <= 1e-12:
            raise ValueError(f"query {qi} lies in the site set")
        if not u:
            skipped.append((qi, "tied nearest site"))
            continue
        if not end_finite:
            raise ValueError("input has non-finite entries")
        j, d_end, u_end = next(rechecks)
        if j != i or not u_end:
            skipped.append((qi, "extension left the nearest-site region"))
            continue
        if abs(d_end - length) > 1e-9 * (1.0 + length):
            skipped.append((qi, "distance identity failed at the extended endpoint"))
            continue
        sticks.append(Stick._unchecked(start[qi].copy(), ends[qi].copy()))
        indices.append(i)
    if n < len(queries):
        raise ValueError("input has non-finite entries")
    return RayFamily(sticks=sticks, length=float(length), site_index=indices,
                     skipped=skipped)


def _draw_block(rng, size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw draws of `size` proposals, in the order one proposal draws them.

    normals[i] holds proposal i's x0, e, ebar-noise, xi1 and xi2 draws;
    uniforms[i] its spread, tau and the two query radii.
    """
    normals = np.empty((size, 5, n))
    uniforms = np.empty((size, 4))
    # rng.uniform(a, b) is numpy's a + (b - a) * rng.random(), and
    # rng.uniform(0, 1) is rng.random(): the same bits and generator state,
    # without uniform's call overhead.
    random = rng.random
    for z, u in zip(normals, uniforms):
        rng.standard_normal(out=z[0])
        rng.standard_normal(out=z[1])
        u[0] = 0.5 + (4.0 - 0.5) * random()
        rng.standard_normal(out=z[2])
        u[1] = 0.42 + (0.58 - 0.42) * random()
        rng.standard_normal(out=z[3])
        u[2] = random()
        rng.standard_normal(out=z[4])
        u[3] = random()
    return normals, uniforms


def _own_and_other(norm: Norm, points: np.ndarray, sites: np.ndarray) -> tuple:
    """(||p_k - s_k||, ||p_k - s_(1-k)||) for k = 0, 1, for each proposal of a
    block."""
    d = norm._value(sites[:, None] - points[:, :, None])
    return d[:, [0, 1], [0, 1]], d[:, [0, 1], [1, 0]]


def _screen(norm: Norm, delta: float, rho: float, endpoint_gap_max: float,
            normals: np.ndarray, uniforms: np.ndarray) -> tuple:
    """(mask, x0, sites, queries) of a block of proposals: the mask of those
    that pass every test, and each proposal's x0, its two sites and its two
    queries, as one proposal alone builds them."""
    v = norm._value(normals[:, [1, 3, 4]])
    e = normals[:, 1] / v[:, 0, None]
    ebar = e + (delta * uniforms[:, 0])[:, None] * normals[:, 2]
    ebar = ebar / norm._value(ebar)[:, None]
    x0 = normals[:, 0] * 0.1
    xi = normals[:, 3:] / v[:, 1:, None] * 0.4 * delta * uniforms[:, 2:, None]
    # Both sites at distance tau from x0, so x0 sits on their bisector and
    # the nearby queries can fall on either side of it.  Every query is at
    # least tau - 0.4 delta > 0.3 from both sites, so no distance is 0.
    sites = x0[:, None] - uniforms[:, 1, None, None] * np.stack([e, ebar], axis=1)
    queries = x0[:, None] + xi
    own, other = _own_and_other(norm, queries, sites)
    ends = sites + (1.0 / own)[..., None] * (queries - sites)
    end_own, end_other = _own_and_other(norm, ends, sites)
    # `build_ray_family`'s tests of a ray of length 1: query and endpoint
    # keep their own site by more than TIE_TOL, and the endpoint lies at
    # distance 1 from it.
    ok = np.all((other > own + TIE_TOL) & (end_other > end_own + TIE_TOL)
                & (np.abs(end_own - 1.0) <= 1e-9 * (1.0 + 1.0)), axis=1)
    # The pair and ball tests, on the few proposals whose rays both stand.
    live = np.flatnonzero(ok)
    s, t = sites[live], ends[live]
    pair = _pair_checks(norm, s[:, 0], t[:, 0], s[:, 1], t[:, 1]).two_sticks
    pair &= norm._value(t[:, 0] - t[:, 1]) <= endpoint_gap_max
    clearance = norm._value(np.concatenate([s, t], axis=1) - x0[live, None])
    near = (own[live] <= 1.0) & (norm._value(queries[live] - x0[live, None]) <= delta)
    ok[live] = pair & np.all(clearance > rho * (1.0 + 1e-9), axis=1) & np.all(near, axis=1)
    return ok, x0, sites, queries


def generate_strip_pairs(norm: Norm, count: int, delta: float, rho: float,
                         seed: int = 0, *, endpoint_gap_max: float = 0.2) -> list:
    """Sample admissible configurations (l, m, x0) for the strip experiment.

    Each pair is built as two distance-function rays: sites sit a mid-stick
    parameter behind the ball B_delta(x0), queries sit inside it, and the
    rays extend to unit length.  The two-sticks, equal-length and ball
    conditions then hold by construction (the ball's certificate is in the
    module docstring), and are re-verified.  Proposals are rejected unless
    every endpoint clears the rho-ball and the terminal gap stays below
    `endpoint_gap_max`.  The direction spread scales with delta, which is
    the widest the endpoint estimates allow.

    Proposals are drawn and screened (`_screen`) PROPOSAL_BLOCK at a time,
    and the survivors get their sticks from `build_ray_family` in draw
    order.  So the output depends on the seed only: it is the same for every
    block size, and the same as building each proposal's rays with
    `build_ray_family` and checking its pair alone.

    ValueError, before any draw, when no admissible configuration can exist
    or none is asked for: dim < 2, endpoint_gap_max <= 0, delta outside
    (0, 1/4), rho outside (3*delta, 1/2 + 0.4*delta) or count < 1.
    `DegenerateSampleError` (a RuntimeError) when MAX_PROPOSALS proposals
    give fewer than `count` configurations.
    """
    if norm.dim < 2:
        raise ValueError("dim must be >= 2: in one dimension no admissible pair exists")
    if not endpoint_gap_max > 0.0:
        raise ValueError(f"endpoint_gap_max must be positive, got {endpoint_gap_max!r}")
    if not 0.0 < delta < 0.25:
        raise ValueError(f"delta must lie in (0, 1/4), got {delta!r}")
    if not 3.0 * delta < rho < 0.5 + 0.4 * delta:
        raise ValueError(f"rho must lie in (3 * delta, 1/2 + 0.4 * delta) = "
                         f"({3.0 * delta!r}, {0.5 + 0.4 * delta!r}), got rho = {rho!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < count and tries < MAX_PROPOSALS:
        normals, uniforms = _draw_block(rng, min(PROPOSAL_BLOCK, MAX_PROPOSALS - tries),
                                        norm.dim)
        tries += len(normals)
        ok, x0, sites, queries = _screen(norm, delta, rho, endpoint_gap_max, normals, uniforms)
        for i in np.flatnonzero(ok):
            # The mask has passed both rays, so the family holds both sticks.
            l, m = build_ray_family(SiteSet(sites[i], norm), queries[i], 1.0).sticks
            out.append((l, m, x0[i].copy()))
            if len(out) == count:
                break
    if len(out) < count:
        raise DegenerateSampleError(
            f"only {len(out)} admissible configurations in {MAX_PROPOSALS} tries")
    return out
