"""Stick families as rays of the norm distance function to a finite site set.

If l0 is a nearest site to l1 and m0 one to m1, the segments [l0, l1] and
[m0, m1] satisfy the two-sticks condition, so rays shot from nearest sites
toward query points give honest two-sticks pairs of a common length.
`build_ray_family` finds the nearest sites of all its queries, then of all
their extended endpoints, in stacked norm evaluations (`_nearest`, which
`nearest_point` calls on one query), and keeps the sticks in query order.

`generate_strip_pairs` builds each strip configuration from two such rays
and draws its proposals by rejection, PROPOSAL_BLOCK at a time.  Nearly all
fail, so a few stacked norm evaluations (`_screen`) drop the proposals whose
queries or extended endpoints lie nearer the wrong site, or tie, by more than
SCREEN_MARGIN.  The survivors go in draw order through the exact
one-proposal path (`_admit`), which alone decides acceptance.  The screen
never drops a proposal that path would accept, and blocks do not change the
order of the draws, so the output is the same for every block size and
bit-identical to checking each proposal on the exact path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .convexity import BLOCK_ROWS, DegenerateSampleError
from .norms import Norm, as_vector
from .sticks import Stick, segment_point_distance, two_sticks_check

TIE_TOL = 1e-12
# Proposals `generate_strip_pairs` draws before it gives up.
MAX_PROPOSALS = 100000
# Proposals `generate_strip_pairs` draws and screens together.
PROPOSAL_BLOCK = 64
# How far past its threshold a screened rejection must hold before `_screen`
# drops the proposal.  Both paths take site distances from stacked rows, but
# `_admit` scales its unit vectors one vector at a time, and the array `pow`
# may run a SIMD loop where the scalar one calls libm, 1 ulp apart.  So the
# screen's sites, queries and endpoints, all of order 1, can be a few ulps
# off the exact path's, and so can each distance and each difference of two:
# at most 6.7e-16 over 15k proposals of five norms.  `_nearest` rounds each
# distance as a one-query evaluation does, so that bound stands.  1e-12 is over
# 10^3 times it, and the screen still drops 98% of the proposals at strip-p3.
SCREEN_MARGIN = 1e-12


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
    if length <= 0.0:
        raise ValueError("length must be positive")
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
    """(||p_k - s_k||, ||p_k - s_(1-k)||) for k = 0, 1, for each proposal of a block."""
    d = norm._value(points[:, :, None] - sites[:, None])
    return d[:, [0, 1], [0, 1]], d[:, [0, 1], [1, 0]]


def _screen(norm: Norm, delta: float, normals: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Mask of the proposals of a block that `_admit` may accept.

    Repeats `_admit`'s construction and `build_ray_family`'s site tests on the
    whole block, and drops a proposal only when a query or an extended
    endpoint misses its site by more than SCREEN_MARGIN.  A distance of zero
    cannot occur (every query is at least 0.3 from both sites); should one,
    its division is masked and the NaN gap it makes drops nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        v = norm._value(normals[:, [1, 3, 4]])
        e = normals[:, 1] / v[:, 0, None]
        ebar = e + (delta * uniforms[:, 0])[:, None] * normals[:, 2]
        ebar = ebar / norm._value(ebar)[:, None]
        x0 = normals[:, 0] * 0.1
        xi = normals[:, 3:] / v[:, 1:, None] * 0.4 * delta * uniforms[:, 2:, None]
        sites = x0[:, None] - uniforms[:, 1, None, None] * np.stack([e, ebar], axis=1)
        queries = x0[:, None] + xi
        own, other = _own_and_other(norm, queries, sites)
        ends = sites + (1.0 / own)[..., None] * (queries - sites)
        end_own, end_other = _own_and_other(norm, ends, sites)
    # `build_ray_family` keeps point k (query or endpoint) on site k only when
    # other - own exceeds TIE_TOL: below 0 it is nearer the other site, below
    # TIE_TOL the two tie.  With SCREEN_MARGIN = TIE_TOL the screen drops only
    # the first case and leaves ties, which take equal distances to within
    # 1e-12, to the exact path.
    gaps = np.concatenate([other - own, end_other - end_own], axis=1)
    return ~np.any(gaps < TIE_TOL - SCREEN_MARGIN, axis=1)


def _admit(norm: Norm, z: np.ndarray, u: list, delta: float, rho: float,
           endpoint_gap_max: float):
    """One proposal from its raw draws, on the exact path: (l, m, x0) or None."""
    x0 = z[0] * 0.1
    e = z[1] / float(norm._value(z[1]))
    spread = delta * u[0]
    ebar = e + spread * z[2]
    ebar = ebar / float(norm._value(ebar))

    # Both sites at distance tau from x0, so x0 sits on their bisector
    # and the nearby queries can fall on either side of it.
    tau = u[1]
    xi1 = z[3] / float(norm._value(z[3])) * 0.4 * delta * u[2]
    xi2 = z[4] / float(norm._value(z[4])) * 0.4 * delta * u[3]
    q1 = x0 + xi1
    q2 = x0 + xi2

    sites = SiteSet(np.array([x0 - tau * e, x0 - tau * ebar]), norm)
    family = build_ray_family(sites, [q1, q2], 1.0)
    if len(family) != 2 or family.site_index != [0, 1]:
        return None
    l, m = family.sticks
    if not two_sticks_check(norm, l, m):
        return None
    if float(norm._value(l.end - m.end)) > endpoint_gap_max:
        return None
    endpoints_clear = all(
        float(norm._value(p - x0)) > rho * (1.0 + 1e-9)
        for p in (l.start, l.end, m.start, m.end))
    if not endpoints_clear:
        return None
    if segment_point_distance(norm, l, x0)[0] > delta:
        return None
    if segment_point_distance(norm, m, x0)[0] > delta:
        return None
    return l, m, x0


def generate_strip_pairs(norm: Norm, count: int, delta: float, rho: float,
                         seed: int = 0, *, endpoint_gap_max: float = 0.2) -> list:
    """Sample admissible configurations (l, m, x0) for the strip experiment.

    Each pair is built as two distance-function rays: sites sit a mid-stick
    parameter behind the ball B_delta(x0), queries sit inside the ball, and
    the rays extend to unit length.  The two-sticks and equal-length
    conditions then hold by construction (and are re-verified).  Proposals
    are rejected unless both sticks meet the ball, every endpoint clears the
    rho-ball, and the terminal gap stays below `endpoint_gap_max`.  The
    direction spread scales with delta, which is the widest the endpoint
    estimates allow.

    Proposals are drawn PROPOSAL_BLOCK at a time, each one's draws in the
    order one proposal alone would make them, and `_screen` drops those
    whose queries or extended endpoints fall nearer the wrong site, or tie,
    by more than SCREEN_MARGIN.  The rest are checked in draw order on the
    exact one-proposal path, which alone accepts.  So the output depends on
    the seed only: it is the same for every block size, and the same as
    checking every proposal on the exact path.

    ValueError, before any draw, when no admissible configuration can exist
    or none is asked for: dim < 2, endpoint_gap_max <= 0, delta outside
    (0, 1/4), rho <= 3*delta or count < 1.  `DegenerateSampleError` (a
    RuntimeError) when MAX_PROPOSALS proposals give fewer than `count`
    configurations.
    """
    if norm.dim < 2:
        raise ValueError("dim must be >= 2: in one dimension no admissible pair exists")
    if not endpoint_gap_max > 0.0:
        raise ValueError(f"endpoint_gap_max must be positive, got {endpoint_gap_max!r}")
    if not 0.0 < delta < 0.25:
        raise ValueError(f"delta must lie in (0, 1/4), got {delta!r}")
    if not rho > 3.0 * delta:
        raise ValueError(f"rho must exceed 3 * delta, got rho = {rho!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < count and tries < MAX_PROPOSALS:
        normals, uniforms = _draw_block(rng, min(PROPOSAL_BLOCK, MAX_PROPOSALS - tries),
                                        norm.dim)
        tries += len(normals)
        for i in np.flatnonzero(_screen(norm, delta, normals, uniforms)):
            config = _admit(norm, normals[i], uniforms[i].tolist(), delta, rho,
                            endpoint_gap_max)
            if config is not None:
                out.append(config)
                if len(out) == count:
                    break
    if len(out) < count:
        raise DegenerateSampleError(
            f"only {len(out)} admissible configurations in {MAX_PROPOSALS} tries")
    return out
