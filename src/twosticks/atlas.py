"""Stick families as rays of the norm distance function to a finite site set.

If l0 is a nearest site to l1 and m0 a nearest site to m1, the segments
[l0, l1] and [m0, m1] automatically satisfy the two-sticks condition; so
families built by shooting rays from nearest sites toward query points give
an endless supply of honest two-sticks pairs of a common length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .convexity import DegenerateSampleError
from .norms import Norm, as_vector
from .sticks import Stick, segment_point_distance, two_sticks_check

TIE_TOL = 1e-12
# Proposals `generate_strip_pairs` draws before it gives up.
MAX_PROPOSALS = 100000


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


def nearest_point(sites: SiteSet, x) -> NearestResult:
    """Exhaustive nearest-site query; `unique` is False on ties within 1e-12."""
    x = as_vector(x, sites.norm.dim)
    dists = sites.norm._value(sites.sites - x)
    idx = int(np.argmin(dists))
    dmin = float(dists[idx])
    unique = int(np.count_nonzero(dists <= dmin + TIE_TOL)) == 1
    return NearestResult(site=sites.sites[idx].copy(), distance=dmin,
                         unique=unique, index=idx)


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
    """
    if length <= 0.0:
        raise ValueError("length must be positive")
    queries = np.atleast_2d(np.asarray(query_points, dtype=float))
    sticks, indices, skipped = [], [], []
    for qi, x in enumerate(queries):
        hit = nearest_point(sites, x)
        if hit.distance <= 1e-12:
            raise ValueError(f"query {qi} lies in the site set")
        if not hit.unique:
            skipped.append((qi, "tied nearest site"))
            continue
        end = hit.site + (length / hit.distance) * (x - hit.site)
        recheck = nearest_point(sites, end)
        if recheck.index != hit.index or not recheck.unique:
            skipped.append((qi, "extension left the nearest-site region"))
            continue
        if abs(recheck.distance - length) > 1e-9 * (1.0 + length):
            skipped.append((qi, "distance identity failed at the extended endpoint"))
            continue
        sticks.append(Stick(hit.site.copy(), end))
        indices.append(hit.index)
    return RayFamily(sticks=sticks, length=float(length), site_index=indices,
                     skipped=skipped)


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
    estimates allow.  Deterministic for a fixed seed.

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
    n = norm.dim
    out = []
    tries = 0
    while len(out) < count and tries < MAX_PROPOSALS:
        tries += 1
        x0 = rng.standard_normal(n) * 0.1
        e = rng.standard_normal(n)
        e = e / float(norm._value(e))
        spread = delta * rng.uniform(0.5, 4.0)
        ebar = e + spread * rng.standard_normal(n)
        ebar = ebar / float(norm._value(ebar))

        # Both sites at distance tau from x0, so x0 sits on their bisector
        # and the nearby queries can fall on either side of it.
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
            continue
        l, m = family.sticks
        if not two_sticks_check(norm, l, m):
            continue
        if float(norm._value(l.end - m.end)) > endpoint_gap_max:
            continue
        endpoints_clear = all(
            float(norm._value(p - x0)) > rho * (1.0 + 1e-9)
            for p in (l.start, l.end, m.start, m.end))
        if not endpoints_clear:
            continue
        if segment_point_distance(norm, l, x0)[0] > delta:
            continue
        if segment_point_distance(norm, m, x0)[0] > delta:
            continue
        out.append((l, m, x0))
    if len(out) < count:
        raise DegenerateSampleError(
            f"only {len(out)} admissible configurations in {MAX_PROPOSALS} tries")
    return out
