"""Reference implementations the tests compare the library against.

* `modulus_grid`: the modulus of geometric convexity by dense angular
  search, independent of the ascent and polish of `convexity.moduli`.
* `finite_diff_gradient`: a centered-difference gradient of the norm, the
  O(step^2) oracle for `Norm.normal`.
* `PluginNorm`: a norm from a function of one vector, evaluated one row at
  a time, whose normal map is Richardson-extrapolated central differences.
  It shares no kernel with the library's norms, so the batched paths it
  runs through must give, row for row, what they give on one vector.
* `polish_objective` and `polish_one`: the modulus polish one start at a
  time, as it ran before `convexity._polish_on_sphere` polished every start
  in lockstep.  The objective takes one vector and its norms and dot
  products are one-vector numpy calls; the BFGS is SciPy's, which
  `_optimize.minimize` transcribes.  Each row of the lockstep polish must
  equal `polish_one` from that row bit for bit.
* `ray_family_loop`: `atlas.build_ray_family` one query at a time, as it
  ran before the stacked nearest-site pass: two one-query nearest-site
  evaluations per query, each checking its vector.  The stacked pass must
  give the same family bit for bit, and raise the same error.
* `extremum_concatenated`: `convexity._extremum` as it ran before it kept
  each block's pick as it went: one pick over the concatenated ratios of
  every block, then the winning block once more for its witness.  The
  one-pass `_extremum` must give the same value and witness bit for bit,
  and raise the same error.
* `LinearImageNorm`: ||x||_A = ||Ax|| of an inner norm, for A a signed
  permutation times powers of two.  Ax is exact in floating point, so a
  computation made of differences, sums and scalings of points gives under
  ||.||_A what it gives under the inner norm on the images, bit for bit: a
  metamorphic control with no tolerance.
"""

import math
from typing import Callable

import numpy as np
import scipy.optimize as scipy_optimize

from twosticks.atlas import TIE_TOL, NearestResult, RayFamily, SiteSet
from twosticks.convexity import DegenerateSampleError, ModulusResult, _kkt, _problem, _witness
from twosticks.gap import _gap_at
from twosticks.norms import (
    ZERO_THRESHOLD,
    Norm,
    ZeroVectorError,
    _value_and_normal,
    as_vector,
)
from twosticks.sticks import Stick

# The options of the modulus polish.
GTOL, MAXITER = 1e-12, 200


def _central_difference(norm: Norm, x: np.ndarray, step: float) -> np.ndarray:
    eye = np.eye(norm.dim) * step
    return (norm._value(x + eye) - norm._value(x - eye)) / (2.0 * step)


def finite_diff_gradient(norm: Norm, x, step: float = 1e-6) -> np.ndarray:
    """Centered-difference gradient of the norm; O(step^2) oracle for `Norm.normal`."""
    x = as_vector(x, norm.dim)
    if step <= 0.0:
        raise ValueError("step must be positive")
    if float(norm._value(x)) < ZERO_THRESHOLD:
        raise ZeroVectorError("gradient undefined at the origin")
    return _central_difference(norm, x, step)


class PluginNorm(Norm):
    """User-supplied norm.  `func` maps a single vector to a float.

    The caller is responsible for `func` actually being a norm (positive
    homogeneity, symmetry, triangle inequality); nothing here checks it.
    """

    def __init__(self, func: Callable[[np.ndarray], float], dim: int, name: str = "plugin"):
        super().__init__(dim)
        self.func = func
        self.name = str(name)

    def _value(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, self.dim)
        out = np.array([self.func(row) for row in flat], dtype=float)
        return out.reshape(x.shape[:-1])

    def _normal(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Richardson-extrapolated central differences, one row at a time."""
        out = np.empty(x.shape)
        for row, grad in zip(x.reshape(-1, self.dim), out.reshape(-1, self.dim)):
            h = 1e-5 * (1.0 + float(np.max(np.abs(row))))
            g1 = _central_difference(self, row, h)
            grad[:] = (4.0 * _central_difference(self, row, h / 2.0) - g1) / 3.0
        return out

    def descriptor(self) -> dict:
        return {"kind": "plugin", "name": self.name, "dim": self.dim}


def polish_objective(norm: Norm, x, t: float, n_of_x):
    """-h(x, x + t u/||u||) and its gradient in u, for one vector u: the
    scale-invariant objective of the polish, zero at a zero u."""

    def neg(u: np.ndarray):
        vu = norm._value(u)
        nu = float(vu)
        if nu < ZERO_THRESHOLD:
            return 0.0, np.zeros_like(u)
        y = t * u / nu
        z = x + y
        vz, n_of_z = _value_and_normal(norm, z)
        val = float(vz - np.dot(z, n_of_x))
        g = n_of_z - n_of_x
        n_of_u = norm._normal(u, vu)
        grad_u = (t / nu) * (g - (float(np.dot(u, g)) / nu) * n_of_u)
        return -val, -grad_u

    return neg


def polish_one(norm: Norm, x, t: float, y0, n_of_x) -> tuple[np.ndarray, float, int]:
    """The polish of one start y0 on ||y|| = t: (y, h(x, x + y), BFGS iterations),
    or (y0, -inf, iterations) when u reaches the origin."""
    res = scipy_optimize.minimize(polish_objective(norm, x, t, n_of_x), y0, jac=True,
                                  method="BFGS", options={"gtol": GTOL, "maxiter": MAXITER})
    u = res.x
    nu = float(norm._value(u))
    if nu < ZERO_THRESHOLD:
        return y0, -np.inf, res.nit
    y = t * u / nu
    z = x + y
    return y, float(norm._value(z) - np.dot(z, n_of_x)), res.nit


def nearest_one(sites: SiteSet, x) -> NearestResult:
    """The nearest site to one query, from one evaluation over the sites."""
    x = as_vector(x, sites.norm.dim)
    dists = sites.norm._value(sites.sites - x)
    idx = int(np.argmin(dists))
    dmin = float(dists[idx])
    unique = int(np.count_nonzero(dists <= dmin + TIE_TOL)) == 1
    return NearestResult(site=sites.sites[idx].copy(), distance=dmin,
                         unique=unique, index=idx)


def ray_family_loop(sites: SiteSet, query_points, length: float) -> RayFamily:
    """`build_ray_family` one query at a time, with two `nearest_one` calls each."""
    if length <= 0.0:
        raise ValueError("length must be positive")
    queries = np.atleast_2d(np.asarray(query_points, dtype=float))
    sticks, indices, skipped = [], [], []
    for qi, x in enumerate(queries):
        hit = nearest_one(sites, x)
        if hit.distance <= 1e-12:
            raise ValueError(f"query {qi} lies in the site set")
        if not hit.unique:
            skipped.append((qi, "tied nearest site"))
            continue
        end = hit.site + (length / hit.distance) * (x - hit.site)
        recheck = nearest_one(sites, end)
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


def extremum_concatenated(rows: int, block, pick, empty: str, block_rows: int):
    """(ratio, witness) that `pick` selects over the ratios of every block
    of `block_rows` rows concatenated; the winner's block runs again for
    its witness."""
    kept = [block(slice(lo, lo + block_rows))[0] for lo in range(0, rows, block_rows)]
    ratios = np.concatenate(kept)
    if not ratios.size:
        raise DegenerateSampleError(empty)
    i = int(pick(ratios))
    ends = np.cumsum([len(r) for r in kept])
    b = int(np.searchsorted(ends, i, side="right"))
    _, ok, x, y = block(slice(b * block_rows, (b + 1) * block_rows))
    row = np.flatnonzero(ok)[i - (ends[b] - len(kept[b]))]
    return float(ratios[i]), _witness(x[row], y[row])


class LinearImageNorm(Norm):
    """||x||_A = inner(Ax) with (Ax)_i = factors[i] * x[perm[i]]; each factor
    is +-2^k, so Ax rounds nothing (short of overflow or subnormals)."""

    def __init__(self, inner: Norm, perm, factors):
        super().__init__(inner.dim)
        self.inner = inner
        self.perm = np.asarray(perm)
        self.factors = np.asarray(factors, dtype=float)
        assert sorted(self.perm.tolist()) == list(range(self.dim))
        mantissas, _ = np.frexp(np.abs(self.factors))
        assert self.factors.shape == (self.dim,) and np.all(mantissas == 0.5)

    def image(self, x) -> np.ndarray:
        """Ax for every row of x."""
        return np.asarray(x, dtype=float)[..., self.perm] * self.factors

    def _value(self, x: np.ndarray) -> np.ndarray:
        return self.inner._value(self.image(x))


def modulus_grid(norm: Norm, x, t: float, resolution: float = 1e-3) -> ModulusResult:
    """Brute-force modulus by dense angular search, for dim <= 3.

    The sphere of directions is scanned at `resolution` radians (after local
    refinement), independently of the ascent in `modulus`.
    """
    x, t = _problem(norm, x, t)
    n = norm.dim
    n_of_x = norm.normal(x)

    def h_of(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = t * u / norm._value(u)[..., None]
        return _gap_at(norm, n_of_x, x + y), y

    if n == 1:
        u = np.array([[1.0], [-1.0]])
        vals, ys = h_of(u)
    elif n == 2:
        theta = np.arange(0.0, 2.0 * np.pi, min(resolution, 2e-2))
        for _ in range(3):
            u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            vals, ys = h_of(u)
            i = int(np.argmax(vals))
            width = max(theta[1] - theta[0], resolution) if len(theta) > 1 else resolution
            theta = np.linspace(theta[i] - width, theta[i] + width, 101)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        vals, ys = h_of(u)
    elif n == 3:
        coarse = max(resolution, 1.5e-2)
        phi = np.linspace(0.0, np.pi, int(np.pi / coarse) + 1)
        theta = np.arange(0.0, 2.0 * np.pi, coarse)
        tt, pp = np.meshgrid(theta, phi)
        u = np.stack([np.sin(pp) * np.cos(tt), np.sin(pp) * np.sin(tt), np.cos(pp)], axis=-1)
        u = u.reshape(-1, 3)
        vals, ys = h_of(u)
        order = np.argsort(vals)[::-1][:16]
        best_val, best_y = float(vals[order[0]]), ys[order[0]]
        for idx in order:
            tc, pc = float(tt.reshape(-1)[idx]), float(pp.reshape(-1)[idx])
            width = 2.0 * coarse
            while width > resolution / 2.0:
                tg = np.linspace(tc - width, tc + width, 13)
                pg = np.linspace(pc - width, pc + width, 13)
                t2, p2 = np.meshgrid(tg, pg)
                uu = np.stack([np.sin(p2) * np.cos(t2), np.sin(p2) * np.sin(t2),
                               np.cos(p2)], axis=-1).reshape(-1, 3)
                keep = np.sqrt(np.sum(uu * uu, axis=-1)) > 1e-9
                uu = uu[keep]
                v2, y2 = h_of(uu)
                j = int(np.argmax(v2))
                if float(v2[j]) > best_val:
                    best_val, best_y = float(v2[j]), y2[j]
                ang = uu[j]
                pc = math.acos(np.clip(ang[2] / np.linalg.norm(ang), -1, 1))
                tc = math.atan2(ang[1], ang[0])
                width /= 5.0
        vals, ys = np.array([best_val]), best_y[None, :]
    else:
        raise ValueError("grid search supports dim <= 3 only")

    i = int(np.argmax(vals))
    y_best = ys[i] if ys.ndim > 1 else ys
    sigma = float(vals[i])
    n_of_y, alpha, kkt = _kkt(norm, x, t, y_best, n_of_x)
    return ModulusResult(sigma=sigma, t=t, maximizer_y=y_best, normal_at_y=n_of_y,
                         kkt_residual=kkt, kkt_multiplier=alpha, converged=True)
