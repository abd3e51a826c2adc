"""Moduli of geometric convexity and empirical norm constants.

The modulus of geometric convexity at x is

    sigma(x, t) = max { h(x, x + y) : ||y|| <= t },

whose maximizers lie on the sphere ||y|| = t and satisfy the stationarity
condition N(x+y) - N(x) = alpha * N(y) with alpha > 0.  `moduli` solves a
batch of such problems: one projected ascent over arrays of shape
(problems, starts, dim), with each problem's N(x) computed one row at a time
through `Norm.normal`; then each problem's ascended starts go to a
`modulus` call, which runs the BFGS polish.  `modulus` alone ascends a
batch of one.  Around the modulus this module estimates, by seeded sampling
with witnesses:

* geometric convexity   Lambda = inf h(x, x+2y) / h(x, x+y)   (> 2 wanted)
* doubling              T      = sup h(x, x+2y) / h(x, x+y)
* balancedness          K      = sup h(x, x+y) / h(x, x-y)
* uniform convexity A and uniform smoothness B with exponents (p, q)

each over ||y|| <= r ||x||, either unrestricted ("full") or restricted to
the tangent plane <y, N(x)> = 0 ("tangent").  Each estimator draws one
batch of unit x and computes (||x||, N(x)) for it once; the tangent
projection and every gap at that x (through `gap._gap_at`) reuse it, so a
sample batch costs one normal-map evaluation.  `transfer_check` verifies the
quantitative bridge from tangent-plane constants to full-space ratios, and
`onev_scan` verifies the scalar reduction that powers the p-norm proofs.

Estimated constants are empirical: they are extrema over samples, reported
together with the witnessing pair, and carry no proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from statistics import NormalDist
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .gap import _gap_at
from .norms import Norm, ZERO_THRESHOLD, _row_sum, _value_and_normal, as_vector

# Ratio denominators below 1e-12 * (1 + ||x||) are excluded: along
# positively-parallel directions both sides vanish and 0/0 says nothing.
FLOOR_SCALE = 1e-12


class DegenerateSampleError(RuntimeError):
    """Every sampled ratio fell below the denominator floor."""


class TransferWindowError(ValueError):
    """The admissibility window of a tangent-to-full check is empty."""


# ---------------------------------------------------------------------------
# modulus of geometric convexity
# ---------------------------------------------------------------------------

@dataclass
class ModulusResult:
    sigma: float
    t: float
    maximizer_y: np.ndarray
    normal_at_y: np.ndarray
    kkt_residual: float
    kkt_multiplier: float
    converged: bool
    iterations: int = 0


def _primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@cache
def _halton_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the Euclidean sphere.

    Points 1..count of the unscrambled Halton sequence (point 0 is the
    origin): coordinate j is the radical inverse of the point's index in the
    j-th prime base, its digits mirrored about the radix point.  The points
    are mapped through the Gaussian quantile and normalized.  Built once per
    (dim, count) and returned read-only.
    """
    if dim == 1:
        return _read_only(np.array([[1.0], [-1.0]] * ((count + 1) // 2))[:count])
    u = np.zeros((count, dim))
    for j, base in enumerate(_primes(dim)):
        index, scale = np.arange(1, count + 1), 1.0 / base
        while np.any(index > 0):
            u[:, j] += (index % base) * scale
            index, scale = index // base, scale / base
    g = np.vectorize(NormalDist().inv_cdf, otypes=[float])(np.clip(u, 1e-12, 1.0 - 1e-12))
    nrm = np.sqrt(np.sum(g * g, axis=-1))
    nrm[nrm < 1e-12] = 1.0
    return _read_only(g / nrm[:, None])


@cache
def _coarse_directions(dim: int) -> np.ndarray:
    """Cheap quasi-uniform direction sweep used to seed the multi-start;
    built once per dim and returned read-only."""
    if dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        return _read_only(np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    if dim == 3:
        count = 1500
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        theta = np.pi * (1.0 + math.sqrt(5.0)) * i
        return _read_only(np.stack([np.cos(theta) * np.sin(phi),
                                    np.sin(theta) * np.sin(phi), np.cos(phi)], axis=-1))
    raise ValueError("coarse sweep supports dim 2 and 3")


def _polish_on_sphere(norm: Norm, x: np.ndarray, t: float, y0: np.ndarray,
                      n_of_x: np.ndarray) -> tuple[np.ndarray, float]:
    """BFGS refinement of a sphere maximizer via the parametrization y = t*u/||u||."""

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

    res = minimize(neg, y0, jac=True, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 200})
    u = res.x
    nu = float(norm._value(u))
    if nu < ZERO_THRESHOLD:
        return y0, -np.inf
    y = t * u / nu
    z = x + y
    return y, float(norm._value(z) - np.dot(z, n_of_x))


# Largest KKT residual (see `_kkt`) of a maximizer that `modulus` calls converged.
KKT_TOL = 1e-7


def _kkt(norm: Norm, x, t: float, y, n_of_x) -> tuple[np.ndarray, float, float]:
    """(N(y), alpha, residual) at a maximizer y on ||y|| = t: the gradient gap
    g = N(x+y) - N(x) against alpha N(y), alpha = <g, y>/t, scaled by 1 + ||g||."""
    n_of_y = norm.normal(y)
    grad = norm.normal(x + y) - n_of_x
    alpha = float(np.dot(grad, y)) / t
    kkt = float(np.linalg.norm(grad - alpha * n_of_y)) / (1.0 + float(np.linalg.norm(grad)))
    return n_of_y, alpha, kkt


def _h(norm: Norm, x: np.ndarray, n_of_x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """h(x, x+y) = ||x+y|| - <x+y, N(x)> over the last axis, broadcast."""
    z = x + y
    return norm._value(z) - _row_sum(z * n_of_x)


def _ascent(norm: Norm, x: np.ndarray, n_of_x: np.ndarray, t: np.ndarray, y: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected ascent of h(x, x+y) on the spheres ||y|| = t from the starts
    y of shape (problems, starts, dim); x and n_of_x are (problems, 1, dim)
    and t is (problems, 1).  Every start moves along N(x+y) - N(x) with its
    own step, grown 1.3x on success and halved on failure, and a problem
    freezes once all of its steps are below 1e-9 t.  Returns the final
    starts, their values and each problem's iteration count."""
    f = _h(norm, x, n_of_x, y)
    step = np.broadcast_to(0.3 * t, f.shape).copy()
    iterations = np.full(len(f), max_iter)
    live = np.arange(len(f))
    for it in range(max_iter):
        xl, nl, tl, yl, fl, sl = (x[live], n_of_x[live], t[live], y[live], f[live],
                                  step[live])
        grad = _value_and_normal(norm, xl + yl)[1] - nl
        cand = yl + sl[..., None] * grad
        nc = norm._value(cand)
        ok = nc > ZERO_THRESHOLD
        cand = np.where(ok[..., None], cand, yl)
        nc = np.where(ok, nc, tl)
        cand = tl[..., None] * cand / nc[..., None]
        fc = _h(norm, xl, nl, cand)
        better = fc > fl
        y[live] = np.where(better[..., None], cand, yl)
        f[live] = np.where(better, fc, fl)
        sl = np.minimum(np.where(better, sl * 1.3, sl * 0.5), tl)
        step[live] = sl
        # The BFGS polish finishes the job; the ascent only has to land in
        # the right basin, so a loose step floor is enough.
        done = np.all(sl < 1e-9 * tl, axis=-1)
        iterations[live[done]] = it + 1
        live = live[~done]
        if not live.size:
            break
    return y, f, iterations


def _problem(norm: Norm, x, t) -> tuple[np.ndarray, float]:
    """One modulus problem (x, t), checked: x a vector of the norm's dim, t > 0."""
    x = as_vector(x, norm.dim)
    t = float(t)
    if t <= 0.0:
        raise ValueError("t must be positive")
    return x, t


def _ascended(norm: Norm, rows: list, radii: list, normals: list, n_starts: int,
              max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multi-start projected ascent of every problem (rows[i], radii[i])
    with N(x) = normals[i], in one `_ascent` call: the starts, their values
    and each problem's iteration count, of shapes (problems, starts, dim),
    (problems, starts) and (problems,)."""
    n = norm.dim
    x = np.stack(rows)[:, None, :]
    n_of_x = np.stack(normals)[:, None, :]
    t = np.array(radii)[:, None]
    k = max(4, int(n_starts)) if n > 1 else 2

    u = _halton_directions(n, k)
    if 2 <= n <= 3:
        # Seed with the best directions of a coarse sweep so the global
        # basin is always represented among the starts.  The sweep runs one
        # problem at a time, so its arrays stay (sweep, dim) in size.
        sweep = _coarse_directions(n)
        v_sweep = norm._value(sweep)[:, None]
        top = [np.argsort(_h(norm, xi, ni, ti * sweep / v_sweep))[::-1][:4]
               for xi, ti, ni in zip(rows, radii, normals)]
        u = np.concatenate([sweep[np.array(top)], np.broadcast_to(u, (len(rows), k, n))],
                           axis=1)
    y = t[..., None] * u / norm._value(u)[..., None]
    return _ascent(norm, x, n_of_x, t, y, max_iter)


def moduli(norm: Norm, xs, ts, *, n_starts: int = 32, max_iter: int = 200) -> list[ModulusResult]:
    """`modulus` of each problem (xs[i], ts[i]), from one batched ascent.

    The problems are checked in order, as `modulus` checks one.  N(x) is
    computed one row at a time through `Norm.normal`, not by the row kernel
    on the stacked points, whose power can round differently in the last ulp
    and move the polish starts.  The start sets are built once per
    (dim, count).  The projected ascent runs once over arrays of shape
    (problems, starts, dim), each problem stopping on its own rule.  Then
    each problem ends in its own `modulus` call, handed its ascended starts,
    which polishes and ranks them and judges convergence against KKT_TOL.
    So the results equal those of per-problem `modulus` calls field for
    field, and a wrapper of `modulus` (a call counter, a tracer) sees one
    call and one result per problem.
    """
    rows, radii, normals = [], [], []
    for x, t in zip(xs, ts, strict=True):
        x, t = _problem(norm, x, t)
        rows.append(x)
        radii.append(t)
        normals.append(norm.normal(x))
    if not rows:
        return []
    y, f, iterations = _ascended(norm, rows, radii, normals, n_starts, max_iter)
    return [modulus(norm, x, t, ascent=(y[i], f[i], int(iterations[i])))
            for i, (x, t) in enumerate(zip(rows, radii))]


def modulus(norm: Norm, x, t: float, *, n_starts: int = 32, max_iter: int = 200,
            ascent: Optional[tuple[np.ndarray, np.ndarray, int]] = None) -> ModulusResult:
    """Maximize h(x, x+y) over the sphere ||y|| = t by multi-start projected ascent.
    Starts come from a deterministic low-discrepancy set, so the result is
    reproducible; for dim 2 and 3 the four best directions of a coarse sweep
    lead them.  The leading two candidates are polished by BFGS on the
    scale-invariant parametrization y = t*u/||u||.  The first start within
    1e-9 of the best value wins, which pins down the returned maximizer when
    the maximizing set is a continuum.  The result is `converged` when the
    KKT residual of the winner is at most KKT_TOL and its multiplier is not
    negative; non-convergence is reported there, never silently.

    `ascent` is how `moduli`, which runs the ascent of a batch of problems
    at once, hands one problem its share: the ascended starts (starts, dim)
    on the sphere, their values h(x, x+y) and the problem's iteration count.
    The arrays are not modified.  Given, no ascent runs here and n_starts
    and max_iter are not read; left None, the ascent runs here as a batch
    of one.
    """
    x, t = _problem(norm, x, t)
    n_of_x = norm.normal(x)
    if ascent is None:
        y, f, iterations = _ascended(norm, [x], [t], [n_of_x], n_starts, max_iter)
        ascent = (y[0], f[0], int(iterations[0]))
    y, f, iterations = ascent
    y, f = y.copy(), f.copy()
    for row in np.argsort(f)[::-1][:2]:
        yp, fp = _polish_on_sphere(norm, x, t, y[row], n_of_x)
        if fp > f[row]:
            y[row], f[row] = yp, fp

    # First start within 1e-9 of the best value, in start order.
    best_val = float(np.max(f))
    best = int(np.nonzero(f >= best_val - 1e-9)[0][0])
    y_best = y[best]
    sigma = float(f[best])

    n_of_y, alpha, kkt = _kkt(norm, x, t, y_best, n_of_x)
    converged = bool(kkt <= KKT_TOL and alpha >= -1e-9)
    return ModulusResult(sigma=sigma, t=t, maximizer_y=y_best, normal_at_y=n_of_y,
                         kkt_residual=kkt, kkt_multiplier=alpha, converged=converged,
                         iterations=iterations)


def modulus_grid(norm: Norm, x, t: float, resolution: float = 1e-3) -> ModulusResult:
    """Brute-force modulus by dense angular search; oracle/fallback for dim <= 3.

    The sphere of directions is scanned at `resolution` radians (after local
    refinement), independently of the ascent in `modulus`.
    """
    x, t = _problem(norm, x, t)
    n = norm.dim
    n_of_x = norm.normal(x)

    def h_of(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = t * u / norm._value(u)[..., None]
        return _h(norm, x, n_of_x, y), y

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


# ---------------------------------------------------------------------------
# sampled constants
# ---------------------------------------------------------------------------

@dataclass
class ConstantsReport:
    """Empirical norm constants with the witnesses that achieved them.

    Infima (lambda_hat, a_hat) and suprema (t_hat, k_hat, b_hat) over the
    sampled pairs; unused fields stay None.  `worst_witnesses` holds the
    (x, y) pairs realizing each recorded extremum, in field order.
    """

    norm: dict
    mode: str
    samples: int
    seed: int
    lambda_hat: Optional[float] = None
    r: Optional[float] = None
    t_hat: Optional[float] = None
    k_hat: Optional[float] = None
    a_hat: Optional[float] = None
    p: Optional[float] = None
    b_hat: Optional[float] = None
    q: Optional[float] = None
    worst_witnesses: list = field(default_factory=list)


def _unit_vectors(norm: Norm, rng: np.random.Generator, count: int) -> np.ndarray:
    v = rng.standard_normal((count, norm.dim))
    nv = norm._value(v)
    bad = nv < 1e-12
    if np.any(bad):
        v[bad] = np.eye(norm.dim)[0]
        nv = norm._value(v)
    return v / nv[:, None]


def _sample_displacements(norm: Norm, rng: np.random.Generator, x: np.ndarray,
                          n_of_x: np.ndarray, radius: float,
                          mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Draw y with ||y|| log-uniform in [1e-4, 1] * radius; tangent mode projects
    the direction onto <., N(x)> = 0 first.  Returns (y, validity mask)."""
    count = x.shape[0]
    v = rng.standard_normal((count, norm.dim))
    mags = radius * 10.0 ** rng.uniform(-4.0, 0.0, size=count)
    if mode == "tangent":
        v = v - _row_sum(v * n_of_x)[:, None] * x
    elif mode != "full":
        raise ValueError("mode must be 'full' or 'tangent'")
    nv = norm._value(v)
    good = nv > 1e-12
    nv = np.where(good, nv, 1.0)
    y = mags[:, None] * v / nv[:, None]
    return y, good


def _witness(x: np.ndarray, y: np.ndarray) -> list:
    return [[float(v) for v in x], [float(v) for v in y]]


def _doubling_ratios(norm: Norm, r: float, mode: str, samples: int, seed: int):
    if r <= 0.0:
        raise ValueError("r must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = _unit_vectors(norm, rng, samples)
    nx, n_of_x = _value_and_normal(norm, x)
    y, good = _sample_displacements(norm, rng, x, n_of_x, r, mode)
    h1 = _gap_at(norm, nx, n_of_x, x + y)
    h2 = _gap_at(norm, nx, n_of_x, x + 2.0 * y)
    ok = good & (h1 > FLOOR_SCALE * 2.0) & np.isfinite(h2)
    if not np.any(ok):
        raise DegenerateSampleError("no informative samples: every h(x, x+y) fell below the floor")
    return x[ok], y[ok], h2[ok] / h1[ok]


def estimate_lambda(norm: Norm, r: float, mode: str = "full",
                    samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Infimum of h(x, x+2y)/h(x, x+y) over ||y|| <= r, with witness.

    A value above 2 is evidence of geometric convexity with constants (r, Lambda).
    """
    x, y, ratios = _doubling_ratios(norm, r, mode, samples, seed)
    i = int(np.argmin(ratios))
    return ConstantsReport(norm=norm.descriptor(), mode=mode, samples=samples, seed=seed,
                           lambda_hat=float(ratios[i]), r=float(r),
                           worst_witnesses=[_witness(x[i], y[i])])


def estimate_doubling(norm: Norm, r: float, mode: str = "full",
                      samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Supremum of h(x, x+2y)/h(x, x+y) over ||y|| <= r (the doubling constant T)."""
    x, y, ratios = _doubling_ratios(norm, r, mode, samples, seed)
    i = int(np.argmax(ratios))
    return ConstantsReport(norm=norm.descriptor(), mode=mode, samples=samples, seed=seed,
                           t_hat=float(ratios[i]), r=float(r),
                           worst_witnesses=[_witness(x[i], y[i])])


def estimate_balanced(norm: Norm, bound: float, mode: str = "full",
                      samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Supremum of h(x, x+y)/h(x, x-y) over ||y|| <= bound (the balanced constant K)."""
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = _unit_vectors(norm, rng, samples)
    nx, n_of_x = _value_and_normal(norm, x)
    y, good = _sample_displacements(norm, rng, x, n_of_x, bound, mode)
    h_plus = _gap_at(norm, nx, n_of_x, x + y)
    h_minus = _gap_at(norm, nx, n_of_x, x - y)
    ok = good & (h_minus > FLOOR_SCALE * 2.0) & (h_plus >= 0.0)
    if not np.any(ok):
        raise DegenerateSampleError("no informative samples: every h(x, x-y) fell below the floor")
    ratios = h_plus[ok] / h_minus[ok]
    i = int(np.argmax(ratios))
    return ConstantsReport(norm=norm.descriptor(), mode=mode, samples=samples, seed=seed,
                           k_hat=float(ratios[i]), r=float(bound),
                           worst_witnesses=[_witness(x[ok][i], y[ok][i])])


def estimate_uniform_constants(norm: Norm, p: float, q: float,
                               samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Empirical uniform-convexity A and uniform-smoothness B for exponents (p, q).

        a_hat = inf (2 - ||e + ebar||) / ||e - ebar||^p  over unit e != ebar
        b_hat = sup (||x + y|| + ||x - y|| - 2) / ||y||^q  over unit x, y != 0

    Separations are sampled log-uniformly so the small-gap regime, where both
    extrema bind, is well covered.
    """
    p, q = float(p), float(q)
    if not (1.0 < q <= p):
        raise ValueError("need 1 < q <= p")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    half = samples // 2 + 1

    e = _unit_vectors(norm, rng, half)
    w = rng.standard_normal((half, norm.dim))
    s = 10.0 ** rng.uniform(-3.0, math.log10(2.0), size=half)
    ebar = e + s[:, None] * w
    nb = norm._value(ebar)
    good = nb > 1e-12
    ebar = np.where(good[:, None], ebar, e + np.eye(norm.dim)[0])
    ebar = ebar / norm._value(ebar)[:, None]
    d = norm._value(e - ebar)
    num = 2.0 - norm._value(e + ebar)
    ok = d > 1e-6
    if not np.any(ok):
        raise DegenerateSampleError("no informative unit pairs for the convexity constant")
    a_ratios = num[ok] / d[ok] ** p
    ia = int(np.argmin(a_ratios))
    a_witness = _witness(e[ok][ia], ebar[ok][ia])

    x = _unit_vectors(norm, rng, half)
    w2 = rng.standard_normal((half, norm.dim))
    s2 = 10.0 ** rng.uniform(-3.0, 0.0, size=half)
    nw = norm._value(w2)
    nw = np.where(nw > 1e-12, nw, 1.0)
    y = s2[:, None] * w2 / nw[:, None]
    ny = norm._value(y)
    smooth = norm._value(x + y) + norm._value(x - y) - 2.0
    okb = ny > 1e-6
    b_ratios = smooth[okb] / ny[okb] ** q
    ib = int(np.argmax(b_ratios))
    b_witness = _witness(x[okb][ib], y[okb][ib])

    return ConstantsReport(norm=norm.descriptor(), mode="uniform", samples=samples,
                           seed=seed, a_hat=float(a_ratios[ia]), p=p,
                           b_hat=float(b_ratios[ib]), q=q,
                           worst_witnesses=[a_witness, b_witness])


# ---------------------------------------------------------------------------
# derived constants and checks
# ---------------------------------------------------------------------------

def extend_constants(r: float, lam: float) -> tuple[float, float]:
    """Double the certified radius: constants (r, Lambda) imply (2r, 3 - 2/Lambda).

    The degraded constant stays above 2, so the step can be iterated to
    reach any radius.
    """
    if lam <= 2.0:
        raise ValueError("geometric convexity needs Lambda > 2")
    if r <= 0.0:
        raise ValueError("r must be positive")
    return 2.0 * r, 3.0 - 2.0 / lam


def extend_constants_to(r: float, lam: float, radius: float) -> tuple[float, float, int]:
    """Iterate `extend_constants` until the certified radius reaches `radius`.

    Returns (new_radius, degraded_lambda, doublings).
    """
    doublings = 0
    while r < radius:
        r, lam = extend_constants(r, lam)
        doublings += 1
        if doublings > 64:
            raise ValueError("radius target unreachable")
    return r, lam, doublings


# ---------------------------------------------------------------------------
# scalar reduction for p-norms
# ---------------------------------------------------------------------------

def onev_g(p: float, z) -> np.ndarray:
    """g(z) = |1+z|^p - 1 - p z: the coordinate term |x+y|^p - |x|^p - p y
    |x|^(p-1) sign(x) of the p-norm is |x|^p g(y/x).

    Evaluated through expm1/log1p near z = 0, where the naive form loses
    all significant digits.
    """
    if p <= 1.0:
        raise ValueError("need p > 1")
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    precise = np.expm1(p * np.log1p(zs)) - p * zs
    direct = np.abs(1.0 + z) ** p - 1.0 - p * z
    return np.where(small, precise, direct)


def onev_default_grid(points: int = 100000, z_min: float = 1e-6, z_max: float = 1e6) -> np.ndarray:
    """Sign-symmetric logarithmic grid over z_min <= |z| <= z_max, zero excluded."""
    half = max(2, points // 2)
    mags = np.logspace(math.log10(z_min), math.log10(z_max), half)
    return np.concatenate([-mags[::-1], mags])


@dataclass
class OnevScanResult:
    p: float
    inf_double_ratio: float     # inf g(2z)/g(z): > 2 certifies scalar convexity
    sup_double_ratio: float     # sup g(2z)/g(z): the scalar doubling constant
    sup_balance_ratio: float    # sup g(z)/g(-z): the scalar balance constant
    zero_limit: float           # observed limit of g(2z)/g(z) as z -> 0 (exact: 4)
    infinity_limit: float       # observed limit as |z| -> inf (exact: 2^p)
    argmin_z: float


def onev_scan(p: float, z_grid: Optional[np.ndarray] = None) -> OnevScanResult:
    """Scan g(2z)/g(z) and g(z)/g(-z) over a grid; the scan is its own oracle.

    The observed limits average the ratios at the paired grid endpoints +-z,
    which cancels the odd leading correction in both asymptotic regimes.
    """
    if z_grid is None:
        z_grid = onev_default_grid()
    z = np.asarray(z_grid, dtype=float)
    if np.any(z == 0.0):
        raise ValueError("grid must exclude z = 0")
    g1 = onev_g(p, z)
    g2 = onev_g(p, 2.0 * z)
    gm = onev_g(p, -z)
    if np.any(g1 <= 0.0):
        raise ValueError("g must be positive away from z = 0; grid too close to zero")
    dr = g2 / g1
    br = g1 / gm
    i_min = int(np.argmin(dr))

    mags = np.abs(z)
    near = mags == np.min(mags)
    far = mags == np.max(mags)
    zero_limit = float(np.mean(dr[near]))
    infinity_limit = float(np.mean(dr[far]))

    return OnevScanResult(
        p=float(p),
        inf_double_ratio=float(np.min(dr)),
        sup_double_ratio=float(np.max(dr)),
        sup_balance_ratio=float(np.max(br)),
        zero_limit=zero_limit,
        infinity_limit=infinity_limit,
        argmin_z=float(z[i_min]),
    )


# ---------------------------------------------------------------------------
# tangent-plane -> full-space transfer
# ---------------------------------------------------------------------------

@dataclass
class TransferReport:
    norm: dict
    samples: int
    seed: int
    kappa: float
    lipschitz_l: float
    checked: int
    convexity_violations: int
    doubling_violations: int
    balanced_violations: int
    max_violation: float
    passed: bool
    witnesses: list = field(default_factory=list)


# Slack of the transfer bounds, scaled by 1 + |h(x,x+y)| + |h(x,x+2y)|.
TRANSFER_SLACK = 1e-9


def transfer_check(norm: Norm, lam: float, r: float, t_const: float,
                   k_const: Optional[float] = None, samples: int = 2000,
                   seed: int = 0, kappa: Optional[float] = None) -> TransferReport:
    """Verify that full-space h ratios obey the bounds predicted by tangent constants.

    For y = alpha*x + eps*x_perp with |alpha| <= kappa and eps inside the
    certified tangent radius, geometric convexity in the tangent plane with
    constant `lam` forces

        h(x,x+2y)/h(x,x+y) >= lam * (1+2a)/(1+a) * g(1/(1+2a)) / g(1/(1+a))

    where g(s) = (||x + s*eps*x_perp|| - ||x||) / (||x + eps*x_perp|| - ||x||)
    is evaluated exactly.  Doubling and balance transfer with the Lipschitz
    surrogate L = (T^2 - 1)/2:

        h(x,x+2y) <= T * (1+2a)/(1+a) * (1+4L|a|)/(1-2L|a|) * h(x,x+y)
        h(x,x+y)  <= K * (1+a)/(1-a)  * (1+2L|a|)/(1-2L|a|) * h(x,x-y)

    valid for |alpha| <= min(1/4, 1/(2L)).  `kappa` defaults to that window;
    kappa = 0 restricts to tangent samples, where the bounds reduce to the
    tangent constants themselves.  A sample violates a bound when it exceeds
    it by more than TRANSFER_SLACK * (1 + |h(x,x+y)| + |h(x,x+2y)|).
    """
    if lam <= 2.0:
        raise ValueError("tangent convexity constant must exceed 2")
    if t_const <= 1.0:
        raise ValueError("doubling constant must exceed 1")
    big_l = (t_const * t_const - 1.0) / 2.0
    window = min(0.25, 1.0 / (2.0 * big_l))
    if kappa is None:
        kappa = window
    if kappa < 0.0 or kappa > window:
        raise TransferWindowError(
            f"kappa must lie in [0, {window!r}] = [0, min(1/4, 1/(2L))] with L = {big_l!r}")
    eps_max = (1.0 - 2.0 * kappa) * r
    if eps_max <= 0.0:
        raise TransferWindowError(
            f"admissibility window empty: (1 - 2*kappa)*r = {eps_max!r} <= 0")

    rng = np.random.default_rng(seed)
    x = _unit_vectors(norm, rng, samples)
    v = rng.standard_normal((samples, norm.dim))
    nx, n_of_x = _value_and_normal(norm, x)
    v = v - _row_sum(v * n_of_x)[:, None] * x
    nv = norm._value(v)
    good = nv > 1e-12
    nv = np.where(good, nv, 1.0)
    xp = v / nv[:, None]
    alpha = rng.uniform(-kappa, kappa, size=samples)
    eps = eps_max * 10.0 ** rng.uniform(-3.0, 0.0, size=samples)

    y = alpha[:, None] * x + eps[:, None] * xp
    h1 = _gap_at(norm, nx, n_of_x, x + y)
    h2 = _gap_at(norm, nx, n_of_x, x + 2.0 * y)
    hm = _gap_at(norm, nx, n_of_x, x - y)

    e_num = eps / (1.0 + 2.0 * alpha)
    e_den = eps / (1.0 + alpha)
    g_num = norm._value(x + e_num[:, None] * xp) - 1.0
    g_den = norm._value(x + e_den[:, None] * xp) - 1.0

    floor = FLOOR_SCALE * 2.0
    usable = good & (h1 > floor) & (g_den > floor)
    if not np.any(usable):
        raise DegenerateSampleError(
            "no informative samples in the admissibility window (kappa or r too small)")

    scale = 1.0 + np.abs(h1) + np.abs(h2)
    conv_bound = lam * (1.0 + 2.0 * alpha) / (1.0 + alpha) * g_num / g_den
    conv_viol = usable & (conv_bound * h1 - h2 > TRANSFER_SLACK * scale)

    aa = np.abs(alpha)
    doub_bound = t_const * (1.0 + 2.0 * alpha) / (1.0 + alpha) \
        * (1.0 + 4.0 * big_l * aa) / (1.0 - 2.0 * big_l * aa)
    doub_viol = usable & (h2 - doub_bound * h1 > TRANSFER_SLACK * scale)

    bal_viol = np.zeros(samples, dtype=bool)
    if k_const is not None:
        usable_b = good & (hm > floor)
        bal_bound = k_const * (1.0 + alpha) / (1.0 - alpha) \
            * (1.0 + 2.0 * big_l * aa) / (1.0 - 2.0 * big_l * aa)
        bal_viol = usable_b & (h1 - bal_bound * hm > TRANSFER_SLACK * scale)

    max_violation = 0.0
    witnesses = []
    for mask, excess in ((conv_viol, conv_bound * h1 - h2),
                         (doub_viol, h2 - doub_bound * h1)):
        if np.any(mask):
            i = int(np.argmax(np.where(mask, excess, -np.inf)))
            max_violation = max(max_violation, float(excess[i]))
            witnesses.append(_witness(x[i], y[i]))
    if k_const is not None and np.any(bal_viol):
        excess = h1 - bal_bound * hm
        i = int(np.argmax(np.where(bal_viol, excess, -np.inf)))
        max_violation = max(max_violation, float(excess[i]))
        witnesses.append(_witness(x[i], y[i]))

    n_conv = int(np.count_nonzero(conv_viol))
    n_doub = int(np.count_nonzero(doub_viol))
    n_bal = int(np.count_nonzero(bal_viol))
    return TransferReport(
        norm=norm.descriptor(), samples=samples, seed=seed, kappa=float(kappa),
        lipschitz_l=float(big_l), checked=int(np.count_nonzero(usable)),
        convexity_violations=n_conv, doubling_violations=n_doub,
        balanced_violations=n_bal, max_violation=max_violation,
        passed=(n_conv == 0 and n_doub == 0 and n_bal == 0), witnesses=witnesses)
