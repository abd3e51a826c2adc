"""Moduli of geometric convexity and empirical norm constants.

The modulus of geometric convexity at x is

    sigma(x, t) = max { h(x, x + y) : ||y|| <= t },

whose maximizers lie on the sphere ||y|| = t and satisfy the stationarity
condition N(x+y) - N(x) = alpha * N(y) with alpha > 0.  `moduli` solves a
batch of such problems: one projected ascent over arrays of shape
(problems, starts, dim), with each problem's N(x) computed one row at a time
through `Norm.normal`; then one BFGS polish of the two best starts of every
problem, all in lockstep with one objective call per round; then each
problem's `modulus` call ranks its starts and judges the KKT residual.
`modulus` alone solves a batch of one.

Around the modulus this module estimates, by seeded sampling with
witnesses:

* geometric convexity   Lambda = inf h(x, x+2y) / h(x, x+y)   (> 2 wanted)
* doubling              T      = sup h(x, x+2y) / h(x, x+y)
* balancedness          K      = sup h(x, x+y) / h(x, x-y)
* uniform convexity A and uniform smoothness B with exponents (p, q)

each over ||y|| <= r ||x||, either unrestricted ("full") or restricted to
the tangent plane <y, N(x)> = 0 ("tangent").  Each estimator works in two
steps.  First `_draw` makes all of its generator draws over the whole
sample, in one fixed order: the stream cannot be cut into pieces without
changing it.  Then every step after the draws runs over blocks of
BLOCK_ROWS rows, whose temporaries stay in cache: unit x, N(x) once per
block (the tangent projection and every gap at that x reuse it), y, the
gaps, the masks and the ratios; `_sample` is that step for Lambda, T and K.
Each block copies its slice of the draws column-major (`np.asfortranarray`),
while the draws stay C-ordered and the stream unchanged: on C-ordered
(rows, dim) arrays numpy's inner loop runs over the short dim axis, on
column-major ones over the rows at unit stride, and `_row_sum` and
`_row_max` read contiguous columns.  Only a block's first extremum and its
witness outlive it, and a later block replaces them only where the pick
over the two prefers the later one, so the first index still wins ties,
NaN included, as one pick over the whole sample would; every block runs
once.  Neither the block size nor the layout moves a bit, because every
step after the draws works row by row: `_row_sum` and `_row_max` reduce
each row alone, the zero-row branches of `_value_and_normal` and
`_unit_vectors` replace single rows, every other step is elementwise, and
numpy's SIMD pow gives the same bits in every lane wherever a block starts
and on C-ordered, column-major and strided arrays alike.  Every h here but
the BFGS polish's is `gap._gap_at`.  `transfer_check` verifies the
quantitative bridge from tangent-plane constants to full-space ratios, and
`onev_scan` verifies the scalar reduction that powers the p-norm proofs.

Estimated constants are empirical: they are extrema over samples, reported
together with the witnessing pair, and carry no proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

import numpy as np
# numpy loads `numpy.random` lazily; importing it here keeps that load in a
# CLI call's start-up, since `cli` imports `atlas` and `atlas` this module.
from numpy.random import default_rng

from ._optimize import minimize
from .gap import _gap_at
from .norms import (Norm, ZERO_THRESHOLD, _check_p, _row_dot, _row_sum, _value_and_normal,
                    as_vector)

# Ratio denominators below 1e-12 * (1 + ||x||) are excluded: along
# positively-parallel directions both sides vanish and 0/0 says nothing.
FLOOR_SCALE = 1e-12


class DegenerateSampleError(RuntimeError):
    """A seeded sample left nothing to estimate or check: no ratio above its
    floor, or too few admissible configurations or sticks.  CLI exit 2."""


class TransferWindowError(ValueError):
    """The admissibility window of a tangent-to-full check is empty."""


class PreconditionError(ValueError):
    """A named hypothesis of a theorem-backed operation failed."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(f"[{hypothesis}] {message}")
        self.hypothesis = hypothesis


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


def _halton_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the Euclidean sphere.

    Points 1..count of the unscrambled Halton sequence (point 0 is the
    origin): coordinate j is the radical inverse of the point's index in the
    j-th prime base, its digits mirrored about the radix point.  The points
    are mapped through the Gaussian quantile and normalized.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]] * ((count + 1) // 2))[:count]
    u = np.zeros((count, dim))
    for j, base in enumerate(_primes(dim)):
        index, scale = np.arange(1, count + 1), 1.0 / base
        while np.any(index > 0):
            u[:, j] += (index % base) * scale
            index, scale = index // base, scale / base
    g = np.vectorize(NormalDist().inv_cdf, otypes=[float])(np.clip(u, 1e-12, 1.0 - 1e-12))
    nrm = np.sqrt(np.sum(g * g, axis=-1))
    nrm[nrm < 1e-12] = 1.0
    return g / nrm[:, None]


def _coarse_directions(dim: int) -> np.ndarray:
    """Cheap quasi-uniform direction sweep of the sphere in dim 2 or 3, used
    to seed the multi-start."""
    if dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    count = 1500
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + math.sqrt(5.0)) * i
    return np.stack([np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)],
                    axis=-1)


def _polish_on_sphere(norm: Norm, x: np.ndarray, t: np.ndarray, y0: np.ndarray,
                      n_of_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BFGS refinement of sphere maximizers via the parametrization
    y = t*u/||u||: row i maximizes h(x[i], x[i] + y) on ||y|| = t[i] from
    y0[i], with N(x[i]) = n_of_x[i].  Every row's BFGS runs in lockstep
    (`minimize`), one `neg` call per round.  Returns the polished y and h
    there, of shapes (rows, dim) and (rows,); a row whose u reached the
    origin keeps its y0 with h = -inf.

    Each row of `neg` equals, bit for bit, what the objective gives on that
    row's vector alone, so a row's polish does not depend on its batch: dot
    products by `_row_dot`, every other step row by row.  A row with ||u||
    below ZERO_THRESHOLD gives +0.0 and a zero gradient."""

    def neg(index: np.ndarray, u: np.ndarray):
        f = np.zeros(len(u))
        grad = np.zeros(u.shape)
        nu = norm._value(u)
        live = nu >= ZERO_THRESHOLD
        if not np.all(live):
            index, u, nu = index[live], u[live], nu[live]
        tl, n_x = t[index][:, None], n_of_x[index]
        z = x[index] + tl * u / nu[:, None]
        vz, n_of_z = _value_and_normal(norm, z)
        g = n_of_z - n_x
        n_of_u = norm._normal(u, nu)
        f[live] = -(vz - _row_dot(z, n_x))
        grad[live] = -((tl / nu[:, None]) * (g - (_row_dot(u, g) / nu)[:, None] * n_of_u))
        return f, grad

    u = np.stack([res.x for res in minimize(neg, y0, gtol=1e-12, maxiter=200)])
    nu = norm._value(u)
    live = nu >= ZERO_THRESHOLD
    y = t[:, None] * u / np.where(live, nu, 1.0)[:, None]
    z = x + y
    return (np.where(live[:, None], y, y0),
            np.where(live, norm._value(z) - _row_dot(z, n_of_x), -np.inf))


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


def _ascent(norm: Norm, x: np.ndarray, n_of_x: np.ndarray, t: np.ndarray, y: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected ascent of h(x, x+y) on the spheres ||y|| = t from the starts
    y of shape (problems, starts, dim); x and n_of_x are (problems, 1, dim)
    and t is (problems, 1).  Every start moves along N(x+y) - N(x) with its
    own step, grown 1.3x on success and halved on failure, and a problem
    freezes once all of its steps are below 1e-9 t.  Returns the final
    starts, their values and each problem's iteration count."""
    f = _gap_at(norm, n_of_x, x + y)
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
        fc = _gap_at(norm, nl, xl + cand)
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
    """One modulus problem (x, t), checked: x a vector of the norm's dim, 0 < t < inf."""
    x = as_vector(x, norm.dim)
    t = float(t)
    _check_radius(t, "t")
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
        top = [np.argsort(_gap_at(norm, ni, xi + ti * sweep / v_sweep))[::-1][:4]
               for xi, ti, ni in zip(rows, radii, normals)]
        u = np.concatenate([sweep[np.array(top)], np.broadcast_to(u, (len(rows), k, n))],
                           axis=1)
    y = t[..., None] * u / norm._value(u)[..., None]
    return _ascent(norm, x, n_of_x, t, y, max_iter)


def moduli(norm: Norm, xs, ts, *, n_starts: int = 32, max_iter: int = 200) -> list[ModulusResult]:
    """`modulus` of each problem (xs[i], ts[i]), from one batched ascent and
    one batched polish.

    The problems are checked once, in order, each with its N(x) through
    `Norm.normal`, so that a zero x raises before a later problem is read;
    each problem's `modulus` call is handed that N(x).  The projected ascent
    runs once over arrays of shape (problems, starts, dim), each problem
    stopping on its own rule.  Then the two best starts of every
    problem go to one `_polish_on_sphere` call, whose BFGS runs all of them
    in lockstep, and a polished start replaces its ascended one where it is
    higher.  Each row of the polish takes the arithmetic of that start
    polished alone, so a problem's result does not depend on the batch it
    is in.  Last, each problem's `modulus` call ranks its starts and judges
    convergence against KKT_TOL, so a wrapper of `modulus` (a call counter,
    a tracer) sees one call and one result per problem.
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
    prob, start = np.array([(i, row) for i in range(len(rows))
                            for row in np.argsort(f[i])[::-1][:2]]).T
    yp, fp = _polish_on_sphere(norm, np.stack(rows)[prob], np.array(radii)[prob],
                               y[prob, start], np.stack(normals)[prob])
    better = fp > f[prob, start]
    y[prob[better], start[better]] = yp[better]
    f[prob[better], start[better]] = fp[better]
    return [modulus(norm, x, t, starts=(y[i], f[i], int(iterations[i]), n_of_x))
            for i, (x, t, n_of_x) in enumerate(zip(rows, radii, normals))]


def modulus(norm: Norm, x, t: float, *, n_starts: int = 32, max_iter: int = 200,
            starts: Optional[tuple[np.ndarray, np.ndarray, int, np.ndarray]] = None
            ) -> ModulusResult:
    """Maximize h(x, x+y) over the sphere ||y|| = t by multi-start projected ascent.
    Starts come from a deterministic low-discrepancy set, so the result is
    reproducible; for dim 2 and 3 the four best directions of a coarse sweep
    lead them.  The leading two candidates are polished by BFGS on the
    scale-invariant parametrization y = t*u/||u||.  The first start within
    1e-9 of the best value wins, which pins down the returned maximizer when
    the maximizing set is a continuum.  The result is `converged` when the
    KKT residual of the winner is at most KKT_TOL and its multiplier is not
    negative; non-convergence is reported there, never silently.

    `starts` is how `moduli`, which checks, ascends and polishes a batch of
    problems at once, hands one checked problem its share: the polished
    starts (starts, dim) on the sphere, their values h(x, x+y), the
    problem's ascent iteration count and N(x).  Given, x and t must be the
    float row and radius that `_problem` returned for this problem, and
    N(x) the problem's `Norm.normal(x)`: this only ranks the starts and
    computes the KKT residual, checks nothing again, and reads neither
    n_starts nor max_iter.  Left None, this is `moduli` of one problem.
    """
    if starts is None:
        return moduli(norm, [x], [t], n_starts=n_starts, max_iter=max_iter)[0]
    y, f, iterations, n_of_x = starts

    # First start within 1e-9 of the best value, in start order.
    best_val = float(np.max(f))
    best = int(np.nonzero(f >= best_val - 1e-9)[0][0])
    y_best = y[best].copy()
    sigma = float(f[best])

    n_of_y, alpha, kkt = _kkt(norm, x, t, y_best, n_of_x)
    converged = bool(kkt <= KKT_TOL and alpha >= -1e-9)
    return ModulusResult(sigma=sigma, t=t, maximizer_y=y_best, normal_at_y=n_of_y,
                         kkt_residual=kkt, kkt_multiplier=alpha, converged=converged,
                         iterations=iterations)


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


# Rows per block of the sampled estimators: every step after the draws runs
# over blocks this size, so its temporaries stay in cache.  On certify-p3
# with column-major blocks, 4,096, 8,192 and 16,384 were within noise of
# each other (CPU medians of 10 in-process calls, 0.51/0.50/0.51 s).
BLOCK_ROWS = 8192


def _check_constants(lam=None, t=None, k=None) -> None:
    """PreconditionError unless 2 < Lambda < inf, 1 < T < inf and 1 <= K < inf,
    checked in that order for each constant given."""
    if lam is not None and not 2.0 < lam < math.inf:
        raise PreconditionError("lambda_range", f"need 2 < Lambda < inf, got {lam!r}")
    if t is not None and not 1.0 < t < math.inf:
        raise PreconditionError("t_range", f"need 1 < T < inf, got {t!r}")
    if k is not None and not 1.0 <= k < math.inf:
        raise PreconditionError("k_range", f"need 1 <= K < inf, got {k!r}")


def _check_radius(radius: float, name: str) -> None:
    if radius <= 0.0:
        raise ValueError(f"{name} must be positive")
    if not math.isfinite(radius):
        raise ValueError(f"{name} must be finite, got {radius!r}")


def _check_samples(samples: int) -> None:
    if not 1 <= samples < math.inf:
        raise ValueError("samples must be >= 1" if samples < math.inf else "samples must be finite")


def _check_mode(mode: str) -> None:
    if mode not in ("full", "tangent"):
        raise ValueError("mode must be 'full' or 'tangent'")


def _check_exponents(p: Optional[float], q: Optional[float]) -> tuple[float, float]:
    if p is None or q is None or not 1.0 < float(q) <= float(p):
        raise ValueError("need 1 < q <= p")
    if float(p) == math.inf:
        raise ValueError("need p < inf, got p = inf")
    return float(p), float(q)


def _draw(norm: Norm, rng: np.random.Generator, count: int, low: float,
          high: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of one sample, in stream order: two standard-normal batches
    of shape (count, dim), then count uniforms on [low, high)."""
    return (rng.standard_normal((count, norm.dim)), rng.standard_normal((count, norm.dim)),
            rng.uniform(low, high, size=count))


def _unit_vectors(norm: Norm, v: np.ndarray) -> np.ndarray:
    """The rows of v over their norms; a row below 1e-12 is replaced by e1."""
    nv = norm._value(v)
    bad = nv < 1e-12
    if np.any(bad):
        e1 = np.eye(norm.dim)[0]
        v, nv = np.where(bad[:, None], e1, v), np.where(bad, norm._value(e1), nv)
    return v / nv[:, None]


def _tangent(x: np.ndarray, n_of_x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v projected along unit x onto the tangent plane <., N(x)> = 0."""
    return v - _row_sum(v * n_of_x)[:, None] * x


def _scaled(norm: Norm, v: np.ndarray, size=1.0) -> tuple[np.ndarray, np.ndarray]:
    """(size * v / ||v||, ||v|| > 1e-12) for rows v and a column or scalar
    size; a row below that floor is divided by 1 instead and masked out."""
    nv = norm._value(v)
    good = nv > 1e-12
    return size * v / np.where(good, nv, 1.0)[:, None], good


def _sample(norm: Norm, radius: float, mode: str, g: np.ndarray, v: np.ndarray,
            u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the Lambda, T and K sample from their draws (`_draw` on
    [-4, 0)): unit x from g, N(x), y along v with ||y|| = radius * 10**u (v
    first projected onto <., N(x)> = 0 in tangent mode) and the mask of
    valid y."""
    x = _unit_vectors(norm, g)
    n_of_x = _value_and_normal(norm, x)[1]
    if mode == "tangent":
        v = _tangent(x, n_of_x, v)
    y, good = _scaled(norm, v, (radius * 10.0 ** u)[:, None])
    return x, n_of_x, y, good


def _witness(x: np.ndarray, y: np.ndarray) -> list:
    return [[float(v) for v in x], [float(v) for v in y]]


def _extremum(draws: tuple, block, pick, empty: str) -> tuple[float, list]:
    """The ratio that `pick` (np.argmin or np.argmax) selects over the rows
    of `draws`, run BLOCK_ROWS rows at a time, and its witness pair.

    `block(*rows)` maps one block of each draw, copied column-major, to
    (ratios, kept, x, y): the ratios of the rows its mask `kept` holds, in
    row order, and the rows' x and y.  Each block's first pick is kept with
    its witness, and a later block replaces it only where `pick` over the
    two prefers the later one, so the first index wins ties, NaN included,
    as over the whole sample at once.  Raises DegenerateSampleError(empty)
    if no row is kept."""
    best = None
    for lo in range(0, len(draws[0]), BLOCK_ROWS):
        ratios, kept, x, y = block(*(np.asfortranarray(d[lo:lo + BLOCK_ROWS]) for d in draws))
        if not ratios.size:
            continue
        i = int(pick(ratios))
        if best is None or pick([best[0], ratios[i]]) == 1:
            row = np.flatnonzero(kept)[i]
            best = (float(ratios[i]), _witness(x[row], y[row]))
    if best is None:
        raise DegenerateSampleError(empty)
    return best


def _sampled_extremum(norm: Norm, radius: float, name: str, mode: str, samples: int,
                      seed: int, ratios, pick, empty: str) -> tuple[float, list]:
    """The `_extremum` of the Lambda, T or K sample drawn at `seed`, where
    `ratios(norm, x, N(x), y, good)` gives a block's kept ratios and their
    mask; the radius is checked under `name`."""
    _check_radius(radius, name)
    _check_samples(samples)
    _check_mode(mode)

    def block(g, v, u):
        x, n_of_x, y, good = _sample(norm, radius, mode, g, v, u)
        return (*ratios(norm, x, n_of_x, y, good), x, y)

    return _extremum(_draw(norm, default_rng(seed), samples, -4.0, 0.0), block, pick, empty)


def _doubling_ratios(norm: Norm, x, n_of_x, y, good) -> tuple[np.ndarray, np.ndarray]:
    h1 = _gap_at(norm, n_of_x, x + y)
    h2 = _gap_at(norm, n_of_x, x + 2.0 * y)
    ok = good & (h1 > FLOOR_SCALE * 2.0) & np.isfinite(h2)
    return h2[ok] / h1[ok], ok


def _doubling_extremum(norm: Norm, r: float, mode: str, samples: int, seed: int,
                       pick) -> tuple[float, list]:
    return _sampled_extremum(norm, r, "r", mode, samples, seed, _doubling_ratios, pick,
                             "no informative samples: every h(x, x+y) fell below the floor")


def estimate_lambda(norm: Norm, r: float, mode: str = "full",
                    samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Infimum of h(x, x+2y)/h(x, x+y) over ||y|| <= r, with witness.

    A value above 2 is evidence of geometric convexity with constants (r, Lambda).
    """
    lam, witness = _doubling_extremum(norm, r, mode, samples, seed, np.argmin)
    return ConstantsReport(norm=norm.descriptor(), mode=mode, samples=samples, seed=seed,
                           lambda_hat=lam, r=float(r), worst_witnesses=[witness])


def estimate_doubling(norm: Norm, r: float, mode: str = "full",
                      samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Supremum of h(x, x+2y)/h(x, x+y) over ||y|| <= r (the doubling constant T)."""
    t, witness = _doubling_extremum(norm, r, mode, samples, seed, np.argmax)
    return ConstantsReport(norm=norm.descriptor(), mode=mode, samples=samples, seed=seed,
                           t_hat=t, r=float(r), worst_witnesses=[witness])


def _balance_ratios(norm: Norm, x, n_of_x, y, good) -> tuple[np.ndarray, np.ndarray]:
    h_plus = _gap_at(norm, n_of_x, x + y)
    h_minus = _gap_at(norm, n_of_x, x - y)
    ok = good & (h_minus > FLOOR_SCALE * 2.0) & (h_plus >= 0.0)
    return h_plus[ok] / h_minus[ok], ok


def estimate_balanced(norm: Norm, bound: float, mode: str = "full",
                      samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Supremum of h(x, x+y)/h(x, x-y) over ||y|| <= bound (the balanced constant K)."""
    k, witness = _sampled_extremum(
        norm, bound, "bound", mode, samples, seed, _balance_ratios, np.argmax,
        "no informative samples: every h(x, x-y) fell below the floor")
    return ConstantsReport(norm=norm.descriptor(), mode=mode, samples=samples, seed=seed,
                           k_hat=k, r=float(bound), worst_witnesses=[witness])


def _convexity_extremum(norm: Norm, p: float, rng: np.random.Generator,
                        count: int) -> tuple[float, list]:
    """a_hat and its witness from `count` unit pairs (e, ebar) drawn from rng."""

    def block(g, w, u):
        e = _unit_vectors(norm, g)
        ebar = _unit_vectors(norm, e + (10.0 ** u)[:, None] * w)
        d = norm._value(e - ebar)
        num = 2.0 - norm._value(e + ebar)
        ok = d > 1e-6
        return num[ok] / d[ok] ** p, ok, e, ebar

    return _extremum(_draw(norm, rng, count, -3.0, math.log10(2.0)), block, np.argmin,
                     "no informative unit pairs for the convexity constant")


def _smoothness_extremum(norm: Norm, q: float, rng: np.random.Generator,
                         count: int) -> tuple[float, list]:
    """b_hat and its witness from `count` pairs (unit x, y) drawn from rng."""

    def block(g, w, u):
        x = _unit_vectors(norm, g)
        y = _scaled(norm, w, (10.0 ** u)[:, None])[0]
        ny = norm._value(y)
        smooth = norm._value(x + y) + norm._value(x - y) - 2.0
        ok = ny > 1e-6
        return smooth[ok] / ny[ok] ** q, ok, x, y

    return _extremum(_draw(norm, rng, count, -3.0, 0.0), block, np.argmax,
                     "no informative pairs for the smoothness constant")


def estimate_uniform_constants(norm: Norm, p: float, q: float,
                               samples: int = 100000, seed: int = 0) -> ConstantsReport:
    """Empirical uniform-convexity A and uniform-smoothness B for exponents (p, q).

        a_hat = inf (2 - ||e + ebar||) / ||e - ebar||^p  over unit e != ebar
        b_hat = sup (||x + y|| + ||x - y|| - 2) / ||y||^q  over unit x, y != 0

    Separations are sampled log-uniformly so the small-gap regime, where both
    extrema bind, is well covered.
    """
    p, q = _check_exponents(p, q)
    _check_samples(samples)
    rng = default_rng(seed)
    half = samples // 2 + 1
    a_hat, a_witness = _convexity_extremum(norm, p, rng, half)
    b_hat, b_witness = _smoothness_extremum(norm, q, rng, half)
    return ConstantsReport(norm=norm.descriptor(), mode="uniform", samples=samples,
                           seed=seed, a_hat=a_hat, p=p, b_hat=b_hat, q=q,
                           worst_witnesses=[a_witness, b_witness])


# ---------------------------------------------------------------------------
# derived constants and checks
# ---------------------------------------------------------------------------

def extend_constants(r: float, lam: float) -> tuple[float, float]:
    """Double the certified radius: constants (r, Lambda) imply (2r, 3 - 2/Lambda).

    The degraded constant stays above 2, so the step can be iterated to
    reach any radius.  ValueError unless 2 < lam < inf and 0 < r < inf.
    """
    _check_constants(lam=lam)
    _check_radius(r, "r")
    return 2.0 * r, 3.0 - 2.0 / lam


def extend_constants_to(r: float, lam: float, radius: float) -> tuple[float, float, int]:
    """Iterate `extend_constants` until the certified radius reaches `radius`.

    Returns (new_radius, degraded_lambda, doublings).  ValueError unless
    2 < lam < inf, 0 < r < inf and 0 < radius < inf, even with no doubling.
    """
    _check_constants(lam=lam)
    _check_radius(r, "r")
    _check_radius(radius, "radius")
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

def _onev_z_limit(p: float) -> float:
    """The largest |z| at which `onev_g(p, z)` is finite, with 1e-6 of the
    float range to spare: 0 <= g(z) <= (1 + |z|)^p + p|z|."""
    _check_p(p)
    big = np.finfo(float).max * (1.0 - 1e-6)
    a = math.expm1(math.log(big) / p)      # (1 + a)^p = big
    # Either bound of p|z|, by p a or by p (1 + |z|)^p, keeps the sum within big.
    return math.expm1(math.log(max(big - p * a, big / (1.0 + p))) / p)


def onev_g(p: float, z) -> np.ndarray:
    """g(z) = |1+z|^p - 1 - p z: the coordinate term |x+y|^p - |x|^p - p y
    |x|^(p-1) sign(x) of the p-norm is |x|^p g(y/x).

    Evaluated through expm1/log1p near z = 0, where the naive form loses
    all significant digits.  Rejects a non-finite z, and a |z| at which g
    would overflow.
    """
    limit = _onev_z_limit(p)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    if not np.all(np.abs(z) <= limit):
        raise ValueError(f"g overflows for p = {p!r}; need |z| <= {limit!r}")
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    precise = np.expm1(p * np.log1p(zs)) - p * zs
    direct = np.abs(1.0 + z) ** p - 1.0 - p * z
    return np.where(small, precise, direct)


def onev_default_grid(points: int = 100000, z_min: float = 1e-6, z_max: float = 1e6) -> np.ndarray:
    """Sign-symmetric logarithmic grid over z_min <= |z| <= z_max, zero
    excluded: 2 * (points // 2) values, at least 4."""
    if points < 4:
        raise ValueError(f"need points >= 4, got {points!r}")
    for name, bound in (("z_min", z_min), ("z_max", z_max)):
        if not bound > 0.0:
            raise ValueError(f"need {name} > 0, got {bound!r}")
    if z_min > z_max:
        raise ValueError(f"need z_min <= z_max, got {z_min!r} > {z_max!r}")
    half = points // 2
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
    A grid with a non-finite value is rejected first, and one on which g(2z)
    overflows with the largest z_max that p admits.
    """
    if z_grid is None:
        z_grid = onev_default_grid()
    z = np.asarray(z_grid, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("grid values must be finite")
    if np.any(z == 0.0):
        raise ValueError("grid must exclude z = 0")
    # g is convex with g(0) = 0, so g(+-2 z_max) bound every value below.
    z_max = float(np.max(np.abs(z)))
    limit = _onev_z_limit(p)
    if 2.0 * z_max > limit:
        # 1e-5 to spare keeps the 6-digit z_max below the exact limit.
        raise ValueError(f"g(2z) overflows for p = {p!r} at z_max = {z_max!r}; "
                         f"need z_max <= {0.5 * limit * (1.0 - 1e-5):.6g}")
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
    ValueError before any draw unless, in order, 2 < lam, 1 < t_const, 1 <= k_const
    (all < inf), kappa lies in the window, r > 0 (TransferWindowError for these
    two), r < inf and samples >= 1.
    """
    _check_constants(lam=lam, t=t_const, k=k_const)
    big_l = (t_const * t_const - 1.0) / 2.0
    window = min(0.25, 1.0 / (2.0 * big_l))
    if kappa is None:
        kappa = window
    if not 0.0 <= kappa <= window:
        raise TransferWindowError(
            f"kappa must lie in [0, {window!r}] = [0, min(1/4, 1/(2L))] with L = {big_l!r}")
    eps_max = (1.0 - 2.0 * kappa) * r
    if eps_max <= 0.0:
        raise TransferWindowError(
            f"admissibility window empty: (1 - 2*kappa)*r = {eps_max!r} <= 0")
    _check_radius(r, "r")
    _check_samples(samples)

    rng = default_rng(seed)
    g, v, alpha = _draw(norm, rng, samples, -kappa, kappa)
    eps = eps_max * 10.0 ** rng.uniform(-3.0, 0.0, size=samples)
    x = _unit_vectors(norm, g)
    n_of_x = _value_and_normal(norm, x)[1]
    xp, good = _scaled(norm, _tangent(x, n_of_x, v))

    y = alpha[:, None] * x + eps[:, None] * xp
    h1 = _gap_at(norm, n_of_x, x + y)
    h2 = _gap_at(norm, n_of_x, x + 2.0 * y)
    hm = _gap_at(norm, n_of_x, x - y)

    e_num = eps / (1.0 + 2.0 * alpha)
    e_den = eps / (1.0 + alpha)
    g_num = norm._value(x + e_num[:, None] * xp) - 1.0
    g_den = norm._value(x + e_den[:, None] * xp) - 1.0

    floor = FLOOR_SCALE * 2.0
    usable = good & (h1 > floor) & (g_den > floor)
    if not np.any(usable):
        raise DegenerateSampleError(
            "no informative samples in the admissibility window (kappa or r too small)")

    conv_bound = lam * (1.0 + 2.0 * alpha) / (1.0 + alpha) * g_num / g_den
    aa = np.abs(alpha)
    doub_bound = t_const * (1.0 + 2.0 * alpha) / (1.0 + alpha) \
        * (1.0 + 4.0 * big_l * aa) / (1.0 - 2.0 * big_l * aa)
    # (samples a bound applies to, their excess over it), in report order.
    checks = [(usable, conv_bound * h1 - h2), (usable, h2 - doub_bound * h1)]
    if k_const is not None:
        bal_bound = k_const * (1.0 + alpha) / (1.0 - alpha) \
            * (1.0 + 2.0 * big_l * aa) / (1.0 - 2.0 * big_l * aa)
        checks.append((good & (hm > floor), h1 - bal_bound * hm))

    slack = TRANSFER_SLACK * (1.0 + np.abs(h1) + np.abs(h2))
    counts, max_violation, witnesses = [0, 0, 0], 0.0, []
    for k, (applies, excess) in enumerate(checks):
        violated = applies & (excess > slack)
        counts[k] = int(np.count_nonzero(violated))
        if counts[k]:
            i = int(np.argmax(np.where(violated, excess, -np.inf)))
            max_violation = max(max_violation, float(excess[i]))
            witnesses.append(_witness(x[i], y[i]))

    n_conv, n_doub, n_bal = counts
    return TransferReport(
        norm=norm.descriptor(), samples=samples, seed=seed, kappa=float(kappa),
        lipschitz_l=float(big_l), checked=int(np.count_nonzero(usable)),
        convexity_violations=n_conv, doubling_violations=n_doub,
        balanced_violations=n_bal, max_violation=max_violation,
        passed=(n_conv == 0 and n_doub == 0 and n_bal == 0), witnesses=witnesses)
