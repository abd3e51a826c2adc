"""Directed segments ("sticks"), the two-sticks condition, and endpoint bounds.

A stick is the directed segment [a, b]; direction is part of its identity,
and swapping endpoints generally breaks the conditions below.  Two sticks
l = [l0, l1] and m = [m0, m1] satisfy the *two sticks condition* when

    ||l1 - m0|| >= ||l1 - l0||   and   ||m1 - l0|| >= ||m1 - m0||,

i.e. each terminal point is at least as far from the other stick's initial
point as from its own.  Under it (plus equal length where stated) the
terminal gap l1 - m1 is controlled by the gap between interior points:
exactly Lipschitz in the Euclidean case, Hölder with exponent q/p for
p-uniformly convex / q-uniformly smooth norms, and - for geometrically
convex balanced norms - confined to a strip of width proportional to the
radius of a small ball both sticks pass through.

`pair_verdicts` is the one array path for these checks: it takes the
endpoints of a batch of pairs as (pairs, dim) arrays and returns the
lengths, the two-sticks and equal-length predicates, the Hölder ratio, the
Euclidean estimates and the verdict `violated`, one entry per pair.  The
one-pair functions `two_sticks_check` and `holder_ratio` are one-row calls
of it or of its parts; a one-pair Euclidean estimate, or the derived pairs
of one pair (reversed, tail and sub-sticks), are rows of one `pair_verdicts`
call.  `_require` alone raises the pair hypotheses, in the order
parameters, positive length, two-sticks, equal length; `_special_index`,
which `strip_experiment` applies, is the one special-stick rule.  Every
verdict slack is a fixed `*_SLACK` constant next to the bound it pads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

# `modulus` has no caller here; perfbench/selftest.py wraps it under this name.
from .convexity import moduli, modulus  # noqa: F401
from .gap import _gap_at
from .norms import EuclideanNorm, Norm, _check_batch, _value_and_normal, as_vector


class DegenerateStickError(ValueError):
    """Zero-length stick where an estimate divides by the length."""


class PreconditionError(ValueError):
    """A named hypothesis of a theorem-backed operation failed."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(f"[{hypothesis}] {message}")
        self.hypothesis = hypothesis


@dataclass
class Stick:
    """Directed segment from `start` to `end`; [a, b] != [b, a]."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        self.start = as_vector(self.start)
        self.end = as_vector(self.end, dim=self.start.shape[0])

    @property
    def dim(self) -> int:
        return self.start.shape[0]

    def direction(self) -> np.ndarray:
        return self.end - self.start

    def length(self, norm: Norm) -> float:
        """||end - start||; ValueError unless the stick has the norm's dimension."""
        if self.dim != norm.dim:
            raise ValueError(f"dimension mismatch: {self.dim}-d stick, {norm.dim}-d norm")
        return float(norm._value(self.end - self.start))

    def point_at(self, t: float) -> np.ndarray:
        """Affine interpolation (1-t)*start + t*end; t outside [0, 1] extrapolates."""
        return (1.0 - t) * self.start + t * self.end

    def scaled(self, factor: float) -> "Stick":
        return Stick(factor * self.start, factor * self.end)


# ---------------------------------------------------------------------------
# pair verdicts: one array path for a batch of pairs
# ---------------------------------------------------------------------------

# Parameters over which `pair_verdicts` takes the largest interpolation residual.
INTERP_TS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Slacks of the two-sticks and equal-length predicates, scaled by
# 1 + len_l + len_m, and of the Euclidean bounds (see `PairVerdicts`).
CHECK_SLACK = 1e-12
EQUAL_LENGTH_SLACK = 1e-9
MONOTONICITY_SLACK = 1e-12
INTERP_SLACK = 1e-12
LIPSCHITZ_SLACK = 1e-9


@dataclass
class PairVerdicts:
    """Per-pair quantities of a batch of pairs l = [l0, l1], m = [m0, m1].

    Every field holds one entry per pair.  `holder_ratio` is None unless q
    and p were given; the three Euclidean quantities are None unless s was.
    `violated` is None unless a ratio was asked for; then it is True where
    the Hölder ratio is not finite (no constant C is checked), or where
    monotonicity < -MONOTONICITY_SLACK * scale, interp_residual >
    INTERP_SLACK * scale or lipschitz_ratio > 1 + LIPSCHITZ_SLACK, with
    scale = 1 + ||l0 - m0||_2.
    """

    len_l: np.ndarray
    len_m: np.ndarray
    two_sticks: np.ndarray
    equal_length: np.ndarray
    holder_ratio: Optional[np.ndarray] = None
    monotonicity: Optional[np.ndarray] = None
    interp_residual: Optional[np.ndarray] = None
    lipschitz_ratio: Optional[np.ndarray] = None
    violated: Optional[np.ndarray] = None


def _endpoints(norm: Norm, l0, l1, m0, m1) -> list:
    """The four endpoint batches as checked (pairs, dim) arrays of one shape."""
    arrays = [_check_batch(a, norm.dim) for a in (l0, l1, m0, m1)]
    if arrays[0].ndim != 2 or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError(f"dimension mismatch: l0, l1, m0, m1 must share one "
                         f"(pairs, {norm.dim}) shape, got {[a.shape for a in arrays]}")
    return arrays


def _stick_rows(norm: Norm, l: Stick, m: Stick) -> list:
    """The pair (l, m) as one-row endpoint batches."""
    return _endpoints(norm, l.start[None], l.end[None], m.start[None], m.end[None])


def _point(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """Rows of (1-t) a + t b, in the op order of `Stick.point_at`; t is one
    scalar or one value per row."""
    t = np.asarray(t)[..., None]
    return (1.0 - t) * a + t * b


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a, b>, through the dot kernel `np.dot` uses on two vectors."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pair_checks(norm: Norm, l0, l1, m0, m1) -> PairVerdicts:
    """Lengths, the two-sticks predicate (`CHECK_SLACK`) and the equal-length
    predicate (`EQUAL_LENGTH_SLACK`)."""
    len_l = norm._value(l1 - l0)
    len_m = norm._value(m1 - m0)
    slack = CHECK_SLACK * (1.0 + len_l + len_m)
    two_sticks = ((norm._value(l1 - m0) >= len_l - slack)
                  & (norm._value(m1 - l0) >= len_m - slack))
    equal_length = np.abs(len_l - len_m) <= EQUAL_LENGTH_SLACK * (1.0 + len_l + len_m)
    return PairVerdicts(len_l, len_m, two_sticks, equal_length)


def _require(two_sticks, equal_length=None, *, params=None, need: str = "",
             len_l=None) -> None:
    """Raise for the lowest-index pair that fails a hypothesis given (True
    where it holds; `len_l` are the lengths; None is not checked), with the
    first it fails in this order: `params` (PreconditionError "parameters",
    constraint text `need`), positive length (DegenerateStickError),
    two-sticks, equal length (PreconditionError)."""
    checks = []
    if params is not None:
        checks.append((~params, lambda k: PreconditionError("parameters",
                                                            f"pair {k}: need {need}")))
    if len_l is not None:
        checks.append((len_l < 1e-12, lambda k: DegenerateStickError(
            f"pair {k}: sticks must have positive length")))
    checks.append((~two_sticks, lambda k: PreconditionError("two_sticks", f"pair {k} fails "
                                                            "the two-sticks condition")))
    if equal_length is not None:
        checks.append((~equal_length, lambda k: PreconditionError("equal_length", f"pair {k}: "
                                                                  "sticks must have equal length")))
    failed = np.array([bad for bad, _ in checks])
    hit = np.flatnonzero(failed.any(axis=0))
    if hit.size:
        k = int(hit[0])
        raise checks[int(np.argmax(failed[:, k]))][1](k)


def _holder(norm: Norm, l0, l1, m0, m1, length, t, q: float, p: float) -> np.ndarray:
    """t ||l1-m1|| / ||l_t-m_t||^(q/p) of the pairs scaled to unit length: 0
    where the terminal points coincide, inf where only the interior ones do."""
    scale = (1.0 / length)[:, None]
    l0, l1, m0, m1 = scale * l0, scale * l1, scale * m0, scale * m1
    num = norm._value(l1 - m1)
    den = norm._value(_point(l0, l1, t) - _point(m0, m1, t))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = t * num / den ** (q / p)
    return np.where(num == 0.0, 0.0, np.where(den < 1e-300, np.inf, ratio))


def _monotonicity(l0, l1, m0, m1) -> np.ndarray:
    """<l1 - m1, l0 - m0>."""
    return _dot(l1 - m1, l0 - m0)


def _interp_residual(l0, l1, m0, m1, t: float) -> np.ndarray:
    """max(0, (1-t)^2 |l0-m0|^2 + t^2 |l1-m1|^2 - |l_t-m_t|^2) at one parameter t."""
    lhs = (1.0 - t) ** 2 * np.sum((l0 - m0) ** 2, axis=-1) \
        + t ** 2 * np.sum((l1 - m1) ** 2, axis=-1)
    rhs = np.sum((_point(l0, l1, t) - _point(m0, m1, t)) ** 2, axis=-1)
    return np.maximum(0.0, lhs - rhs)


def _lipschitz(l0, l1, m0, m1, s, t) -> np.ndarray:
    """t |l1-m1| / (2 |l_s-m_t|): 0 where the terminal points coincide, inf
    where only l_s and m_t do."""
    num = np.sqrt(_dot(l1 - m1, l1 - m1))
    gap_st = _point(l0, l1, s) - _point(m0, m1, t)
    den = np.sqrt(_dot(gap_st, gap_st))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = t * num / (2.0 * den)
    return np.where(num == 0.0, 0.0, np.where(den < 1e-300, np.inf, ratio))


def pair_verdicts(norm: Norm, l0, l1, m0, m1, t=None, s=None, *,
                  q: Optional[float] = None, p: Optional[float] = None) -> PairVerdicts:
    """The verdict quantities of a batch of pairs, one row of each (pairs, dim)
    endpoint array per pair l = [l0, l1], m = [m0, m1].

    This is the one implementation of the pair formulas and verdicts;
    `two_sticks_check` and `holder_ratio` are one-row calls of it or of its
    parts.  It always gives the lengths and the two-sticks and equal-length
    predicates.  With q and p it gives the Hölder ratio of `holder_ratio` at
    t.  With s (Euclidean norm only) it gives the monotonicity
    <l1-m1, l0-m0>, which is nonnegative for two-sticks pairs; the largest
    interpolation residual max(0, (1-t)^2 |l0-m0|^2 + t^2 |l1-m1|^2 -
    |l_t-m_t|^2) over t in INTERP_TS, zero in theory; and the Lipschitz
    ratio t |l1-m1| / (2 |l_s-m_t|) at (s, t), at most 1 for equal-length
    two-sticks pairs, 0 where the terminal points coincide and inf (a
    violation witness) where only l_s and m_t do.  `t` and `s` hold one
    parameter per pair, or one for all pairs.  With either, `violated` marks
    the pairs where one of the bounds asked for fails (see `PairVerdicts`).

    Endpoint arrays of another shape raise ValueError.  When a ratio is
    asked for, the lowest-index pair that fails one of its preconditions
    raises, with the first it fails in this order: 0 < t <= 1, or
    0 < t <= s <= 1 given s (PreconditionError "parameters"); given q or p,
    1 < q <= p (ValueError) and positive length (DegenerateStickError);
    two-sticks; equal length (PreconditionError).
    """
    l0, l1, m0, m1 = _endpoints(norm, l0, l1, m0, m1)
    v = _pair_checks(norm, l0, l1, m0, m1)
    holder = q is not None or p is not None
    if not (holder or s is not None):
        return v
    if s is not None and not isinstance(norm, EuclideanNorm):
        raise ValueError("the Euclidean estimates need the Euclidean norm")
    n = l0.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    if s is None:
        params, need = (0.0 < t) & (t <= 1.0), "0 < t <= 1"
    else:
        s = np.broadcast_to(np.asarray(s, dtype=float), (n,))
        params, need = (0.0 < t) & (t <= s) & (s <= 1.0), "0 < t <= s <= 1"
    # Bad exponents fail every pair, after pair 0's parameters.
    if holder and not (q is not None and p is not None and 1.0 < q <= p) and params[:1].all():
        raise ValueError("need 1 < q <= p")
    _require(v.two_sticks, v.equal_length, params=params, need=need,
             len_l=v.len_l if holder else None)

    v.violated = np.zeros(n, dtype=bool)
    if holder:
        v.holder_ratio = _holder(norm, l0, l1, m0, m1, v.len_l, t, q, p)
        v.violated |= ~np.isfinite(v.holder_ratio)
    if s is not None:
        v.monotonicity = _monotonicity(l0, l1, m0, m1)
        v.interp_residual = np.max([_interp_residual(l0, l1, m0, m1, tt) for tt in INTERP_TS],
                                   axis=0)
        v.lipschitz_ratio = _lipschitz(l0, l1, m0, m1, s, t)
        scale = 1.0 + np.linalg.norm(l0 - m0, axis=-1)
        v.violated |= ((v.monotonicity < -MONOTONICITY_SLACK * scale)
                       | (v.interp_residual > INTERP_SLACK * scale)
                       | (v.lipschitz_ratio > 1.0 + LIPSCHITZ_SLACK))
    return v


def two_sticks_check(norm: Norm, l: Stick, m: Stick) -> bool:
    """Exact two-sticks predicate with 1e-12 scaled slack on each inequality."""
    return bool(_pair_checks(norm, *_stick_rows(norm, l, m)).two_sticks[0])


def holder_ratio(norm: Norm, l: Stick, m: Stick, t: float, q: float, p: float) -> float:
    """Empirical Hölder constant t ||l1-m1|| / ||l_t-m_t||^(q/p) for one pair.

    Sticks are normalized to unit length internally.  The supremum of this
    ratio over admissible pairs estimates the constant C in the endpoint
    bound ||l1-m1|| <= (C/t) ||l_t-m_t||^(q/p); inf signals a bound
    violation (coincident interior points with distinct endpoints).  The
    preconditions are those of `pair_verdicts`, checked in its order.
    """
    return float(pair_verdicts(norm, *_stick_rows(norm, l, m), t, q=q, p=p).holder_ratio[0])


def _special_index(sigmas: list) -> int:
    """Index of the special stick given the sigma of each stick's direction:
    the first sigma stands until a later one exceeds the best so far by more
    than 1e-9 (1 + |best|), so near-ties keep the lower index."""
    best = 0
    for i, sigma in enumerate(sigmas):
        if sigma > sigmas[best] + 1e-9 * (1.0 + abs(sigmas[best])):
            best = i
    return best


# ---------------------------------------------------------------------------
# strip confinement experiment
# ---------------------------------------------------------------------------

def segment_point_distance(norm: Norm, stick: Stick, point) -> tuple[float, float]:
    """min_t ||stick(t) - point|| over t in [0, 1]; returns (distance, argmin t)."""
    if stick.dim != norm.dim:
        raise ValueError(f"dimension mismatch: {stick.dim}-d stick, {norm.dim}-d norm")
    point = as_vector(point, norm.dim)

    def dist(t: float) -> float:
        return float(norm._value(stick.point_at(t) - point))

    res = minimize_scalar(dist, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    t_best = float(res.x)
    best = dist(t_best)
    for t_end in (0.0, 1.0):
        d = dist(t_end)
        if d < best:
            best, t_best = d, t_end
    return best, t_best


# Slack of every window and bound of the strip experiment, scaled by 1 + its size.
STRIP_SLACK = 1e-9
# Starts and ascent iterations of every modulus solve of the strip experiment.
STRIP_STARTS = 8
STRIP_MAX_ITER = 80


@dataclass
class StripReport:
    """Strip-confinement verdict for one admissible configuration.

    `bound` is the half width K*Lambda^2/(Lambda-2) * kappa*delta of the strip,
    `projection` is <l1 - m1, N(ybar)> and `axya_value` is <ebar, N(ybar)>.
    `axya_ok` requires axya_value in [-bound, 0], and `passed` requires
    axya_ok, the projection in [-bound, bound], promise_lhs <= promise_rhs
    (each with STRIP_SLACK) and `converged`: all three modulus solves
    behind sigma_e, sigma_ebar and ybar converged.
    """

    delta: float
    rho: float
    kappa: float
    lam: float
    k_const: float
    bound: float
    ybar: np.ndarray
    normal_ybar: np.ndarray
    projection: float
    promise_lhs: float
    promise_rhs: float
    converged: bool
    passed: bool
    sigma_e: float
    sigma_ebar: float
    axya_value: float
    axya_ok: bool
    l_star: np.ndarray
    lambda_star: np.ndarray
    t_star: float


def _strip_steps(norm: Norm, l: Stick, m: Stick, x0, delta: float, rho: float, lam: float,
                 k_const: float, big_r: float):
    """`strip_experiment` of one configuration as a generator: it yields the
    modulus problems it needs as a list of (x, t), is sent their results in
    that order, and returns the StripReport."""
    if lam <= 2.0:
        raise PreconditionError("lambda_range", "geometric convexity requires Lambda > 2")
    if k_const < 1.0:
        raise PreconditionError("k_range", "balanced constant K must be >= 1")
    v = _pair_checks(norm, *_stick_rows(norm, l, m))
    _require(v.two_sticks, v.equal_length, len_l=v.len_l)
    # Normalize to unit length; all input geometry scales with the sticks.
    scale = 1.0 / l.length(norm)
    l, m = l.scaled(scale), m.scaled(scale)
    x0 = as_vector(x0, l.dim) * scale
    delta, rho = delta * scale, rho * scale

    if not (0.0 < delta < 0.25):
        raise PreconditionError("delta_range", f"need 0 < delta < 1/4, got {delta!r}")
    if rho <= 3.0 * delta:
        raise PreconditionError("rho_range", f"need rho > 3*delta, got rho = {rho!r}")

    kappa = 4.0 / (rho - 3.0 * delta)
    width = k_const * lam * lam / (lam - 2.0) * kappa * delta
    gap_ends = float(norm._value(l.end - m.end))
    if gap_ends > big_r * (1.0 + 1e-12):
        raise PreconditionError("eta_radius", f"||l1 - m1|| = {gap_ends!r} exceeds R = {big_r!r}")
    if width > 1.0 + 1e-12:
        raise PreconditionError("eta_width", f"strip width {width!r} exceeds 1")

    mod_e, mod_ebar = yield [(l.direction(), kappa * delta), (m.direction(), kappa * delta)]
    if _special_index([mod_ebar.sigma, mod_e.sigma]) == 1:
        l, m, mod_e, mod_ebar = m, l, mod_ebar, mod_e
    sigma_e, sigma_ebar = mod_e.sigma, mod_ebar.sigma

    dist_l, _ = segment_point_distance(norm, l, x0)
    dist_m, t_m = segment_point_distance(norm, m, x0)
    near_slack = STRIP_SLACK * (1.0 + delta)
    if dist_l > delta + near_slack or dist_m > delta + near_slack:
        raise PreconditionError("near", "both sticks must meet the closed delta-ball")
    if float(norm._value(l.end - x0)) <= rho or float(norm._value(l.start - x0)) <= rho:
        raise PreconditionError("notinb", "l's endpoints must lie outside the rho-ball")

    e = l.direction()
    ebar = m.direction()

    # Interior points: lambda_star on m inside the ball, l_star = l(t_star)
    # on the zero level of <. - lambda_star, N(e)>; t -> <l(t)-lambda_star,N(e)>
    # is affine with unit slope, so the root is explicit.
    lambda_star = m.point_at(t_m)
    n_of_e = norm.normal(e)
    t_star = float(np.dot(lambda_star - l.start, n_of_e))
    l_star = l.point_at(t_star)
    if not (-STRIP_SLACK <= t_star <= 1.0 + STRIP_SLACK):
        raise PreconditionError("lst", f"interior parameter t = {t_star!r} escapes [0, 1]")
    if float(norm._value(l_star - x0)) > 3.0 * delta + near_slack:
        raise PreconditionError("lst", "constructed interior point left the 3*delta-ball")
    if float(norm._value(l_star - lambda_star)) > 4.0 * delta + near_slack:
        raise PreconditionError("lst", "interior gap exceeded 4*delta")

    (ymax,) = yield [(ebar, width)]
    ybar = ymax.maximizer_y
    n_ybar = norm.normal(ybar)
    converged = mod_e.converged and mod_ebar.converged and ymax.converged

    at_ebar = _value_and_normal(norm, ebar)
    promise_lhs = float(_gap_at(norm, *at_ebar, m.end - l.start)
                        + _gap_at(norm, *at_ebar, l.end - m.start))
    promise_rhs = lam / (lam - 2.0) * sigma_ebar
    projection = float(np.dot(l.end - m.end, n_ybar))
    axya_value = float(np.dot(ebar, n_ybar))

    slack_proj = STRIP_SLACK * (1.0 + width)
    slack_prom = STRIP_SLACK * (1.0 + abs(promise_lhs) + abs(promise_rhs))
    axya_ok = bool(-width - slack_proj <= axya_value <= slack_proj)
    passed = bool(converged and axya_ok
                  and (-width - slack_proj <= projection <= width + slack_proj)
                  and (promise_lhs <= promise_rhs + slack_prom))

    return StripReport(delta=delta, rho=rho, kappa=kappa, lam=lam, k_const=k_const,
                       bound=width, ybar=ybar, normal_ybar=n_ybar, projection=projection,
                       promise_lhs=promise_lhs, promise_rhs=promise_rhs,
                       converged=converged, passed=passed,
                       sigma_e=sigma_e, sigma_ebar=sigma_ebar, axya_value=axya_value,
                       axya_ok=axya_ok, l_star=l_star, lambda_star=lambda_star,
                       t_star=t_star)


def strip_experiments(norm: Norm, configs, delta: float, rho: float, lam: float,
                      k_const: float, big_r: float) -> list[StripReport]:
    """`strip_experiment` of each configuration (l, m, x0) of `configs`, with
    two batched `moduli` calls in all: sigma(e) and sigma(ebar) of every
    configuration, then, after the special-stick swaps, the maximizer ybar
    of every configuration.

    Each configuration runs the steps of `strip_experiment` in its order.
    When some fail, the error raised is the one the lowest-index failing
    configuration raises alone, as in a loop of `strip_experiment` calls;
    the configurations after it are not solved.
    """
    steps = [_strip_steps(norm, l, m, x0, delta, rho, lam, k_const, big_r)
             for l, m, x0 in configs]
    reports, replies = [None] * len(steps), [None] * len(steps)
    live, failure = range(len(steps)), None
    while live:
        asks = []
        for i in live:
            try:
                asks.append((i, steps[i].send(replies[i])))
            except StopIteration as done:
                reports[i] = done.value
            except Exception as exc:
                failure = exc  # a loop would stop here: later ones do not run
                break
        live = [i for i, _ in asks]
        if asks:
            problems = [problem for _, ask in asks for problem in ask]
            solved = iter(moduli(norm, [x for x, _ in problems], [t for _, t in problems],
                                 n_starts=STRIP_STARTS, max_iter=STRIP_MAX_ITER))
            for i, ask in asks:
                replies[i] = [next(solved) for _ in ask]
    if failure is not None:
        raise failure
    return reports


def strip_experiment(norm: Norm, l: Stick, m: Stick, x0, delta: float, rho: float,
                     lam: float, k_const: float, big_r: float) -> StripReport:
    """Check that l1 - m1 lies in the strip predicted for geometrically convex,
    balanced norms when both sticks meet the ball B_delta(x0).

    Hypotheses are re-verified and violations raise `PreconditionError` naming
    the failed one: Lambda > 2, K >= 1; on the given pair, positive length
    (DegenerateStickError), two-sticks and equal length; then, with the
    sticks normalized to unit length and all input geometry scaled with
    them, 0 < delta < 1/4, rho > 3*delta, the endpoint-gap bound
    ||l1 - m1|| <= big_r, the width condition
    K*Lambda^2/(Lambda-2)*kappa*delta <= 1 with kappa = 4/(rho - 3*delta),
    both sticks meeting B_delta(x0), and l's endpoints outside B_rho(x0).

    m is chosen as the special stick, sigma(e, kappa*delta) <=
    sigma(ebar, kappa*delta): l and m are swapped when `_special_index`
    ranks l above m; a near-tie keeps the given order.

    The interior construction follows the underlying proof: a point
    lambda_star of m inside the delta-ball, then the parameter t_star where
    <l(t) - lambda_star, N(e)> crosses zero.  The three modulus solves, of
    sigma(e), sigma(ebar) and ybar, come from two `moduli` calls with
    STRIP_STARTS starts and STRIP_MAX_ITER ascent iterations; this is the
    one-configuration call of `strip_experiments`.  Its verdict is
    `StripReport.passed`.
    """
    return strip_experiments(norm, [(l, m, x0)], delta, rho, lam, k_const, big_r)[0]
