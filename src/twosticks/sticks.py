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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .convexity import modulus, ModulusResult
from .gap import _gap
from .norms import EuclideanNorm, Norm, as_vector

CHECK_SLACK = 1e-12


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

    def reversed(self) -> "Stick":
        return Stick(self.end.copy(), self.start.copy())

    def sub(self, t: float, s: float) -> "Stick":
        return Stick(self.point_at(t), self.point_at(s))

    def scaled(self, factor: float) -> "Stick":
        return Stick(factor * self.start, factor * self.end)


def two_sticks_check(norm: Norm, l: Stick, m: Stick) -> bool:
    """Exact two-sticks predicate with 1e-12 scaled slack on each inequality."""
    len_l = l.length(norm)
    len_m = m.length(norm)
    slack = CHECK_SLACK * (1.0 + len_l + len_m)
    first = float(norm._value(l.end - m.start)) >= len_l - slack
    second = float(norm._value(m.end - l.start)) >= len_m - slack
    return first and second


def equal_length_check(norm: Norm, l: Stick, m: Stick, tol: float = 1e-9) -> bool:
    len_l = l.length(norm)
    len_m = m.length(norm)
    return abs(len_l - len_m) <= tol * (1.0 + len_l + len_m)


@dataclass
class FlipChainReport:
    """Outcome of the symmetry chain for an equal-length two-sticks pair.

    Each link records (label, two_sticks_ok, equal_length_ok); `flipa_ok`
    collects the two cross inequalities ||m_s - l_t|| >= ||m_s - m_t|| and
    ||l_s - m_t|| >= ||l_s - l_t||.
    """

    s: float
    t: float
    degenerate: bool
    links: list = field(default_factory=list)
    flipa_ok: tuple = (True, True)

    @property
    def passed(self) -> bool:
        return all(ts and el for _, ts, el in self.links) and all(self.flipa_ok)


def flip_chain_verify(norm: Norm, l: Stick, m: Stick, s: float, t: float) -> FlipChainReport:
    """Verify the derived-pair chain: reversed sticks, tail sticks [l1, l_t] /
    [l_t, l1], and sub-sticks [l_t, l_s], all inherit the two-sticks and
    equal-length conditions; also check both cross inequalities at (s, t)."""
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise PreconditionError("parameters", "s and t must lie in [0, 1]")
    if not two_sticks_check(norm, l, m):
        raise PreconditionError("two_sticks", "input pair fails the two-sticks condition")
    if not equal_length_check(norm, l, m):
        raise PreconditionError("equal_length", "input pair must have equal length")

    length = l.length(norm)
    degenerate = abs(s - t) * length < 1e-12
    pairs = [
        ("original", l, m),
        ("reversed", l.reversed(), m.reversed()),
        ("tail_to_t", Stick(l.end, l.point_at(t)), Stick(m.end, m.point_at(t))),
        ("from_t", Stick(l.point_at(t), l.end), Stick(m.point_at(t), m.end)),
    ]
    if not degenerate:
        pairs.append(("t_to_s", l.sub(t, s), m.sub(t, s)))

    links = []
    for label, a, b in pairs:
        links.append((label, two_sticks_check(norm, a, b), equal_length_check(norm, a, b)))

    slack = CHECK_SLACK * (1.0 + length)
    first = float(norm._value(m.point_at(s) - l.point_at(t))) \
        >= float(norm._value(m.point_at(s) - m.point_at(t))) - slack
    second = float(norm._value(l.point_at(s) - m.point_at(t))) \
        >= float(norm._value(l.point_at(s) - l.point_at(t))) - slack
    return FlipChainReport(s=s, t=t, degenerate=degenerate, links=links,
                           flipa_ok=(first, second))


# ---------------------------------------------------------------------------
# Euclidean estimates
# ---------------------------------------------------------------------------

def _require_euclid_two_sticks(l: Stick, m: Stick, equal_length: bool = False) -> EuclideanNorm:
    norm = EuclideanNorm(l.dim)
    if not two_sticks_check(norm, l, m):
        raise PreconditionError("two_sticks", "pair fails the Euclidean two-sticks condition")
    if equal_length and not equal_length_check(norm, l, m):
        raise PreconditionError("equal_length", "pair must have equal length")
    return norm


def euclid_monotonicity(l: Stick, m: Stick) -> float:
    """<l1 - m1, l0 - m0>; nonnegative for Euclidean two-sticks pairs."""
    _require_euclid_two_sticks(l, m)
    return float(np.dot(l.end - m.end, l.start - m.start))


def euclid_interp_bound_residual(l: Stick, m: Stick, t: float) -> float:
    """max(0, (1-t)^2 |l0-m0|^2 + t^2 |l1-m1|^2 - |l_t-m_t|^2); zero in theory."""
    _require_euclid_two_sticks(l, m)
    lhs = (1.0 - t) ** 2 * float(np.sum((l.start - m.start) ** 2)) \
        + t ** 2 * float(np.sum((l.end - m.end) ** 2))
    rhs = float(np.sum((l.point_at(t) - m.point_at(t)) ** 2))
    return max(0.0, lhs - rhs)


def euclid_lipschitz_ratio(l: Stick, m: Stick, s: float, t: float) -> float:
    """t |l1-m1| / (2 |l_s - m_t|) for 0 < t <= s <= 1; at most 1 for admissible pairs.

    Returns 0 when the terminal points coincide.  A vanishing denominator
    with distinct terminal points returns inf: that is a bound-violation
    witness (impossible for a true equal-length two-sticks pair).
    """
    _require_euclid_two_sticks(l, m, equal_length=True)
    if not (0.0 < t <= s <= 1.0):
        raise PreconditionError("parameters", "need 0 < t <= s <= 1")
    num = float(np.linalg.norm(l.end - m.end))
    if num == 0.0:
        return 0.0
    den = float(np.linalg.norm(l.point_at(s) - m.point_at(t)))
    if den < 1e-300:
        return math.inf
    return t * num / (2.0 * den)


def holder_ratio(norm: Norm, l: Stick, m: Stick, t: float, q: float, p: float) -> float:
    """Empirical Hölder constant t ||l1-m1|| / ||l_t-m_t||^(q/p) for one pair.

    Sticks are normalized to unit length internally.  The supremum of this
    ratio over admissible pairs estimates the constant C in the endpoint
    bound ||l1-m1|| <= (C/t) ||l_t-m_t||^(q/p); inf signals a bound
    violation (coincident interior points with distinct endpoints).
    """
    length = l.length(norm)
    if not (0.0 < t <= 1.0):
        raise PreconditionError("parameters", "need 0 < t <= 1")
    if not (1.0 < q <= p):
        raise ValueError("need 1 < q <= p")
    if length < 1e-12:
        raise DegenerateStickError("sticks must have positive length")
    if not two_sticks_check(norm, l, m):
        raise PreconditionError("two_sticks", "pair fails the two-sticks condition")
    if not equal_length_check(norm, l, m):
        raise PreconditionError("equal_length", "pair must have equal length")
    scale = 1.0 / length
    lu, mu = l.scaled(scale), m.scaled(scale)
    num = float(norm._value(lu.end - mu.end))
    if num == 0.0:
        return 0.0
    den = float(norm._value(lu.point_at(t) - mu.point_at(t)))
    if den < 1e-300:
        return math.inf
    return t * num / den ** (q / p)


def select_special_stick(norm: Norm, sticks: list, radius: float, **modulus_opts) -> int:
    """Index of the stick whose direction maximizes sigma(e, radius).

    The returned stick is the special stick m that `strip_experiment`
    requires: paired with any other stick l of the list, sigma(e) <=
    sigma(ebar).  Ties (within 1e-9 of the running best) keep the lowest
    index, so the choice is deterministic.  The ranking uses
    `ModulusResult.sigma` only; the `converged` flag is not read.
    """
    if not sticks:
        raise ValueError("empty stick list")
    best_idx, best_sigma = 0, 0.0
    for i, stick in enumerate(sticks):
        e = stick.direction()
        if abs(float(norm.value(e)) - 1.0) > 1e-6:
            raise PreconditionError("unit_length", f"stick {i} is not unit length")
        sigma = modulus(norm, e, radius, **modulus_opts).sigma
        if i == 0 or sigma > best_sigma + 1e-9 * (1.0 + abs(best_sigma)):
            best_idx, best_sigma = i, sigma
    return best_idx


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


@dataclass
class StripReport:
    """Strip-confinement verdict for one admissible configuration.

    `bound` is the half width K*Lambda^2/(Lambda-2) * kappa*delta of the strip,
    `projection` is <l1 - m1, N(ybar)>, and `passed` requires the projection
    to stay inside [-bound, bound], the gap bound promise_lhs <= promise_rhs
    to hold (both with scaled tolerance), and `converged`: all three modulus
    solves behind sigma_e, sigma_ebar and ybar converged.
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


def strip_experiment(norm: Norm, l: Stick, m: Stick, x0, delta: float, rho: float,
                     lam: float, k_const: float, big_r: float, *,
                     tol: float = 1e-9, modulus_opts: Optional[dict] = None,
                     auto_orient: bool = False) -> StripReport:
    """Check that l1 - m1 lies in the strip predicted for geometrically convex,
    balanced norms when both sticks meet the ball B_delta(x0).

    Hypotheses are re-verified and violations raise `PreconditionError` naming
    the failed one: equal unit length (sticks are normalized internally),
    two-sticks, 0 < delta < 1/4, rho > 3*delta, l's endpoints outside
    B_rho(x0), the special-stick ordering sigma(e, kappa*delta) <=
    sigma(ebar, kappa*delta), the endpoint-gap bound ||l1 - m1|| <= big_r,
    and the width condition K*Lambda^2/(Lambda-2)*kappa*delta <= 1, with
    kappa = 4/(rho - 3*delta).  With `auto_orient` the pair is swapped
    instead of raising when only the special-stick ordering fails.

    The interior construction follows the underlying proof: a point
    lambda_star of m inside the delta-ball, then the parameter t_star where
    <l(t) - lambda_star, N(e)> crosses zero.
    """
    length = l.length(norm)
    opts = modulus_opts or {}
    if lam <= 2.0:
        raise PreconditionError("lambda_range", "geometric convexity requires Lambda > 2")
    if k_const < 1.0:
        raise PreconditionError("k_range", "balanced constant K must be >= 1")
    if length < 1e-12:
        raise DegenerateStickError("sticks must have positive length")
    if not equal_length_check(norm, l, m):
        raise PreconditionError("equal_length", "sticks must have equal length")
    # Normalize to unit length; all input geometry scales with the sticks.
    scale = 1.0 / length
    l, m = l.scaled(scale), m.scaled(scale)
    x0 = as_vector(x0, l.dim) * scale
    delta, rho = delta * scale, rho * scale

    if not two_sticks_check(norm, l, m):
        raise PreconditionError("two_sticks", "pair fails the two-sticks condition")
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

    mod_e = modulus(norm, l.direction(), kappa * delta, **opts)
    mod_ebar = modulus(norm, m.direction(), kappa * delta, **opts)
    sigma_e, sigma_ebar = mod_e.sigma, mod_ebar.sigma
    if sigma_e > sigma_ebar + tol * (1.0 + sigma_ebar):
        if auto_orient:
            l, m = m, l
            sigma_e, sigma_ebar = sigma_ebar, sigma_e
        else:
            raise PreconditionError("bmax", "m must be the special stick: "
                                    f"sigma(e) = {sigma_e!r} > sigma(ebar) = {sigma_ebar!r}")

    dist_l, _ = segment_point_distance(norm, l, x0)
    dist_m, t_m = segment_point_distance(norm, m, x0)
    near_slack = tol * (1.0 + delta)
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
    if not (-tol <= t_star <= 1.0 + tol):
        raise PreconditionError("lst", f"interior parameter t = {t_star!r} escapes [0, 1]")
    if float(norm._value(l_star - x0)) > 3.0 * delta + near_slack:
        raise PreconditionError("lst", "constructed interior point left the 3*delta-ball")
    if float(norm._value(l_star - lambda_star)) > 4.0 * delta + near_slack:
        raise PreconditionError("lst", "interior gap exceeded 4*delta")

    ymax = modulus(norm, ebar, width, **opts)
    ybar = ymax.maximizer_y
    n_ybar = norm.normal(ybar)
    converged = mod_e.converged and mod_ebar.converged and ymax.converged

    promise_lhs = float(_gap(norm, ebar, m.end - l.start) + _gap(norm, ebar, l.end - m.start))
    promise_rhs = lam / (lam - 2.0) * sigma_ebar
    projection = float(np.dot(l.end - m.end, n_ybar))
    axya_value = float(np.dot(ebar, n_ybar))

    tol_proj = tol * (1.0 + width)
    tol_prom = tol * (1.0 + abs(promise_lhs) + abs(promise_rhs))
    passed = bool(converged and (-width - tol_proj <= projection <= width + tol_proj)
                  and (promise_lhs <= promise_rhs + tol_prom))
    axya_ok = bool(-width - tol_proj <= axya_value <= tol_proj)

    return StripReport(delta=delta, rho=rho, kappa=kappa, lam=lam, k_const=k_const,
                       bound=width, ybar=ybar, normal_ybar=n_ybar, projection=projection,
                       promise_lhs=promise_lhs, promise_rhs=promise_rhs,
                       converged=converged, passed=passed,
                       sigma_e=sigma_e, sigma_ebar=sigma_ebar, axya_value=axya_value,
                       axya_ok=axya_ok, l_star=l_star, lambda_star=lambda_star,
                       t_star=t_star)


