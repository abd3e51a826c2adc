"""Extremal three-dimensional configurations showing the Hölder exponent is tight.

For p-norms the terminal gap of an equal-length two-sticks pair obeys a
Hölder bound with exponent q/p (q = 2 for p >= 2, q = p and p = 2 swapped
roles for p < 2).  The constructions here realize the reduced system

    1 = ||e||_p <= ||m + (e+ebar)/2||_p,   1 = ||ebar||_p <= ||-m + (e+ebar)/2||_p

with ||e - ebar|| comparable to ||m||^(2/p) for p > 2 and to ||m||^(p/2) for
1 < p < 2, so the exponent cannot be improved.  The degrees of freedom are
solved exactly by bisection; the classical small-parameter approximations
are only verified as limits, never used to build the instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .norms import PNorm, _check_p


def _two_power(p: float) -> float:
    """2^p, rejecting a p for which it overflows a float (p >= 1024)."""
    if p >= 1024.0:
        raise ValueError(f"need p < 1024, where 2^p is a finite float, got {p!r}")
    return 2.0 ** p


def _two_power_sum(p: float, r: float) -> float:
    """(1-r)^p + (1+r)^p - 2, computed without cancellation for small r."""
    if r == 1.0:
        return _two_power(p) - 2.0
    return math.expm1(p * math.log1p(-r)) + math.expm1(p * math.log1p(r))


def solve_g(p: float, eps: float) -> float:
    """Unique root r in [0, 1] of (1-r)^p + (1+r)^p = 2 + eps, by bisection.

    The left side is strictly increasing on [0, 1] from 2 to 2^p, so the
    root exists iff 0 <= eps <= 2^p - 2; bisection converges unconditionally
    (Newton would stall at the flat left endpoint).  The bracket is driven
    all the way to adjacent floats, so the residual |f(r) - (2+eps)| ends
    below 1e-13 for moderate p (it is limited only by the float spacing of
    f, which matters for p beyond ~8 near r = 1).
    """
    p = _check_p(p)
    eps = float(eps)
    top = _two_power(p) - 2.0
    if not -1e-15 <= eps <= top * (1.0 + 1e-12):
        raise ValueError(f"eps = {eps!r} outside [0, {top!r}]")
    eps = min(max(eps, 0.0), top)
    if eps == 0.0:
        return 0.0
    if eps == top:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _two_power_sum(p, mid) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class SharpnessInstance:
    """One extremal configuration (e, ebar, m) in R^3 for the p-norm.

    Both direction vectors are unit and the reduced two-sticks system holds
    with equality, by construction.
    """

    p: float
    delta: float
    e: np.ndarray
    e_bar: np.ndarray
    m: np.ndarray
    x_param: float
    y_param: float

    def norm(self) -> PNorm:
        return PNorm(self.p, 3)

    def gap_norm(self) -> float:
        return float(self.norm().value(self.e - self.e_bar))

    def m_norm(self) -> float:
        return float(self.norm().value(self.m))


def construct_pgt2(p: float, delta: float) -> SharpnessInstance:
    """Instance e = (delta, x, -x), ebar = (-delta, x, -x), m = (0, y, y) for p >= 2.

    x makes e unit: x = ((1 - delta^p)/2)^(1/p); y solves
    (x-y)^p + (x+y)^p = 1 exactly through `solve_g`.  Requires delta small
    enough that eps = 2 delta^p / (1 - delta^p) stays within the solvable
    range.  Here ||e - ebar||_p = 2*delta exactly.
    """
    p = float(p)
    delta = float(delta)
    if p < 2.0:
        raise ValueError("this construction needs p >= 2")
    if not (0.0 < delta < 1.0):
        raise ValueError("need 0 < delta < 1")
    dp = delta ** p
    eps = 2.0 * dp / (1.0 - dp)
    if eps > _two_power(p) - 2.0:
        raise ValueError(f"delta = {delta!r} too large for the p = {p!r} construction")
    x = ((1.0 - dp) / 2.0) ** (1.0 / p)
    y = x * solve_g(p, eps)
    e = np.array([delta, x, -x])
    e_bar = np.array([-delta, x, -x])
    m = np.array([0.0, y, y])
    return SharpnessInstance(p=p, delta=delta, e=e, e_bar=e_bar, m=m,
                             x_param=x, y_param=y)


def construct_plt2(p: float, x_param: float) -> SharpnessInstance:
    """Instance e = (x-delta, x+delta, 0), ebar = (x+delta, x-delta, 0),
    m = (0, 0, y) for 1 < p <= 2, parameterized by x with 2^-p <= x^p <= 1/2.

    delta = x * g(1/x^p - 2) makes e unit; y = (1 - 2 x^p)^(1/p) makes the
    second system relation an equality.  Here ||e - ebar||_p =
    2 * 2^(1/p) * delta, and the degenerate limit is x^p -> 1/2.
    """
    p = float(p)
    x = float(x_param)
    if not (1.0 < p <= 2.0):
        raise ValueError("this construction needs 1 < p <= 2")
    xp = x ** p
    lo, hi = _plt2_window(p)
    if not lo * (1.0 - 1e-12) <= xp <= hi * (1.0 + 1e-12):
        raise ValueError(f"x^p = {xp!r} outside the admissible window [2^-p, 1/2]")
    eps = max(0.0, 1.0 / xp - 2.0)
    delta = x * solve_g(p, eps)
    y = max(0.0, 1.0 - 2.0 * xp) ** (1.0 / p)
    e = np.array([x - delta, x + delta, 0.0])
    e_bar = np.array([x + delta, x - delta, 0.0])
    m = np.array([0.0, 0.0, y])
    return SharpnessInstance(p=p, delta=delta, e=e, e_bar=e_bar, m=m,
                             x_param=x, y_param=y)


def _plt2_window(p: float) -> tuple[float, float]:
    """The admissible window [2^-p, 1/2] of x^p in `construct_plt2`."""
    return 2.0 ** (-p), 0.5


def holder_exponents(p: float) -> tuple[float, float]:
    """The exponents (q, p) of the p-norm's Hölder bound: (2, p) for p >= 2,
    (p, 2) below."""
    p = _check_p(p)
    return (2.0, p) if p >= 2.0 else (p, 2.0)


def holder_exponent(p: float) -> float:
    """The sharp exponent q/p of `holder_exponents`: 2/p above 2, p/2 below,
    1 at the Lipschitz point p = 2."""
    q, p_exp = holder_exponents(p)
    return q / p_exp


@dataclass
class SharpnessCurve:
    """Rows (parameter, gap_norm, m_norm, ratio) with the observed ratio band.

    ratio = ||e - ebar|| / ||m||^exponent stays inside a fixed positive band
    as the parameter approaches the degenerate limit - that is the
    sharpness statement in numbers.
    """

    p: float
    exponent: float
    rows: list
    band: tuple


def sharpness_grid(p: float, points: int, param_min: Optional[float] = None,
                   param_max: Optional[float] = None) -> np.ndarray:
    """`points` parameters for `sharpness_curve`.

    For p >= 2 they are deltas, log-spaced over [param_min, param_max]
    (default [1e-5, 1e-2]).  For 1 < p < 2 they are values of x whose x^p
    are evenly spaced over the window of `construct_plt2`, pulled in by
    1e-9 relative at each end and narrowed to [param_min^p, param_max^p]
    where given.  A bound lies in (0, 1), the deltas `construct_pgt2` takes,
    or in [0, 1] for p < 2.  Swapped bounds, and for p < 2 bounds that leave
    the window empty, are refused.
    """
    p = _check_p(p)
    if points < 1:
        raise ValueError(f"need points >= 1, got {points!r}")
    window = "[0, 1]" if p < 2.0 else "(0, 1)"
    for name, bound in (("param_min", param_min), ("param_max", param_max)):
        if bound is not None and not (0.0 < bound < 1.0 or p < 2.0 and 0.0 <= bound <= 1.0):
            raise ValueError(f"need {name} in {window} for p = {p!r}, got {bound!r}")
    if p >= 2.0:
        lo = param_min if param_min is not None else 1e-5
        hi = param_max if param_max is not None else 1e-2
        if lo > hi:
            raise ValueError(f"need param_min <= param_max, got {lo!r} > {hi!r}")
        return np.logspace(np.log10(lo), np.log10(hi), points)
    lo, hi = _plt2_window(p)
    lo, hi = lo * (1.0 + 1e-9), hi * (1.0 - 1e-9)
    if lo > hi:
        raise ValueError(f"p = {p!r} is too close to 1: the window [2^-p, 1/2] of x^p is "
                         "narrower than its 1e-9 pull-in at each end")
    lo = max(lo, float(param_min or 0.0) ** p)
    hi = min(hi, float(1.0 if param_max is None else param_max) ** p)
    if lo > hi:
        given = [f"{name} = {bound!r}" for name, bound in
                 (("param_min", param_min), ("param_max", param_max)) if bound is not None]
        raise ValueError(f"need param_min <= param_max with x^p meeting the window [2^-p, 1/2] "
                         f"= [{2.0 ** -p!r}, 0.5] for p = {p!r}, got {', '.join(given)}")
    return np.linspace(lo, hi, points) ** (1.0 / p)


def sharpness_curve(p: float, parameter_grid: Iterable[float]) -> SharpnessCurve:
    """Sweep the construction over a parameter grid and record the ratio band.

    For p >= 2 the parameter is delta; for 1 < p < 2 it is x (of the window
    2^-p <= x^p <= 1/2).  Degenerate rows with ||m|| = 0 are skipped.
    """
    p = float(p)
    expo = holder_exponent(p)
    rows = []
    for param in parameter_grid:
        inst = construct_pgt2(p, param) if p >= 2.0 else construct_plt2(p, param)
        m_norm = inst.m_norm()
        if m_norm <= 0.0:
            continue
        gap_norm = inst.gap_norm()
        rows.append((float(param), gap_norm, m_norm, gap_norm / m_norm ** expo))
    if not rows:
        raise ValueError("no nondegenerate rows in the parameter grid")
    ratios = [row[3] for row in rows]
    return SharpnessCurve(p=p, exponent=expo, rows=rows,
                          band=(min(ratios), max(ratios)))
