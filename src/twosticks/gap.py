"""The gap function h(x, y) = ||y|| - <y, N(x)> and its exact identities.

h measures how far the linearization of the norm at x undershoots ||y||.
It is nonnegative by the support inequality <y, N(x)> <= ||y||, vanishes
exactly on nonnegative multiples of x (strict convexity), and satisfies

    h(a*x, y)   = h(x, y)          a > 0
    h(a*x, a*y) = a h(x, y)        a > 0
    h(-x, -y)   = h(x, y)
    h(x, -y)    = h(-x, y)

together with the rewrite ||y|| = ||x|| + h(x, y) + <y - x, N(x)> and the
triangle equality ||x+y|| = ||x|| + ||y|| - h(x+y, x) - h(x+y, y), both of
which are algebraic consequences of the definition.  At x = 0 we take
h(0, z) = 0, the largest lower-semicontinuous extension.
"""

from __future__ import annotations

import numpy as np

from .norms import Norm, ZERO_THRESHOLD, _check_batch, _row_sum, _value_and_normal


def gap(norm: Norm, x, y) -> np.ndarray:
    """h(x, y), vectorized over broadcastable leading axes.

    Rows with ||x|| below the zero threshold return 0 by convention.
    """
    return _gap(norm, _check_batch(x, norm.dim), _check_batch(y, norm.dim))


def _gap(norm: Norm, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`gap` on checked arrays."""
    return _gap_at(norm, *_value_and_normal(norm, x), y)


def _gap_at(norm: Norm, nx: np.ndarray, n_of_x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`_gap` at an x given by (||x||, N(x)), as `_value_and_normal` returns them,
    so that one N(x) serves every gap taken at the same x."""
    val = norm._value(y) - _row_sum(y * n_of_x)
    zero = nx < ZERO_THRESHOLD
    if np.any(zero):
        val = np.where(zero, 0.0, val)
    return val


def triangle_equality_residual(norm: Norm, x, y) -> float:
    """| ||x+y|| - (||x|| + ||y|| - h(x+y, x) - h(x+y, y)) |; zero in exact arithmetic."""
    x = _check_batch(x, norm.dim)
    y = _check_batch(y, norm.dim)
    s = x + y
    ns = norm._value(s)
    if np.any(ns < ZERO_THRESHOLD):
        raise ValueError("triangle equality requires x + y != 0")
    n_of_s = norm._normal(s, ns)
    rhs = (norm._value(x) + norm._value(y) - _gap_at(norm, ns, n_of_s, x)
           - _gap_at(norm, ns, n_of_s, y))
    out = np.abs(ns - rhs)
    return float(out) if out.ndim == 0 else out


def linearization_identity_residual(norm: Norm, x, y) -> float:
    """| ||y|| - (||x|| + h(x, y) + <y - x, N(x)>) |; zero in exact arithmetic."""
    x = _check_batch(x, norm.dim)
    y = _check_batch(y, norm.dim)
    nx = norm._value(x)
    if np.any(nx < ZERO_THRESHOLD):
        raise ValueError("linearization identity requires x != 0")
    n_of_x = norm._normal(x, nx)
    rhs = nx + _gap_at(norm, nx, n_of_x, y) + _row_sum((y - x) * n_of_x)
    out = np.abs(norm._value(y) - rhs)
    return float(out) if out.ndim == 0 else out
