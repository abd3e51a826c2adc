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

from .norms import Norm, ZERO_THRESHOLD, _check_batch, _value_and_normal


def gap(norm: Norm, x, y) -> np.ndarray:
    """h(x, y), vectorized over broadcastable leading axes.

    Rows with ||x|| below the zero threshold return 0 by convention.
    """
    return _gap(norm, _check_batch(x, norm.dim), _check_batch(y, norm.dim))


def _gap(norm: Norm, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`gap` on checked arrays."""
    nx, n_of_x = _value_and_normal(norm, x)
    val = norm._value(y) - np.sum(y * n_of_x, axis=-1)
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
    rhs = norm._value(x) + norm._value(y) - _gap(norm, s, x) - _gap(norm, s, y)
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
    rhs = nx + _gap(norm, x, y) + np.sum((y - x) * n_of_x, axis=-1)
    out = np.abs(norm._value(y) - rhs)
    return float(out) if out.ndim == 0 else out
