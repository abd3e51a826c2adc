"""The gap function h(x, y) = ||y|| - <y, N(x)> and its exact identities.

h measures how far the linearization of the norm at x undershoots ||y||.
It is nonnegative by the support inequality <y, N(x)> <= ||y||, vanishes
exactly on nonnegative multiples of x (strict convexity), and satisfies

    h(a*x, y)   = h(x, y)          a > 0
    h(a*x, a*y) = a h(x, y)        a > 0
    h(-x, -y)   = h(x, y)
    h(x, -y)    = h(-x, y)

together with the rewrite ||y|| = ||x|| + h(x, y) + <y - x, N(x)> for
x != 0 and the triangle equality ||x+y|| = ||x|| + ||y|| - h(x+y, x) -
h(x+y, y) for x + y != 0, both algebraic consequences of the definition.
At x = 0 we take h(0, z) = 0, the largest lower-semicontinuous extension.
"""

from __future__ import annotations

import numpy as np

from .norms import Norm, ZERO_THRESHOLD, _check_batch, _row_sum, _value_and_normal


def gap(norm: Norm, x, y) -> np.ndarray:
    """h(x, y), vectorized over broadcastable leading axes.

    Rows with ||x|| below the zero threshold return 0; the rest are `_gap_at`.
    """
    x, y = _check_batch(x, norm.dim), _check_batch(y, norm.dim)
    nx, n_of_x = _value_and_normal(norm, x)
    val = _gap_at(norm, n_of_x, y)
    zero = nx < ZERO_THRESHOLD
    if np.any(zero):
        val = np.where(zero, 0.0, val)
    return val


def _gap_at(norm: Norm, n_of_x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The one kernel of h: h(x, z) = ||z|| - <z, N(x)> over the last axis, broadcast,
    for x != 0 given by N(x), so one N(x) serves every gap at x.  Unchecked."""
    return norm._value(z) - _row_sum(z * n_of_x)
