"""Minkowski norms on R^n: evaluation and normal maps.

A norm here is a positively homogeneous, symmetric, strictly convex function
that is continuously differentiable away from the origin.  Its gradient,
the *normal map* ``N(x)``, is the exterior normal to the norm ball through
``x`` normalized so that ``<x, N(x)> = ||x||``.  Three kinds are supported:

* the Euclidean norm, with ``N(x) = x / ||x||_2``;
* p-norms with ``1 < p < inf``, whose normal map has the closed form
  ``N(x)_i = |x_i|^(p-1) sign(x_i) / ||x||_p^(p-1)``;
* plug-in norms supplying evaluation only; their normal map falls back to
  Richardson-extrapolated central differences.

All evaluation routines are vectorized over leading axes: inputs of shape
``(..., dim)`` produce values of shape ``(...,)`` and normals of shape
``(..., dim)``.  Everything is pure and safe for concurrent use.

Input is checked once, at the boundary: the public ``Norm.value`` and
``Norm.normal`` check that the last axis has length ``dim`` and that every
entry is finite, and ``normal`` raises `ZeroVectorError` at the origin.  Each
class implements only the unchecked kernels ``_value(x)`` and ``_normal(x, v)``
(with ``v = _value(x)`` nonzero), which take arrays already checked or generated.

The kernels reduce over the last axis column by column (`_row_sum`,
`_row_max`): ``a[..., 0] + a[..., 1] + ...`` in left-to-right order, rather
than ``np.sum``/``np.max(axis=-1)``, whose reduce over a short last axis costs
several times as much on large batches.  For dim <= 7 numpy's own last-axis
sum adds the entries one by one from the left, on 1-, 2- and 3-d inputs
alike, so the two agree bit for bit (a row of only -0.0 aside: `np.sum`
gives +0.0 there, `_row_sum` -0.0); a max is exact in any order.  From dim 8
on, numpy sums in unrolled blocks and the results differ by reassociation,
within the usual (dim - 1) ulp-scale rounding bound.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

# Below this the vector is treated as zero; avoids denormal noise in N.
ZERO_THRESHOLD = 1e-300


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, one column at a time, left to right."""
    s = a[..., 0]
    for k in range(1, a.shape[-1]):
        s = s + a[..., k]
    return s


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max over the last axis, one column at a time."""
    m = a[..., 0]
    for k in range(1, a.shape[-1]):
        m = np.maximum(m, a[..., k])
    return m


class ZeroVectorError(ValueError):
    """The normal map is undefined at the origin."""


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite float vector, optionally checking the dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return _check_batch(v, v.shape[0] if dim is None else dim)


def _check_batch(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: last axis must be {dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    return x


class Norm:
    """Base class; concrete norms implement `_value` and usually `_normal`."""

    def __init__(self, dim: int):
        if int(dim) < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)

    def value(self, x) -> np.ndarray:
        """||x|| over the last axis, which must have length `dim`."""
        return self._value(_check_batch(x, self.dim))

    def normal(self, x) -> np.ndarray:
        """Normal map N(x), the gradient of the norm; undefined at x = 0."""
        x = _check_batch(x, self.dim)
        v = self._value(x)
        if np.any(v < ZERO_THRESHOLD):
            raise ZeroVectorError("normal map undefined at the origin")
        return self._normal(x, v)

    def _value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _normal(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Richardson-extrapolated central differences, one row at a time."""
        out = np.empty(x.shape)
        for row, grad in zip(x.reshape(-1, self.dim), out.reshape(-1, self.dim)):
            h = 1e-5 * (1.0 + float(np.max(np.abs(row))))
            g1 = _central_difference(self, row, h)
            grad[:] = (4.0 * _central_difference(self, row, h / 2.0) - g1) / 3.0
        return out

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class EuclideanNorm(Norm):
    def _value(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(_row_sum(x * x))

    def _normal(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return x / v[..., None]

    def descriptor(self) -> dict:
        return {"kind": "euclidean", "dim": self.dim}


class PNorm(Norm):
    """p-norm with 1 < p < inf (strict convexity and C^1 smoothness)."""

    def __init__(self, p: float, dim: int):
        super().__init__(dim)
        p = float(p)
        if not (1.0 < p < math.inf):
            raise ValueError("p-norm requires 1 < p < inf")
        self.p = p

    def _value(self, x: np.ndarray) -> np.ndarray:
        # Scale by the max coordinate before powering so that extreme p
        # neither overflows nor underflows.
        a = np.abs(x)
        m = _row_max(a)
        safe = np.where(m > 0.0, m, 1.0)
        s = _row_sum((a / safe[..., None]) ** self.p) ** (1.0 / self.p)
        return np.where(m > 0.0, safe * s, 0.0)

    def _normal(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = x / v[..., None]
        return np.sign(u) * np.abs(u) ** (self.p - 1.0)

    def descriptor(self) -> dict:
        return {"kind": "p_norm", "p": self.p, "dim": self.dim}

    def __repr__(self):
        return f"PNorm(p={self.p}, dim={self.dim})"


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

    def descriptor(self) -> dict:
        return {"kind": "plugin", "name": self.name, "dim": self.dim}


def _value_and_normal(norm: Norm, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||z||, N(z)) for checked z, with N(e1) in zero rows; callers mask those."""
    v = norm._value(z)
    zero = v < ZERO_THRESHOLD
    if not np.any(zero):
        return v, norm._normal(z, v)
    z = np.where(zero[..., None], np.eye(norm.dim)[0], z)
    return v, norm._normal(z, norm._value(z))


def finite_diff_gradient(norm: Norm, x, step: float = 1e-6) -> np.ndarray:
    """Centered-difference gradient of the norm; O(step^2) oracle for `Norm.normal`."""
    x = as_vector(x, norm.dim)
    if step <= 0.0:
        raise ValueError("step must be positive")
    if float(norm._value(x)) < ZERO_THRESHOLD:
        raise ZeroVectorError("gradient undefined at the origin")
    return _central_difference(norm, x, step)


def _central_difference(norm: Norm, x: np.ndarray, step: float) -> np.ndarray:
    eye = np.eye(norm.dim) * step
    return (norm._value(x + eye) - norm._value(x - eye)) / (2.0 * step)
