"""Minkowski norms on R^n: evaluation and normal maps.

A norm here is a positively homogeneous, symmetric, strictly convex function
that is continuously differentiable away from the origin.  Its gradient,
the *normal map* ``N(x)``, is the exterior normal to the norm ball through
``x`` normalized so that ``<x, N(x)> = ||x||``.  The norms are the p-norms
with ``1 < p < inf`` (`PNorm`), whose normal map has the closed form
``N(x)_i = |x_i|^(p-1) sign(x_i) / ||x||_p^(p-1)``, and the Euclidean norm
(`EuclideanNorm`), the p-norm at p = 2 under its own descriptor.  Their one
value kernel scales each row by its largest entry before powering (Blue,
ACM TOMS 4(1), 1978), so no norm overflows or flushes to zero inside the
float range.  At p = 2 its root ``np.power(s, 0.5)`` gave ``np.sqrt``'s bits
on every value measured, under numpy's AVX-512 and AVX2 loops alike.

All evaluation routines are vectorized over leading axes: inputs of shape
``(..., dim)`` produce values of shape ``(...,)`` and normals of shape
``(..., dim)``.  Everything is pure and safe for concurrent use.

Input is checked once, at the boundary: the public ``Norm.value`` and
``Norm.normal`` check that the last axis has length ``dim`` and that every
entry is finite, and ``normal`` raises `ZeroVectorError` at the origin.  Each
class implements only the unchecked kernels ``_value(x)`` and ``_normal(x, v)``
(with ``v = _value(x)`` nonzero), which take arrays already checked or generated,
in any memory layout, and never write to their input: `PNorm._scaled`
divides and powers only its own ``np.abs(x)`` copy.  Every temporary keeps
the input's layout, so a column-major block stays one.  Each row of a batch
gets the bits of its one-vector call (`PNorm._value` takes its root by the
ufunc on every shape), so a batch of single vectors needs no kernel of its
own.  A batch with rows below ZERO_THRESHOLD takes its normals from
`_value_and_normal`, which swaps e1 into those rows only; callers mask them.

`PNorm` raises an integer p = k by multiplies (`_power`, binary powering),
because numpy's general ``pow`` is otherwise half of `_value`; any other p
goes through ``pow``.  After the divide by the row max each term lies in
[0, 1] and comes out as its exact k-th power times a product of rounding
factors (1 + e_i)^(c_i) with |e_i| <= u = 2^-53 and sum c_i = k - 1, so
within (k - 1) u to first order, and the largest term is exactly 1.  The
p-th root divides that relative error by k: for every integer p the powers
add less than one ulp to ||x||.

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
from typing import Optional

import numpy as np

# Below this the vector is treated as zero; avoids denormal noise in N.
ZERO_THRESHOLD = 1e-300


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, one column at a time, left to right."""
    s = a[..., 0]
    for k in range(1, a.shape[-1]):
        s = s + a[..., k]
    return s


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a[i], b[i]> for rows of shape (rows, dim), equal bit for bit to
    `np.dot(a[i], b[i])`: a stacked matmul takes numpy's dot of each pair,
    the same FMA chain, where `np.einsum` rounds differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max over the last axis, one column at a time."""
    m = a[..., 0]
    for k in range(1, a.shape[-1]):
        m = np.maximum(m, a[..., k])
    return m


def _power(a: np.ndarray, k: int) -> np.ndarray:
    """a ** k for an integer k >= 2, by binary powering from the top bit of
    k down: square, then multiply by `a` where the next bit is set, so a·a
    for k = 2 and (a·a)·a for k = 3.  `a` is only read; the result is a new
    array in a's memory layout."""
    r = a
    for bit in bin(k)[3:]:
        r = r * r
        if bit == "1":
            r *= a
    return r


class ZeroVectorError(ValueError):
    """The normal map is undefined at the origin."""


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite float vector, optionally checking the dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return _check_batch(v, v.shape[0] if dim is None else dim)


def _check_p(p: float) -> float:
    """p as a float; ValueError unless 1 < p < inf, the exponents of a p-norm."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"need p > 1 and finite, got {p!r}")
    return p


def _check_batch(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: last axis must be {dim}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input has non-finite entries")
    return x


class Norm:
    """Base class; concrete norms implement `_value` and `_normal`."""

    def __init__(self, dim: int):
        # bool is an int subclass, and int() would truncate 2.5 or parse "3".
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
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
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PNorm(Norm):
    """p-norm with 1 < p < inf (strict convexity and C^1 smoothness)."""

    def __init__(self, p: float, dim: int):
        super().__init__(dim)
        self.p = _check_p(p)
        # Decided once: `_scaled` also runs on thousands of 1-row batches.
        self._k = int(self.p) if self.p.is_integer() else None

    def _scaled(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Scale by the max coordinate m before powering so that extreme p
        # neither overflows nor underflows: the norm is safe * s ** (1/p)
        # where m > 0, and 0 elsewhere.  The divide and the power run on
        # the kernel's own copy `a`, in x's memory layout; `live` and `safe`
        # are taken first, because in dim 1 `_row_max(a)` is a view of `a`.
        # An integer p = k is raised by binary powering, within (k - 1) u of
        # each term (module docstring); any other p by numpy's pow.
        a = np.abs(x)
        m = _row_max(a)
        live = m > 0.0
        safe = np.where(live, m, 1.0)
        a /= safe[..., None]
        if self._k is None:
            a **= self.p
        else:
            a = _power(a, self._k)
        return live, safe, _row_sum(a)

    def _value(self, x: np.ndarray) -> np.ndarray:
        live, safe, s = self._scaled(x)
        # The ufunc, not `**`: a numpy scalar's `**` (a one-vector call) is
        # libm's pow, while `np.power` runs the batch's loop on every shape.
        return np.where(live, safe * np.power(s, 1.0 / self.p), 0.0)

    def _normal(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        # sign(u) * |u| ** (p - 1) for u = x / v, in place on `a` = u, so
        # that a block holds two temporaries, `a` and its signs.  The signs
        # are u's, not x's: where x_i / v underflows to 0, sign(u) is +0.0
        # and sign(x) is +-1, which would turn a +0.0 into -0.0.
        a = x / v[..., None]
        sign = np.sign(a)
        np.abs(a, out=a)
        a **= self.p - 1.0
        a *= sign
        return a

    def descriptor(self) -> dict:
        return {"kind": "p_norm", "p": self.p, "dim": self.dim}

    def __repr__(self):
        return f"PNorm(p={self.p}, dim={self.dim})"


class EuclideanNorm(PNorm):
    def __init__(self, dim: int):
        super().__init__(2.0, dim)

    def descriptor(self) -> dict:
        return {"kind": "euclidean", "dim": self.dim}

    __repr__ = Norm.__repr__


def _value_and_normal(norm: Norm, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||z||, N(z)) for checked z, with N(e1) in zero rows; callers mask those."""
    v = norm._value(z)
    zero = v < ZERO_THRESHOLD
    if not np.any(zero):
        return v, norm._normal(z, v)
    e1 = np.eye(norm.dim)[0]
    return v, norm._normal(np.where(zero[..., None], e1, z), np.where(zero, norm._value(e1), v))
