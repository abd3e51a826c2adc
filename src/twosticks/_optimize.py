"""BFGS minimization for the modulus polish, and a bracket search for
`sticks.segment_point_distance`.

Each row of `minimize` transcribes, operation for operation, the code
path that SciPy 1.17.1's `optimize.minimize` takes from that row with

    jac=True, method="BFGS", options={"gtol": gtol, "maxiter": maxiter}

so every iterate, and the returned x, equal SciPy's bit for bit.  The
strip references pin values that move when the polished maximizer moves
by about 1e-8, so nothing here may be reordered, fused or "simplified":
the Python-float / numpy-scalar mix, the integer identity that starts the
inverse Hessian, `np.dot` rather than `@`, `np.clip` and every
`np.errstate` are SciPy's.  Only the branches that the options above
cannot reach, the warnings and the result fields no caller reads are left
out.

`minimize` runs a batch of such minimizations in lockstep.  Each row is
one run of the port, written as a generator: every objective call of
SciPy's code is a `yield from`, which yields the point on a miss of the
row's one-slot cache and is sent back (f, gradient), so the row's own
arithmetic is the port's, untouched.  The driver stacks the points that
all unfinished rows ask for and makes one batched objective call per
round; f reaches the rows as Python floats, as a one-vector objective
returns it.  The paths are:

* BFGS with the inf-norm gradient stop and SciPy's `xrtol = 0` step stop,
  the objective evaluated once per distinct x (SciPy's one-slot cache);
* its line search: MINPACK-2 DCSRCH/DCSTEP (More and Thuente, "Line search
  algorithms with guaranteed sufficient decrease", ACM TOMS 20(3), 1994),
  then, where that fails, the strong-Wolfe bracketing search with cubic and
  quadratic zoom of Nocedal and Wright, "Numerical Optimization",
  Algorithms 3.5 and 3.6; where both fail the polish stops and keeps x.

SciPy's layers map onto the port as follows.  `_minimize_bfgs` is
`_bfgs`.  Its helper that tries `line_search_wolfe1`, then
`line_search_wolfe2` (line_search_wolfe12, with a leading underscore) is
the line-search step in `_bfgs`'s loop, which builds phi and derphi,
phi'(0) and the first trial step once for both searches.
`line_search_wolfe1` with `scalar_search_wolfe1` is `_dcsrch`, and
`line_search_wolfe2` with `scalar_search_wolfe2` is `_scalar_search_wolfe2`
with `_zoom`.  Where SciPy's wrappers ask the cache again for each
gradient, derphi(s) reads the gradient that phi(s) kept.  It is the same
value, because each search calls derphi(s) only right after phi(s) at the
same s; for the same reason the gradient at the accepted step is the one
phi kept last.  (A trial point with a NaN entry never matches SciPy's
cache, so SciPy evaluates it a second time for its gradient; the port
evaluates it once.)

`minimize_scalar` is no port: no output depends on the last bits of the
segment-point argmin.

SciPy's license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

The notice of DCSRCH and DCSTEP, as SciPy carries it:

    MINPACK-1 Project. June 1983.
    Argonne National Laboratory.
    Jorge J. More' and David J. Thuente.

    MINPACK-2 Project. November 1993.
    Argonne National Laboratory and University of Minnesota.
    Brett M. Averick, Richard G. Carter, and Jorge J. More'.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# Wolfe constants (sufficient decrease, curvature) and the DCSRCH step
# limits and relative width tolerance that SciPy's BFGS passes.
C1 = 1e-4
C2 = 0.9
STPMIN = 1e-100
STPMAX = 1e100
XTOL = 1e-14


class Result(NamedTuple):
    """The minimizer and the iterations (BFGS) or rounds (bracket search) spent."""
    x: object
    nit: int


def _vecnorm(x, ord=2):
    if ord == np.inf:
        return np.amax(np.abs(x))
    return np.sum(np.abs(x) ** ord, axis=0) ** (1.0 / ord)


def minimize(fun: Callable, x0, *, gtol: float, maxiter: int) -> list[Result]:
    """Minimize by BFGS from each row of x0, of shape (k, n), all rows in
    lockstep.  Each row runs the transcribed SciPy path on its own and stops
    on its own: once its largest gradient entry is at most gtol, after
    maxiter iterations, or when no line search succeeds.  A round collects
    the point every unfinished row asks for and makes one call
    fun(index, points), with index the (m,) rows asking and points their
    (m, n) points; fun returns f of shape (m,) and the gradients (m, n).
    A row asks only on a miss of its own one-slot cache, so it sees the
    calls, the values and the iterates SciPy's run from that row sees.
    Returns one Result per row, in row order."""
    runs = [_bfgs(row, gtol, maxiter) for row in np.asarray(x0)]
    results = [None] * len(runs)
    asks = {}

    def advance(i, sent):
        try:
            asks[i] = runs[i].send(sent)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    while asks:
        index = list(asks)
        f, g = fun(np.array(index), np.stack([asks.pop(i) for i in index]))
        for i, fi, gi in zip(index, f.tolist(), g):
            advance(i, (fi, gi))
    return results


def _bfgs(x0, gtol, maxiter):
    """One row of `minimize`: a generator that yields each point whose
    (f, gradient) it needs, is sent them, and returns its Result."""
    cache_x = None
    cache = None

    def evaluate(x):
        nonlocal cache_x, cache
        if cache_x is None or not np.array_equal(x, cache_x):
            cache_x, cache = x, (yield x)
        return cache

    x0 = np.asarray(x0).flatten()
    old_fval, gfk = yield from evaluate(x0)

    k = 0
    N = len(x0)
    I = np.eye(N, dtype=int)  # noqa: E741
    Hk = I

    # Sets the initial step guess to dx ~ 1
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2

    xk = x0
    gnorm = _vecnorm(gfk, ord=np.inf)
    while (gnorm > gtol) and (k < maxiter):
        pk = -np.dot(Hk, gfk)

        # The line search along pk.  phi(s) is f at xk + s*pk and keeps the
        # gradient there; derphi(s) is the slope from that gradient, since
        # each search asks for it only right after phi(s) at the same s.
        gval = None

        def phi(s):
            nonlocal gval
            f, gval = yield from evaluate(xk + s*pk)
            return f

        def derphi(s):
            return np.dot(gval, pk)

        derphi0 = np.dot(gfk, pk)
        if derphi0 != 0:
            alpha1 = min(1.0, 1.01*2*(old_fval - old_old_fval)/derphi0)
            if alpha1 < 0:
                alpha1 = 1.0
        else:
            alpha1 = 1.0
        alpha_k, fval = yield from _dcsrch(phi, derphi, alpha1, old_fval, derphi0)
        if alpha_k is None:
            alpha_k, fval = yield from _scalar_search_wolfe2(phi, derphi, alpha1, old_fval,
                                                             derphi0)
        if alpha_k is None:
            break
        old_old_fval, old_fval, gfkp1 = old_fval, fval, gval

        sk = alpha_k * pk
        xk = xk + sk

        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = _vecnorm(gfk, ord=np.inf)
        if (gnorm <= gtol):
            break

        # SciPy's step-size stop alpha_k ||pk|| <= xrtol (xrtol + ||xk||) at
        # xrtol = 0: a zero step, unless ||xk|| is not finite.
        if alpha_k * _vecnorm(pk) <= 0 * _vecnorm(xk):
            break

        if not np.isfinite(old_fval):
            break

        rhok_inv = np.dot(yk, sk)
        if rhok_inv == 0.:
            rhok = 1000.0
        else:
            rhok = 1. / rhok_inv

        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = I - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] *
                                           sk[np.newaxis, :])
    return Result(xk, k)


def _dcsrch(phi, derphi, stp, finit, ginit):
    """DCSRCH from the trial step stp, given phi(0) = finit and phi'(0) =
    ginit < 0: (step, phi(step)) once both Wolfe tests pass, or (None, _)
    on an error or warning exit or after 100 evaluations."""
    # ERROR exits of START; stp <= 1 < STPMAX, and C1, C2 and XTOL are valid.
    if stp < STPMIN or ginit >= 0:
        return None, finit
    brackt = False
    stage = 1
    gtest = C1 * ginit
    width = STPMAX - STPMIN
    width1 = width / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + 4.0 * stp

    f = yield from phi(stp)
    g = derphi(stp)
    for _ in range(99):
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if f <= ftest and abs(g) <= C2 * -ginit:
            return stp, f
        if (brackt and (stp <= stmin or stp >= stmax)
                or brackt and stmax - stmin <= XTOL * stmax
                or stp == STPMAX and f <= ftest and g <= gtest
                or stp == STPMIN and (f > ftest or g >= gtest)):
            return None, f

        # In the first stage, while no step has both a decrease and a
        # nonnegative derivative, step on the modified function
        # psi(stp) = phi(stp) - phi(0) - stp * gtest.
        if stage == 1 and f <= fx and f > ftest:
            fm = f - stp * gtest
            fxm = fx - stx * gtest
            fym = fy - sty * gtest
            gm = g - gtest
            gxm = gx - gtest
            gym = gy - gtest
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                    stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax)
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)

        # Bisect when the bracket does not shrink by 2/3 in two steps.
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = np.clip(stp, STPMIN, STPMAX)
        if (brackt and (stp <= stmin or stp >= stmax)
                or (brackt and stmax - stmin <= XTOL * stmax)):
            stp = stx
        if not np.isfinite(stp):
            return None, f
        f = yield from phi(stp)
        g = derphi(stp)
    return None, f


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """DCSTEP: the safeguarded cubic/quadratic step of DCSRCH, and the update
    of the interval [stx, sty] that contains a step satisfying the tests."""
    sgn_dp = np.sign(dp)
    sgn_dx = np.sign(dx)
    sgnd = sgn_dp * sgn_dx
    if fp > fx:
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp < stx:
            gamma *= -1
        p = gamma - dx + theta
        q = gamma - dx + gamma + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp > stx:
            gamma *= -1
        p = gamma - dp + theta
        q = gamma - dp + gamma + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - dx / s * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma + (dx - dp) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    elif brackt:
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dy / s * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma - dp + gamma + dy
        r = p / q
        stpc = stp + r * (sty - stp)
        stpf = stpc
    elif stp > stx:
        stpf = stpmax
    else:
        stpf = stpmin

    if fp > fx:
        sty = stp
        fy = fp
        dy = dp
    else:
        if sgnd < 0:
            sty = stx
            fy = fx
            dy = dx
        stx = stp
        fx = fp
        dx = dp
    stp = stpf
    return stx, fx, dx, sty, fy, dy, stp, brackt


def _scalar_search_wolfe2(phi, derphi, alpha1, phi0, derphi0):
    """Bracketing strong-Wolfe search from the trial step alpha1, given
    phi(0) = phi0 and phi'(0) = derphi0, at most 10 trial steps before a
    zoom: (step, phi(step)), or (None, _)."""
    # alpha1 <= 1 and at most 10 doublings keep every step below SciPy's
    # amax = 1e100, so its caps and its "no solution up to amax" exit are
    # left out.
    maxiter = 10
    alpha0 = 0
    phi_a1 = yield from phi(alpha1)

    phi_a0 = phi0
    derphi_a0 = derphi0

    for i in range(maxiter):
        if alpha1 == 0:
            # Rounding errors prevent progress.
            return None, phi0

        not_first_iteration = i > 0
        if (phi_a1 > phi0 + C1 * alpha1 * derphi0) or \
           ((phi_a1 >= phi_a0) and not_first_iteration):
            return (yield from _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi, derphi,
                                     phi0, derphi0))

        derphi_a1 = derphi(alpha1)
        if (abs(derphi_a1) <= -C2*derphi0):
            return alpha1, phi_a1

        if (derphi_a1 >= 0):
            return (yield from _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi, derphi,
                                     phi0, derphi0))

        alpha0 = alpha1
        alpha1 = 2 * alpha1  # increase by factor of two on each iteration
        phi_a0 = phi_a1
        phi_a1 = yield from phi(alpha1)
        derphi_a0 = derphi_a1

    # stopping test maxiter reached
    return alpha1, phi_a1


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb), (c, fc) with slope
    fpa at a, or None if there is none."""
    # f(x) = A *(x-a)^3 + B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide='raise', over='raise', invalid='raise'):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc ** 2
            d1[0, 1] = -db ** 2
            d1[1, 0] = -dc ** 3
            d1[1, 1] = db ** 3
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db,
                                            fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa), (b, fb) with slope fpa
    at a, or None if there is none."""
    # f(x) = B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide='raise', over='raise', invalid='raise'):
        try:
            D = fa
            C = fpa
            db = b - a * 1.0
            B = (fb - D - C * db) / (db * db)
            xmin = a - C / (2.0 * B)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi, derphi, phi0, derphi0):
    """Zoom of the bracketing search (Nocedal and Wright, Algorithm 3.6):
    (step, phi(step)) inside [a_lo, a_hi], or (None, None) after 11 trials."""
    maxiter = 10
    i = 0
    delta1 = 0.2  # cubic interpolant check
    delta2 = 0.1  # quadratic interpolant check
    phi_rec = phi0
    a_rec = 0
    while True:
        # Interpolate by a cubic through phi_lo, phi_hi and the last
        # discarded point; if the result lies within delta * dalpha of an
        # end, try a quadratic, and bisect if that fails too.
        dalpha = a_hi - a_lo
        if dalpha < 0:
            a, b = a_hi, a_lo
        else:
            a, b = a_lo, a_hi

        if (i > 0):
            cchk = delta1 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi,
                            a_rec, phi_rec)
        if (i == 0) or (a_j is None) or (a_j > b - cchk) or (a_j < a + cchk):
            qchk = delta2 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if (a_j is None) or (a_j > b-qchk) or (a_j < a+qchk):
                a_j = a_lo + 0.5*dalpha

        phi_aj = yield from phi(a_j)
        if (phi_aj > phi0 + C1*a_j*derphi0) or (phi_aj >= phi_lo):
            phi_rec = phi_hi
            a_rec = a_hi
            a_hi = a_j
            phi_hi = phi_aj
        else:
            derphi_aj = derphi(a_j)
            if abs(derphi_aj) <= -C2*derphi0:
                return a_j, phi_aj
            if derphi_aj*(a_hi - a_lo) >= 0:
                phi_rec = phi_hi
                a_rec = a_hi
                a_hi = a_lo
                phi_hi = phi_lo
            else:
                phi_rec = phi_lo
                a_rec = a_lo
            a_lo = a_j
            phi_lo = phi_aj
            derphi_lo = derphi_aj
        i += 1
        if (i > maxiter):
            # Failed to find a conforming step size
            return None, None


def minimize_scalar(fun: Callable, bounds: tuple[float, float], *, xatol: float) -> Result:
    """Minimize fun, convex on bounds = (lo, hi), to within xatol (Kiefer,
    Proc. AMS 4(3), 1953): each round calls fun once on 17 equally spaced t
    and keeps the two cells around the first argmin, where a convex minimum
    lies.  Returns the first best t evaluated and the rounds."""
    lo, hi = bounds
    best_t, best_f = lo, np.inf
    rounds = 0
    while True:
        t = np.linspace(lo, hi, 17)
        f = fun(t)
        rounds += 1
        i = int(np.argmin(f))
        if f[i] < best_f:
            best_t, best_f = float(t[i]), f[i]
        if hi - lo <= xatol:
            return Result(best_t, rounds)
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, 16)]
