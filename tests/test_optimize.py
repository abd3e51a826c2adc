"""`twosticks._optimize` against SciPy, which it transcribes.

The port must take SciPy's floating-point path step for step: the strip
references pin values that move when the polished maximizer moves by about
1e-8.  So every case here compares x with `np.array_equal`, the iteration
count and the number of objective calls, and the sweeps must reach the rare
line-search paths, counted through the module attributes the port calls.
The oracle is SciPy 1.17, the release the port transcribes; earlier releases
take other paths (a compiled MINPACK-2 line search, BFGS without xrtol).
"""

from collections import Counter

import numpy as np
import pytest

from twosticks import _optimize, convexity, sticks
from twosticks.norms import EuclideanNorm, PNorm
from twosticks.sticks import Stick, segment_point_distance

scipy_optimize = pytest.importorskip("scipy.optimize")

# The options of the modulus polish and of `segment_point_distance`.
GTOL, MAXITER = 1e-12, 200
XATOL = 1e-12


def _counted(fun):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return fun(x)
    return wrapped, calls


def _assert_bfgs_matches_scipy(fun, x0, maxiter=MAXITER):
    ours, our_calls = _counted(fun)
    theirs, their_calls = _counted(fun)
    got = _optimize.minimize(ours, x0, gtol=GTOL, maxiter=maxiter)
    ref = scipy_optimize.minimize(theirs, x0, jac=True, method="BFGS",
                                  options={"gtol": GTOL, "maxiter": maxiter})
    assert np.array_equal(got.x, ref.x), (x0, got.x, ref.x)
    assert got.nit == ref.nit
    assert our_calls[0] == their_calls[0]
    return got


@pytest.fixture
def paths(monkeypatch):
    """Calls of the rarer paths, and how many of them failed (":none")."""
    seen = Counter()
    for name in ("_line_search_wolfe2", "_zoom", "_cubicmin"):
        def counting(*args, _name=name, _fn=getattr(_optimize, name)):
            out = _fn(*args)
            seen[_name] += 1
            if out is None or isinstance(out, tuple) and out[0] is None:
                seen[_name + ":none"] += 1
            return out
        monkeypatch.setattr(_optimize, name, counting)
    return seen


def test_polish_matches_scipy_bit_for_bit(monkeypatch, paths):
    # Every BFGS call of `moduli` runs on the real polish objective from the
    # starts `convexity._ascended` hands it, through both minimizers.
    cases = []

    def both(fun, x0, *, gtol, maxiter):
        assert (gtol, maxiter) == (GTOL, MAXITER)
        cases.append(x0)
        return _assert_bfgs_matches_scipy(fun, x0)

    monkeypatch.setattr(convexity, "minimize", both)
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for norm in (PNorm(1.5, dim), PNorm(3, dim), PNorm(4, dim), EuclideanNorm(dim)):
            for t in (1e-6, 1e-3, 0.05, 0.5):
                convexity.moduli(norm, rng.standard_normal((2, dim)), [t, t],
                                 n_starts=8, max_iter=80)
    assert len(cases) == 3 * 4 * 4 * 2 * 2
    # The wolfe1 -> wolfe2 fallback, its zoom, and the stop after both fail.
    assert paths["_line_search_wolfe2"] > 0
    assert paths["_zoom"] > 0
    assert paths["_line_search_wolfe2:none"] > 0


def test_cubic_interpolation_failure_matches_scipy(paths):
    # On -||x||^2 no step meets the curvature test, so wolfe2 zooms, and the
    # cubic through the zoom points has no minimizer.  The polish objective
    # never produced that.
    rng = np.random.default_rng(0)
    for _ in range(4):
        _assert_bfgs_matches_scipy(lambda x: (-float(x @ x), -2.0 * x), rng.standard_normal(2))
    assert paths["_cubicmin:none"] > 0


def test_zero_curvature_update_matches_scipy(paths):
    # On a linear objective the gradient never changes, so y_k = 0 and every
    # update takes the rho_k^-1 == 0 branch (rho_k = 1000), after wolfe2 ran
    # out of its 10 doublings and kept the last step.  The polish objective
    # never produced that; 3 iterations stay clear of overflow.
    rng = np.random.default_rng(1)
    for _ in range(4):
        got = _assert_bfgs_matches_scipy(lambda x: (-float(np.sum(x)), -np.ones_like(x)),
                                         rng.standard_normal(3), maxiter=3)
        assert got.nit == 3
    assert paths["_line_search_wolfe2"] > 0 and paths["_line_search_wolfe2:none"] == 0


def test_bounded_search_matches_scipy_bit_for_bit(monkeypatch):
    # `segment_point_distance` runs its own distance function through both.
    cases = []

    def both(fun, bounds, *, xatol):
        assert (bounds, xatol) == ((0.0, 1.0), XATOL)
        ours, our_calls = _counted(fun)
        theirs, their_calls = _counted(fun)
        got = _optimize.minimize_scalar(ours, bounds, xatol=xatol)
        ref = scipy_optimize.minimize_scalar(theirs, bounds=bounds, method="bounded",
                                             options={"xatol": xatol})
        assert float(got.x) == float(ref.x)
        assert got.nit == ref.nfev == our_calls[0] == their_calls[0]
        cases.append(got.nit)
        return got

    monkeypatch.setattr(sticks, "minimize_scalar", both)
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        for norm in (PNorm(1.5, dim), PNorm(3, dim), EuclideanNorm(dim)):
            for scale in (1e-3, 1.0, 1e3):
                for _ in range(3):
                    a, b, point = scale * rng.standard_normal((3, dim))
                    segment_point_distance(norm, Stick(a, b), point)
    assert len(cases) == 3 * 3 * 3 * 3
    # Parabolic steps end the search long before the evaluation cap.
    assert max(cases) < 500
