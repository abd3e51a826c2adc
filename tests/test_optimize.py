"""`twosticks._optimize` against its oracles.

The BFGS polish must take SciPy's floating-point path step for step: the
strip references pin values that move when the polished maximizer moves by
about 1e-8.  `minimize` runs the rows of a batch in lockstep, so every BFGS
case is a batch of rows with different objectives, and each row is
compared with SciPy run from that row alone: x with `np.array_equal`, the
iteration count and the number of objective calls that row made.  The
sweeps must reach the rare line-search paths, counted through the module
attributes the port calls.  The oracle is SciPy 1.17, the release the port
transcribes; earlier releases take other paths (a compiled MINPACK-2 line
search, BFGS without xrtol).

The exceptional branches (a division by zero, an overflow, the root of a
negative number, inf and NaN) are rare in a run, so `_dcstep`, `_cubicmin`
and `_quadmin` are also compared with SciPy's own functions on adversarial
inputs, bit for bit and warning for warning.

No output depends on the last bits of `segment_point_distance`, so its
bracket search is checked by value: against the clamped Euclidean
projection, against SciPy's bounded search and both ends for p-norms, and
on the exact cases (a minimum at an end, a zero-length stick, a point on
the stick).
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.optimize as scipy_optimize
from scipy.optimize import _dcsrch as scipy_dcsrch, _linesearch as scipy_linesearch

from twosticks import _optimize
from twosticks.convexity import _ascended
from twosticks.norms import EuclideanNorm, PNorm
from twosticks.sticks import Stick, segment_point_distance

from oracles import GTOL, MAXITER, polish_objective

# The option of `segment_point_distance`.
XATOL = 1e-12


def neg_square(x):
    # On -||x||^2 no step meets the curvature test, so wolfe2 zooms, and the
    # cubic through the zoom points has no minimizer.
    return -float(x @ x), -2.0 * x


def linear(x):
    # The gradient never changes, so y_k = 0 and every update takes the
    # rho_k^-1 == 0 branch (rho_k = 1000), after wolfe2 ran out of its 10
    # doublings and kept the last step.
    return -float(np.sum(x)), -np.ones_like(x)


def _assert_rows_match_scipy(objectives, x0, maxiter=MAXITER):
    """Minimize the batch whose row i has the one-vector objective
    objectives[i] and start x0[i]; check each row against SciPy from x0[i]."""
    calls = Counter()

    def batched(index, points):
        assert len(index) == len(set(index.tolist())) == len(points)
        out = []
        for i, point in zip(index.tolist(), points):
            calls[i] += 1
            out.append(objectives[i](point))
        return np.array([f for f, _ in out]), np.stack([g for _, g in out])

    got = _optimize.minimize(batched, x0, gtol=GTOL, maxiter=maxiter)
    assert len(got) == len(x0)
    for i, (fun, row) in enumerate(zip(objectives, x0)):
        their_calls = Counter()

        def counted(x, fun=fun):
            their_calls[0] += 1
            return fun(x)

        ref = scipy_optimize.minimize(counted, row, jac=True, method="BFGS",
                                      options={"gtol": GTOL, "maxiter": maxiter})
        assert np.array_equal(got[i].x, ref.x), (i, row, got[i].x, ref.x)
        assert got[i].nit == ref.nit, i
        assert calls[i] == their_calls[0], i
    return got


@pytest.fixture
def paths(monkeypatch):
    """Calls of the rarer paths, and how many of them failed (":none")."""
    seen = Counter()

    def count(name, out):
        seen[name] += 1
        if out is None or isinstance(out, tuple) and out[0] is None:
            seen[name + ":none"] += 1
        return out

    for name in ("_scalar_search_wolfe2", "_zoom"):
        def counting(*args, _name=name, _fn=getattr(_optimize, name)):
            return count(_name, (yield from _fn(*args)))
        monkeypatch.setattr(_optimize, name, counting)
    cubicmin = _optimize._cubicmin
    monkeypatch.setattr(_optimize, "_cubicmin", lambda *args: count("_cubicmin",
                                                                    cubicmin(*args)))
    return seen


def _polish_rows(dim, rng):
    """The polish objectives and starts of the two best ascended starts of
    two problems for each norm and radius: the rows `moduli` polishes."""
    objectives, starts = [], []
    for norm in (PNorm(1.5, dim), PNorm(3, dim), PNorm(4, dim), EuclideanNorm(dim)):
        for t in (1e-6, 1e-3, 0.05, 0.5):
            xs = [x for x in rng.standard_normal((2, dim))]
            ns = [norm.normal(x) for x in xs]
            y, f, _ = _ascended(norm, xs, [t, t], ns, 8, 80)
            for i in range(2):
                for j in np.argsort(f[i])[::-1][:2]:
                    objectives.append(polish_objective(norm, xs[i], t, ns[i]))
                    starts.append(y[i, j])
    return objectives, starts


def test_polish_matches_scipy_bit_for_bit(paths):
    # Per dimension, one batch of 64 polish rows and four -||x||^2 rows.
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        objectives, starts = _polish_rows(dim, rng)
        objectives += [neg_square] * 4
        starts += list(rng.standard_normal((4, dim)))
        got = _assert_rows_match_scipy(objectives, np.stack(starts))
        assert len({res.nit for res in got}) > 3
    # The wolfe1 -> wolfe2 fallback, its zoom, and the stop after both fail.
    assert paths["_scalar_search_wolfe2"] > 0
    assert paths["_zoom"] > 0
    assert paths["_scalar_search_wolfe2:none"] > 0


def test_cubic_interpolation_failure_matches_scipy(paths):
    # -||x||^2 rows, with polish rows, reach a zoom cubic with no minimizer;
    # the polish objective never produced that.
    rng = np.random.default_rng(0)
    objectives, starts = _polish_rows(2, rng)
    objectives, starts = objectives[:8] + [neg_square] * 4, starts[:8]
    starts += list(rng.standard_normal((4, 2)))
    _assert_rows_match_scipy(objectives, np.stack(starts))
    assert paths["_cubicmin:none"] > 0


def test_zero_curvature_update_matches_scipy(paths):
    # Four linear rows, with polish and -||x||^2 rows; 3 iterations keep the
    # linear rows clear of overflow.
    rng = np.random.default_rng(1)
    objectives, starts = _polish_rows(3, rng)
    objectives, starts = objectives[:8] + [neg_square] * 2 + [linear] * 4, starts[:8]
    starts += list(rng.standard_normal((6, 3)))
    got = _assert_rows_match_scipy(objectives, np.stack(starts), maxiter=3)
    assert [res.nit for res in got[-4:]] == [3] * 4
    # The linear rows alone: every wolfe2 call is theirs, and each keeps its
    # last step rather than failing.
    paths.clear()
    got = _assert_rows_match_scipy([linear] * 4, rng.standard_normal((4, 3)), maxiter=3)
    assert [res.nit for res in got] == [3] * 4
    assert paths["_scalar_search_wolfe2"] > 0 and paths["_scalar_search_wolfe2:none"] == 0


def test_batch_of_one_and_empty_batch():
    x0 = np.array([[0.3, -1.2]])
    got = _assert_rows_match_scipy([neg_square], x0)
    assert got[0].x.shape == (2,)
    assert _optimize.minimize(lambda index, points: None, np.zeros((0, 2)),
                              gtol=GTOL, maxiter=MAXITER) == []


# Signed zeros, subnormals, values whose products, squares or cubes
# overflow, inf and NaN.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-160, -1e-154, 1.0, -1.0, 0.5, 3.0, -2.0,
           1e100, 1e154, -1e200, 1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


def _adversarial(seed, count, width):
    """count lists of width floats, each entry from SPECIAL or a Gaussian at
    a random scale; in a quarter of them two entries are made equal."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        row = [float(rng.choice(SPECIAL)) if rng.random() < 0.5
               else float(rng.standard_normal() * 10.0 ** rng.integers(-4, 5))
               for _ in range(width)]
        if rng.random() < 0.25:
            i, j = rng.choice(width, 2, replace=False)
            row[i] = row[j]
        yield row


def _bits(values):
    """Each value's bits, any NaN as "nan": IEEE 754 leaves open which NaN an
    operation on two NaNs returns, and CPython's specialized float operations
    may pick the other one than its generic ones."""
    return [None if v is None else "nan" if v != v else np.float64(v).tobytes()
            for v in values]


def _warned(fn, *args):
    """fn(*args), and the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@pytest.fixture
def lanes(monkeypatch):
    """Runs of the bodies of `_dcstep`, `_cubicmin` and `_quadmin`, on the
    given floats and on np.float64 (numpy's values where Python raises)."""
    seen = Counter()
    for name in ("_dcstep_on", "_cubic_vertex", "_quadratic_vertex"):
        def counting(*args, _name=name, _fn=getattr(_optimize, name)):
            on_numpy = any(isinstance(v, np.float64) for v in args)
            seen[_name, "numpy" if on_numpy else "float"] += 1
            return _fn(*args)
        monkeypatch.setattr(_optimize, name, counting)
    return seen


def test_dcstep_matches_scipy_on_exceptional_inputs(lanes):
    # SciPy's DCSRCH calls dcstep on numpy scalars under this errstate; a
    # division by zero still warns, and the port must warn the same.
    cases = [
        # stp == stx: a division by zero.
        ([0.0, 0.0, -1.0, 2.0, 1.0, 1.0, 0.0, 1.0, -0.5], True),
        # fp == fy and dp == dy == dx == 0 in a bracket: s == 0, so 0/0.
        ([0.0, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 1.0, 0.0], True),
        # theta == 0 with dx == dp == 1.5: a negative radicand.
        ([0.0, 0.0, 1.5, 2.0, 1.0, 1.0, 1.0, 1.0, 1.5], False),
    ]
    cases = [(row + [0.0, 5.0], brackt) for row, brackt in cases]
    cases += [(row, i % 2 == 0) for i, row in enumerate(_adversarial(3, 3000, 11))]
    for row, brackt in cases:
        args = (*row[:9], brackt, *row[9:])
        got, got_warned = _warned(_optimize._dcstep, *args)
        with np.errstate(invalid="ignore", over="ignore"):
            want, want_warned = _warned(scipy_dcsrch.dcstep, *map(np.float64, row[:9]),
                                        brackt, *map(np.float64, row[9:]))
        assert _bits(got) == _bits(want), args
        assert got_warned == want_warned, args
    assert lanes["_dcstep_on", "numpy"] > 20 and lanes["_dcstep_on", "float"] > 2000


def test_zoom_interpolants_match_scipy_on_exceptional_inputs(lanes):
    quadratic = [
        (1.0, 0.0, -1.0, 1.0, 2.0),        # b == a: a division by zero
        (1.0, 1.0, 0.0, 1.0, 1.0),         # 0/0
        (0.0, 0.0, 1.0, 1e-154, 1.0),      # 2B overflows, and C/(2B) hides it
        (0.0, 0.0, -1.0, 2.5e-310, 1.0),   # a subnormal b - a
    ]
    cubic = [
        (0.0, 0.0, -1.0, 1e100, 1.0, -1e100, 2.0),   # (db*dc)**2 overflows
        (0.0, 0.0, -1.0, 1.0, 1.0, 1.0, 2.0),        # b == c: denom == 0
        (0.0, 0.0, 1.0, 1.0, 2.0, -1.0, -2.0),       # x^3 + x: a negative radical
        (0.0, 0.0, -1.0, 1.0, 0.5, 2.0, 1.0),        # an ordinary minimizer
    ]
    quadratic += [tuple(row) for row in _adversarial(4, 3000, 5)]
    cubic += [tuple(row) for row in _adversarial(5, 3000, 7)]
    for ours, theirs, cases in ((_optimize._quadmin, scipy_linesearch._quadmin, quadratic),
                                (_optimize._cubicmin, scipy_linesearch._cubicmin, cubic)):
        for args in cases:
            got, got_warned = _warned(ours, *args)
            want, want_warned = _warned(theirs, *map(np.float64, args))
            assert _bits([got]) == _bits([want]), (ours.__name__, args)
            assert got_warned == want_warned == [], (ours.__name__, args)
    for body in ("_quadratic_vertex", "_cubic_vertex"):
        assert lanes[body, "numpy"] > 1000 and lanes[body, "float"] > 2000, lanes


def test_scalar_helpers_match_numpy():
    # _clip computes nothing, so even the NaN it returns is np.clip's.
    values = SPECIAL + [-v for v in SPECIAL[2:]]
    for x in values:
        for lo in values:
            for hi in (-1.0, 0.0, -0.0, 1e100, math.inf, math.nan, -math.nan, lo):
                got = np.float64(_optimize._clip(x, lo, hi)).tobytes()
                assert got == np.clip(x, lo, hi).tobytes(), (x, lo, hi)
    for row in _adversarial(6, 2000, 3):
        x = np.array(row)
        assert _bits([_optimize._infnorm(x)]) == _bits([np.amax(np.abs(x))]), row


def test_grid_is_linspace_bit_for_bit():
    rng = np.random.default_rng(8)
    brackets = [(0.0, 1.0), (0.3, 0.3), (0.0, 0.0), (0.0, 5e-324), (0.0, 7 * 5e-324),
                (5e-324, 3e-323), (0.0, 1e-320), (1e-310, 1e-310 + 15 * 5e-324)]
    for _ in range(20000):
        lo = rng.random() * 10.0 ** rng.integers(-320, 3)
        brackets.append((lo, lo + rng.random() * 10.0 ** rng.integers(-325, 1)))
    for lo, hi in brackets:
        assert _optimize._grid(lo, hi).tobytes() == np.linspace(lo, hi, 17).tobytes(), (lo, hi)


def _cases(seed, per_scale):
    """(dim, a, b, point) with Gaussian rows at each scale of each dimension."""
    rng = np.random.default_rng(seed)
    for dim in (2, 3, 4):
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(per_scale):
                a, b, point = scale * rng.standard_normal((3, dim))
                yield dim, a, b, point


def test_search_returns_the_first_best_point_it_evaluated():
    # Every call adds one to all its values, so the first round's argmin
    # stays the best point seen however the later rounds go.
    calls = []

    def rising(t):
        calls.append(t)
        return np.abs(t - 1.0 / 3.0) + len(calls)

    got = _optimize.minimize_scalar(rising, (0.0, 1.0), xatol=XATOL)
    assert got.x == 5.0 / 16.0 and got.nit == len(calls)
    assert all(t.shape == (17,) for t in calls)
    # The last round is the first whose bracket is no wider than xatol.
    assert calls[-1][-1] - calls[-1][0] <= XATOL < calls[-2][-1] - calls[-2][0]


def test_euclidean_distance_matches_the_clamped_projection():
    ends = set()
    for dim, a, b, point in _cases(0, 10):
        d, t = segment_point_distance(EuclideanNorm(dim), Stick(a, b), point)
        e = b - a
        t_ref = min(max(float(np.dot(point - a, e) / np.dot(e, e)), 0.0), 1.0)
        d_ref = float(np.linalg.norm(a + t_ref * e - point))
        assert abs(d - d_ref) <= 4e-15 * d_ref, (a, b, point)
        if t_ref in (0.0, 1.0):
            assert t == t_ref
            ends.add(t_ref)
    assert ends == {0.0, 1.0}


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_p_norm_distance_is_no_worse_than_scipy_and_the_ends(p):
    for dim, a, b, point in _cases(1, 3):
        norm, stick = PNorm(p, dim), Stick(a, b)

        def dist(s):
            return float(norm._value(stick.point_at(s) - point))

        d, t = segment_point_distance(norm, stick, point)
        ref = scipy_optimize.minimize_scalar(dist, bounds=(0.0, 1.0), method="bounded",
                                             options={"xatol": XATOL})
        assert 0.0 <= t <= 1.0 and d == dist(t)
        assert d <= min(dist(ref.x), dist(0.0), dist(1.0)) * (1.0 + 1e-15), (a, b, point)


@pytest.mark.parametrize("norm_of", [EuclideanNorm, lambda dim: PNorm(1.5, dim),
                                     lambda dim: PNorm(3, dim), lambda dim: PNorm(4, dim)],
                         ids=["euclidean", "p1.5", "p3", "p4"])
def test_exact_cases(norm_of):
    rng = np.random.default_rng(2)
    for dim, a, b, point in _cases(3, 2):
        norm = norm_of(dim)
        e = b - a
        # Beyond either end on the line through the stick.
        c = rng.uniform(0.1, 2.0)
        assert segment_point_distance(norm, Stick(a, b), a - c * e)[1] == 0.0
        assert segment_point_distance(norm, Stick(a, b), b + c * e)[1] == 1.0
        # A point on the stick, at an end or inside it.
        assert segment_point_distance(norm, Stick(a, b), a) == (0.0, 0.0)
        assert segment_point_distance(norm, Stick(a, b), b) == (0.0, 1.0)
        d, t = segment_point_distance(norm, Stick(a, b), a + 0.3 * e)
        assert d <= 1e-13 * float(norm._value(e)) and abs(t - 0.3) <= 1e-12
        # A zero-length stick is the point a, up to the rounding of (1-t)a + ta.
        d, t = segment_point_distance(norm, Stick(a, a.copy()), point)
        assert d == pytest.approx(float(norm._value(a - point)), rel=1e-15) and 0.0 <= t <= 1.0
