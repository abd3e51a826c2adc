"""The validation boundary: public entry points check their input, and the
per-class kernels they delegate to run unchecked, never per inner-loop step."""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import twosticks
import twosticks.convexity as convexity
import twosticks.norms as norms
import twosticks.sticks as sticks
from twosticks import (
    EuclideanNorm,
    PluginNorm,
    PNorm,
    SiteSet,
    Stick,
    build_ray_family,
    gap,
    holder_ratio,
    modulus,
    nearest_point,
    pair_verdicts,
    segment_point_distance,
    two_sticks_check,
)
from twosticks import cli

ROOT = Path(__file__).resolve().parents[1]

NORMS = {
    "euclidean": EuclideanNorm(3),
    "p3": PNorm(3, 3),
    "plugin": PluginNorm(lambda v: float(np.sqrt(np.sum(v * v))), 3),
}

X3 = np.array([1.0, 0.0, 0.0])
STICK3 = Stick([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
STICK2 = Stick([0.0, 0.0], [1.0, 0.0])
SITES3 = SiteSet(np.eye(3), PNorm(3, 3))

WRONG_DIM = [np.array([1.0, 0.0]), np.ones((4, 2)), np.ones((2, 4))]
NON_FINITE = [np.array([1.0, np.nan, 0.0]), np.array([[np.inf, 0.0, 0.0]])]


def _norm_cases():
    for name, norm in NORMS.items():
        yield f"{name}.value", norm.value
        yield f"{name}.normal", norm.normal


# Entry points taking one raw array: (id, call).
ARRAY_ENTRIES = [
    *_norm_cases(),
    ("gap.x", lambda a: gap(PNorm(3, 3), a, X3)),
    ("gap.y", lambda a: gap(PNorm(3, 3), X3, a)),
    ("modulus", lambda a: modulus(PNorm(3, 3), a, 1e-3, n_starts=4, max_iter=5)),
    ("nearest_point", lambda a: nearest_point(SITES3, a)),
    ("segment_point_distance", lambda a: segment_point_distance(PNorm(3, 3), STICK3, a)),
]


@pytest.mark.parametrize("call", [c for _, c in ARRAY_ENTRIES],
                         ids=[i for i, _ in ARRAY_ENTRIES])
@pytest.mark.parametrize("bad", WRONG_DIM + NON_FINITE,
                         ids=["dim2", "rows2", "rows4", "nan", "inf"])
def test_raw_array_entry_points_reject_bad_input(call, bad):
    with pytest.raises(ValueError):
        call(bad)


# Entry points taking sticks; a Stick checks finiteness when it is built.
STICK_ENTRIES = {
    "two_sticks_check": lambda l, m: two_sticks_check(PNorm(3, 3), l, m),
    "holder_ratio": lambda l, m: holder_ratio(PNorm(3, 3), l, m, 0.5, 2.0, 3.0),
    "segment_point_distance": lambda l, m: segment_point_distance(PNorm(3, 3), l, [0.5, 0.5]),
}


@pytest.mark.parametrize("name", sorted(STICK_ENTRIES))
@pytest.mark.parametrize("pair", [(STICK2, STICK2), (STICK3, STICK2), (STICK2, STICK3)],
                         ids=["both", "second", "first"])
def test_stick_entry_points_reject_wrong_dimension(name, pair):
    with pytest.raises(ValueError):
        STICK_ENTRIES[name](*pair)


def test_stick_length_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        STICK2.length(PNorm(3, 3))


def count_checks(monkeypatch) -> list:
    """A list that grows by one per `_check_batch` call.  `sticks` imports the
    name, so it is patched there as well as in `norms`."""
    calls = []
    real = norms._check_batch

    def counting(x, dim):
        calls.append(dim)
        return real(x, dim)

    monkeypatch.setattr(norms, "_check_batch", counting)
    monkeypatch.setattr(sticks, "_check_batch", counting)
    return calls


def test_modulus_check_count_does_not_depend_on_max_iter(monkeypatch):
    norm = PNorm(3, 3)
    x = np.array([1.0, 2.0, -0.5])
    x = x / float(norm.value(x))
    calls = count_checks(monkeypatch)
    counts = []
    for max_iter in (20, 80):
        calls.clear()
        modulus(norm, x, 1e-3, n_starts=8, max_iter=max_iter)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_flip_chain_checks_its_input_once(monkeypatch):
    # A pair and its derived pairs, here its reversal, are rows of one
    # `pair_verdicts` call, which checks each endpoint array once.
    norm = PNorm(3, 3)
    rng = np.random.default_rng(9)
    sites = SiteSet(rng.uniform(-2, 2, size=(3, 3)), norm)
    l, m = build_ray_family(sites, rng.uniform(-2, 2, size=(12, 3)), 1.0).sticks[:2]
    calls = count_checks(monkeypatch)
    rows = [np.array([a, b]) for a, b in zip((l.start, l.end, m.start, m.end),
                                             (l.end, l.start, m.end, m.start))]
    assert pair_verdicts(norm, *rows).two_sticks.all()
    assert len(calls) == 4


STRIP_ARGV = ["strip", "--norm", "p:3", "--dim", "3", "--lambda", "2.0279", "--k", "3.5555"]


def test_strip_makes_two_batched_solves(tmp_path, monkeypatch):
    calls = {}

    def count(module, name):
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        real = getattr(module, name)
        calls[key] = 0

        def counting(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in [(sticks, "moduli"), (sticks, "modulus"), (convexity, "modulus"),
                         (convexity, "_ascended"), (convexity, "_ascent"),
                         (convexity, "_polish_on_sphere")]:
        count(module, name)
    argv = [*STRIP_ARGV, "--count", "5", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    # 15 problems (sigma(e), sigma(ebar), ybar per configuration) in two
    # ascents; each problem ends in its own `modulus` call, polished from its
    # two best starts, as when every problem had its own solve.
    assert calls == {"sticks.moduli": 2, "sticks.modulus": 0, "convexity.modulus": 15,
                     "convexity._ascended": 2, "convexity._ascent": 2,
                     "convexity._polish_on_sphere": 30}


def test_traced_strip_records_every_modulus_problem(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("spans").Tracer()
    tracer.install()
    try:
        argv = [*STRIP_ARGV, "--count", "2", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    modulus_span = tracer.names.index("convexity.modulus")
    assert list(tracer.name).count(modulus_span) == 6
    iterations, converged, kkt = np.array(tracer.modulus).T
    assert len(iterations) == 6 and np.all(iterations > 0) and np.all(iterations <= 80)
    assert np.all(converged == 1) and np.all(kkt <= 1e-7)


def test_traced_benchmark_wrappers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    targets = {(defining, attr): getattr(importlib.import_module(defining), attr)
               for defining, attr, _ in spans.FUNCTIONS}
    methods = {(cls, attr): vars(cls)[attr]
               for cls in vars(norms).values()
               if isinstance(cls, type) and issubclass(cls, norms.Norm)
               for attr in spans.NORM_METHODS if attr in vars(cls)}
    assert {attr for _, attr in methods} == set(spans.NORM_METHODS)

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (defining, attr), fn in targets.items():
            assert getattr(sys.modules[defining], attr).__wrapped__ is fn
        for (cls, attr), fn in methods.items():
            assert vars(cls)[attr].__wrapped__ is fn
    finally:
        tracer.uninstall()
    for (defining, attr), fn in targets.items():
        assert getattr(sys.modules[defining], attr) is fn
    for (cls, attr), fn in methods.items():
        assert vars(cls)[attr] is fn


def test_package_exports_resolve_to_no_modules():
    assert len(set(twosticks.__all__)) == len(twosticks.__all__)
    for name in twosticks.__all__:
        assert not isinstance(getattr(twosticks, name), types.ModuleType), name
    namespace = {}
    exec("from twosticks import *", namespace)
    assert set(twosticks.__all__) <= set(namespace)


def test_certify_computes_one_normal_map_per_sample_batch(tmp_path, monkeypatch):
    # Lambda, T and K each draw one x batch, and one N(x) per batch serves
    # its tangent projection and both of its gaps.
    calls = []
    real = PNorm._normal

    def counting(self, x, v):
        calls.append(x.shape)
        return real(self, x, v)

    monkeypatch.setattr(PNorm, "_normal", counting)
    argv = ["certify", "--norm", "p:3", "--dim", "3", "--mode", "tangent", "--uniform-p", "3",
            "--uniform-q", "2", "--samples", "500", "--out", str(tmp_path / "c.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert calls == [(500, 3)] * 3
