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
    PNorm,
    SiteSet,
    Stick,
    build_ray_family,
    estimate_balanced,
    estimate_doubling,
    estimate_lambda,
    extend_constants,
    extend_constants_to,
    gap,
    holder_ratio,
    moduli,
    modulus,
    nearest_point,
    pair_verdicts,
    segment_point_distance,
    strip_experiment,
    transfer_check,
    two_sticks_check,
)
from twosticks.convexity import TransferWindowError
from twosticks import cli

from oracles import PluginNorm

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
    # ascents and two polishes, each polish taking the two best starts of
    # every problem of its batch; each problem ends in its own `modulus`
    # call, which ranks its starts.
    assert calls == {"sticks.moduli": 2, "sticks.modulus": 0, "convexity.modulus": 15,
                     "convexity._ascended": 2, "convexity._ascent": 2,
                     "convexity._polish_on_sphere": 2}


def test_traced_strip_records_every_modulus_problem(tmp_path, monkeypatch):
    # The benchmark's own checks of a traced strip run (perfbench/selftest.py),
    # read through its saved trace and `layer_metrics`, so that a change that
    # breaks them fails here too.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
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

    tracer.save(tmp_path / "trace.npz", dim=3)
    with np.load(tmp_path / "trace.npz") as trace:
        metrics = spans.layer_metrics(trace)
        names = [str(n) for n in trace["names"]]
        name, parent = trace["name"], trace["parent"]
    assert metrics["convexity.modulus.calls"] == 6
    assert metrics["atlas.acceptance"] > 0.0
    # The generator takes its ball test from its construction: no search
    # along a stick runs under it.
    search = name == names.index("sticks.segment_point_distance")
    assert np.count_nonzero(search) == 4    # the experiment's, two per configuration
    generator = np.flatnonzero(name == names.index("atlas.generate_strip_pairs"))
    assert not np.any(np.isin(parent[search], generator))


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


def test_precondition_error_is_one_class():
    assert twosticks.PreconditionError is sticks.PreconditionError is convexity.PreconditionError
    assert issubclass(convexity.PreconditionError, ValueError)


def test_certify_computes_one_normal_map_per_sample_batch(tmp_path, monkeypatch):
    # Lambda, T and K each run their x batch in blocks, and one N(x) per
    # block serves its tangent projection and both of its gaps; each block
    # runs once, the witness kept as it goes.  Per block, Lambda, T and K
    # take 5 norm calls (unit x, N(x), y, two gaps), A takes 4 (unit e,
    # ebar, e - ebar, e + ebar) and B 5 (unit x, y, ||y||, x + y, x - y).
    calls = {"normal": [], "value": []}
    real_normal, real_value = PNorm._normal, PNorm._value

    def counting_normal(self, x, v):
        calls["normal"].append(x.shape)
        return real_normal(self, x, v)

    def counting_value(self, x):
        calls["value"].append(x.shape)
        return real_value(self, x)

    monkeypatch.setattr(PNorm, "_normal", counting_normal)
    monkeypatch.setattr(PNorm, "_value", counting_value)
    monkeypatch.setattr(convexity, "BLOCK_ROWS", 200)
    argv = ["certify", "--norm", "p:3", "--dim", "3", "--mode", "tangent", "--uniform-p", "3",
            "--uniform-q", "2", "--samples", "500", "--out", str(tmp_path / "c.json")]
    assert cli.main(argv) == cli.EXIT_OK
    blocks = [(200, 3), (200, 3), (100, 3)]
    assert calls["normal"] == 3 * blocks
    # The uniform estimators draw 500 // 2 + 1 = 251 pairs each.
    uniform = [(200, 3), (51, 3)]
    assert calls["value"] == (3 * [shape for shape in blocks for _ in range(5)]
                              + [shape for shape in uniform for _ in range(4)]
                              + [shape for shape in uniform for _ in range(5)])


# Each scalar hypothesis of the public API: (id, call of the one bad value,
# text that opens the error and names the argument or its hypothesis).
P33 = PNorm(3, 3)
HYPOTHESIS_ENTRIES = [
    ("extend_constants.r", lambda v: extend_constants(v, 3.0), "r must be"),
    ("extend_constants.lam", lambda v: extend_constants(1.0, v), "[lambda_range]"),
    ("extend_constants_to.radius", lambda v: extend_constants_to(0.5, 3.0, v), "radius must be"),
    *[(f"transfer_check.{arg}",
       lambda v, arg=arg: transfer_check(P33, **(dict(lam=3.0, r=0.25, t_const=9.0, k_const=2.0,
                                                        samples=500) | {arg: v})), text)
      for arg, text in [("lam", "[lambda_range]"), ("t_const", "[t_range]"),
                        ("k_const", "[k_range]"), ("r", "r must be"),
                        ("samples", "samples must be")]],
    ("build_ray_family.length", lambda v: build_ray_family(SITES3, [[0.3, 0.2, 0.1]], v),
     "length must be"),
    ("modulus.t", lambda v: modulus(P33, X3, v), "t must be"),
    ("moduli.t", lambda v: moduli(P33, [X3], [v]), "t must be"),
    ("estimate_lambda.r", lambda v: estimate_lambda(P33, v, samples=100), "r must be"),
    ("estimate_doubling.r", lambda v: estimate_doubling(P33, v, samples=100), "r must be"),
    ("estimate_balanced.bound", lambda v: estimate_balanced(P33, v, samples=100),
     "bound must be"),
    ("strip_experiment.lam",
     lambda v: strip_experiment(P33, STICK3, STICK3, X3, 1e-4, 0.36, v, 3.5555, 0.05),
     "[lambda_range]"),
    ("strip_experiment.k_const",
     lambda v: strip_experiment(P33, STICK3, STICK3, X3, 1e-4, 0.36, 2.0279, v, 0.05),
     "[k_range]"),
]


@pytest.mark.parametrize("entry, call, text", HYPOTHESIS_ENTRIES,
                         ids=[i for i, _, _ in HYPOTHESIS_ENTRIES])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "0", "-1"])
def test_scalar_hypotheses_are_checked_before_any_draw(entry, call, text, bad, monkeypatch):
    # Before, some of these passed (extend_constants(1.0, nan) returned
    # (2.0, nan)), drew a sample and blamed it ("kappa or r too small"), or
    # blamed another argument ("input has non-finite entries" for a NaN length).
    def unseeded(*args, **kwargs):
        raise AssertionError("a generator was seeded for a rejected argument")

    monkeypatch.setattr(np.random, "default_rng", unseeded)
    monkeypatch.setattr(convexity, "default_rng", unseeded)
    with pytest.raises(ValueError) as info:
        call(bad)
    if entry == "transfer_check.r" and bad <= 0.0:
        # The window check comes first and finds (1 - 2*kappa)*r empty.
        assert type(info.value) is TransferWindowError
        assert "(1 - 2*kappa)*r = " in str(info.value)
    else:
        assert str(info.value).startswith(text)
