"""Tests of the benchmark itself; kept out of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import run
from run import RTOL, WORKLOADS, call, failed_items, load_reference, measure
from spans import FUNCTIONS, METRICS, NORM_METHODS, Tracer, layer_metrics, self_times

SMALL_STRIP = dataclasses.replace(  # no reference is recorded under this name
    WORKLOADS["strip-p3"], name="strip-p3-small",
    args=tuple(a if a != str(run.STRIP_COUNT) else "2" for a in WORKLOADS["strip-p3"].args),
    items=2)


@pytest.fixture(autouse=True)
def _package_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))


def _bindings():
    """Every attribute the tracer may replace, as (owner, name, object)."""
    import twosticks.cli  # noqa: F401 -- loads every module the tracer scans
    import twosticks.norms as norms

    mods = [m for n, m in sys.modules.items() if n.startswith("twosticks")]
    names = {attr for _, attr, _ in FUNCTIONS}
    out = [(m, a, getattr(m, a)) for m in mods for a in names if hasattr(m, a)]
    classes = [c for c in vars(norms).values()
               if isinstance(c, type) and issubclass(c, norms.Norm)]
    out += [(c, a, vars(c)[a]) for c in classes for a in NORM_METHODS if a in vars(c)]
    return out


def test_wrappers_restore_originals():
    before = _bindings()
    from twosticks import PNorm, sticks

    original = sticks.modulus
    tracer = Tracer()
    tracer.install()
    try:
        assert sticks.modulus is not original
        PNorm(3, 3).value(np.ones((4, 3)))
        sticks.modulus(PNorm(3, 3), [1.0, 0.0, 0.0], 0.1, n_starts=4, max_iter=5)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is obj for owner, attr, obj in before)
    assert "convexity.modulus" in tracer.names and tracer.rows[0] == 4


def test_self_times_sum_within_wall():
    rec = call(SMALL_STRIP, 0, "selftest", traced=True)
    assert rec["code"] == 0 and rec["failed"] == 0
    with np.load(rec["spans"]) as trace:
        own = self_times(trace["parent"], trace["start"], trace["end"])
        metrics = layer_metrics(trace)
    assert np.all(own >= -1e-9)
    assert own.sum() <= rec["wall_s"]
    assert metrics["convexity.modulus.calls"] == 6
    assert metrics["atlas.acceptance"] > 0.0


def test_self_times_subtract_children():
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 4.0, 1.5])
    end = np.array([10.0, 3.0, 5.0, 2.0])
    assert self_times(parent, start, end).tolist() == [7.0, 1.5, 1.0, 0.5]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_flags_flipped_verdict_and_moved_value(name):
    workload = WORKLOADS[name]
    verdicts, values = load_reference(workload, 0)
    weights = np.full(len(verdicts), workload.items // len(verdicts))
    assert failed_items(workload, (verdicts, values, weights), (verdicts, values)) == 0

    flipped = verdicts.copy()
    flipped[1] = False
    assert failed_items(workload, (flipped, values, weights), (verdicts, values)) == weights[1]

    col = {"strip-p3": 1, "certify-p3": 0, "sticks-p3": 2}[name]  # kappa, t_hat, ratio
    within, beyond = values.copy(), values.copy()
    within[1, col] *= 1.0 + 0.5 * RTOL
    beyond[1, col] *= 1.0 + 4.0 * RTOL
    assert failed_items(workload, (verdicts, within, weights), (verdicts, values)) == 0
    assert failed_items(workload, (verdicts, beyond, weights), (verdicts, values)) == weights[1]


def test_unrecorded_seed_still_checks_verdicts():
    workload = WORKLOADS["sticks-p3"]
    assert load_reference(workload, 10**6) is None
    verdicts = np.array([True, False, True])
    out = (verdicts, np.zeros((3, 6)), np.ones(3, dtype=np.int64))
    assert failed_items(workload, out, None) == 1 + workload.items - 3


def test_nonzero_exit_fails_every_item():
    bad = dataclasses.replace(
        SMALL_STRIP, args=tuple("1.5" if a == run.P3_LAMBDA else a for a in SMALL_STRIP.args))
    plain, _ = measure(bad, 0, seconds=0, trace=False)
    assert plain[-1]["code"] == 1
    assert sum(r["failed"] for r in plain) == sum(r["attempted"] for r in plain) > 0


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["per_layer"]] == [*METRICS, "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]}.items() >= METRICS.items()
    e2e = run.end_to_end([], WORKLOADS["strip-p3"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}


def test_timings_scale_with_host_probe():
    fast = {"code": 0, "setup_s": 1.0, "wall_s": 3.0, "run_s": 2.0, "peak_rss_mb": 100.0,
            "probe_s": run.PROBE_REF_S}
    slow = {**fast, "setup_s": 1.5, "wall_s": 4.5, "run_s": 3.0, "probe_s": 1.5 * run.PROBE_REF_S}
    workload = WORKLOADS["strip-p3"]
    e2e = {name: value for name, (value, _) in run.end_to_end([fast], workload).items()}
    assert e2e == pytest.approx(
        {name: value for name, (value, _) in run.end_to_end([slow], workload).items()})
    assert e2e["wall_s"] == pytest.approx(3.0)
    assert e2e["items_per_s"] == pytest.approx(workload.items / 2.0)
