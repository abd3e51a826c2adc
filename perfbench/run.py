"""Benchmark of the `twosticks` CLI on three verdict workloads.

    python3 perfbench/run.py --workload strip-p3 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout (the directory holding `src/`).
Each workload is one CLI call, made in a fresh interpreter the way a user
makes it, and repeated while one more call fits in `--seconds`.  Every
call's output is checked: each item's verdict must be a pass and, for the
seeds with a recorded reference, equal the reference verdict, with every
numeric column within RTOL/ATOL of the reference.

A run pins itself and its calls to one CPU, and times a fixed kernel
(`host_probe`) between calls.  With `--trace 0` the last line reports the
end-to-end metrics, each the median over the run's calls, with every time
scaled to a host that runs the probe in PROBE_REF_S.  With `--trace 1`
traced calls alternate with untraced ones, and the last line reports the
per-layer metrics of `spans.py` (median over the traced calls) and the
tracing overhead.  The lines before it are a table for people.  Files go to `.perfbench_run/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference"

# Reference comparison: |value - reference| <= RTOL * |reference| + ATOL.
RTOL = 1e-6
ATOL = 1e-12
MIN_CALLS = 3          # calls per run, even when they overrun --seconds
RUN_DEADLINE_S = 170   # a run never outlives this, whatever --seconds says
PROBE_REF_S = 0.3      # host_probe() on the reference machine when it runs fast

# Constants the seed commit certifies for p:3 (the procedure of
# tests/test_sticks.py::test_p3_configurations_pass gives 2.02791..., 3.55551...).
P3_LAMBDA = "2.0279"
P3_K = "3.5555"


@dataclass(frozen=True)
class Workload:
    """One CLI call: its arguments (without --seed/--out) and how to read its output."""

    name: str
    args: tuple
    suffix: str
    items: int                                  # items one call attempts
    read: Callable[[Path], tuple]               # output -> (verdicts, values, weights)


def _csv_items(verdict_column: str, passing: str) -> Callable[[Path], tuple]:
    """Reader for a CSV report: one item per row, every other column numeric."""

    def read(path: Path) -> tuple:
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                 if not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        col = header.index(verdict_column)
        verdicts = np.array([row[col] == passing for row in rows], dtype=bool)
        values = np.array([[float(c) for k, c in enumerate(row) if k != col] for row in rows],
                          dtype=float).reshape(len(rows), len(header) - 1)
        return verdicts, values, np.ones(len(rows), dtype=np.int64)

    return read


def _certify_items(samples: int) -> Callable[[Path], tuple]:
    """Reader for the certify report: one verdict per estimator, `samples` items each."""

    def read(path: Path) -> tuple:
        d = json.loads(path.read_text(encoding="utf-8"))
        lam, t, k, a, b = (float(d[key]) for key in
                           ("lambda_hat", "t_hat", "k_hat", "a_hat", "b_hat"))
        verdicts = np.array([
            lam > 2.0,                                  # geometric convexity
            2.0 < t < math.inf,                         # finite doubling constant
            1.0 <= k < math.inf,                        # finite balanced constant
            a > 0.0 and 0.0 < b < math.inf,             # uniform convexity / smoothness
        ])
        values = np.array([[lam, 0.0], [t, 0.0], [k, 0.0], [a, b]])
        return verdicts, values, np.full(4, samples, dtype=np.int64)

    return read


STRIP_COUNT = 20
CERTIFY_SAMPLES = 300_000
STICKS_QUERIES = 160   # at least 150 sticks survive at every seed tried, so
STICKS_PAIRS = 6_000   # the pair cap fixes the item count per call

WORKLOADS = {w.name: w for w in (
    Workload("strip-p3",
             ("strip", "--norm", "p:3", "--dim", "3", "--lambda", P3_LAMBDA,
              "--k", P3_K, "--count", str(STRIP_COUNT)),
             "csv", STRIP_COUNT, _csv_items("passed", "true")),
    Workload("certify-p3",
             ("certify", "--norm", "p:3", "--dim", "3", "--mode", "tangent",
              "--uniform-p", "3", "--uniform-q", "2", "--samples", str(CERTIFY_SAMPLES)),
             "json", 4 * CERTIFY_SAMPLES, _certify_items(CERTIFY_SAMPLES)),
    Workload("sticks-p3",
             ("sticks", "--norm", "p:3", "--dim", "3", "--queries", str(STICKS_QUERIES),
              "--pairs", str(STICKS_PAIRS)),
             "csv", STICKS_PAIRS, _csv_items("violated", "false")),
)}


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def reference_path(workload: Workload) -> Path:
    return REFERENCE / f"{workload.name}.npz"


def load_reference(workload: Workload, seed: int) -> Optional[tuple]:
    """(verdicts, values) recorded at the seed commit, or None for an unrecorded seed."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    with np.load(path) as ref:
        if f"verdicts_{seed}" not in ref:
            return None
        return ref[f"verdicts_{seed}"], ref[f"values_{seed}"].T.astype(float)


def failed_items(workload: Workload, output: tuple, reference: Optional[tuple]) -> int:
    """Items that fail: a verdict that is not a pass or differs from the reference,
    a value outside tolerance of the reference, or a missing row."""
    verdicts, values, weights = output
    bad = ~verdicts
    if reference is not None:
        ref_verdicts, ref_values = reference
        if ref_values.shape != values.shape:
            return workload.items
        bad |= verdicts != ref_verdicts
        bad |= ~np.all(np.abs(values - ref_values) <= RTOL * np.abs(ref_values) + ATOL, axis=1)
    missing = workload.items - int(np.sum(weights))
    return int(np.sum(weights[bad])) + max(0, missing)


# ---------------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------------

def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def call(workload: Workload, seed: int, tag: str, traced: bool = False,
         timeout: float = RUN_DEADLINE_S) -> dict:
    """Run the CLI once in a fresh interpreter and score its output."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-{tag}.{workload.suffix}"
    result = OUT / f"{workload.name}-{tag}.result.json"
    spans = OUT / f"{workload.name}-{tag}.spans.npz"
    for stale in (out, result, spans):
        stale.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(result),
            str(spans) if traced else "-", "--",
            *workload.args, "--seed", str(seed), "--out", str(out)]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True,
                              timeout=timeout)
        code, stderr = proc.returncode, proc.stderr.decode(errors="replace")
    except subprocess.TimeoutExpired:
        code, stderr = -1, f"timed out after {timeout:.0f} s"
    end = time.monotonic()

    rec = {"code": code, "wall_s": end - start, "attempted": workload.items,
           "failed": workload.items, "out": out, "spans": spans if traced else None,
           "stderr": stderr.strip()[-500:]}
    if code != 0 or not result.is_file() or not out.is_file():
        return rec
    timing = json.loads(result.read_text(encoding="utf-8"))
    rec.update(setup_s=timing["imported"] - start,
               run_s=timing["done"] - timing["imported"],
               peak_rss_mb=timing["rss_mb"])
    rec["failed"] = failed_items(workload, workload.read(out), load_reference(workload, seed))
    return rec


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def host_probe() -> float:
    """Seconds taken by a fixed kernel that uses no `twosticks` code.

    It mixes what the workloads do: interpreter-bound numpy calls on a 9x3
    array, then passes over a 300000x3 array.  The host is a shared VM whose
    speed moves by up to a third, for seconds to minutes at a time; the
    probe, run between calls, tells how fast the host was around each call.
    """
    small = np.linspace(0.1, 1.0, 27).reshape(9, 3)
    big = np.linspace(0.1, 1.0, 900_000).reshape(300_000, 3)
    start = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += float(np.sum(np.abs(small) ** 3.0, axis=1)[i % 9]) ** (1.0 / 3.0)
    for _ in range(6):
        acc += float(np.max(np.sum(np.abs(big) ** 3.0, axis=1)))
    elapsed = time.perf_counter() - start
    assert math.isfinite(acc)
    return elapsed


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Repeat the call while one more fits in `seconds`; traced calls alternate when `trace`.

    The host probe runs before the first call and after every call; each
    call's `probe_s` is the mean of the probes on either side of it.
    """
    # The host's slowdowns hit each vCPU on its own, so the calls and the probe
    # share one CPU; the child processes inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Untimed: write the package's bytecode once, so that no call pays for it.
    compileall.compile_dir(SRC / "twosticks", quiet=1)
    began = time.monotonic()
    plain, traced = [], []
    before = host_probe()

    def timed(rec: dict) -> dict:
        nonlocal before
        after = host_probe()
        rec["probe_s"], before = (before + after) / 2, after
        return rec

    while True:
        left = RUN_DEADLINE_S - (time.monotonic() - began)
        plain.append(timed(call(workload, seed, "plain", timeout=left)))
        if trace:
            left = RUN_DEADLINE_S - (time.monotonic() - began)
            traced.append(timed(call(workload, seed, "traced", traced=True, timeout=left)))
        elapsed = time.monotonic() - began
        if plain[-1]["code"] != 0 or (trace and traced[-1]["code"] != 0):
            break
        if len(plain) >= MIN_CALLS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    return plain, traced


def _median(recs: list, key: str) -> float:
    values = [r[key] for r in recs if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list, workload: Workload) -> dict:
    """Medians over the run's calls of the host-normalised timings, and of peak memory.

    Each time is scaled by PROBE_REF_S / probe_s: it reads as the seconds the
    call would take on a host that runs the probe in PROBE_REF_S.  The probe
    does not depend on the code under test, so a change to that code moves
    these numbers in full, while the host's drift cancels.
    """
    ok = [r for r in plain if r["code"] == 0 and "run_s" in r]

    def median(values: list) -> float:
        return statistics.median(values) if values else 0.0

    def scale(r: dict) -> float:
        return PROBE_REF_S / r["probe_s"]

    return {
        "setup_s": (median([r["setup_s"] * scale(r) for r in ok]), "s"),
        "wall_s": (median([r["wall_s"] * scale(r) for r in plain]), "s"),
        "items_per_s": (median([workload.items / (r["run_s"] * scale(r)) for r in ok]), "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in ok]), "MB"),
    }


def per_layer(plain: list, traced: list) -> dict:
    from spans import METRICS, layer_metrics

    rows = []
    for rec in traced:
        if rec["code"] != 0 or not rec["spans"].is_file():
            continue
        with np.load(rec["spans"]) as trace:
            m = layer_metrics(trace)
        m["reporting.bytes"] = rec["out"].stat().st_size
        rows.append(m)
    out = {name: (statistics.median([r[name] for r in rows]) if rows else 0.0, unit)
           for name, unit in METRICS.items()}
    out["trace.overhead_s"] = (_median(traced, "wall_s") - _median(plain, "wall_s"), "s")
    return out


def environment() -> str:
    versions = " ".join(f"{pkg} {metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    cpus = os.sched_getaffinity(0)
    return (f"python {platform.python_version()} {versions} "
            f"nproc {len(cpus)}, run pinned to cpu {min(cpus)}; cpu {platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twosticks" / "cli.py").is_file():
        print(f"no twosticks sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment()  # before measure() narrows the affinity mask
    plain, traced = measure(workload, args.seed, args.seconds, bool(args.trace))
    calls = plain + traced
    attempted = sum(r["attempted"] for r in calls)
    failed = sum(r["failed"] for r in calls)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, workload)

    print(f"# {workload.name} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced calls; {env}")
    walls = sorted(r["wall_s"] for r in plain)
    probes = [r["probe_s"] for r in plain]
    print(f"# raw wall_s over {len(walls)} calls: min {walls[0]:.4f} median "
          f"{statistics.median(walls):.4f} max {walls[-1]:.4f}; host probe median "
          f"{statistics.median(probes):.4f} s (reference {PROBE_REF_S} s)")
    for rec in calls:
        if rec["code"] != 0:
            print(f"# exit {rec['code']}: {rec['stderr']}")
    # failed_frac is 0 when all is well, so it travels as attempted/failed in the
    # result line rather than as a bounded metric.
    for name, (value, unit) in {**metrics, "failed_frac": (failed / attempted, "1")}.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
