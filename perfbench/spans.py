"""Span recorder for the traced benchmark run, and the per-layer metrics.

`Tracer.install` replaces the public functions of each `twosticks` layer
with wrappers that record one span (name, start, end, parent) per call.  A
function imported by name into another module is wrapped there too, since
that module calls it through its own attribute.  Spans stay in memory in
flat arrays; `Tracer.save` writes them out once, when the run ends, and
`layer_metrics` turns a saved trace into the per-layer numbers.

A span's self time is its duration minus the durations of its direct
children.  Every `.s` metric below is a self time, so the layers' times
add up to at most the traced wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module defining the function, function name, span name)
FUNCTIONS = [
    ("twosticks.gap", "gap", "gap.gap"),
    ("twosticks.convexity", "modulus", "convexity.modulus"),
    ("twosticks.convexity", "estimate_lambda", "convexity.estimate"),
    ("twosticks.convexity", "estimate_doubling", "convexity.estimate"),
    ("twosticks.convexity", "estimate_balanced", "convexity.estimate"),
    ("twosticks.convexity", "estimate_uniform_constants", "convexity.estimate"),
    ("twosticks.convexity", "minimize", "scipy.minimize"),
    ("twosticks.sticks", "minimize_scalar", "scipy.minimize_scalar"),
    ("twosticks.atlas", "generate_strip_pairs", "atlas.generate_strip_pairs"),
    ("twosticks.atlas", "build_ray_family", "atlas.build_ray_family"),
    ("twosticks.atlas", "nearest_point", "atlas.nearest_point"),
    ("twosticks.sticks", "strip_experiment", "sticks.strip_experiment"),
    ("twosticks.sticks", "segment_point_distance", "sticks.segment_point_distance"),
    ("twosticks.sticks", "two_sticks_check", "sticks.two_sticks_check"),
    ("twosticks.sticks", "holder_ratio", "sticks.holder_ratio"),
    ("twosticks.reporting", "write_csv", "reporting.write"),
    ("twosticks.reporting", "write_json", "reporting.write"),
    ("twosticks.cli", "cmd_certify", "cli.run"),
    ("twosticks.cli", "cmd_sticks", "cli.run"),
    ("twosticks.cli", "cmd_strip", "cli.run"),
]

# Norm methods are wrapped on every class of `twosticks.norms` that defines them.
NORM_METHODS = {"value": "norms.value", "normal": "norms.normal"}

# Per-layer metrics and units, in the order BENCHMARK.json lists them.
METRICS = {
    "norms.value.calls": "count",
    "norms.value.rows": "rows",
    "norms.value.s": "s",
    "norms.normal.calls": "count",
    "norms.normal.rows": "rows",
    "norms.normal.s": "s",
    "norms.rows_per_s": "rows/s",
    "norms.bytes": "B",
    "gap.gap.calls": "count",
    "gap.gap.s": "s",
    "convexity.modulus.calls": "count",
    "convexity.modulus.s": "s",
    "convexity.modulus.ms_per_call.p50": "ms",
    "convexity.modulus.ms_per_call.tail": "ms",
    "convexity.modulus.iterations": "count",
    "convexity.modulus.nonconverged": "count",
    "convexity.modulus.kkt_max": "ratio",
    "convexity.estimate.s": "s",
    "scipy.minimize.calls": "count",
    "scipy.minimize.s": "s",
    "scipy.minimize_scalar.calls": "count",
    "scipy.minimize_scalar.s": "s",
    "atlas.generate_strip_pairs.s": "s",
    "atlas.proposals": "count",
    "atlas.acceptance": "ratio",
    "atlas.build_ray_family.calls": "count",
    "atlas.build_ray_family.s": "s",
    "atlas.nearest_point.calls": "count",
    "sticks.strip_experiment.calls": "count",
    "sticks.strip_experiment.s": "s",
    "sticks.segment_point_distance.calls": "count",
    "sticks.segment_point_distance.s": "s",
    "sticks.two_sticks_check.calls": "count",
    "sticks.two_sticks_check.s": "s",
    "sticks.holder_ratio.calls": "count",
    "sticks.holder_ratio.s": "s",
    "reporting.write.s": "s",
    "reporting.bytes": "B",
    "cli.run_s": "s",
}


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Records one span per wrapped call; `install`/`uninstall` swap the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("l")        # rows of the input batch; norm spans only
        self.modulus = []             # (iterations, converged, kkt_residual) per call
        self.accepted = 0             # configurations returned by the strip generator
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, rows: bool = False, on_result=None):
        nid = self._name_ids.setdefault(span, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.rows.append(_rows(args[1]) if rows else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _on_modulus(self, res) -> None:
        self.modulus.append((res.iterations, res.converged, res.kkt_residual))

    def _on_generator(self, configs) -> None:
        self.accepted += len(configs)

    def install(self) -> None:
        """Wrap every traced function wherever `twosticks` modules bind it."""
        importlib.import_module("twosticks.cli")  # imports every traced module
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "twosticks" or n.startswith("twosticks.")]
        hooks = {"convexity.modulus": self._on_modulus,
                 "atlas.generate_strip_pairs": self._on_generator}
        for defining, attr, span in FUNCTIONS:
            fn = getattr(sys.modules[defining], attr)
            wrapper = self._wrap(span, fn, on_result=hooks.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._set(mod, attr, wrapper)
        norms = sys.modules["twosticks.norms"]
        for cls in vars(norms).values():
            if isinstance(cls, type) and issubclass(cls, norms.Norm):
                for attr, span in NORM_METHODS.items():
                    if attr in vars(cls):
                        self._set(cls, attr, self._wrap(span, vars(cls)[attr], rows=True))

    def uninstall(self) -> None:
        """Put back every original function, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def save(self, path, dim: int) -> None:
        mod = np.array(self.modulus, dtype=float).reshape(-1, 3)
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), rows=np.asarray(self.rows),
                 modulus=mod, accepted=self.accepted, dim=dim)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with ten samples beyond it."""
    return n - 11 if n >= 11 else -1


def layer_metrics(trace) -> dict:
    """Per-layer metrics of one saved trace (a mapping like `np.load` of `save`).

    Layers a workload bypasses read zero.  `reporting.bytes` is filled in by
    the caller, which knows the output file.
    """
    names = [str(n) for n in trace["names"]]
    name, parent = trace["name"], trace["parent"]
    start, end, rows = trace["start"], trace["end"], trace["rows"]
    own = self_times(parent, start, end)
    nid = {n: i for i, n in enumerate(names)}

    def mask(span):
        return name == nid[span] if span in nid else np.zeros(len(name), dtype=bool)

    def calls(span):
        return int(np.count_nonzero(mask(span)))

    def secs(span):
        return float(np.sum(own[mask(span)]))

    out = {}
    for kind in ("value", "normal"):
        span = f"norms.{kind}"
        n = calls(span)
        out[f"{span}.calls"] = n
        out[f"{span}.rows"] = float(np.sum(rows[mask(span)])) / n if n else 0.0
        out[f"{span}.s"] = secs(span)
    norm_rows = float(np.sum(rows[mask("norms.value") | mask("norms.normal")]))
    norm_s = out["norms.value.s"] + out["norms.normal.s"]
    out["norms.rows_per_s"] = norm_rows / norm_s if norm_s > 0 else 0.0
    out["norms.bytes"] = norm_rows * int(trace["dim"]) * 8

    out["gap.gap.calls"] = calls("gap.gap")
    out["gap.gap.s"] = secs("gap.gap")

    m = mask("convexity.modulus")
    per_call_ms = np.sort(end[m] - start[m]) * 1e3
    mod = np.asarray(trace["modulus"]).reshape(-1, 3)
    out["convexity.modulus.calls"] = int(np.count_nonzero(m))
    out["convexity.modulus.s"] = secs("convexity.modulus")
    out["convexity.modulus.ms_per_call.p50"] = \
        float(np.median(per_call_ms)) if len(per_call_ms) else 0.0
    k = tail_index(len(per_call_ms))
    out["convexity.modulus.ms_per_call.tail"] = float(per_call_ms[k]) if k >= 0 else 0.0
    out["convexity.modulus.iterations"] = float(np.mean(mod[:, 0])) if len(mod) else 0.0
    out["convexity.modulus.nonconverged"] = int(np.count_nonzero(mod[:, 1] == 0))
    out["convexity.modulus.kkt_max"] = float(np.max(mod[:, 2])) if len(mod) else 0.0
    out["convexity.estimate.s"] = secs("convexity.estimate")

    for span in ("scipy.minimize", "scipy.minimize_scalar"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.s"] = secs(span)

    gen = mask("atlas.generate_strip_pairs")
    proposals = int(np.count_nonzero(
        mask("atlas.build_ray_family") & np.isin(parent, np.nonzero(gen)[0])))
    out["atlas.generate_strip_pairs.s"] = secs("atlas.generate_strip_pairs")
    out["atlas.proposals"] = proposals
    out["atlas.acceptance"] = int(trace["accepted"]) / proposals if proposals else 0.0
    out["atlas.build_ray_family.calls"] = calls("atlas.build_ray_family")
    out["atlas.build_ray_family.s"] = secs("atlas.build_ray_family")
    out["atlas.nearest_point.calls"] = calls("atlas.nearest_point")

    for fn in ("strip_experiment", "segment_point_distance", "two_sticks_check",
               "holder_ratio"):
        out[f"sticks.{fn}.calls"] = calls(f"sticks.{fn}")
        out[f"sticks.{fn}.s"] = secs(f"sticks.{fn}")

    out["reporting.write.s"] = secs("reporting.write")
    out["reporting.bytes"] = 0
    out["cli.run_s"] = secs("cli.run")
    return out
