"""Command-line driver: certify constants, run stick/strip experiments, emit reports.

Subcommands: certify, sticks, strip, sharpness, atlas, onev.  Every run is
deterministic for a fixed --seed, embeds its full configuration (less the
output paths) in the output, and uses the exit-code contract

    0  success
    1  configuration error (bad flag or --config; unwritable output)
    2  degenerate estimate (DegenerateSampleError: nothing informative drawn)
    3  theorem bound violated, or a solve it rests on did not converge

so CI can gate directly on violations.  Every ValueError is exit 1; a
PreconditionError, which is one, names its hypothesis ("[lambda_range] ...").
CSV output uses '.' decimals and round-trip-exact float text; JSON reports
carry an ISO-8601 timestamp, the one field outside the determinism contract.

`sticks` checks the two-sticks endpoint estimates on random pairs of a ray
family.  Under the Euclidean norm a pair is violated when its monotonicity,
interpolation residual or Lipschitz ratio breaks its bound beyond a fixed
slack.  Under a p-norm a pair is violated only when its Hölder ratio is
not finite: the constant C of the Hölder estimate is not derived, so no
ratio is checked against one.  The verdicts and their slacks live in the
library (`pair_verdicts`, `StripReport.passed`); the CSV columns carry the
raw quantities, so a reader can apply another tolerance to them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atlas import SiteSet, build_ray_family, generate_strip_pairs
from .convexity import (DegenerateSampleError, _check_constants, _check_exponents, _check_mode,
                        _check_radius, _check_samples, estimate_balanced, estimate_doubling,
                        estimate_lambda, estimate_uniform_constants,
                        onev_default_grid, onev_scan)
from .norms import EuclideanNorm, Norm, PNorm
from .reporting import to_jsonable, write_csv, write_json
from .sharpness import holder_exponents, sharpness_curve, sharpness_grid
from .sticks import pair_verdicts, strip_experiments

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DEGENERATE = 2
EXIT_VIOLATION = 3


def parse_norm(spec: str, dim: int) -> Norm:
    if spec == "euclidean":
        return EuclideanNorm(dim)
    if spec.startswith("p:"):
        return PNorm(float(spec[2:]), dim)
    raise ValueError(f"unknown norm spec {spec!r}; expected 'euclidean' or 'p:<value>'")


def finite(text: str) -> float:
    """The argparse type of every float flag: a float, neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _config_dict(args: argparse.Namespace) -> dict:
    # Output paths are left out so that the same run written to two places
    # gives the same bytes.
    skip = {"func", "config", "out", "csv"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _typed_value(action: argparse.Action, value):
    """A --config scalar checked and converted as the same flag's text would be."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {action.dest!r}: expected a scalar, got {value!r}")
    try:
        typed = (action.type or str)(str(value))
    except ValueError as exc:
        raise ValueError(f"config key {action.dest!r}: {exc}") from None
    if action.choices is not None and typed not in action.choices:
        raise ValueError(f"config key {action.dest!r}: {typed!r} is not one of "
                         f"{', '.join(map(str, action.choices))}")
    return typed


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 overrides) -> None:
    """Override the parsed flags of `args.command` with a JSON config object.

    Keys are the subcommand's option names (dashes or underscores); values
    are checked like the flags' own text, lists for repeatable flags, null
    only for optional flags whose default is unset.  A "command" key, as in
    an embedded config, must name this subcommand.
    """
    if not isinstance(overrides, dict):
        raise ValueError("config must be a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions
               if a.dest not in ("help", "config")}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest == "command":
            if value != args.command:
                raise ValueError(f"config is for {value!r}, not {args.command!r}")
            continue
        action = actions.get(dest)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if value is None and action.default is None and not action.required:
            typed = None
        elif isinstance(action, argparse._AppendAction):
            if not isinstance(value, list):
                raise ValueError(f"config key {key!r}: expected a list, got {value!r}")
            typed = [_typed_value(action, v) for v in value]
        else:
            typed = _typed_value(action, value)
        setattr(args, dest, typed)


def _random_family(norm: Norm, rng: np.random.Generator, n_sites: int,
                   n_queries: int, length: float, box: float):
    if n_sites < 1:
        raise ValueError(f"--sites must be >= 1, got {n_sites}")
    if n_queries < 0:
        raise ValueError(f"--queries must be >= 0, got {n_queries}")
    if not box > 0.0:
        raise ValueError(f"--box must be positive, got {box!r}")
    if 2.0 * box > np.finfo(float).max:  # rng.uniform's range would overflow
        raise ValueError(f"--box must be at most {float(np.finfo(float).max) / 2.0!r}, "
                         f"got {box!r}")
    sites = rng.uniform(-box, box, size=(n_sites, norm.dim))
    queries = rng.uniform(-box, box, size=(n_queries, norm.dim))
    site_set = SiteSet(sites, norm)
    return build_ray_family(site_set, queries, length)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    norm = parse_norm(args.norm, args.dim)
    # The estimators' own checks, in the order their calls below make them,
    # so that a bad flag exits before the first sample is drawn.
    _check_radius(args.r, "r")
    _check_samples(args.samples)
    _check_mode(args.mode)
    _check_radius(args.balanced_bound, "bound")
    if args.uniform_p is not None:
        _check_exponents(args.uniform_p, args.uniform_q)
    lam = estimate_lambda(norm, args.r, args.mode, args.samples, args.seed)
    doub = estimate_doubling(norm, args.r, args.mode, args.samples, args.seed + 1)
    bal = estimate_balanced(norm, args.balanced_bound, args.mode, args.samples, args.seed + 2)
    payload = {
        "norm": norm.descriptor(),
        "mode": args.mode,
        "samples": args.samples,
        "seed": args.seed,
        "lambda_hat": lam.lambda_hat,
        "r": args.r,
        "t_hat": doub.t_hat,
        "k_hat": bal.k_hat,
        "balanced_bound": args.balanced_bound,
        "witnesses": {
            "lambda": lam.worst_witnesses,
            "doubling": doub.worst_witnesses,
            "balanced": bal.worst_witnesses,
        },
    }
    if args.uniform_p is not None:
        uni = estimate_uniform_constants(norm, args.uniform_p, args.uniform_q,
                                         args.samples, args.seed + 3)
        payload["a_hat"] = uni.a_hat
        payload["p"] = uni.p
        payload["b_hat"] = uni.b_hat
        payload["q"] = uni.q
    write_json(args.out, payload, config=_config_dict(args))
    print(f"certify: lambda_hat={lam.lambda_hat!r} t_hat={doub.t_hat!r} "
          f"k_hat={bal.k_hat!r} -> {args.out}")
    return EXIT_OK


def cmd_sticks(args) -> int:
    norm = parse_norm(args.norm, args.dim)
    if isinstance(norm, EuclideanNorm):
        for flag, value in (("--q", args.q), ("--p-exp", args.p_exp)):
            if value is not None:
                raise ValueError(f"{flag} applies to p-norms only: the Euclidean "
                                 "norm has no Hölder ratio")
    if args.pairs is not None and args.pairs < 1:
        raise ValueError("--pairs must be >= 1")
    rng = np.random.default_rng(args.seed)
    family = _random_family(norm, rng, args.sites, args.queries, args.length, args.box)
    if len(family) < 2:
        raise DegenerateSampleError("family has fewer than two sticks; enlarge --queries")

    # Pairs i < j in row-major order, or a sorted random subset of them.
    i, j = np.triu_indices(len(family), k=1)
    if args.pairs is not None and len(i) > args.pairs:
        keep = np.sort(rng.choice(len(i), size=args.pairs, replace=False))
        i, j = i[keep], j[keep]
    # t ~ U(0.05, 1) then s ~ U(t, 1) for each pair in turn: the values
    # rng.uniform(0.05, 1.0) and rng.uniform(t, 1.0) would draw, pair by pair.
    u = rng.random((len(i), 2))
    t = 0.05 + (1.0 - 0.05) * u[:, 0]
    s = t + (1.0 - t) * u[:, 1]
    starts, ends = family.endpoints()
    l0, l1, m0, m1 = starts[i], ends[i], starts[j], ends[j]

    if isinstance(norm, EuclideanNorm):
        v = pair_verdicts(norm, l0, l1, m0, m1, t, s)
        header = ["i", "j", "monotonicity", "interp_residual", "lipschitz_ratio",
                  "s", "t", "violated"]
        columns = [i, j, v.monotonicity, v.interp_residual, v.lipschitz_ratio, s, t,
                   v.violated]
        meaning = "violated means a Euclidean bound fails"
    else:
        q_default, p_default = holder_exponents(norm.p)
        q_exp = args.q if args.q is not None else q_default
        p_exp = args.p_exp if args.p_exp is not None else p_default
        v = pair_verdicts(norm, l0, l1, m0, m1, t, q=q_exp, p=p_exp)
        header = ["i", "j", "holder_ratio", "t", "q", "p", "violated"]
        columns = [i, j, v.holder_ratio, t, np.full(len(i), q_exp), np.full(len(i), p_exp),
                   v.violated]
        meaning = "violated means a non-finite Hölder ratio; no constant C is checked"
    write_csv(args.out, header, columns, config=_config_dict(args))
    violations = int(np.count_nonzero(v.violated))
    print(f"sticks: {len(i)} pairs, {violations} violations ({meaning}) -> {args.out}")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_strip(args) -> int:
    norm = parse_norm(args.norm, args.dim)
    _check_constants(lam=args.lam, k=args.k)
    configs = generate_strip_pairs(norm, args.count, args.delta, args.rho,
                                   seed=args.seed, endpoint_gap_max=args.big_r)
    reports = strip_experiments(norm, configs, args.delta, args.rho, args.lam, args.k, args.big_r)
    header = ["index", "delta", "kappa", "bound", "projection",
              "promise_lhs", "promise_rhs", "axya", "passed"]
    fields = ("delta", "kappa", "bound", "projection", "promise_lhs", "promise_rhs",
              "axya_value", "passed")
    columns = [range(len(reports)), *([getattr(rep, f) for rep in reports] for f in fields)]
    write_csv(args.out, header, columns, config=_config_dict(args))
    failures = sum(not rep.passed for rep in reports)
    unconverged = sum(not rep.converged for rep in reports)
    print(f"strip: {len(reports)} configurations, {failures} failures "
          f"({unconverged} on a solve that did not converge) -> {args.out}")
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_sharpness(args) -> int:
    grid = sharpness_grid(args.p, args.points, args.param_min, args.param_max)
    curve = sharpness_curve(args.p, grid)
    header = ["parameter", "gap_norm", "m_norm", "ratio"]
    write_csv(args.out, header, zip(*curve.rows), config=_config_dict(args))
    print(f"sharpness: p={args.p} band=[{curve.band[0]!r}, {curve.band[1]!r}] "
          f"exponent={curve.exponent!r} -> {args.out}")
    return EXIT_OK


def cmd_atlas(args) -> int:
    norm = parse_norm(args.norm, args.dim)
    rng = np.random.default_rng(args.seed)
    family = _random_family(norm, rng, args.sites, args.queries, args.length, args.box)
    payload = to_jsonable(family)
    payload["norm"] = norm.descriptor()
    write_json(args.out, payload, config=_config_dict(args))
    if args.csv:
        header = ["index", "site_index"] \
            + [f"start_{k}" for k in range(norm.dim)] \
            + [f"end_{k}" for k in range(norm.dim)]
        starts, ends = family.endpoints()
        columns = [range(len(family)), family.site_index, *starts.T, *ends.T]
        write_csv(args.csv, header, columns, config=_config_dict(args))
    print(f"atlas: {len(family)} sticks ({len(family.skipped)} skipped) -> {args.out}")
    return EXIT_OK


def cmd_onev(args) -> int:
    grid = onev_default_grid(args.points, args.z_min, args.z_max)
    results = {}
    violated = False
    for p in args.p:
        scan = onev_scan(p, grid)
        results[repr(float(p))] = to_jsonable(scan)
        violated |= not scan.inf_double_ratio > 2.0
    write_json(args.out, {"results": results}, config=_config_dict(args))
    print(f"onev: p={args.p} -> {args.out}")
    return EXIT_VIOLATION if violated else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, out: str, norm: bool = True) -> None:
    """Flags shared by the subcommands; `norm` adds the norm and the rng seed."""
    if norm:
        sub.add_argument("--norm", required=True,
                         help="norm spec: euclidean | p:<value>")
        sub.add_argument("--dim", type=int, default=3, help="ambient dimension")
        sub.add_argument("--seed", type=int, default=0, help="rng seed")
    sub.add_argument("--out", default=out, help=f"output path (default {out})")
    sub.add_argument("--config", default=None,
                     help="JSON config file; overrides flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosticks",
        description="Numerical experiments on Minkowski-norm stick geometry")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    cert = subs.add_parser("certify", help="estimate convexity/doubling/balance constants")
    _add_common(cert, "certify.json")
    cert.add_argument("--samples", type=int, default=100000, help="sample count")
    cert.add_argument("--r", type=finite, default=0.25, help="sampling radius")
    cert.add_argument("--mode", choices=("full", "tangent"), default="tangent")
    cert.add_argument("--balanced-bound", type=finite, default=0.5)
    cert.add_argument("--uniform-p", type=finite, default=None)
    cert.add_argument("--uniform-q", type=finite, default=2.0)
    cert.set_defaults(func=cmd_certify)

    stk = subs.add_parser("sticks", help="pairwise endpoint-bound checks on a ray family")
    _add_common(stk, "sticks.csv")
    stk.add_argument("--sites", type=int, default=4)
    stk.add_argument("--queries", type=int, default=40)
    stk.add_argument("--length", type=finite, default=1.0)
    stk.add_argument("--box", type=finite, default=2.0)
    stk.add_argument("--pairs", type=int, default=None, help="cap on sampled pairs")
    stk.add_argument("--q", type=finite, default=None, help="smoothness exponent (p-norms only)")
    stk.add_argument("--p-exp", type=finite, default=None, help="convexity exponent (p-norms only)")
    stk.set_defaults(func=cmd_sticks)

    strp = subs.add_parser("strip", help="strip-confinement experiment")
    _add_common(strp, "strip.csv")
    strp.add_argument("--count", type=int, default=100)
    strp.add_argument("--lambda", dest="lam", type=finite, required=True,
                      help="certified geometric-convexity constant at radius 1")
    strp.add_argument("--k", type=finite, required=True, help="certified balanced constant")
    strp.add_argument("--delta", type=finite, default=1e-4)
    strp.add_argument("--rho", type=finite, default=0.36)
    strp.add_argument("--big-r", type=finite, default=0.05,
                      help="balanced-condition radius (endpoint gap cap)")
    strp.set_defaults(func=cmd_strip)

    shp = subs.add_parser("sharpness", help="Hölder-exponent sharpness curve")
    _add_common(shp, "sharpness.csv", norm=False)
    shp.add_argument("--p", type=finite, required=True)
    shp.add_argument("--points", type=int, default=40)
    shp.add_argument("--param-min", type=finite, default=None)
    shp.add_argument("--param-max", type=finite, default=None)
    shp.set_defaults(func=cmd_sharpness)

    atl = subs.add_parser("atlas", help="build and export a distance-ray family")
    _add_common(atl, "atlas.json")
    atl.add_argument("--sites", type=int, default=5)
    atl.add_argument("--queries", type=int, default=50)
    atl.add_argument("--length", type=finite, default=1.0)
    atl.add_argument("--box", type=finite, default=2.0)
    atl.add_argument("--csv", default=None, help="also export sticks as CSV")
    atl.set_defaults(func=cmd_atlas)

    onv = subs.add_parser("onev", help="scan the scalar p-norm profile ratios")
    _add_common(onv, "onev.json", norm=False)
    onv.add_argument("--p", type=finite, action="append", required=True,
                     help="exponent (repeatable)")
    onv.add_argument("--points", type=int, default=100000)
    onv.add_argument("--z-min", type=finite, default=1e-6)
    onv.add_argument("--z-max", type=finite, default=1e6)
    onv.set_defaults(func=cmd_onev)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map to the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.config:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
            _apply_config(parser, args, overrides)
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateSampleError as exc:
        print(f"degenerate estimate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
