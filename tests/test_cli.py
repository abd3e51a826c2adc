"""Command-line boundary: input checks, exit codes and the determinism contract."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twosticks
from twosticks import atlas, cli, convexity, norms, sticks

STRIP = ["strip", "--norm", "p:3", "--dim", "3", "--lambda", "2.0279", "--k", "3.5555",
         "--count", "2"]
STICKS = ["sticks", "--norm", "p:3", "--dim", "3", "--queries", "20", "--pairs", "30"]
EUCLID_STICKS = ["sticks", "--norm", "euclidean", "--dim", "3", "--queries", "20",
                 "--pairs", "30"]
CERTIFY = ["certify", "--norm", "euclidean", "--dim", "2", "--samples", "200"]
ONEV = ["onev", "--p", "1.5", "--p", "3", "--points", "200"]


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestConfig:
    def test_value_is_typed_like_the_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"samples": "abc"})
        code = cli.main(CERTIFY + ["--config", cfg, "--out", str(tmp_path / "c.json")])
        assert code == cli.EXIT_CONFIG
        assert "samples" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sampels": 5})
        code = cli.main(CERTIFY + ["--config", cfg, "--out", str(tmp_path / "c.json")])
        assert code == cli.EXIT_CONFIG
        assert "sampels" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"mode": "diagonal"},           # not one of the flag's choices
        {"samples": 2.5},               # int flag given a fraction
        {"samples": True},              # JSON true is not a count
        {"samples": [200]},             # list for a single-valued flag
        {"samples": None},              # null for a flag with a default
        {"command": "strip"},           # config written by another subcommand
        {"r": float("nan")},            # JSON NaN for a float flag
        {"balanced-bound": "inf"},      # a float flag's text, not finite
    ])
    def test_bad_values_rejected(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        code = cli.main(CERTIFY + ["--config", cfg, "--out", str(tmp_path / "c.json")])
        assert code == cli.EXIT_CONFIG

    def test_values_override_flags_with_their_types(self, tmp_path):
        cfg = write_config(tmp_path, {"samples": "300", "mode": "full", "balanced-bound": 0.25})
        out = tmp_path / "c.json"
        assert cli.main(CERTIFY + ["--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        config = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert config["samples"] == 300
        assert config["mode"] == "full"
        assert config["balanced_bound"] == 0.25

    def test_embedded_config_reruns_to_the_same_bytes(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(EUCLID_STICKS + ["--out", str(first)])
        header = first.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("# config: ")
        cfg = write_config(tmp_path, json.loads(header[len("# config: "):]))
        cli.main(["sticks", "--norm", "p:3", "--config", cfg, "--out", str(second)])
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("argv", [STRIP, EUCLID_STICKS], ids=["strip", "sticks"])
    def test_tolerance_key_of_an_old_embedded_config_is_rejected(self, argv, tmp_path,
                                                                  capsys):
        # Configs embedded before the verdict slacks were fixed carry "tolerance": null.
        cfg = write_config(tmp_path, {"command": argv[0], "tolerance": None})
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "unknown config key 'tolerance'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_a_config_error(self, tmp_path):
        code = cli.main(CERTIFY + ["--config", str(tmp_path / "absent.json")])
        assert code == cli.EXIT_CONFIG


class TestBoundary:
    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        code = cli.main(CERTIFY + ["--out", str(tmp_path / "nodir" / "c.json")])
        assert code == cli.EXIT_CONFIG
        assert "nodir" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        STRIP + ["--samples", "5"],
        STICKS + ["--samples", "5"],
        CERTIFY + ["--tolerance", "check=1"],
        ONEV + ["--seed", "1"],
        ONEV + ["--tolerance", "check=1"],
        ["sharpness", "--p", "3", "--seed", "1"],
        ["atlas", "--norm", "p:3", "--samples", "5"],
        STRIP + ["--tolerance", "check=1e-9"],
        EUCLID_STICKS + ["--tolerance", "lipb=1e-8"],
    ])
    def test_flags_a_subcommand_ignores_are_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a run that wrongly proceeds writes its default --out here
        assert cli.main(argv) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        STRIP + ["--count", "0"],
        STRIP + ["--count", "-2"],
        STICKS + ["--pairs", "0"],
    ])
    def test_empty_runs_are_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--delta", "0"],
        ["--delta=-1e-4"],
        ["--delta", "0.3"],
        ["--delta", "1e-4", "--rho", repr(3.0 * 1e-4)],
        ["--rho", "0.6"],
        ["--big-r", "0"],
        ["--big-r=-1"],
        ["--dim", "1"],
    ], ids=["delta0", "delta-negative", "delta-0.3", "rho-3delta", "rho-0.6", "big-r0",
            "big-r-negative", "dim1"])
    def test_strip_delta_and_rho_checked_before_generating(self, flags, tmp_path,
                                                           monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a generator was seeded for a rejected configuration")

        # `generate_strip_pairs` checks its request before it seeds a generator.
        monkeypatch.setattr(np.random, "default_rng", fail)
        out = tmp_path / "s.csv"
        assert cli.main(STRIP + flags + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_strip_summary_counts_unconverged_failures(self, tmp_path, capsys):
        assert cli.main(STRIP + ["--out", str(tmp_path / "s.csv")]) == cli.EXIT_OK
        assert "0 failures (0 on a solve that did not converge)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["sharpness", "--p", "0"], ["sharpness", "--p", "1"],
                                  ["onev", "--p", "3", "--p", "1"]])
def test_exponents_not_above_1_are_config_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"   # the library checks p > 1 before it computes with p
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: need p > 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sharpness", "--p", "1e5"], "need p < 1024"),
    (["onev", "--p", "200", "--points", "200"], "need z_max <= 16.8876"),
    (["onev", "--p", "50"], "need z_max <= 731240"),
], ids=["sharpness-2^p", "onev-inf/inf", "onev-inf"])
def test_exponents_that_overflow_are_config_errors(argv, message, tmp_path, capsys):
    # 2^p overflowed into an OverflowError traceback; with the default z_max,
    # g(2z) overflowed into a false violation (inf/inf) or an Infinity ratio.
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sharpness", "--p", "1.5", "--param-min=-0.5"],
                                  ["sharpness", "--p", "1.5", "--param-max", "1e300"],
                                  ["sharpness", "--p", "3", "--param-min", "0"],
                                  ["sharpness", "--p", "3", "--param-max", "1"],
                                  ["sharpness", "--p", "1.5", "--param-min", "1"],
                                  ["sharpness", "--p", "1.5", "--param-min", "0.9",
                                   "--param-max", "0.8"],
                                  ["sharpness", "--p", "1.5", "--param-max", "0"],
                                  ["sharpness", "--p", "3", "--param-min", "0.005",
                                   "--param-max", "0.001"]])
def test_sharpness_bounds_are_checked_before_use(argv, tmp_path, capsys):
    # Checked before any log10 or power: no complex number, overflow or warning.
    # Swapped bounds, and p < 2 bounds that leave no x^p in the window of
    # `construct_plt2`, are refused before any construction, by flag name.
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: need param_")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["onev", "--p", "3", "--z-min", "0"], "config error: need z_min > 0, got 0.0"),
    (["onev", "--p", "3", "--z-min=-1"], "config error: need z_min > 0, got -1.0"),
    (["onev", "--p", "3", "--z-max", "0"], "config error: need z_max > 0, got 0.0"),
    (["onev", "--p", "3", "--points", "0"], "config error: need points >= 4, got 0"),
    (["onev", "--p", "3", "--points=-5"], "config error: need points >= 4, got -5"),
    (["sharpness", "--p", "3", "--points=-2"], "config error: need points >= 1, got -2"),
    (["onev", "--p", "3", "--z-min", "10", "--z-max", "1"],
     "config error: need z_min <= z_max, got 10.0 > 1.0"),
], ids=["onev-z-min-0", "onev-z-min-negative", "onev-z-max-0", "onev-points-0",
        "onev-points-negative", "sharpness-points-negative", "onev-z-swapped"])
def test_counts_and_log_bounds_are_checked_before_use(argv, message, tmp_path, capsys):
    # Not a math domain error from log10, a silent 4-point scan, or numpy's
    # message about sample counts: the error names the parameter.
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert caught == []
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sticks", "atlas"])
@pytest.mark.parametrize("flag, message", [
    ("--sites=-1", "config error: --sites must be >= 1, got -1"),
    ("--sites=0", "config error: --sites must be >= 1, got 0"),
    ("--queries=-1", "config error: --queries must be >= 0, got -1"),
    ("--box=-1", "config error: --box must be positive, got -1.0"),
    ("--box=0", "config error: --box must be positive, got 0.0"),
    ("--box=1e308", "config error: --box must be at most 8.988465674311579e+307, got 1e+308"),
], ids=["sites-negative", "sites-0", "queries-negative", "box-negative", "box-0", "box-huge"])
def test_family_flags_are_checked_before_any_draw(command, flag, message, tmp_path, capsys,
                                                  monkeypatch):
    # Not numpy's "negative dimensions", "high - low < 0" or "high - low
    # range exceeds valid bounds", nor "need at least one site" or a query
    # lying in the degenerate site set of a zero box: the error names the flag.
    class Undrawn:
        def __getattr__(self, name):
            raise AssertionError("the generator drew")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Undrawn())
    out = tmp_path / "out"
    argv = [command, "--norm", "p:3", "--dim", "2", flag, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--lambda", "2"], "config error: [lambda_range] need 2 < Lambda < inf, got 2.0"),
    (["--k", "0.5"], "config error: [k_range] need 1 <= K < inf, got 0.5"),
    (["--lambda", "1", "--k", "0"], "config error: [lambda_range] need 2 < Lambda < inf, got 1.0"),
], ids=["lambda-2", "k-half", "lambda-before-k"])
def test_strip_constants_are_checked_before_any_draw(flags, message, tmp_path, capsys,
                                                     monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a generator was seeded for a rejected configuration")

    monkeypatch.setattr(np.random, "default_rng", fail)
    out = tmp_path / "s.csv"
    assert cli.main(STRIP + flags + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, flag", [
    (["--q", "1.5"], "--q"), (["--p-exp", "7"], "--p-exp"), (["--p-exp", "7", "--q", "1.5"], "--q"),
], ids=["q", "p-exp", "both"])
def test_holder_exponents_under_the_euclidean_norm_are_rejected(flags, flag, tmp_path, capsys,
                                                                monkeypatch):
    # No Hölder ratio is computed under the Euclidean norm, so the flags
    # would only be written into the config line.
    def fail(*args, **kwargs):
        raise AssertionError("a generator was seeded for a rejected configuration")

    monkeypatch.setattr(np.random, "default_rng", fail)
    out = tmp_path / "s.csv"
    assert cli.main(EUCLID_STICKS + flags + ["--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (f"config error: {flag} applies to p-norms only: "
                            "the Euclidean norm has no Hölder ratio\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, code", [("sticks", cli.EXIT_DEGENERATE),
                                           ("atlas", cli.EXIT_OK)])
def test_no_queries_is_not_a_config_error(command, code, tmp_path):
    out = tmp_path / "out"
    assert cli.main([command, "--norm", "p:3", "--queries", "0", "--out", str(out)]) == code
    assert out.exists() == (code == cli.EXIT_OK)


@pytest.mark.parametrize("flags, message", [
    (["--uniform-p", "2", "--uniform-q", "3"], "config error: need 1 < q <= p"),
    (["--uniform-p", "3", "--uniform-q", "1"], "config error: need 1 < q <= p"),
    (["--balanced-bound", "0"], "config error: bound must be positive"),
    (["--samples", "0"], "config error: samples must be >= 1"),
    (["--r", "0", "--balanced-bound", "-1"], "config error: r must be positive"),
    (["--samples", "0", "--balanced-bound", "0"], "config error: samples must be >= 1"),
    (["--balanced-bound", "0", "--uniform-p", "2", "--uniform-q", "3"],
     "config error: bound must be positive"),
], ids=["q-above-p", "q-1", "bound-0", "samples-0", "r-before-bound", "samples-before-bound",
        "bound-before-exponents"])
def test_certify_checks_every_estimator_before_the_first_runs(flags, message, tmp_path, capsys,
                                                              monkeypatch):
    # A bad balanced bound or (p, q) exited 1 only after the estimators
    # before it had run in full; now no generator is seeded.
    def unseeded(seed):
        raise AssertionError("an estimator ran")

    monkeypatch.setattr(convexity, "default_rng", unseeded)
    out = tmp_path / "out"
    argv = ["certify", "--norm", "p:3", "--dim", "3", "--samples", "300000", *flags]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert caught == []
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


# Each subcommand at a small size, with its float flags.
FLOAT_FLAGS = {
    "certify": (["certify", "--norm", "p:3", "--dim", "2", "--samples", "50", "--uniform-p", "3"],
                ["--r", "--balanced-bound", "--uniform-p", "--uniform-q"]),
    "sticks": (["sticks", "--norm", "p:3", "--dim", "2", "--queries", "6", "--pairs", "5"],
               ["--length", "--box", "--q", "--p-exp"]),
    "strip": (STRIP[:-1] + ["1"], ["--lambda", "--k", "--delta", "--rho", "--big-r"]),
    "sharpness": (["sharpness", "--p", "3", "--points", "5"],
                  ["--p", "--param-min", "--param-max"]),
    "atlas": (["atlas", "--norm", "p:3", "--dim", "2", "--queries", "5"], ["--length", "--box"]),
    "onev": (["onev", "--p", "3", "--points", "200"], ["--p", "--z-min", "--z-max"]),
}


def test_float_flags_are_all_listed():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        typed = [a.option_strings[0] for a in sub._actions if a.type not in (None, int)]
        assert typed == FLOAT_FLAGS[command][1]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in FLOAT_FLAGS.items()
                                           for f in flags])
def test_no_float_flag_value_raises(command, flag, value, tmp_path, monkeypatch):
    # Tier-1 turns warnings into errors, so a numpy warning fails this too.
    # 100 proposals give the one strip configuration at seed 0, and bound the rest.
    monkeypatch.setattr(atlas, "MAX_PROPOSALS", 100)
    out = tmp_path / "out"
    code = cli.main(FLOAT_FLAGS[command][0] + [f"{flag}={value}", "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DEGENERATE, cli.EXIT_VIOLATION)
    if code == cli.EXIT_CONFIG:
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--norm", "p:3", "--dim", "1", "--samples", "50"],
    ["sticks", "--norm", "p:3", "--queries", "1"],
    STRIP[:-1] + ["50"],
], ids=["certify-dim1", "sticks-one-query", "strip-few-proposals"])
def test_degenerate_runs_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(atlas, "MAX_PROPOSALS", 30)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_sticks_summary_says_what_a_violation_is(tmp_path, capsys):
    assert cli.main(STICKS + ["--out", str(tmp_path / "s.csv")]) == cli.EXIT_OK
    summary = capsys.readouterr().out
    assert "non-finite Hölder ratio" in summary and "no constant C is checked" in summary


def test_sticks_norm_calls_do_not_grow_with_pairs(tmp_path, monkeypatch):
    calls = []
    real = norms.PNorm._value

    def counting(self, x):
        calls.append(x.shape)
        return real(self, x)

    monkeypatch.setattr(norms.PNorm, "_value", counting)
    counts = []
    for pairs in (30, 300):
        calls.clear()
        argv = ["sticks", "--norm", "p:3", "--dim", "3", "--queries", "40",
                "--pairs", str(pairs), "--out", str(tmp_path / f"s{pairs}.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        counts.append(len(calls))
    assert counts[0] == counts[1]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [STRIP, STICKS], ids=["strip", "sticks"])
    def test_same_config_same_bytes(self, tmp_path, argv):
        first, second = tmp_path / "first.csv", tmp_path / "sub" / "second.csv"
        second.parent.mkdir()
        assert cli.main(argv + ["--out", str(first)]) == cli.EXIT_OK
        assert cli.main(argv + ["--out", str(second)]) == cli.EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_json_reports_differ_only_in_timestamp(self, tmp_path):
        docs = []
        for name in ("first.json", "second.json"):
            assert cli.main(ONEV + ["--out", str(tmp_path / name)]) == cli.EXIT_OK
            doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
            assert isinstance(doc.pop("timestamp"), str)
            docs.append(doc)
        assert docs[0] == docs[1]
        assert "out" not in docs[0]["config"]


def test_import_does_not_load_scipy_stats(tmp_path):
    # SciPy is a test dependency only: neither importing the CLI nor running
    # the strip, sticks and certify checks loads any scipy module.
    src = str(Path(twosticks.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    runs = [argv + ["--out", str(tmp_path / argv[0])] for argv in (STRIP, STICKS, CERTIFY)]
    probe = (
        "import json, sys, twosticks.cli\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = [scipy()]\n"
        f"codes = [twosticks.cli.main(argv) for argv in {runs!r}]\n"
        "seen.append(scipy())\n"
        "print(json.dumps([codes, seen]))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    codes, seen = json.loads(out.stdout.splitlines()[-1])
    assert codes == [cli.EXIT_OK] * 3
    assert seen == [[], []]


def test_strip_writes_no_warning_where_the_polish_takes_numpy_values(tmp_path):
    # At p = 1.5 in two dimensions the zoom of the BFGS polish meets a 0/0 in
    # `_quadmin`, where the port reruns the body on numpy scalars.  pytest's
    # filterwarnings does not see what a child process prints, so the child
    # shows every warning and its stderr must stay empty.
    src = str(Path(twosticks.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["strip", "--norm", "p:1.5", "--dim", "2", "--lambda", "2.0279", "--k", "3.5555",
            "--count", "20", "--seed", "0", "--out", str(tmp_path / "strip.csv")]
    probe = (
        "import numpy as np, twosticks.cli\n"
        "from twosticks import _optimize\n"
        "body, numpy_runs = _optimize._quadratic_vertex, []\n"
        "def counting(*args):\n"
        "    numpy_runs.append(isinstance(args[0], np.float64))\n"
        "    return body(*args)\n"
        "_optimize._quadratic_vertex = counting\n"
        f"code = twosticks.cli.main({argv!r})\n"
        "print(code, sum(numpy_runs))\n")
    out = subprocess.run([sys.executable, "-W", "always", "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    code, numpy_runs = map(int, out.stdout.split()[-2:])
    assert out.stderr == ""
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION) and numpy_runs > 0


@pytest.mark.parametrize("argv, code, err", [
    (["atlas", "--norm", "euclidean", "--length", "1e306"], cli.EXIT_OK, ""),
    # Every ray end rounds onto its site near 1e200, so the family is empty.
    (["sticks", "--norm", "euclidean", "--box", "1e200"], cli.EXIT_DEGENERATE,
     "degenerate estimate: family has fewer than two sticks; enlarge --queries\n"),
], ids=["atlas-length", "sticks-box"])
def test_euclidean_norm_spans_the_float_range(argv, code, err, tmp_path, capsys):
    # An unscaled sqrt(sum x^2) overflowed here with a numpy RuntimeWarning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == code
    assert caught == []
    assert capsys.readouterr().err == err


def test_euclidean_certify_is_the_p2_certify(tmp_path):
    # One kernel: the two specs differ only in the norm descriptor they record.
    docs = []
    for i, spec in enumerate(["euclidean", "p:2"]):
        out = tmp_path / f"certify{i}.json"
        argv = ["certify", "--norm", spec, "--dim", "3", "--samples", "20000",
                "--uniform-p", "2", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        doc = json.loads(out.read_text(encoding="utf-8"))
        for key in ("norm", "config", "timestamp"):
            del doc[key]
        docs.append(doc)
    assert docs[0] == docs[1]


# Small versions of the benchmark's three calls, and the subcommands no
# benchmark workload runs, with the sha256 of each output less its timestamp
# line (recorded with numpy 2.4 on x86-64).  The benchmark compares values
# only to rtol 1e-6, so this is the guard that a change keeps every output
# byte for byte.
GOLDEN = {
    "certify": (["certify", "--norm", "p:3", "--dim", "3", "--mode", "tangent",
                 "--uniform-p", "3", "--uniform-q", "2", "--samples", "3000"],
                "f3b7f960c35b02e80df6c283cffd6ee51ab57e1494981fe2473744de65f0abeb"),
    # Several estimator blocks, the last one partial.
    "certify-40k": (["certify", "--norm", "p:3", "--dim", "3", "--mode", "tangent",
                     "--uniform-p", "3", "--uniform-q", "2", "--samples", "40000"],
                    "b937ddd4056c9e71fa108b62c69c7f696623556567dafb8a118321e6f0501b8b"),
    "strip":(["strip", "--norm", "p:3", "--dim", "3", "--lambda", "2.0279", "--k", "3.5555",
               "--count", "3"],
              "92c8f2e02efc932707bc38225a425579aa768fe12713045b73c1ec0f8e5a5f5d"),
    "sticks": (["sticks", "--norm", "p:3", "--dim", "3", "--queries", "40", "--pairs", "300"],
               "6633970d22287cf7594d6311237f94a5f4c27d71c6ed3540f75ba5273b8c5689"),
    "sharpness-p3": (["sharpness", "--p", "3"],
                     "a830ed01db10aa3347fff7dd00c998d9161057f0ea96722e70aaad685724e12e"),
    "sharpness-p1.5": (["sharpness", "--p", "1.5"],
                       "92cf3653154d4067b80ebfbb5b56b9077d038fb6eec0175361efbfb9da06305b"),
    "onev": (ONEV,
             "0802be19af1ee8f527d2b61185a15098295c4a9d5f66d3f0046bfe4db46cd966"),
    "atlas": (["atlas", "--norm", "p:3", "--dim", "3"],
              "ce6faf81ef3cc9c705bf72cb97bf9744c9d2ca87d8098953c670be5937675fd0"),
}


# The values and verdicts of GOLDEN["strip"], as the benchmark compares them:
# each row's (delta, kappa, bound, projection, promise_lhs, promise_rhs, axya)
# to rtol 1e-6 and atol 1e-12, its verdict exactly.  Recorded with numpy 2.4
# on x86-64 and AVX-512 while a one-vector p-norm still took its root by
# libm's pow.  The digest's output and numpy's AVX2 dispatch both lie within
# 0.4 of the tolerance (row 1's projection), every other column within 0.02;
# a move of 1e-5 relative in every projection fails it.
STRIP_VALUES = [
    ([0.0001, 11.120378092855159, 0.5827859909843267, -4.3242957251657746e-05,
      4.7031700756150485e-09, 7.409509647198843e-05, -0.2702922778583389], "true"),
    ([0.0001, 11.120378092855159, 0.5827859909843267, -3.3403663011437846e-06,
      5.600138131001131e-10, 4.792611322629923e-05, -0.31025590488727117], "true"),
    ([0.0001, 11.120378092855159, 0.5827859909843267, 1.3585494626946143e-05,
      1.3696943579333265e-09, 7.247094063052925e-05, -0.27116854415574315], "true"),
]


def test_strip_values_match_the_record(tmp_path):
    out = tmp_path / "strip.csv"
    assert cli.main(GOLDEN["strip"][0] + ["--out", str(out)]) == cli.EXIT_OK
    rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")][1:]
    assert [row[8] for row in rows] == [verdict for _, verdict in STRIP_VALUES]
    np.testing.assert_allclose([[float(cell) for cell in row[1:8]] for row in rows],
                               [values for values, _ in STRIP_VALUES], rtol=1e-6, atol=1e-12)


def test_library_strip_reproduces_the_cli_csv(tmp_path):
    # `strip_experiments` at its fixed solver settings is the CLI's one path.
    # At seed 2 the first configuration's values depend on the solver settings.
    argv = GOLDEN["strip"][0] + ["--seed", "2"]
    out = tmp_path / "strip.csv"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    lines = [ln for ln in out.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    norm = twosticks.PNorm(3, 3)
    configs = twosticks.generate_strip_pairs(norm, 3, 1e-4, 0.36, seed=2,
                                             endpoint_gap_max=0.05)
    reports = twosticks.strip_experiments(norm, configs, 1e-4, 0.36, 2.0279, 3.5555, 0.05)
    assert len(rows) == len(reports) == 3
    assert header[1:] == ["delta", "kappa", "bound", "projection", "promise_lhs",
                          "promise_rhs", "axya", "passed"]
    fields = ("delta", "kappa", "bound", "projection", "promise_lhs", "promise_rhs",
              "axya_value")
    for row, rep in zip(rows, reports):
        assert [float(cell) for cell in row[1:8]] == [getattr(rep, f) for f in fields]
        assert row[8] == ("true" if rep.passed else "false")


def _golden_digest(name, tmp_path) -> str:
    """sha256 of the GOLDEN call's output, less its timestamp line."""
    out = tmp_path / name
    assert cli.main(GOLDEN[name][0] + ["--out", str(out)]) == cli.EXIT_OK
    lines = [ln for ln in out.read_bytes().splitlines(keepends=True)
             if b'"timestamp": ' not in ln]
    return hashlib.sha256(b"".join(lines)).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_outputs_are_byte_identical_to_the_recorded_ones(name, tmp_path):
    assert _golden_digest(name, tmp_path) == GOLDEN[name][1]


def test_strip_csv_does_not_depend_on_the_last_bits_of_the_segment_argmin(monkeypatch, tmp_path):
    # Only the BFGS polish bits are pinned: the segment-point argmin feeds
    # the experiment's near and interior-point preconditions, never a CSV
    # value, so moving it by 1e-9 inside [0, 1] leaves the strip output as
    # recorded.
    search = sticks.minimize_scalar
    shifted = []

    def shift(fun, bounds, *, xatol):
        got = search(fun, bounds, xatol=xatol)
        shifted.append(got.x)
        return got._replace(x=got.x + 1e-9 if got.x + 1e-9 <= 1.0 else got.x - 1e-9)

    monkeypatch.setattr(sticks, "minimize_scalar", shift)
    assert _golden_digest("strip", tmp_path) == GOLDEN["strip"][1]
    assert len(shifted) == 2 * 3   # two sticks per configuration, checked by the experiment
