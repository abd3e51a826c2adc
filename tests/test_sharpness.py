"""Sharpness constructions against exact oracles: the closed-form gap norms,
unit directions, the lift to an equal-length two-sticks pair, a 50-digit root
of the defining equation, and the CLI's ratio band."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from twosticks import (PNorm, construct_pgt2, construct_plt2, holder_exponent, pair_verdicts,
                       solve_g)
from twosticks import cli
from twosticks.sharpness import holder_exponents, sharpness_grid

U = np.finfo(float).eps / 2.0   # unit roundoff
PGT2 = [(p, delta) for p in (3.0, 4.0) for delta in (1e-4, 1e-3, 1e-2)]
PLT2_XS = sharpness_grid(1.5, 40)   # the CLI's grid, up to the degenerate end


def instances():
    return ([construct_pgt2(p, delta) for p, delta in PGT2]
            + [construct_plt2(1.5, x) for x in PLT2_XS])


def test_pgt2_gap_is_twice_delta():
    # e - ebar = (2 delta, 0, 0) exactly
    for p, delta in PGT2:
        assert abs(construct_pgt2(p, delta).gap_norm() - 2.0 * delta) <= 2 * U * 2.0 * delta


def test_plt2_gap_is_2_to_the_1_over_p_times_twice_delta():
    # e - ebar = (-2 delta, 2 delta, 0); rounding x -/+ delta costs U (x + delta)
    # in each entry, which is large against delta at the degenerate end.
    p = 1.5
    for x in PLT2_XS:
        inst = construct_plt2(p, x)
        exact = 2.0 * 2.0 ** (1.0 / p) * inst.delta
        bound = (U * (x + inst.delta) / inst.delta + 8 * U) * exact
        assert abs(inst.gap_norm() - exact) <= bound


def test_directions_have_unit_norm():
    for inst in instances():
        norm = inst.norm()
        assert abs(float(norm.value(inst.e)) - 1.0) <= 4 * U
        assert abs(float(norm.value(inst.e_bar)) - 1.0) <= 4 * U


def test_lift_is_an_equal_length_two_sticks_pair():
    # m = [0, ebar], l = [w, w + e] with w = m_vec - (e - ebar)/2: its two-sticks
    # inequalities are 1 <= ||m_vec + (e + ebar)/2|| and 1 <= ||-m_vec + (e + ebar)/2||,
    # the reduced system that the constructions solve with equality.
    for p in (3.0, 4.0, 1.5):
        group = [inst for inst in instances() if inst.p == p]
        w = np.array([inst.m - (inst.e - inst.e_bar) / 2.0 for inst in group])
        e, e_bar = np.array([inst.e for inst in group]), np.array([inst.e_bar for inst in group])
        v = pair_verdicts(PNorm(p, 3), w, w + e, np.zeros_like(w), e_bar)
        assert v.two_sticks.all() and v.equal_length.all()


def decimal_root(p: float, eps: float) -> Decimal:
    """Root r in [0, 1] of (1-r)^p + (1+r)^p = 2 + eps, bisected at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        p, eps, lo, hi = Decimal(p), Decimal(eps), Decimal(0), Decimal(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if (1 - mid) ** p + (1 + mid) ** p - 2 < eps:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_solve_g_matches_a_50_digit_root(p):
    # Near eps = 0 the float equation cancels to about U / r relative, so the
    # checked eps keep r above 1e-2.
    top = 2.0 ** p - 2.0
    for eps in (1e-3, 0.1, top / 2.0, 0.999 * top):
        exact = decimal_root(p, eps)
        assert abs(float((Decimal(solve_g(p, eps)) - exact) / exact)) <= 1e-13


def test_holder_exponent_is_the_ratio_of_the_pair():
    assert holder_exponents(3.0) == (2.0, 3.0) and holder_exponents(1.5) == (1.5, 2.0)
    for p in (1.2, 1.5, 2.0, 3.0, 7.5):
        q, pp = holder_exponents(p)
        assert holder_exponent(p) == q / pp


def test_p3_cli_band(tmp_path, capsys):
    assert cli.main(["sharpness", "--p", "3", "--out", str(tmp_path / "s.csv")]) == cli.EXIT_OK
    assert "band=[2.884498820114775, 2.8844991414320824]" in capsys.readouterr().out
