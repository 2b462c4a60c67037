import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import exp1

from choquard_lab import (ChoquardParams, ModelParams, ParameterError,
                          RadialField, exp_tail_integral,
                          feasible_exponents, make_grid, model_soliton,
                          pohozaev_report, solve_choquard, solver_grid,
                          state_from_field)
from choquard_lab.diagnostics import _check_witness


def test_injected_exact_profile_satisfies_identities():
    grid = make_grid(1, 15.0, 2000, 1.0)
    exact = RadialField(grid, model_soliton(3.0, grid.nodes))
    state = state_from_field(ModelParams(1, 3.0), exact)
    rep = pohozaev_report(state)
    assert rep.max_relative() <= 1e-8


def test_converged_choquard_identities(state_312):
    rep = pohozaev_report(state_312)
    assert rep.max_relative() <= 1e-3  # coarse-grid certificate
    assert_allclose(rep.ratio_grad_mass, 1.0 / 3.0, atol=1e-3)
    assert_allclose(rep.predicted_ratio, 1.0 / 3.0, rtol=1e-15)


def test_zero_field_report():
    grid = make_grid(3, 10.0, 100, 1.0)
    state = state_from_field(ChoquardParams(3, 1.0, 2.0),
                             RadialField(grid, np.zeros(100)))
    rep = pohozaev_report(state)
    assert rep.zero_field
    assert rep.nonlocal_energy == 0.0
    assert math.isnan(rep.ratio_grad_mass)


def test_predicted_ratio_formula():
    from choquard_lab import predicted_grad_mass_ratio
    # (pd - (2d-a)) / ((2d-a) - p(d-2)) = (8-6)/(6-4) = 1
    assert predicted_grad_mass_ratio(ChoquardParams(4, 2.0, 2.0)) \
        == pytest.approx(1.0)
    assert predicted_grad_mass_ratio(ChoquardParams(3, 1.0, 2.0)) \
        == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# exponent-system feasibility


def test_witness_312_matches_published_values():
    rep = feasible_exponents(ChoquardParams(3, 1.0, 2.0))
    assert rep.feasible
    w = rep.witness
    assert w.r == Fraction(8, 3) and w.r1 == Fraction(8, 3)
    assert w.t == Fraction(24, 7) and w.t1 == Fraction(24, 7)
    assert w.s == Fraction(3, 2)
    assert all(abs(float(x)) <= 1e-12 for x in rep.residuals)


def test_witness_422_matches_published_values():
    rep = feasible_exponents(ChoquardParams(4, 2.0, 2.0))
    assert rep.feasible
    w = rep.witness
    assert w.r == Fraction(8, 3) and w.t == Fraction(4)
    assert w.t1 == Fraction(8, 2)  # 8/(2 - 3(p-2)) at p = 2
    assert w.s == Fraction(8, 5)
    assert all(abs(float(x)) <= 1e-12 for x in rep.residuals)


@pytest.mark.parametrize("d,alpha", [(5, 3.5), (5, 2.5), (4, 3.0), (3, 2.5)])
def test_large_alpha_subcase_feasible(d, alpha):
    rep = feasible_exponents(ChoquardParams(d, alpha, 2.0))
    assert rep.feasible
    assert all(x == 0 for x in rep.residuals)


def test_feasibility_near_newtonian_perturbation():
    rep = feasible_exponents(ChoquardParams(3, 1.02, 2.02))
    assert rep.feasible


def test_feasibility_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        feasible_exponents(ChoquardParams(3, 1.0, 1.5))


def test_witness_that_a_lattice_scan_missed():
    rep = feasible_exponents(ChoquardParams(3, 0.68, 2.5))
    assert rep.feasible
    w = rep.witness
    assert (w.r, w.r1, w.r2, w.r3, w.t, w.t1, w.s) == (
        Fraction(300, 59), Fraction(300, 149), Fraction(225, 67),
        Fraction(225, 38), Fraction(300, 67), Fraction(40, 9),
        Fraction(100, 67))
    assert _check_witness(3, Fraction(17, 25), Fraction(5, 2), w)


def _slack_lp(d, alpha, p):
    """The largest margin eps by which the system holds, every strict
    inequality by eps: a float LP in (1/r, 1/r1, 1/r2, 1/r3, 1/t, 1/t1,
    1/s, eps), independent of the exact decision.  The system is feasible
    iff eps > 0; None when the LP has no solution at all."""
    from scipy.optimize import linprog
    lo_r, hi_r = (d - 2) / (2 * d), 0.5
    t_lo, ad = p * (d - 2) / (2 * d) - (d - alpha) / d, alpha / d
    rows, rhs = [], []

    def at_most(coef, bound, strict=False):   # coef . v (+ eps) <= bound
        rows.append(list(coef) + [1.0 if strict else 0.0])
        rhs.append(bound)
    unit = np.eye(7)
    for k in range(4):                         # 1/r .. 1/r3
        at_most(-unit[k], -lo_r)
        at_most(unit[k], hi_r)
    if p > 2:
        at_most(unit[1], 1 / (p - 2))
    for k in (2, 3):
        at_most(unit[k], 1 / (p - 1))
    for k in (4, 5):                           # 1/t, 1/t1
        at_most(-unit[k], -t_lo)
        at_most(-unit[k], 0.0, strict=True)
        at_most(unit[k], ad, strict=True)
    at_most(-unit[6], -2 / d)
    at_most(unit[6], 1.0)
    at_most(unit[0] - unit[6], 0.0)
    at_most(unit[6] - unit[0], 2 / d)
    eq = [[1, p - 2, 0, 0, 0, 1, -1, 0], [0, 0, p - 1, 0, 1, 0, -1, 0],
          [-1, 0, 0, -(p - 1), 1, 0, 0, 0]]
    res = linprog(np.r_[np.zeros(7), -1.0],
                  A_ub=rows, b_ub=rhs, A_eq=eq, b_eq=[0, 0, -ad],
                  bounds=[(None, None)] * 7 + [(None, 1.0)])
    return -res.fun if res.status == 0 else None


@settings(max_examples=150, deadline=None)
@given(d=st.integers(3, 7), frac=st.floats(0.01, 0.99),
       p=st.floats(2.0, 6.0))
def test_feasibility_is_decided_exactly(d, frac, p):
    # a witness passes the exact check; the LP agrees with the decision
    # wherever its margin is clear of rounding
    params = ChoquardParams(d, round(frac * d, 3), round(p, 3))
    rep = feasible_exponents(params)
    alpha, p = (Fraction(x).limit_denominator(10 ** 6)
                for x in (params.alpha, params.p))
    if rep.feasible:
        assert _check_witness(d, alpha, p, rep.witness)
    eps = _slack_lp(d, float(alpha), float(p))
    if eps is None or abs(eps) > 1e-9:
        assert rep.feasible == (eps is not None and eps > 0), eps


def test_infeasible_outside_window_is_reported_not_raised():
    rep = feasible_exponents(ChoquardParams(5, 4.5, 2.0))
    assert not rep.feasible
    assert rep.witness is None


# ---------------------------------------------------------------------------
# norms over a small sweep


def test_h1_norm_uniform_over_small_sweep():
    grid = solver_grid(3, 25.0, 400)
    h1s = []
    for da in (0.0, 0.02, -0.02):
        for dp in (0.0, 0.02):
            st = solve_choquard(ChoquardParams(3, 1.0 + da, 2.0 + dp), grid)
            h1s.append(st.norms["H1"])
    assert max(h1s) / min(h1s) <= 10.0


# ---------------------------------------------------------------------------
# exponential tail integral


def test_exp_tail_elementary():
    for R in (1.0, 2.0, 7.5):
        assert abs(exp_tail_integral(R, 0.0, 1.0) - math.exp(-R)) <= 1e-12


def test_exp_tail_exponential_integral_value():
    # I(1; 1, 1) = E_1(1); oracle scipy.special.exp1 plus frozen literal
    val = exp_tail_integral(1.0, 1.0, 1.0)
    assert abs(val - exp1(1.0)) <= 1e-12
    assert abs(val - 0.21938393439552062) <= 1e-10


def test_exp_tail_scaling_identity():
    # beta * R stays >= 1 so both sides remain in the admissible domain
    for (R, a, b) in ((2.0, 2.0, 0.5), (3.0, 1.5, 2.0), (5.0, -1.0, 3.0)):
        lhs = exp_tail_integral(R, a, b)
        rhs = b ** (a - 1.0) * exp_tail_integral(b * R, a, 1.0)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)


def test_exp_tail_bracket_frozen_interval():
    for R in (1.0, 2.0, 5.0, 10.0, 20.0):
        for a in (-2.0, -1.0, 0.0, 1.0, 3.0):
            for b in (0.5, 1.0, 3.0):
                ratio = exp_tail_integral(R, a, b) / (R ** -a * math.exp(-b * R))
                assert 0.12 <= ratio <= 40.0


def test_exp_tail_domain():
    with pytest.raises(ParameterError):
        exp_tail_integral(0.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        exp_tail_integral(2.0, 1.0, 0.3)
