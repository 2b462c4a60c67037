import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from choquard_lab import (RadialField, RieszError, make_grid,
                          riesz_apply_matrix, riesz_at_zero, riesz_radial,
                          sector_kernel, solver_grid, sphere_area)
from choquard_lab import riesz
from choquard_lab.riesz import _kernel_values, clear_caches


def kernel_oracle(d, ell, alpha, r, s):
    """Angular integral in the original cos(theta) form by adaptive quad."""
    def integrand(theta):
        t = math.cos(theta)
        k = (r * r + s * s - 2 * r * s * t) ** (-alpha / 2.0)
        w = math.sin(theta) ** (d - 2)
        return k * (t if ell == 1 else 1.0) * w
    val, _ = quad(integrand, 0.0, math.pi, limit=200)
    return sphere_area(d - 1) * val


@pytest.mark.parametrize("d,ell,alpha", [
    (3, 0, 1.0), (3, 0, 1.7), (3, 1, 1.0), (3, 1, 0.6),
    (5, 0, 3.0), (5, 0, 2.4), (5, 1, 3.0), (5, 1, 3.6),
    (4, 0, 2.0), (4, 1, 2.0), (2, 0, 0.8),
])
def test_kernel_values_against_quadrature_oracle(d, ell, alpha):
    r = 1.3
    for s in (0.4, 1.0, 2.6):
        want = kernel_oracle(d, ell, alpha, r, s)
        got_ang = float(_kernel_values(
            d, ell, alpha, np.asarray(r), np.asarray(s)))
        assert_allclose(got_ang, want, rtol=2e-9, atol=1e-12)


def kernel_mpmath(d, ell, alpha, r, s):
    """K_l(r, s) = |S^{d-1}| (r+s)^-alpha c_l (z/4)^l 2F1(alpha/2+l,
    (d-1)/2+l; d-1+2l; z), z = 4rs/(r+s)^2, at 60 digits (not the
    transformed form the package sums).  Two floats one ulp apart give
    1 - z = ((r-s)/(r+s))^2 near 1e-33, so 30 digits would round z to 1."""
    with mpmath.workdps(60):
        r, s, a = mpmath.mpf(r), mpmath.mpf(s), mpmath.mpf(alpha)
        z = 4 * r * s / (r + s) ** 2
        c = a / d if ell else 1
        return float(sphere_area(d) * (r + s) ** -a * c * (z / 4) ** ell
                     * mpmath.hyp2f1(a / 2 + ell, mpmath.mpf(d - 1) / 2 + ell,
                                     d - 1 + 2 * ell, z))


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 5, 6]), ell=st.integers(0, 1),
       frac=st.floats(0.0, 1.0), r=st.floats(0.01, 30.0),
       log_ratio=st.one_of(st.floats(-6.0, 6.0),
                           st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e),
                           st.floats(-6.0, -1.0).map(lambda e: -10.0 ** e)))
@example(d=2, ell=0, frac=1.0, r=1.0, log_ratio=2.220446049250313e-16)
def test_kernel_values_against_mpmath(d, ell, frac, r, log_ratio):
    # the connection formula loses digits in proportion to
    # 1/|alpha - (d-1-2m)| near a log point; stay 0.02 away from them,
    # four times the radius of the window where W and K are interpolated
    alpha = 0.02 + frac * (d - 1.04)
    log_points = np.arange(d - 1, 0, -2.0)
    alpha = float(alpha + 0.04 * (np.min(np.abs(alpha - log_points)) < 0.02))
    s = r * math.exp(log_ratio)
    got = float(_kernel_values(d, ell, alpha, np.asarray(r), np.asarray(s)))
    assert_allclose(got, kernel_mpmath(d, ell, alpha, r, s), rtol=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 3.0, 1.0 - 1e-7, 1.0 + 1e-7])
def test_kernel_at_the_log_points(alpha):
    # (d-1-alpha)/2 is an integer at alpha = 1 and 3 in d = 4
    g = make_grid(4, 8.0, 60, 1.02)
    r = np.array([0.3, 1.3, 1.3, 1.3, 1.3])
    s = np.array([1.3, 0.02, 1.3 * (1 + 1e-6), 2.6, 40.0])
    for ell in (0, 1):
        got = _kernel_values(4, ell, alpha, r, s)
        want = [kernel_mpmath(4, ell, alpha, ri, si) for ri, si in zip(r, s)]
        assert_allclose(got, want, rtol=1e-8)
        W = riesz_apply_matrix(g, alpha, ell, "angular")
        assert np.all(np.isfinite(W))
        if alpha < 3.0:
            assert np.all(np.isfinite(sector_kernel(g, alpha, ell)))
        # W is continuous in alpha through the log point
        f = g.nodes ** ell * np.exp(-g.nodes ** 2)
        near = riesz_apply_matrix(g, alpha + 1e-6, ell, "angular")
        assert _rel(near @ f, W @ f) <= 1e-5


# Jacobi exponents beta = d-1-alpha of the angular route: near 0, at the
# nodes that stand in for the d = 4 log point alpha = 1, and up to d-1
_BETAS = ([0.0, 1e-8, 1e-3, 0.02, 0.5, 0.97, 1.5]
          + [3.0 - ak for ak, _ in riesz._log_nodes(4, 1.0)]
          + [2.9, 3.0, 3.5, 3.9, 3.99])


@pytest.mark.parametrize("beta", _BETAS)
def test_gauss_jacobi_rule_against_scipy(beta):
    from scipy.special import roots_jacobi, roots_legendre
    x, w = riesz._gauss_jacobi(8, beta)
    xs, ws = roots_jacobi(8, beta, 0.0)
    assert np.max(np.abs(x - xs)) <= 1e-14
    assert np.max(np.abs(w - ws) / ws) <= 1e-13
    if beta == 0.0:
        xs, ws = roots_legendre(8)
        assert np.max(np.abs(x - xs)) <= 1e-14
        assert np.max(np.abs(w - ws) / ws) <= 1e-13


@pytest.mark.parametrize("beta", _BETAS)
def test_gauss_jacobi_rule_is_exact_to_degree_15(beta):
    # int_{-1}^1 (1-x)^beta x^k dx = int_0^2 t^beta (1-t)^k dt, summed at
    # 40 digits; the bound is relative to int (1-x)^beta dx, since the
    # odd moments vanish at beta = 0
    x, w = riesz._gauss_jacobi(8, beta)
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        mass = float(2 ** (b + 1) / (b + 1))
        for k in range(16):
            exact = sum(mpmath.binomial(k, j) * (-1) ** j
                        * 2 ** (b + j + 1) / (b + j + 1)
                        for j in range(k + 1))
            assert abs(np.sum(w * x ** k) - float(exact)) <= 1e-14 * mass


def test_riesz_rejects_bad_alpha():
    g = make_grid(3, 10.0, 64, 1.0)
    f = RadialField(g, np.exp(-g.nodes))
    for bad in (-0.5, 0.0, 3.0, 4.2):
        with pytest.raises(RieszError):
            riesz_radial(g, f, bad)


def test_zero_input_gives_zero():
    g = make_grid(4, 10.0, 64, 1.0)
    out = riesz_radial(g, RadialField(g, np.zeros(g.n)), 1.5)
    assert np.all(out.values == 0.0)


def test_unit_ball_potential_at_two():
    # oracle: 2D spherical quadrature of the exact indicator
    def oracle(rr):
        def inner(s):
            val, _ = quad(lambda th: math.sin(th) * (
                rr * rr + s * s - 2 * rr * s * math.cos(th)) ** -0.5,
                0.0, math.pi)
            return 2 * math.pi * s * s * val
        out, _ = quad(inner, 0.0, 1.0, limit=100)
        return out
    target = 2 * math.pi / 3.0
    assert abs(oracle(2.0) - target) < 1e-7

    def potential_at_two(n):
        g = make_grid(3, 6.0, n, 1.0)
        vals = np.where(g.nodes < 1.0, 1.0, 0.0)
        j = np.argmin(np.abs(g.nodes - 1.0))
        assert abs(g.nodes[j] - 1.0) < 1e-12
        vals[j] = 0.5
        pot = riesz_radial(g, RadialField(g, vals), 1.0)
        i2 = np.argmin(np.abs(g.nodes - 2.0))
        return pot.values[i2]

    v1, v2 = potential_at_two(600), potential_at_two(1200)
    extrapolated = (4 * v2 - v1) / 3.0  # jump-node error is O(h^2)
    assert abs(extrapolated - target) <= 1e-6


def test_exponential_potential_at_origin():
    # int e^{-|y|}/|y| dy = 4 pi int_0^inf s e^{-s} ds = 4 pi
    g = make_grid(3, 30.0, 1500, 1.002)
    f = RadialField(g, np.exp(-g.nodes))
    assert abs(riesz_at_zero(g, f, 1.0) - 4 * math.pi) <= 1e-6


def test_fast_path_matches_generic():
    for d in (3, 4, 5):
        g = make_grid(d, 8.0, 220, 1.0)
        f = RadialField(g, np.exp(-g.nodes ** 2))
        pn = riesz_radial(g, f, float(d - 2), method="newton").values
        pa = riesz_radial(g, f, float(d - 2), method="angular").values
        scale = np.max(np.abs(pn))
        assert np.max(np.abs(pn - pa)) / scale <= 1e-8


def test_generic_paths_agree_on_random_smooth_inputs():
    rng = np.random.default_rng(3)
    g = make_grid(3, 12.0, 300, 1.0)
    for _ in range(3):
        c = rng.uniform(0.3, 1.5, size=3)
        vals = (c[0] * np.exp(-g.nodes ** 2) + c[1] * np.exp(-2 * g.nodes)
                + c[2] / (1 + g.nodes ** 2) ** 3)
        f = RadialField(g, vals)
        pe = riesz_radial(g, f, 1.4, method="exact").values
        pa = riesz_radial(g, f, 1.4, method="angular").values
        assert np.max(np.abs(pe - pa)) / np.max(np.abs(pe)) <= 1e-8


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("alpha,tol", [(1.4, 1e-10), (2.4, 1e-10),
                                       (2.0, 1e-8), (2.0 + 1e-11, 1e-10)])
def test_angular_route_agrees_with_exact(alpha, tol):
    # at d = 3, l = 0 both routes exist; alpha = 2 is the log point of
    # both, where each is its interpolant in alpha
    g = make_grid(3, 8.0, 240, 1.0)
    f = np.exp(-g.nodes ** 2)
    assert _rel(riesz_apply_matrix(g, alpha, 0, "angular") @ f,
                riesz_apply_matrix(g, alpha, 0, "exact") @ f) <= tol


def test_exact_route_agrees_with_newton_and_angular():
    g = make_grid(3, 8.0, 240, 1.0)
    f = np.exp(-g.nodes ** 2)
    assert _rel(riesz_apply_matrix(g, 1.0, 0, "exact") @ f,
                riesz_apply_matrix(g, 1.0, 0, "newton") @ f) <= 1e-8
    assert _rel(riesz_apply_matrix(g, 1.4, 0, "exact") @ f,
                riesz_apply_matrix(g, 1.4, 0, "angular") @ f) <= 1e-8


def _entry_oracle(g, alpha, ell, i, j):
    """W[i, j] by adaptive quadrature: the sum, over the cells whose
    stencil holds node j, of int K_l(r_i, s) s^{d-1} l_j(s) ds, with each
    cell split at s = r_i."""
    x = g.nodes
    edges = np.concatenate([[0.0], x])
    j0 = np.clip(np.arange(g.n) - 1, 0, g.n - 3)
    total = 0.0
    for c in np.flatnonzero((j0 <= j) & (j <= j0 + 2)):
        u, v = (x[j0[c] + k] for k in range(3) if j0[c] + k != j)

        def integrand(s):
            lj = (s - u) * (s - v) / ((x[j] - u) * (x[j] - v))
            k = float(_kernel_values(g.d, ell, alpha, x[i], s))
            return k * s ** (g.d - 1) * lj
        a, b = edges[c], edges[c + 1]
        cuts = [a, x[i], b] if a < x[i] < b else [a, b]
        for p, q in zip(cuts[:-1], cuts[1:]):
            total += quad(integrand, p, q, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]
    return total


_EXACT_ROUTE_DEFECT = pytest.mark.xfail(strict=True, reason=(
    "the d = 3, l = 0 exact route is wrong entry by entry (monomial "
    "Lagrange coefficients on thin cells); ROADMAP item 1"))


@pytest.mark.parametrize("d,ell,method", [
    (2, 0, "angular"), (2, 1, "angular"), (3, 0, "angular"),
    (3, 1, "angular"), (4, 0, "angular"), (4, 1, "angular"),
    (5, 0, "angular"), (5, 1, "angular"), (6, 0, "angular"),
    (6, 1, "angular"),
    pytest.param(3, 0, "exact", marks=_EXACT_ROUTE_DEFECT)])
def test_application_entries_against_quadrature_oracle(d, ell, method):
    # smooth inputs hide entry errors, which telescope in W f; 20 seeded
    # entries, half of them within two columns of the diagonal, and in 4
    # rows the columns on both sides of each band edge: the last far
    # column before the band and the first after it, whose cells lie
    # wholly outside rho_0 r < s < r / rho_0, and the band columns beside
    # them, whose cells straddle rho_0 r and r / rho_0.  Worst measured:
    # 3.7e-15 max|W| (angular); 1.0e-9 max|W| (exact)
    g = solver_grid(d, 25.0, 200)
    alpha = d - 2 - 0.03 if d > 2 else 0.6
    W = riesz_apply_matrix(g, alpha, ell, method)
    rng = np.random.default_rng(12)
    rows = rng.integers(0, g.n, 20)
    cols = np.concatenate([rng.integers(0, g.n, 10),
                           np.clip(rows[10:] + rng.integers(-2, 3, 10),
                                   0, g.n - 1)])
    lo, hi, *_ = riesz._far_columns(riesz._CellRule(g), g.nodes)
    idx = list(zip(rows, cols))
    for i in (1, 40, 120, 190):
        assert lo[i] < i < hi[i]
        idx += [(i, j) for j in (lo[i], lo[i] + 1, hi[i] - 1, hi[i])
                if 0 <= j < g.n]
    worst = max(abs(W[i, j] - _entry_oracle(g, alpha, ell, i, j))
                for i, j in idx)
    assert worst <= 1e-11 * np.max(np.abs(W))


@_EXACT_ROUTE_DEFECT
def test_exact_route_entries_agree_with_angular():
    # 2.8e-8 max|W| here, 5.5e-6 at n = 700
    g = solver_grid(3, 25.0, 200)
    We = riesz_apply_matrix(g, 0.97, 0, "exact")
    Wa = riesz_apply_matrix(g, 0.97, 0, "angular")
    assert np.max(np.abs(We - Wa)) <= 1e-10 * np.max(np.abs(Wa))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_angular_route_at_the_newtonian_exponent_matches_newton(d):
    # at alpha = d-2 the far series ends after one term, |S^{d-1}|
    # max(r, s)^{2-d}, and the band takes the 2F1 layer; measured 1e-15
    g = solver_grid(d, 25.0, 600)
    Wn = riesz_apply_matrix(g, d - 2.0, 0, "newton")
    Wa = riesz_apply_matrix(g, d - 2.0, 0, "angular")
    assert np.max(np.abs(Wa - Wn)) <= 1e-13 * np.max(np.abs(Wn))


@pytest.mark.parametrize("d,ell,alpha", [(4, 0, 2.0), (4, 1, 1.0),
                                         (4, 1, 2.0)])
def test_angular_route_is_smooth_where_a_far_moment_changes_form(d, ell,
                                                                 alpha):
    # the far moments of s^E with E = d-1-alpha-l-2k: E = -1 at k = 1 in
    # the first two cases (d = 4, alpha = 2 is also the Newtonian exponent,
    # and alpha = 1 a log point, where only the band is the interpolant in
    # alpha), E = -2 at k = 1 in the third, where the by-parts recursion
    # would divide by E + 2.  W has no kink or jump there: the mean of W at
    # alpha -+ 1e-9 is W at alpha to second order; measured 7e-16 max|W|
    g = solver_grid(d, 25.0, 200)
    W = riesz_apply_matrix(g, alpha, ell, "angular")
    below, above = (riesz_apply_matrix(g, a, ell, "angular")
                    for a in (alpha - 1e-9, alpha + 1e-9))
    assert np.max(np.abs(0.5 * (below + above) - W)) <= (
        1e-12 * np.max(np.abs(W)))


def _power_moment_mpmath(E, tau, q):
    """int_0^1 (1 + tau v)^E v^q dv = 2F1(-E, q+1; q+2; -tau)/(q+1)."""
    with mpmath.workdps(40):
        return float(mpmath.hyp2f1(-mpmath.mpf(E), q + 1, q + 2,
                                   -mpmath.mpf(tau)) / (q + 1))


def test_power_moments_against_mpmath():
    # the domain of the far moments: beyond the band E = d-1-alpha-l-2k
    # <= 5 and tau = h/a > 0 (at most 0.55 on solver grids); before it
    # E = d-1+l+2k >= 1, an integer, and tau = -h/b in [-1, 0).  Each of
    # the three forms (exprel, by parts, Gauss) is within 2.8e-15
    E = [-150.3, -60.0, -20.5, -7.0, -4.0, -3.5, -3.0, -2.0, -1.0 - 1e-9,
         -1.0, -0.97, 0.0, 0.5, 1.0, 2.0, 3.0, 4.9]
    taus = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0]
    cases = [(e, t) for e in E for t in taus]
    cases += [(e, -t) for e in (1, 2, 3, 4, 5, 7, 9, 20, 41, 80, 157)
              for t in taus[:-4] + [0.7, 0.9, 0.99, 1.0]]
    e, t = np.array(cases).T
    got = riesz._power_moments(e, t)
    for q in range(3):
        want = [_power_moment_mpmath(ek, tk, q) for ek, tk in cases]
        assert_allclose(got[q], want, rtol=5e-15, atol=0)


def test_auto_route_at_d7_agrees_with_newton():
    # the package has no closed form at d = 7: auto takes the 2F1 route
    # next to the Newtonian exponent, and the 2F1 route matches newton at it
    g = make_grid(7, 8.0, 240, 1.0)
    f = np.exp(-g.nodes ** 2)
    want = riesz_apply_matrix(g, 5.0, 0, "newton") @ f
    assert _rel(riesz_apply_matrix(g, 5.0, 0, "angular") @ f, want) <= 1e-8
    assert _rel(riesz_apply_matrix(g, 5.0 + 1e-10, 0) @ f, want) <= 1e-8


def test_method_is_checked(monkeypatch):
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    clear_caches()
    g = make_grid(3, 8.0, 40, 1.0)
    with pytest.raises(RieszError, match="'auto', 'newton', 'exact', "
                                         "'angular'"):
        riesz_apply_matrix(g, 1.3, 0, "exactt")
    assert not riesz._APPLY_CACHE
    # the closed form serves d = 1 and d = 3 with l = 0 only
    for grid, ell in ((g, 1), (make_grid(5, 8.0, 40, 1.0), 0)):
        with pytest.raises(RieszError, match="exact route"):
            riesz_apply_matrix(grid, 1.3, ell, "exact")


def test_exact_route_agrees_with_newton_on_the_solver_grid():
    g = solver_grid(3, 25.0, 1200)
    f = np.exp(-g.nodes ** 2)
    assert _rel(riesz_apply_matrix(g, 1.0, 0, "exact") @ f,
                riesz_apply_matrix(g, 1.0, 0, "newton") @ f) <= 5e-8


@pytest.mark.parametrize("method", ["newton", "exact"])
def test_constant_input_gives_the_uniform_ball_potential(method):
    # product integration is exact on the constant interpolant, so every
    # cell, the two end cells included, must be counted once:
    # int_{|y|<R} |x-y|^{-1} dy = 2 pi (R^2 - |x|^2/3) for |x| <= R.
    # The newton route's exact cell weights give 6e-16
    g = make_grid(3, 8.0, 240, 1.0)
    got = riesz_apply_matrix(g, 1.0, 0, method) @ np.ones(g.n)
    assert_allclose(got, 2 * math.pi * (64.0 - g.nodes ** 2 / 3),
                    rtol={"newton": 1e-14, "exact": 1e-11}[method])


def _newton_entry_mpmath(g, i, j):
    """W[i, j] of the Newtonian operator at 40 digits: over the cells
    whose stencil holds node j, the exact integral of the polynomial
    |S^{d-1}| r_i^{2-d} s^{d-1} l_j(s) (cell inside r_i) or |S^{d-1}| s
    l_j(s) (cell outside), by its antiderivative."""
    d, n = g.d, g.n
    j0 = np.clip(np.arange(n) - 1, 0, n - 3)
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(v)) for v in g.nodes]
        edges = [mpmath.mpf(0)] + x
        area = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(
            mpmath.mpf(d) / 2)
        total = mpmath.mpf(0)
        for c in np.flatnonzero((j0 <= j) & (j <= j0 + 2)):
            u, v = (x[j0[c] + k] for k in range(3) if j0[c] + k != j)
            k = d - 1 if c <= i else 1

            def F(s):   # antiderivative of s^k (s - u)(s - v)
                return (s ** (k + 3) / (k + 3) - (u + v) * s ** (k + 2)
                        / (k + 2) + u * v * s ** (k + 1) / (k + 1))
            cell = (F(edges[c + 1]) - F(edges[c])) / ((x[j] - u) * (x[j] - v))
            total += area * (x[i] ** (2 - d) if c <= i else 1) * cell
        return float(total)


@pytest.mark.parametrize("d,n", [(3, 1200), (5, 600)])
def test_newton_entries_against_mpmath(d, n):
    # 16 entries: random, beside the diagonal, and at both ends, where
    # the clipped stencils make columns 0-2 and n-3 straddle r_i.  The
    # monomial-coefficient cell weights were off by up to 1.3e-9 max|W|
    g = solver_grid(d, 25.0, n)
    W = riesz_apply_matrix(g, d - 2.0, 0, "newton")
    rng = np.random.default_rng(18)
    rows = rng.integers(0, n, 8)
    near = np.clip(rows[4:] + rng.integers(-1, 3, 4), 0, n - 1)
    cols = np.concatenate([rng.integers(0, n, 4), near])
    idx = list(zip(rows, cols)) + [(0, 2), (1, 0), (n - 1, n - 1),
                                   (n - 2, n - 3), (n - 4, n - 3), (n - 1, 0),
                                   (0, n - 1), (n - 3, n - 2)]
    worst = max(abs(W[i, j] - _newton_entry_mpmath(g, i, j)) for i, j in idx)
    assert worst <= 1e-13 * np.max(np.abs(W))


@pytest.mark.parametrize("d,n", [(3, 16), (4, 17), (6, 16)])
def test_newton_matrix_every_entry_on_small_grids(d, n):
    # every entry, so each triangle, each straddling entry and the clipped
    # end stencils are all checked
    g = make_grid(d, 8.0, n, 1.02)
    W = riesz_apply_matrix(g, d - 2.0, 0, "newton")
    want = [[_newton_entry_mpmath(g, i, j) for j in range(n)]
            for i in range(n)]
    assert np.max(np.abs(W - want)) <= 1e-14 * np.max(np.abs(W))


def test_newton_assembly_holds_no_n_by_n_temporary(monkeypatch):
    # the triangles are written into W's own buffer
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    clear_caches()
    g = solver_grid(3, 25.0, 1200)
    tracemalloc.start()
    try:
        W = riesz_apply_matrix(g, 1.0, 0, "newton")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert peak <= 1.1 * W.nbytes


def _scaling_holds(d, method, alpha, r_max, stretch):
    # (|.|^-alpha * f(./2))(2r) = 2^(d-alpha) (|.|^-alpha * f)(r), and
    # doubling r_max doubles every node exactly: W on the doubled grid is
    # 2^(d-alpha) W, entry by entry
    g = make_grid(d, r_max, 60, stretch)
    g2 = make_grid(d, 2.0 * r_max, 60, stretch)
    assert np.array_equal(g2.nodes, 2.0 * g.nodes)
    W = riesz_apply_matrix(g, alpha, 0, method)
    assert_allclose(riesz_apply_matrix(g2, alpha, 0, method),
                    2.0 ** (d - alpha) * W, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 6), frac=st.floats(0.01, 0.99),
       r_max=st.floats(1.0, 30.0), stretch=st.floats(1.0, 1.03))
def test_application_operator_riesz_scaling(d, frac, r_max, stretch):
    # the exact route misses by up to 7e-5 (its monomial cell weights,
    # ROADMAP item 1), and the angular route within _LOG_STEP/2 of a log
    # point is the interpolant in alpha, whose nodes scale as 2^-alpha_k
    _scaling_holds(d, "newton", d - 2.0, r_max, stretch)
    alpha = frac * d
    assume(riesz._log_nodes(d, alpha) is None)
    _scaling_holds(d, "angular", alpha, r_max, stretch)


def test_add_cells_matches_add_at():
    g = make_grid(3, 8.0, 20, 1.0)
    rule = riesz._CellRule(g)
    rng = np.random.default_rng(5)
    cells = rng.standard_normal((3, 4, g.n))
    W = rng.standard_normal((4, g.n))
    ref = W.copy()
    for m in range(3):
        rule.add_cells(W, cells[m], m)
        for i in range(4):
            np.add.at(ref[i], rule.j0 + m, cells[m][i])
    assert np.array_equal(W, ref)


def test_assembly_does_not_depend_on_the_row_block(monkeypatch):
    # blocks of one row, and one block of all rows, give the same bits;
    # at alpha = 2 the d = 3 exact route is an interpolant in alpha.  The
    # angular route has no row block: its far field is one product per
    # octave, and its band cells go to _kernel 7 at a time or all at once
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    g = make_grid(3, 8.0, 40, 1.02)
    g4 = make_grid(4, 8.0, 40, 1.02)

    def assemble():
        clear_caches()
        return [riesz_apply_matrix(g, 1.0, 0, "newton"),
                riesz_apply_matrix(g, 1.3, 0, "exact"),
                riesz_apply_matrix(g, 1.3, 1, "angular"),
                riesz_apply_matrix(g, 2.0, 0, "exact"),
                sector_kernel(g, 1.3, 1),
                riesz_apply_matrix(g4, 1.9, 0, "angular"),
                riesz_apply_matrix(g4, 1.9, 1, "angular"),
                riesz_apply_matrix(g4, 1.0, 1, "angular"),
                sector_kernel(g4, 1.9, 1)]

    monkeypatch.setattr(riesz, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(riesz, "_BAND_PIECES", 7)
    by_row = assemble()
    monkeypatch.setattr(riesz, "_BLOCK_ROWS", g.n)
    monkeypatch.setattr(riesz, "_BAND_PIECES", g.n * g.n)
    whole = assemble()
    clear_caches()
    for a, b in zip(by_row, whole):
        assert np.array_equal(a, b)


def raw_sector_kernel(g, alpha, ell):
    """K_l(r_i, r_j) from the 2F1 layer on the full node mesh."""
    r = g.nodes
    return _kernel_values(g.d, ell, alpha, r[:, None], r[None, :])


def test_sector_kernel_symmetry_and_positivity():
    # every 2F1 sample depends on r, s only through r + s, r s, r^2 + s^2
    # and (r - s)^2, so the full mesh is bitwise symmetric; sector_kernel
    # mirrors its upper triangle, and its far entries (the separable
    # series) agree with the 2F1 samples to rounding
    cases = [(d, alpha, g, ell)
             for d, alpha in ((3, 1.0), (4, 1.9), (5, 3.0), (6, 3.5))
             for g in (make_grid(d, 10.0, 90, 1.01), solver_grid(d, 25.0, 600))
             for ell in (0, 1)]
    # d = 5, l = 1 at small r/s, where an elementary closed form cancels
    # and loses its sign
    g5 = solver_grid(5, 25.0, 600)
    cases += [(5, alpha, g5, 1) for alpha in (2.5, 3.0, 3.5)]
    for d, alpha, g, ell in cases:
        K = raw_sector_kernel(g, alpha, ell)
        assert np.all(np.isfinite(K))
        assert np.array_equal(K, K.T), (d, alpha, g.n, ell)
        got = sector_kernel(g, alpha, ell)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, got.T), (d, alpha, g.n, ell)
        assert np.max(np.abs(got - K) / K) <= 5e-14, (d, alpha, g.n, ell)
        assert np.all(got > 0), (d, alpha, g.n, ell)


_BAND_LOG_DEFECT = pytest.mark.xfail(strict=True, reason=(
    "near a log point the 2F1 layer is an interpolant in alpha, off by up "
    "to 2e-10 at d = 5, l = 1, alpha = 0.002 and by up to 5e-13 within "
    "_LOG_STEP/2 of the others; CHANGES.md, FOUND"))


@pytest.mark.parametrize("d,alpha,ell,side", [
    pytest.param(d, alpha, ell, side, marks=(
        _BAND_LOG_DEFECT if (d, alpha, ell, side) == (5, 0.002, 1, "band")
        else ()))
    for d, alpha in ((2, 0.6), (3, 1.3), (4, 1.9), (4, 1.0), (5, 2.97),
                     (5, 2.0), (5, 0.002), (6, 3.5))
    for ell in (0, 1) for side in ("far", "band")])
def test_sector_kernel_far_field_against_mpmath(d, alpha, ell, side):
    # the entries just inside (far series) and just outside (2F1 band)
    # s/r = 1/_RHO_FAR, and the far corner; alpha = 1 (d = 4) and 2 (d = 5)
    # are log points, where the band is an interpolant in alpha and the
    # far series is not
    g = solver_grid(d, 25.0, 300)
    r = g.nodes
    far = np.searchsorted(riesz._RHO_FAR * r, r)
    rows = [1, 10, g.n // 2, int(np.searchsorted(far, g.n)) - 1]
    if side == "far":
        idx = [(i, far[i]) for i in rows] + [(0, g.n - 1)]
        assert all(r[i] <= riesz._RHO_FAR * r[j] for i, j in idx)
    else:
        idx = [(i, far[i] - 1) for i in rows]
        assert all(r[i] > riesz._RHO_FAR * r[j] for i, j in idx)
    K = sector_kernel(g, alpha, ell)
    want = [kernel_mpmath(d, ell, alpha, r[i], r[j]) for i, j in idx]
    assert_allclose([K[i, j] for i, j in idx], want, rtol=1e-12)


def _homogeneity_holds(d, ell, alpha, r_max, stretch):
    # K_l(2r, 2s) = 2^-alpha K_l(r, s), and doubling r_max doubles every
    # node exactly
    g = make_grid(d, r_max, 60, stretch)
    g2 = make_grid(d, 2.0 * r_max, 60, stretch)
    assert np.array_equal(g2.nodes, 2.0 * g.nodes)
    K = sector_kernel(g, alpha, ell)
    assert_allclose(sector_kernel(g2, alpha, ell), 2.0 ** -alpha * K,
                    rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), ell=st.integers(0, 1), frac=st.floats(0.01, 0.99),
       r_max=st.floats(1.0, 30.0), stretch=st.floats(1.0, 1.03))
def test_sector_kernel_homogeneity(d, ell, frac, r_max, stretch):
    # within _LOG_STEP/2 of a log point the band samples are the
    # interpolant in alpha, whose nodes scale as 2^-alpha_k, not 2^-alpha:
    # test_sector_kernel_homogeneity_near_a_log_point pins that window
    alpha = frac * (d - 1)
    assume(riesz._log_nodes(d, alpha) is None)
    _homogeneity_holds(d, ell, alpha, r_max, stretch)


@_BAND_LOG_DEFECT
def test_sector_kernel_homogeneity_near_a_log_point():
    # d = 5, alpha = 2, a log point: off by 4.1e-13 relative
    _homogeneity_holds(5, 0, 2.0, 1.0651381916563278, 1.0205890119346925)


@pytest.mark.parametrize("alpha", [2.0, 0.002])
def test_odd_d_sector_kernel_against_mpmath(alpha):
    # alpha = 2 is a log point of d = 5 inside alpha < d - 1, where a
    # ln|s - r| weight is -inf on the diagonal; at alpha = 0.002 the l = 1
    # kernel is tiny at small r/s, where an elementary closed form cancels
    g = solver_grid(5, 25.0, 300)
    idx = [(0, 0), (5, 5), (150, 150), (299, 299), (0, 296), (150, 151)]
    for ell in (0, 1):
        K = sector_kernel(g, alpha, ell)
        assert np.all(np.isfinite(K))
        r = g.nodes
        want = [kernel_mpmath(5, ell, alpha, r[i], r[j]) for i, j in idx]
        assert_allclose([K[i, j] for i, j in idx], want, rtol=1e-8)


def test_sector_kernel_rejects_divergent_diagonal():
    g = make_grid(3, 10.0, 64, 1.0)
    with pytest.raises(RieszError):
        sector_kernel(g, 2.5, 0)
    with pytest.raises(RieszError):
        sector_kernel(g, 1.0, 2)


def test_ell1_application_against_tensor_oracle():
    # convolve x1 e^{-|x|^2} with |x|^{-1} in d = 3; oracle by 2D quadrature
    g = make_grid(3, 10.0, 400, 1.0)
    gvals = g.nodes * np.exp(-g.nodes ** 2)
    W1 = riesz_apply_matrix(g, 1.0, ell=1)
    got = W1 @ gvals

    def oracle(rr):
        def inner(s):
            val, _ = quad(lambda th: math.sin(th) * math.cos(th) * (
                rr * rr + s * s - 2 * rr * s * math.cos(th)) ** -0.5,
                0.0, math.pi, limit=100)
            return 2 * math.pi * s ** 2 * (s * math.exp(-s * s)) * val
        out, _ = quad(inner, 0.0, 8.0, points=[rr], limit=100)
        return out

    for idx in (20, 120, 260):
        assert abs(got[idx] - oracle(g.nodes[idx])) <= 1e-5


def test_linearity():
    g = make_grid(3, 10.0, 200, 1.0)
    f1 = np.exp(-g.nodes)
    f2 = 1.0 / (1 + g.nodes ** 2) ** 2
    W = riesz_apply_matrix(g, 1.3)
    lhs = W @ (2.0 * f1 + 3.0 * f2)
    rhs = 2.0 * (W @ f1) + 3.0 * (W @ f2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_potential_monotone_for_decreasing_inputs():
    g = make_grid(3, 16.0, 400, 1.0)
    family = (np.exp(-g.nodes), np.exp(-g.nodes ** 2),
              (1 + g.nodes ** 2) ** -3.0)
    for vals in family:
        f = RadialField(g, vals)
        pot = riesz_radial(g, f, 1.0).values
        diffs = np.diff(pot)
        assert np.all(diffs <= 1e-12 * pot.max())
        # strict decrease wherever f(2r/3) - f(2r) is appreciable
        fint = lambda r: np.interp(r, g.nodes, vals)
        drop = fint(2 * g.nodes[:-1] / 3) - fint(2 * g.nodes[:-1])
        strict = drop > 1e-8
        assert np.all(diffs[strict] < 0)


def test_memory_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    g = make_grid(3, 8.0, 20, 1.0)
    monkeypatch.setattr(riesz, "_APPLY_CACHE_BYTES", 2 * 8 * g.n * g.n)
    clear_caches()
    first = riesz_apply_matrix(g, 1.1)
    second = riesz_apply_matrix(g, 1.2)
    riesz_apply_matrix(g, 1.3)            # over budget: `first` goes
    assert riesz_apply_matrix(g, 1.2) is second
    assert riesz_apply_matrix(g, 1.1) is not first
    # that call assembled 1.1 again; 1.2 was used more recently than 1.3
    riesz_apply_matrix(g, 1.2)
    riesz_apply_matrix(g, 1.4)
    assert riesz_apply_matrix(g, 1.2) is second
    assert len(riesz._APPLY_CACHE) == 2
    clear_caches()


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    from choquard_lab.riesz import clear_caches
    monkeypatch.setenv("CHOQUARD_LAB_CACHE", str(tmp_path))
    clear_caches()
    g = make_grid(3, 8.0, 64, 1.0)
    W1 = riesz_apply_matrix(g, 1.25)
    files = list(tmp_path.glob("riesz_*.npy"))
    assert len(files) == 1
    clear_caches()  # force the disk path on the next call
    W2 = riesz_apply_matrix(g, 1.25)
    assert_allclose(W1, W2, rtol=0, atol=0)
    clear_caches()
    monkeypatch.delenv("CHOQUARD_LAB_CACHE")


def test_disk_cache_ignores_files_of_an_older_format(tmp_path, monkeypatch):
    g = make_grid(3, 8.0, 64, 1.0)
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    clear_caches()
    fresh = riesz_apply_matrix(g, 1.25)
    monkeypatch.setenv("CHOQUARD_LAB_CACHE", str(tmp_path))
    clear_caches()
    riesz_apply_matrix(g, 1.25)
    (path,) = tmp_path.glob("riesz_*.npy")
    prefix = f"riesz_v{riesz._CACHE_VERSION}_"
    assert path.name.startswith(prefix)
    # a well-formed matrix under the unversioned name of the same key
    old = path.with_name("riesz_" + path.name[len(prefix):])
    np.save(old, np.zeros((g.n, g.n)))
    path.unlink()
    clear_caches()
    assert_allclose(riesz_apply_matrix(g, 1.25), fresh, rtol=0, atol=0)
    assert path.exists()
    clear_caches()


@pytest.mark.parametrize("damage", ["garbage", "truncated", "wrong_shape"])
def test_disk_cache_heals_a_damaged_file(tmp_path, monkeypatch, damage):
    from choquard_lab.riesz import clear_caches
    g = make_grid(3, 8.0, 64, 1.0)
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    clear_caches()
    fresh = riesz_apply_matrix(g, 1.25)   # assembled, no disk cache
    monkeypatch.setenv("CHOQUARD_LAB_CACHE", str(tmp_path))
    clear_caches()
    riesz_apply_matrix(g, 1.25)
    (path,) = tmp_path.glob("riesz_*.npy")
    if damage == "garbage":
        path.write_bytes(b"not an array at all" * 7)
    elif damage == "truncated":
        path.write_bytes(path.read_bytes()[:1000])
    else:
        np.save(path, np.zeros((3, 3)))
    clear_caches()
    assert_allclose(riesz_apply_matrix(g, 1.25), fresh, rtol=0, atol=0)
    # the damaged file was rewritten in place, and no temp file is left
    assert sorted(tmp_path.iterdir()) == [path]
    assert_allclose(np.load(path), fresh, rtol=0, atol=0)
    clear_caches()
    monkeypatch.delenv("CHOQUARD_LAB_CACHE")
