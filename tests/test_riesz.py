import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from choquard_lab import (RadialField, RieszError, ball_volume, make_grid,
                          overlap_volume, riesz_apply_matrix, riesz_at_zero,
                          riesz_bracket, riesz_radial, sector_kernel,
                          solver_grid, sphere_area)
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
    (3, 0, "angular"), (3, 1, "angular"), (4, 0, "angular"),
    (4, 1, "angular"), (5, 0, "angular"), (5, 1, "angular"),
    pytest.param(3, 0, "exact", marks=_EXACT_ROUTE_DEFECT)])
def test_application_entries_against_quadrature_oracle(d, ell, method):
    # smooth inputs hide entry errors, which telescope in W f; 20 seeded
    # entries, half of them within two columns of the diagonal.  Worst
    # measured: 7.3e-15 max|W| (angular); 1.0e-9 max|W| (exact)
    g = solver_grid(d, 25.0, 200)
    alpha = d - 2 - 0.03
    W = riesz_apply_matrix(g, alpha, ell, method)
    rng = np.random.default_rng(12)
    rows = rng.integers(0, g.n, 20)
    cols = np.concatenate([rng.integers(0, g.n, 10),
                           np.clip(rows[10:] + rng.integers(-2, 3, 10),
                                   0, g.n - 1)])
    worst = max(abs(W[i, j] - _entry_oracle(g, alpha, ell, i, j))
                for i, j in zip(rows, cols))
    assert worst <= 1e-11 * np.max(np.abs(W))


@_EXACT_ROUTE_DEFECT
def test_exact_route_entries_agree_with_angular():
    # 2.8e-8 max|W| here, 5.5e-6 at n = 700
    g = solver_grid(3, 25.0, 200)
    We = riesz_apply_matrix(g, 0.97, 0, "exact")
    Wa = riesz_apply_matrix(g, 0.97, 0, "angular")
    assert np.max(np.abs(We - Wa)) <= 1e-10 * np.max(np.abs(Wa))


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
    # int_{|y|<R} |x-y|^{-1} dy = 2 pi (R^2 - |x|^2/3) for |x| <= R
    g = make_grid(3, 8.0, 240, 1.0)
    got = riesz_apply_matrix(g, 1.0, 0, method) @ np.ones(g.n)
    assert_allclose(got, 2 * math.pi * (64.0 - g.nodes ** 2 / 3), rtol=1e-11)


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
    # at alpha = 2 the d = 3 exact route is an interpolant in alpha
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
    by_row = assemble()
    monkeypatch.setattr(riesz, "_BLOCK_ROWS", g.n)
    whole = assemble()
    clear_caches()
    for a, b in zip(by_row, whole):
        assert np.array_equal(a, b)


def raw_sector_kernel(g, alpha, ell):
    """K_l(r_i, r_j) from the 2F1 layer on the full node mesh."""
    r = g.nodes
    return _kernel_values(g.d, ell, alpha, r[:, None], r[None, :])


def test_sector_kernel_symmetry_and_positivity():
    # every sample depends on r, s only through r + s, r s, r^2 + s^2 and
    # (r - s)^2, so the full mesh is bitwise symmetric, and sector_kernel,
    # which mirrors its upper triangle, equals it bit for bit
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
        assert np.array_equal(got, K), (d, alpha, g.n, ell)
        assert np.all(got > 0), (d, alpha, g.n, ell)


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


def test_bracket_zero_and_indicator():
    g = make_grid(3, 6.0, 600, 1.0)
    assert np.all(riesz_bracket(g, RadialField(g, np.zeros(g.n)), 1.0).values
                  == 0.0)
    vals = np.where(g.nodes < 1.0, 1.0, 0.0)
    j = np.argmin(np.abs(g.nodes - 1.0))
    vals[j] = 0.5
    f = RadialField(g, vals)
    br = riesz_bracket(g, f, 1.0)
    i2 = np.argmin(np.abs(g.nodes - 2.0))
    # r^{-1} int_0^1 s^2 ds = 1/6 at r = 2; outer part vanishes
    assert_allclose(br.values[i2], 1.0 / 6.0, rtol=1e-4)
    pot = riesz_radial(g, f, 1.0)
    assert_allclose(pot.values[i2] / br.values[i2], 4 * math.pi, rtol=1e-4)


def test_bracket_ratio_interval_exponential():
    g = make_grid(3, 20.0, 600, 1.0)
    f = RadialField(g, np.exp(-g.nodes))
    ratio = riesz_radial(g, f, 1.0).values / riesz_bracket(g, f, 1.0).values
    assert np.all(ratio >= 0.5) and np.all(ratio <= 13.0)


def test_bracket_two_sided_frozen_interval():
    # calibrated envelope over the test family and the near-Newtonian
    # alpha band in d = 3..5; frozen with margin as a regression bound
    lo_seen, hi_seen = np.inf, 0.0
    for d in (3, 4, 5):
        g = make_grid(d, 18.0, 250, 1.01)
        family = (np.exp(-g.nodes), np.exp(-g.nodes ** 2),
                  (1 + g.nodes ** 2) ** (-float(d)))
        for dalpha in (-0.1, 0.0, 0.1):
            alpha = d - 2 + dalpha
            for vals in family:
                f = RadialField(g, vals)
                ratio = (riesz_radial(g, f, alpha).values
                         / riesz_bracket(g, f, alpha).values)
                lo_seen = min(lo_seen, ratio.min())
                hi_seen = max(hi_seen, ratio.max())
    assert 10.0 <= lo_seen and hi_seen <= 35.0


def test_bracket_requires_decreasing_nonnegative():
    g = make_grid(3, 10.0, 64, 1.0)
    with pytest.raises(RieszError):
        riesz_bracket(g, RadialField(g, g.nodes.copy()), 1.0)
    with pytest.raises(RieszError):
        riesz_bracket(g, RadialField(g, -np.exp(-g.nodes)), 1.0)


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


def test_overlap_examples_and_properties():
    assert overlap_volume(3, 2.0, 1.0, 3.0) == 0.0
    assert overlap_volume(4, 1.0, 2.5, 4.0) == 0.0
    # full containment keeps the exact small-ball volume (with the
    # unit-ball constant, unlike the normalization-free statement)
    assert_allclose(overlap_volume(3, 2.0, 1.0, 0.8), 4 * math.pi / 3)
    assert_allclose(overlap_volume(1, 2.0, 1.0, 2.0), 1.0)

    # d=3 lens closed form
    def lens3(R1, R2, r):
        return (math.pi * (R1 + R2 - r) ** 2
                * (r * r + 2 * r * (R1 + R2) - 3 * (R1 - R2) ** 2) / (12 * r))
    assert_allclose(overlap_volume(3, 2.0, 1.5, 2.2), lens3(2.0, 1.5, 2.2),
                    rtol=1e-12)

    # 1D cap-integral oracle in d = 4
    def cap4(R, a):
        val, _ = quad(lambda x: (R * R - x * x) ** 1.5, a, R)
        return val * ball_volume(3)
    r = 2.0
    a1 = (r * r + 2.0 ** 2 - 1.5 ** 2) / (2 * r)
    want = cap4(2.0, a1) + cap4(1.5, r - a1)
    assert_allclose(overlap_volume(4, 2.0, 1.5, 2.0), want, rtol=1e-10)

    # symmetry and monotonicity in the distance
    assert_allclose(overlap_volume(5, 1.0, 2.0, 1.3),
                    overlap_volume(5, 2.0, 1.0, 1.3), rtol=1e-13)
    rr = np.linspace(0, 4, 40)
    vols = [overlap_volume(3, 2.0, 1.5, float(x)) for x in rr]
    assert np.all(np.diff(vols) <= 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_overlap_scaling_property(d):
    R1, R2, r = 3.0, 1.2, 2.0
    lhs = overlap_volume(d, R1, R2, r)
    rhs = R2 ** d * overlap_volume(d, R1 / R2, 1.0, r / R2)
    assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)


def test_overlap_rejects_negative():
    with pytest.raises(RieszError):
        overlap_volume(3, -1.0, 1.0, 0.5)
    with pytest.raises(RieszError):
        overlap_volume(3, 1.0, 1.0, -0.5)


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
