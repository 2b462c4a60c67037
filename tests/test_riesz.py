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
    (d-1)/2+l; d-1+2l; z), z = 4rs/(r+s)^2, c_l = (alpha/2)_l / (d/2)_l,
    at 60 digits (not the transformed form the package sums).  Two floats
    one ulp apart give 1 - z = ((r-s)/(r+s))^2 near 1e-33, so 30 digits
    would round z to 1."""
    with mpmath.workdps(60):
        r, s, a = mpmath.mpf(r), mpmath.mpf(s), mpmath.mpf(alpha)
        z = 4 * r * s / (r + s) ** 2
        c = mpmath.rf(a / 2, ell) / mpmath.rf(mpmath.mpf(d) / 2, ell)
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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_kernel_values_at_the_largest_sector_against_mpmath(d):
    # the connection formula (y^2 > 3/4) loses digits as l grows, and
    # _check_request refuses every l above _MAX_SECTOR: at l = 7 this
    # fails at d = 5 and 6 (1.3e-12), at l = 8 also at d = 3 and 4.
    # Pairs below y^2 = 3/4 (s/r <= 0.268) and in the band, down to the
    # straddling cells' s/r = 0.75; alpha 0.15 or more from a log point
    # (nearer one the loss is ROADMAP item 2's).  Worst measured: 6.3e-13
    ell = riesz._MAX_SECTOR
    for alpha in (0.37, d - 1.17, d - 0.85):
        for r in (0.07, 1.3, 9.0):
            for rho in (0.01, 0.2, 0.26, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99,
                        1 - 1e-6, 1.0):
                if rho == 1.0 and alpha >= d - 1:
                    continue
                got = _kernel_values(d, ell, alpha, np.array([r, r * rho]),
                                     np.array([r * rho, r]))
                want = kernel_mpmath(d, ell, alpha, r, r * rho)
                assert_allclose(got, [want, want], rtol=1e-12)


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
            # (d-1-alpha)/2 is the same integer at alpha + 1 in d = 5
            g5 = make_grid(5, 8.0, 60, 1.02)
            assert np.all(np.isfinite(sector_kernel(g5, alpha + 1.0, ell)))
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


def interpolant_at_zero_mpmath(grid, values, alpha):
    """|S^{d-1}| int s^{d-1-alpha} f(s) ds of the per-cell quadratic
    interpolant f at 40 digits: the monomial coefficients of each cell's
    Lagrange stencil, integrated term by term."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(t)) for t in grid.nodes]
        v = [mpmath.mpf(float(t)) for t in values]
        n, E = len(x), grid.d - 1 - mpmath.mpf(alpha)
        total, a = mpmath.mpf(0), mpmath.mpf(0)
        for j, b in enumerate(x):
            j0 = min(max(j - 1, 0), n - 3)
            c = [mpmath.mpf(0)] * 3
            for m in range(3):
                xm, (o1, o2) = x[j0 + m], [x[j0 + k] for k in range(3)
                                           if k != m]
                w = v[j0 + m] / ((xm - o1) * (xm - o2))
                c[0] += w * o1 * o2
                c[1] -= w * (o1 + o2)
                c[2] += w
            total += sum(c[k] * (b ** (E + k + 1) - a ** (E + k + 1))
                         / (E + k + 1) for k in range(3))
            a = b
        return sphere_area(grid.d) * float(total)


@pytest.mark.parametrize("grid,alpha", [
    (solver_grid(1, 25.0, 600), 0.5),
    (solver_grid(3, 25.0, 1200), 1.0),
    (make_grid(3, 30.0, 1500, 1.002), 1.0),
    (solver_grid(5, 25.0, 600), 2.97),
], ids=["d1", "d3", "d3-criterion-3", "d5"])
def test_potential_at_origin_against_mpmath(grid, alpha):
    # the thin far cells cost no digits: each cell is written in its far
    # end's variable, not in monomials of s
    for f in (np.exp(-grid.nodes ** 2), np.exp(-grid.nodes)):
        got = riesz_at_zero(grid, RadialField(grid, f), alpha)
        assert_allclose(got, interpolant_at_zero_mpmath(grid, f, alpha),
                        rtol=1e-14)


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
    cell split at s = r_i.  At d = 1, K_l = |s-r|^{-alpha} +- (s+r)^{-alpha},
    and quad's algebraic weight takes the cusp |s-r_i|^{-alpha}."""
    x = g.nodes
    edges = np.concatenate([[0.0], x])
    j0 = np.clip(np.arange(g.n) - 1, 0, g.n - 3)
    total = 0.0
    for c in np.flatnonzero((j0 <= j) & (j <= j0 + 2)):
        u, v = (x[j0[c] + k] for k in range(3) if j0[c] + k != j)

        def lj(s):
            return (s - u) * (s - v) / ((x[j] - u) * (x[j] - v))

        def integrand(s):
            if g.d == 1:
                return (-1.0) ** ell * (s + x[i]) ** -alpha * lj(s)
            k = float(_kernel_values(g.d, ell, alpha, x[i], s))
            return k * s ** (g.d - 1) * lj(s)
        a, b = edges[c], edges[c + 1]
        cuts = [a, x[i], b] if a < x[i] < b else [a, b]
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        for p, q in zip(cuts[:-1], cuts[1:]):
            total += quad(integrand, p, q, **opts)[0]
            if g.d == 1 and x[i] in (p, q):
                # the weight (s-p)^-alpha or (q-s)^-alpha
                wvar = (-alpha, 0.0) if p == x[i] else (0.0, -alpha)
                total += quad(lj, p, q, weight="alg", wvar=wvar, **opts)[0]
            elif g.d == 1:
                total += quad(lambda s: abs(s - x[i]) ** -alpha * lj(s),
                              p, q, **opts)[0]
    return total


@pytest.mark.parametrize("d,ell,method", [
    (2, 0, "angular"), (2, 1, "angular"), (3, 0, "angular"),
    (3, 1, "angular"), (4, 0, "angular"), (4, 1, "angular"),
    (5, 0, "angular"), (5, 1, "angular"), (6, 0, "angular"),
    (6, 1, "angular"), (2, 2, "angular"), (3, 2, "angular"),
    (4, 3, "angular"), (5, 4, "angular"), (3, 4, "angular"),
    (3, 0, "exact"), (1, 0, "exact"), (1, 1, "exact")])
def test_application_entries_against_quadrature_oracle(d, ell, method):
    # smooth inputs hide entry errors, which telescope in W f; 20 seeded
    # entries, half of them within two columns of the diagonal, and in 4
    # rows the columns on both sides of each band edge: the last far
    # column before the band and the first after it, whose cells lie
    # wholly outside rho_0 r < s < r / rho_0, and the band columns beside
    # them, whose cells straddle rho_0 r and r / rho_0.  Worst measured:
    # 3.7e-15 max|W| (angular); 3.3e-15 (exact, d = 3) and 1.3e-13 (d = 1)
    g = solver_grid(d, 25.0, 200)
    lo, hi, *_ = riesz._far_columns(riesz._CellRule(g), g.nodes)
    rng = np.random.default_rng(12)
    rows = rng.integers(0, g.n, 20)
    cols = np.concatenate([rng.integers(0, g.n, 10),
                           np.clip(rows[10:] + rng.integers(-2, 3, 10),
                                   0, g.n - 1)])
    idx = list(zip(rows, cols))
    for i in (1, 40, 120, 190):
        assert lo[i] < i < hi[i]
        idx += [(i, j) for j in (lo[i], lo[i] + 1, hi[i] - 1, hi[i])
                if 0 <= j < g.n]
    for alpha in ((0.3, 0.6, 0.97) if d == 1
                  else (d - 2 - 0.03 if d > 2 else 0.6,)):
        W = riesz_apply_matrix(g, alpha, ell, method)
        worst = max(abs(W[i, j] - _entry_oracle(g, alpha, ell, i, j))
                    for i, j in idx)
        assert worst <= (1e-12 if d == 1 else 1e-11) * np.max(np.abs(W))


@pytest.mark.parametrize("n,alpha", [
    (200, 0.97), (700, 0.97), (1200, 0.97),
    (700, 1.996), (700, 2.0 + 1e-11), (700, 2.003)])
def test_exact_route_entries_agree_with_angular(n, alpha):
    # the two routes differ only in the band's kernel values; within
    # _LOG_STEP/2 of alpha = 2 both are the interpolant in alpha.
    # Measured at most 6.9e-16 max|W| at alpha = 0.97, 6.8e-15 near 2
    g = solver_grid(3, 25.0, n)
    We = riesz_apply_matrix(g, alpha, 0, "exact")
    Wa = riesz_apply_matrix(g, alpha, 0, "angular")
    tol = 1e-14 if alpha == 0.97 else 1e-13
    assert np.max(np.abs(We - Wa)) <= tol * np.max(np.abs(Wa))


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
    # Measured 6e-16 (newton) and 3.3e-16 (exact)
    g = make_grid(3, 8.0, 240, 1.0)
    got = riesz_apply_matrix(g, 1.0, 0, method) @ np.ones(g.n)
    assert_allclose(got, 2 * math.pi * (64.0 - g.nodes ** 2 / 3), rtol=1e-14)


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


@pytest.mark.parametrize("method", ["exact", "angular"])
def test_band_assembly_holds_its_temporaries_in_blocks(monkeypatch, method):
    # the band goes in row blocks of _BAND_PIECES cells and the Gauss
    # branch of the far moments in chunks; measured 1.78 W.nbytes for both
    # routes (the far moments' peak), against 5.1 for an unblocked band
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    clear_caches()
    g = solver_grid(3, 25.0, 1200)
    tracemalloc.start()
    try:
        W = riesz_apply_matrix(g, 0.97, 0, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert peak <= 2 * W.nbytes


@pytest.mark.parametrize("ell", [0, 1])
def test_sector_kernel_holds_its_temporaries(ell):
    # the far field goes one octave of rows at a time and the band's 2F1
    # samples in one call; measured 1.85 K.nbytes at l = 0
    g = solver_grid(3, 25.0, 1200)
    tracemalloc.start()
    try:
        K = sector_kernel(g, 0.97, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * K.nbytes


def _scaling_holds(d, method, ell, alpha, r_max, stretch):
    # (|.|^-alpha * f(./2))(2r) = 2^(d-alpha) (|.|^-alpha * f)(r), and
    # doubling r_max doubles every node exactly: W on the doubled grid is
    # 2^(d-alpha) W, entry by entry
    g = make_grid(d, r_max, 60, stretch)
    g2 = make_grid(d, 2.0 * r_max, 60, stretch)
    assert np.array_equal(g2.nodes, 2.0 * g.nodes)
    W = 2.0 ** (d - alpha) * riesz_apply_matrix(g, alpha, ell, method)
    # at d = 1 no s^{d-1} weights the clipped origin stencil, and W[1, 1]
    # can cancel to 2e-4 of its cell integrals, so its rounding is taken
    # against max|W|
    atol = 1e-15 * np.max(np.abs(W)) if d == 1 else 0.0
    assert_allclose(riesz_apply_matrix(g2, alpha, ell, method), W,
                    rtol=1e-13, atol=atol)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 3, 4, 5, 6]), frac=st.floats(0.01, 0.99),
       r_max=st.floats(1.0, 30.0), stretch=st.floats(1.0, 1.03))
def test_application_operator_riesz_scaling(d, frac, r_max, stretch):
    # within _LOG_STEP/2 of a log point the band is the interpolant in
    # alpha, whose nodes scale as 2^-alpha_k; exact and angular share the
    # far field and the band layout, so the exact route takes the scaling
    # as the angular does (measured 1.6e-14 at d = 3, 2.6e-14 at d = 1,
    # l = 1, entry by entry)
    if d > 1:
        _scaling_holds(d, "newton", 0, d - 2.0, r_max, stretch)
    alpha = frac * d
    assume(riesz._log_nodes(d, alpha) is None)
    routes = [("exact", 0), ("exact", 1)] if d == 1 else [("angular", 0)]
    if d == 3:
        routes.append(("exact", 0))
    for method, ell in routes:
        _scaling_holds(d, method, ell, alpha, r_max, stretch)


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
    # blocks of one row, and one block of all rows, give the same bits:
    # W's band by _BAND_PIECES, 7 cells (so one row) at a time or all at
    # once; at alpha = 2 the d = 3 band is an interpolant in alpha.  W's
    # far field is one product per octave, whatever the block
    monkeypatch.delenv("CHOQUARD_LAB_CACHE", raising=False)
    g = make_grid(3, 8.0, 40, 1.02)
    g1 = make_grid(1, 8.0, 40, 1.02)
    g4 = make_grid(4, 8.0, 40, 1.02)

    def assemble():
        clear_caches()
        return [riesz_apply_matrix(g, 1.0, 0, "newton"),
                riesz_apply_matrix(g, 1.3, 0, "exact"),
                riesz_apply_matrix(g1, 0.6, 1, "exact"),
                riesz_apply_matrix(g, 1.3, 1, "angular"),
                riesz_apply_matrix(g, 2.0, 0, "exact"),
                riesz_apply_matrix(g4, 1.9, 0, "angular"),
                riesz_apply_matrix(g4, 1.9, 1, "angular"),
                riesz_apply_matrix(g4, 1.0, 1, "angular")]

    monkeypatch.setattr(riesz, "_BAND_PIECES", 7)
    by_row = assemble()
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
    # writes each entry to both triangles, and its far entries (the
    # separable series) agree with the 2F1 samples to rounding
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


def funk_hecke(d, ell, alpha, r, s):
    """K_l(r, s) = |S^{d-2}| int_0^pi |x - y|^{-alpha} P_l(cos th)
    sin^{d-2} th dth at 30 digits, P_l the Gegenbauer polynomial
    C_l^{(d-2)/2} scaled to 1 at 1, cos(l th) at d = 2.  In the angle
    variable the weight has no endpoint singularity; the peak of
    |x - y|^{-alpha} at th = 0, of width |r - s| / sqrt(rs), is split
    off."""
    with mpmath.workdps(30):
        r, s, a = mpmath.mpf(r), mpmath.mpf(s), mpmath.mpf(alpha)
        lam = mpmath.mpf(d - 2) / 2

        def f(th):
            dist2 = (r - s) ** 2 + 4 * r * s * mpmath.sin(th / 2) ** 2
            P = (mpmath.cos(ell * th) if d == 2 else
                 mpmath.gegenbauer(ell, lam, mpmath.cos(th))
                 / mpmath.gegenbauer(ell, lam, 1))
            return dist2 ** (-a / 2) * P * mpmath.sin(th) ** (d - 2)
        width = abs(r - s) / mpmath.sqrt(r * s)
        cuts = [width * 10 ** k for k in range(3) if 0 < width * 10 ** k < 1]
        return float(sphere_area(d - 1) * mpmath.quad(f, [0, *cuts, mpmath.pi]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_sector_kernel_against_funk_hecke(d, ell):
    # the sectors l >= 2 take the l = 0, 1 formulas with c_l = (alpha/2)_l
    # / (d/2)_l; alpha 0.37 or more from a log point d - 1 - 2m, and next
    # to the Newtonian exponent (0.6 at d = 2).  Band entries: the
    # diagonal, its neighbour and the last band column; far entries: the
    # first far column and the far corner
    g = solver_grid(d, 25.0, 300)
    r = g.nodes
    far = np.searchsorted(riesz._RHO_FAR * r, r)
    for alpha in ((0.6, 0.63) if d == 2 else (d - 2.03, d - 1.37)):
        K = sector_kernel(g, alpha, ell)
        idx = [(i, j) for i in (10, 150) for j in (i, i + 1, far[i] - 1,
                                                   far[i])] + [(0, g.n - 1)]
        want = [funk_hecke(d, ell, alpha, r[i], r[j]) for i, j in idx]
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
        sector_kernel(g, 2.0, 2)


@pytest.mark.parametrize("d,ell", [(3, -1), (3, 1.5), (3, 1.0), (3, True),
                                   (1, 2), (3, 7), (6, 7), (3, 67), (3, 100)])
def test_a_sector_that_is_not_one_raises(d, ell):
    # l is an int >= 0 but no bool (True would run as l = 1, and name a
    # disk-cache file of its own), at most 1 at d = 1, and at most
    # _MAX_SECTOR = 6; on solver_grid(3, 25, 600) the powers of r in K_l
    # pass the double range beyond l = 66, and at l = 100 the unguarded
    # kernel was NaN
    g = solver_grid(d, 25.0, 600)
    with np.errstate(all="raise"):
        for build in (lambda: riesz_apply_matrix(g, 0.97, ell),
                      lambda: sector_kernel(g, 0.97, ell)):
            with pytest.raises(RieszError, match="sector"):
                build()


def test_the_largest_sector_on_the_grid_is_finite():
    g = solver_grid(3, 25.0, 600)
    ell = riesz._MAX_SECTOR
    assert np.all(np.isfinite(riesz_apply_matrix(g, 0.97, ell)))
    assert np.all(np.isfinite(sector_kernel(g, 0.97, ell)))


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
    prefix = f"riesz_{riesz._source_digest()}_"
    assert path.name.startswith(prefix)
    # the route stays the file name's last field
    assert path.stem.rsplit("_", 1)[-1] == "exact"
    # a well-formed matrix under the undigested name of the same key
    old = path.with_name("riesz_" + path.name[len(prefix):])
    np.save(old, np.zeros((g.n, g.n)))
    path.unlink()
    clear_caches()
    assert_allclose(riesz_apply_matrix(g, 1.25), fresh, rtol=0, atol=0)
    assert path.exists()
    clear_caches()


def test_disk_cache_ignores_files_of_other_source(tmp_path, monkeypatch):
    # a change to the assembly's source changes the digest that leads the
    # file name, so the file the old code wrote (here a well-formed zero
    # matrix) is not read
    g = make_grid(3, 8.0, 64, 1.0)
    monkeypatch.setenv("CHOQUARD_LAB_CACHE", str(tmp_path))
    clear_caches()
    fresh = riesz_apply_matrix(g, 1.25)
    (old,) = tmp_path.glob("riesz_*.npy")
    np.save(old, np.zeros((g.n, g.n)))
    digest = riesz._source_digest()
    monkeypatch.setattr(riesz, "_source_digest", lambda: "0" * len(digest))
    clear_caches()
    assert_allclose(riesz_apply_matrix(g, 1.25), fresh, rtol=0, atol=0)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [old.name, old.name.replace(digest, "0" * len(digest))])
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
