import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from choquard_lab import (ChoquardParams, GridError, ParameterError,
                          RadialField, RadialGrid, differentiate,
                          integrate_radial, laplacian_sector, make_grid,
                          sector_symmetric, sphere_area)
from choquard_lab.grid import (_fd_weights, _pointwise_rows, band_matvec,
                               kinetic_tridiag, solver_grid)


def test_uniform_grid_construction():
    g = make_grid(3, 10.0, 100, 1.0)
    assert_allclose(g.nodes[1] - g.nodes[0], 0.1)
    assert g.nodes[-1] == 10.0
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.quad_weights > 0)
    # trapezoid weights sum to the interval length
    assert_allclose(g.quad_weights.sum(), 10.0, rtol=1e-12)


def test_stretched_grid_construction():
    g = make_grid(3, 20.0, 200, 1.02)
    assert np.all(np.diff(g.nodes) > 0)
    assert_allclose(g.nodes[-1], 20.0)
    assert_allclose(g.quad_weights.sum(), 20.0, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), r_max=st.floats(1.0, 30.0),
       n=st.integers(16, 400), stretch=st.floats(1.0, 1.03))
def test_quad_weights_are_positive_and_sum_to_r_max(d, r_max, n, stretch):
    # d = 1 moves half the first cell from the fence to the origin side
    g = make_grid(d, r_max, n, stretch)
    assert np.all(g.quad_weights > 0)
    assert_allclose(g.quad_weights.sum(), r_max, rtol=1e-12)


def test_d1_grid_for_model_oracle():
    g = make_grid(1, 15.0, 128, 1.0)
    assert g.d == 1
    assert g.n == 128
    assert np.all(g.quad_weights > 0)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(GridError):
        make_grid(3, -1.0, 100)
    with pytest.raises(GridError):
        make_grid(3, 10.0, 8)
    with pytest.raises(GridError):
        make_grid(3, 10.0, 100, 0.9)
    with pytest.raises(GridError):
        make_grid(0, 10.0, 100)


@pytest.mark.parametrize("r_max,n,stretch,match", [
    (25.0, 1200, 25.0, "stretch\\*\\*n overflows"),
    (25.0, 1800, 1.5, "stretch\\*\\*n overflows"),
    (1e300, 600, 1.5, "not positive and strictly increasing"),
    (1e-300, 100, 1e3, "not positive and strictly increasing"),
    # 25 ** 80 is finite, but the stencil denominators underflow
    (25.0, 80, 25.0, "stencils underflow"),
    (1e-110, 100, 1.0, "stencils underflow"),
])
def test_make_grid_rejects_overflowing_stretch(r_max, n, stretch, match):
    # stretch is per cell: solver_grid's total stretch 25 at n = 1200 is
    # 25 ** (1 / 1199) per cell, and 25 ** 1200 overflows
    with pytest.raises(GridError, match=match) as err:
        make_grid(3, r_max, n, stretch)
    assert "per cell" in str(err.value)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_monomial_quadrature(d, k):
    g = make_grid(d, 10.0, 200, 1.0)
    val = integrate_radial(g, RadialField(g, g.nodes ** k))
    exact = sphere_area(d) * 10.0 ** (k + d) / (k + d)
    assert abs(val / exact - 1.0) <= 1e-6


def test_integrate_unit_ball_indicator():
    # Monte-Carlo oracle for the ball volume
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(400000, 3))
    mc = np.mean(np.sum(pts ** 2, axis=1) <= 1.0) * 8.0
    exact = 4.0 * np.pi / 3.0
    assert abs(mc - exact) < 4 * 8.0 * np.sqrt(0.52 * 0.48 / 400000)

    g = make_grid(3, 2.0, 4000, 1.0)
    vals = np.where(g.nodes < 1.0, 1.0, 0.0)
    j = np.argmin(np.abs(g.nodes - 1.0))
    assert abs(g.nodes[j] - 1.0) < 1e-12
    vals[j] = 0.5  # mean-value convention at the jump node
    val = integrate_radial(g, RadialField(g, vals))
    assert_allclose(val, exact, rtol=1e-5)


def test_integrate_exponential():
    g = make_grid(3, 40.0, 2000, 1.0)
    val = integrate_radial(g, RadialField(g, np.exp(-g.nodes)))
    assert_allclose(val, 8.0 * np.pi, rtol=1e-8)


def test_integrate_zero():
    g = make_grid(4, 12.0, 64, 1.01)
    assert integrate_radial(g, RadialField(g, np.zeros(g.n))) == 0.0


def test_laplacian_gaussian_pointwise():
    g = make_grid(3, 8.0, 200, 1.0)
    f = RadialField(g, np.exp(-g.nodes ** 2))
    got = laplacian_sector(g, f, 0).values
    # symbolic: -Laplacian exp(-r^2) = (6 - 4 r^2) exp(-r^2) in d = 3
    exact = (6 - 4 * g.nodes ** 2) * np.exp(-g.nodes ** 2)
    assert np.max(np.abs(got - exact)) < 2e-2
    # the first-node value continues to the origin limit 6 as h -> 0
    fine = make_grid(3, 8.0, 1600, 1.0)
    got0 = laplacian_sector(fine, RadialField(
        fine, np.exp(-fine.nodes ** 2)), 0).values[0]
    assert abs(got0 - 6.0) < 3e-3


def test_laplacian_second_order_convergence():
    errs = []
    for n in (100, 200, 400):
        g = make_grid(3, 8.0, n, 1.0)
        f = RadialField(g, np.exp(-g.nodes ** 2))
        exact = (6 - 4 * g.nodes ** 2) * np.exp(-g.nodes ** 2)
        errs.append(np.max(np.abs(laplacian_sector(g, f, 0).values - exact)))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


@pytest.mark.parametrize("d", [3, 5])
def test_coordinate_function_harmonic(d):
    g = make_grid(d, 8.0, 100, 1.0)
    f = RadialField(g, g.nodes.copy())
    out = laplacian_sector(g, f, 1).values
    assert np.max(np.abs(out)) < 1e-10


def test_constants_harmonic():
    g = make_grid(4, 8.0, 100, 1.02)
    out = laplacian_sector(g, RadialField(g, np.ones(g.n)), 0).values
    assert np.max(np.abs(out)) < 1e-10


def test_laplacian_rejects_negative_sector():
    # and what else is no sector: d = 1 has the even and the odd sector
    # only; l(l+1) of the 201-digit l is no float, l(l+1)/r_0^2 of the
    # 155-digit one overflows, and at d = 10 l(l+8) m_i/r_i^2 of the
    # 153-digit one overflows although l(l+8)/r_0^2 does not
    for d, ell in [(3, -1), (3, 1.0), (1, 2), (3, 10 ** 200),
                   (3, 10 ** 154), (10, 10 ** 152)]:
        g = make_grid(d, 8.0, 64, 1.0)
        with np.errstate(all="raise"):
            with pytest.raises(GridError, match="sector"):
                laplacian_sector(g, RadialField(g, np.ones(g.n)), ell)
            with pytest.raises(GridError, match="sector"):
                sector_symmetric(g, ell)


def test_grid_mismatch_raises():
    g1 = make_grid(3, 8.0, 64, 1.0)
    g2 = make_grid(3, 9.0, 64, 1.0)
    f = RadialField(g2, np.ones(64))
    with pytest.raises(GridError):
        integrate_radial(g1, f)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ell", [0, 1])
def test_weighted_symmetry(d, ell):
    # the band is symmetric: its sub- and superdiagonal rows agree
    g = make_grid(d, 20.0, 150, 1.02)
    ab = sector_symmetric(g, ell)
    defect = np.max(np.abs(ab[0, 1:] - ab[2, :-1])) / np.max(np.abs(ab))
    assert defect < 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), ell=st.integers(0, 1),
       stretch=st.floats(1.0, 1.05), n=st.integers(16, 200),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_band_is_the_flux_form(d, ell, stretch, n, seed):
    # v^T (band v) is the flux energy of u = v / sqrt(m), written out cell
    # by cell from the finite-volume closure
    g = make_grid(d, 20.0, n, stretch)
    r, h, m = g.nodes, g.spacings(), g.measure
    v = np.random.default_rng(seed).standard_normal(n)
    u = v / np.sqrt(m)
    flux = (0.5 * (r[1:] + r[:-1])) ** (d - 1) / h[1:]
    energy = np.sum(flux * np.diff(u) ** 2)
    if ell >= 1:
        energy += (0.5 * r[0]) ** (d - 1) / h[0] * u[0] ** 2
    energy += (r[-1] + 0.5 * h[0]) ** (d - 1) / h[0] * u[-1] ** 2
    energy += ell * (ell + d - 2) * np.sum(m * u ** 2 / r ** 2)
    got = v @ band_matvec(sector_symmetric(g, ell), v)
    assert abs(got - energy) <= 1e-12 * energy


def test_differentiate_fourth_order():
    g = make_grid(3, 10.0, 400, 1.005)
    du = differentiate(g, np.exp(-g.nodes))
    assert np.max(np.abs(du + np.exp(-g.nodes))) < 1e-8


def _fornberg_oracle(z, x, m):
    """Scalar Fornberg recursion for the m-th derivative at z from nodes x,
    one stencil at a time (Math. Comp. 51, 1988)."""
    n = x.size
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _stencil_table(n, k):
    lo = np.clip(np.arange(n) - k // 2, 0, n - k)
    return lo[:, None] + np.arange(k)


def _layouts(n):
    return [make_grid(3, 10.0, n, 1.0), make_grid(3, 10.0, n, 1.03),
            solver_grid(3, 25.0, n)]


@pytest.mark.parametrize("n", [16, 80, 700])
@pytest.mark.parametrize("order", [1, 2])
def test_rowwise_fd_weights_match_scalar_oracle_bitwise(n, order):
    for g in _layouts(n):
        r = g.nodes
        idx = _stencil_table(n, 5)
        w = _fd_weights(r, r[idx], order)
        oracle = np.array([_fornberg_oracle(r[i], r[idx[i]], order)
                           for i in range(n)])
        assert w.shape == (n, 5)
        assert np.array_equal(w, oracle)


@pytest.mark.parametrize("n", [16, 80, 700])
@pytest.mark.parametrize("order", [1, 2])
def test_differentiate_matches_per_node_oracle(n, order):
    rng = np.random.default_rng(n + order)
    for g in _layouts(n):
        r = g.nodes
        idx = _stencil_table(n, 5)
        for v in (np.exp(-r ** 2), rng.standard_normal(n)):
            got = differentiate(g, v, order)
            for i in range(n):
                w = _fornberg_oracle(r[i], r[idx[i]], order)
                scale = np.sum(np.abs(w) * np.abs(v[idx[i]]))
                assert abs(got[i] - w @ v[idx[i]]) <= 1e-13 * scale


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 5), r_max=st.floats(1.0, 30.0),
       n=st.integers(16, 300), stretch=st.floats(1.0, 1.02),
       order=st.sampled_from([1, 2]))
def test_grid_constants_are_derived_once_per_grid(d, r_max, n, stretch,
                                                  order):
    g = make_grid(d, r_max, n, stretch)
    r = g.nodes
    v = np.random.default_rng(n).standard_normal(n)
    idx = _stencil_table(n, 5)
    w = _fd_weights(r, r[idx], order)
    uncached = (w[:, None, :] @ v[idx][:, :, None])[:, 0, 0]
    for _ in range(2):      # the first call derives, the second reuses
        assert np.array_equal(differentiate(g, v, order), uncached)
    band = _pointwise_rows(g, 0, 0.0)
    band[1] += 1.0
    assert kinetic_tridiag(g, 0) is kinetic_tridiag(g, 0)
    assert np.array_equal(kinetic_tridiag(g, 0), band)
    held = [g._constants["stencil_index"], g._constants[("fd_weights", order)],
            kinetic_tridiag(g, 0)]
    assert np.array_equal(held[0], idx) and np.array_equal(held[1], w)
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1
    for other in (g.refined(), RadialGrid.from_dict(g.to_dict())):
        differentiate(other, np.ones(other.n), order)
        mine = other._constants[("fd_weights", order)]
        assert mine is not held[1] and kinetic_tridiag(other, 0) is not held[2]
        assert np.array_equal(mine, _fd_weights(other.nodes, other.nodes[
            _stencil_table(other.n, 5)], order))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 5), r_max=st.floats(1.0, 30.0),
       n=st.integers(16, 400), stretch=st.floats(1.0, 1.01),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
@example(d=1, r_max=1.0, n=16, stretch=1.0, coeffs=[0.0, 5e-324])
def test_five_point_derivative_exact_on_quartics(d, r_max, n, stretch, coeffs):
    g = make_grid(d, r_max, n, stretch)
    x = g.nodes / r_max   # keeps the monomials of one size
    poly = np.polynomial.Polynomial(coeffs)
    got = differentiate(g, poly(x))
    exact = poly.deriv()(x) / r_max
    # floored at the smallest normal float: with subnormal coefficients
    # the scale, and with it the bound, would underflow to 0
    scale = max(np.max(np.abs(exact)) + np.max(np.abs(poly(x))) / r_max,
                np.finfo(float).tiny)
    assert np.max(np.abs(got - exact)) <= 1e-9 * scale


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_laplacian_fence_row_matches_oracle(ell):
    for g in _layouts(80):
        r, d = g.nodes, g.d
        v = np.exp(-r / 4)
        out = laplacian_sector(g, RadialField(g, v), ell).values
        w2 = _fornberg_oracle(r[-1], r[-3:], 2)
        w1 = _fornberg_oracle(r[-1], r[-3:], 1)
        kappa = ell * (ell + d - 2)
        fence = (-(w2 @ v[-3:]) - (d - 1) / r[-1] * (w1 @ v[-3:])
                 + kappa / r[-1] ** 2 * v[-1])
        assert out[-1] == fence


def test_params_validation_and_windows():
    with pytest.raises(ParameterError):
        ChoquardParams(3, 3.5, 2.0)
    with pytest.raises(ParameterError):
        ChoquardParams(3, 1.0, 0.5)
    with pytest.raises(ParameterError):
        ChoquardParams(0, 0.5, 2.0)
    par = ChoquardParams(3, 1.0, 2.0)
    assert par.in_existence_window  # 1/2 >= 1/2 > 1/5
    assert not ChoquardParams(3, 1.0, 1.2).in_existence_window  # p < 2
    assert not ChoquardParams(5, 1.0, 3.1).in_existence_window  # 3p > 9
    assert par.near_newtonian(0.0)
    assert ChoquardParams(3, 1.02, 2.02).near_newtonian(0.025)
    assert not ChoquardParams(3, 1.02, 2.02).near_newtonian(0.01)
    assert not ChoquardParams(3, 0.9, 2.0).near_newtonian(0.05)
    assert not ChoquardParams(3, 1.0, 1.99).near_newtonian(0.05)


def test_field_flags_and_roundtrip(tmp_path):
    g = make_grid(3, 10.0, 100, 1.0)
    f = RadialField(g, np.exp(-g.nodes))
    assert f.is_radially_decreasing()
    f2 = RadialField(g, np.sin(g.nodes))
    assert not f2.is_radially_decreasing()

    path = tmp_path / "f.csv"
    f.to_csv(path)
    back = RadialField.from_csv(path, grid=g)
    assert_allclose(back.values, f.values, rtol=0, atol=0)


def test_from_csv_rebuilds_the_grid_of_a_dimension(tmp_path):
    g = make_grid(4, 12.0, 120, 1.02)
    path = tmp_path / "f.csv"
    RadialField(g, np.exp(-g.nodes)).to_csv(path)
    back = RadialField.from_csv(path, 4)
    assert back.grid.d == 4
    # the d = 4 weights, not those of d = 1 (first and last differ)
    assert_allclose(back.grid.quad_weights, g.quad_weights, rtol=1e-9)
    assert_allclose(back.grid.nodes, g.nodes, rtol=1e-12)
    bent = g.nodes.copy()
    bent[60] += 1e-3
    RadialField(RadialGrid(4, bent, g.quad_weights, g.r_max, g.stretch),
                np.exp(-bent)).to_csv(path)
    with pytest.raises(GridError, match="resample the profile"):
        RadialField.from_csv(path, 4)


def test_to_csv_failure_keeps_the_old_file(tmp_path, monkeypatch):
    g = make_grid(3, 10.0, 100, 1.0)
    path = tmp_path / "Q.csv"
    RadialField(g, np.exp(-g.nodes)).to_csv(path)
    old = path.read_bytes()
    real = np.savetxt

    def half_then_fail(fh, data, **kwargs):
        real(fh, data[:3], **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(np, "savetxt", half_then_fail)
    with pytest.raises(OSError):
        RadialField(g, np.zeros(g.n)).to_csv(path)
    assert path.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_wrong_length_field():
    g = make_grid(3, 10.0, 100, 1.0)
    with pytest.raises(GridError):
        RadialField(g, np.ones(50))
