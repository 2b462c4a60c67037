import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from choquard_lab import (ChoquardParams, ConvergenceError, FitError,
                          GroundState, ModelParams, ParameterError,
                          RadialField, SolverOptions, fit_decay, make_grid,
                          model_soliton, solve_choquard, solve_model,
                          solver_grid, state_from_field)
from choquard_lab.grid import kinetic_tridiag
from choquard_lab.riesz import riesz_apply_matrix
from choquard_lab import solver
from choquard_lab.solver import (_initial_gaussian, _krylov_step,
                                 _newton_refine, _petviashvili,
                                 equation_residual, linearized_matrix,
                                 tridiag_solver)


def test_model_d1_matches_soliton_family(state_model_d1_p3):
    st = state_model_d1_p3
    grid = st.grid
    mask = grid.nodes <= 10.0
    exact = model_soliton(3.0, grid.nodes)
    # closed form solves the ODE: amp = sqrt(2), Q = sqrt(2) sech(r)
    assert_allclose(model_soliton(3.0, np.array([0.0]))[0], np.sqrt(2.0),
                    rtol=1e-15)
    assert np.max(np.abs(st.field.values[mask] - exact[mask])) <= 1e-5
    assert st.residual <= 1e-10
    # |Q|_{L2}^2 = int 2 sech^2 = 4 over the line
    assert abs(st.norms["L2"] ** 2 - 4.0) <= 1e-5


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_model_d1_other_exponents(p):
    grid = make_grid(1, 15.0, 1200, 1.0)
    st = solve_model(1, p, grid)
    exact = model_soliton(p, grid.nodes)
    mask = grid.nodes <= 10.0
    assert np.max(np.abs(st.field.values[mask] - exact[mask])) <= 1e-5


def test_model_p2_center_value():
    grid = make_grid(1, 15.0, 1500, 1.0)
    st = solve_model(1, 2.0, grid)
    # Q(r) = (3/2) sech^2(r/2), Q(0) = 3/2
    q0 = model_soliton(2.0, np.array([grid.nodes[0]]))[0]
    assert abs(st.field.values[0] - q0) <= 1e-6


def test_model_d3_identity_ratio():
    grid = solver_grid(3, 25.0, 900)
    # the sup-norm residual floor scales like roundoff/h0^2; 1e-9 is
    # comfortably above it on this stretched grid
    st = solve_model(3, 3.0, grid, SolverOptions(tol=1e-9))
    ratio = (st.norms["grad_L2"] / st.norms["L2"]) ** 2
    assert abs(ratio - 3.0) <= 1e-3  # d(p-1)/((d+2)-p(d-2)) = 6/2


def test_model_rejects_supercritical():
    grid = solver_grid(3, 20.0, 300)
    with pytest.raises(ParameterError):
        solve_model(3, 5.0, grid)
    with pytest.raises(ParameterError):
        ModelParams(4, 3.0)
    ModelParams(2, 7.0)  # any p > 1 fine for d <= 2


def test_choquard_312_ratio(state_312):
    st = state_312
    ratio = (st.norms["grad_L2"] / st.norms["L2"]) ** 2
    assert abs(ratio - 1.0 / 3.0) <= 1e-3
    assert st.residual <= 1e-10


def test_choquard_322_ratio():
    grid = solver_grid(3, 25.0, 800)
    st = solve_choquard(ChoquardParams(3, 2.0, 2.0), grid)
    ratio = (st.norms["grad_L2"] / st.norms["L2"]) ** 2
    assert abs(ratio - 1.0) <= 1e-3


def test_profile_invariants(state_312):
    vals = state_312.field.values
    assert np.all(vals > 0)
    assert state_312.field.is_radially_decreasing(tol=1e-12 * vals.max())


def test_window_violation_raises():
    with pytest.raises(ParameterError):
        solve_choquard(ChoquardParams(3, 1.0, 1.5), solver_grid(3, 20.0, 300))
    with pytest.raises(ParameterError):  # 1/p <= (d-2)/(2d-alpha)
        solve_choquard(ChoquardParams(5, 1.0, 3.5), solver_grid(5, 20.0, 300))


def test_nonconvergence_reports_residual():
    grid = solver_grid(3, 25.0, 300)
    opts = SolverOptions(tol=1e-10, max_iter=2)
    with pytest.raises(ConvergenceError) as err:
        solve_choquard(ChoquardParams(3, 1.0, 2.0), grid, opts)
    assert err.value.last_residual is not None
    assert err.value.last_residual > 0


def test_grid_refinement_stability():
    s1 = solve_choquard(ChoquardParams(3, 1.0, 2.0), solver_grid(3, 25.0, 400))
    s2 = solve_choquard(ChoquardParams(3, 1.0, 2.0), solver_grid(3, 25.0, 800))
    assert abs(s1.norms["L2"] - s2.norms["L2"]) / s2.norms["L2"] <= 1e-3


def test_rmax_doubling_stability():
    # uniform grids with identical spacing isolate the truncation effect
    s1 = solve_choquard(ChoquardParams(3, 1.0, 2.0),
                        make_grid(3, 25.0, 500, 1.0))
    s2 = solve_choquard(ChoquardParams(3, 1.0, 2.0),
                        make_grid(3, 50.0, 1000, 1.0))
    assert abs(s1.norms["L2"] - s2.norms["L2"]) / s2.norms["L2"] <= 1e-6


def test_h1_floor(state_312):
    assert state_312.norms["H1"] >= 0.01


def test_decay_fit_model(state_model_d1_p3):
    fit = state_model_d1_p3.decay
    assert fit is not None
    assert abs(fit.gamma - 1.0) <= 0.01
    assert fit.beta == 0.0


def test_decay_fit_choquard(state_312):
    assert state_312.decay is not None
    assert state_312.decay.gamma >= 0.48
    assert state_312.decay.beta == 1.0  # (d-1)/2 at d = 3


def test_decay_fit_rejects_degenerate_tail():
    grid = make_grid(1, 15.0, 1000, 1.0)
    # nonzero below r = 0.05 only: the tail window holds 2 nodes
    vals = np.where(grid.nodes < 0.05, 1.0, 0.0) * np.exp(-grid.nodes)
    state = state_from_field(ModelParams(1, 3.0), RadialField(grid, vals))
    with pytest.raises(FitError):
        fit_decay(state)


def test_state_roundtrip(tmp_path, state_model_d1_p3):
    state_model_d1_p3.save(tmp_path / "Q")
    back = GroundState.load(tmp_path / "Q")
    assert back.equation == "model"
    assert back.params == state_model_d1_p3.params
    assert_allclose(back.field.values, state_model_d1_p3.field.values)
    assert back.norms == pytest.approx(state_model_d1_p3.norms)


def test_choquard_state_roundtrip(tmp_path, state_312):
    state_312.save(tmp_path / "Q")
    back = GroundState.load(tmp_path / "Q")
    assert back.equation == "choquard"
    assert back.params == state_312.params
    assert back.grid.to_dict() == state_312.grid.to_dict()
    assert np.array_equal(back.grid.quad_weights, state_312.grid.quad_weights)
    assert np.array_equal(back.field.values, state_312.field.values)
    assert back.decay == state_312.decay
    assert isinstance(back.decay.window, tuple)
    assert back.norms == state_312.norms
    assert back.residual == state_312.residual
    assert back.iterations == state_312.iterations


@pytest.mark.parametrize("d, n", [(1, 200), (3, 700), (5, 1200)])
def test_tridiag_solver_matches_solve_banded(d, n):
    # gttrf + gttrs eliminate with the same pivots and in the same order
    # as the one-shot gtsv behind solve_banded, so the solves agree bitwise
    from scipy.linalg import solve_banded
    ab = kinetic_tridiag(solver_grid(d, 25.0, n), 0)
    solve = tridiag_solver(ab)
    rng = np.random.default_rng(n)
    for v in (rng.standard_normal(n), np.exp(-np.linspace(0.0, 25.0, n))):
        np.testing.assert_array_equal(solve(v), solve_banded((1, 1), ab, v))


def test_tridiag_solver_rejects_a_singular_matrix():
    ab = np.ones((3, 4))
    ab[0, 2] = 0.0          # rows 0 and 1 are both [1, 1, 0, 0]
    with pytest.raises(ConvergenceError, match="singular"):
        tridiag_solver(ab)


def test_nan_iterate_fails_fast():
    grid = solver_grid(3, 25.0, 200)
    W = riesz_apply_matrix(grid, 1.0, 0)
    u0 = np.exp(-grid.nodes ** 2)
    u0[3] = np.nan
    with pytest.raises(ConvergenceError) as err:
        _petviashvili(grid, u0, 2.0, W, SolverOptions())
    assert err.value.iterations == 1


def dense_jacobian(grid, u, p, W, ab):
    """The Newton Jacobian as a dense n x n array: K - (p-1) V - p A for the
    nonlocal equation, K - p |u|^{p-1} for the local model.  The solver
    never forms it; it is the oracle for the operator and the Krylov step."""
    n, idx = grid.n, np.arange(grid.n)
    K = np.zeros((n, n))
    K[idx, idx] = ab[1]
    K[idx[:-1], idx[:-1] + 1] = ab[0, 1:]
    K[idx[1:], idx[1:] - 1] = ab[2, :-1]
    if W is None:
        K[idx, idx] -= p * np.abs(u) ** (p - 1)
    else:
        V = (W @ np.abs(u) ** p) * np.abs(u) ** (p - 2)
        K[idx, idx] -= (p - 1) * V
        upm1 = np.abs(u) ** (p - 1)
        K -= p * upm1[:, None] * W * upm1[None, :]
    return K


@pytest.mark.parametrize("nonlocal_", [True, False])
def test_linearized_matrix_matches_dense_formula(nonlocal_):
    # the Jacobian operator applied to every unit vector is the dense
    # formula's column, to rounding in the largest (kinetic) entries
    grid = solver_grid(3, 25.0, 200)
    rng = np.random.default_rng(5)
    u = np.exp(-grid.nodes) * (1 + 0.1 * rng.standard_normal(grid.n))
    u[5] = 0.0
    p = 2.03
    W = riesz_apply_matrix(grid, 1.02, 0) if nonlocal_ else None
    ab = kinetic_tridiag(grid, 0)
    dense = dense_jacobian(grid, u, p, W, ab)
    J = linearized_matrix(grid, u, p, W)
    cols = np.column_stack([J(e) for e in np.eye(grid.n)])
    assert cols.shape == dense.shape
    assert np.max(np.abs(cols - dense)) <= 1e-14 * np.max(np.abs(dense))


@settings(max_examples=8, deadline=None)
@given(d=st.sampled_from([3, 5]), n=st.sampled_from([200, 700]),
       dalpha=st.floats(-0.05, 0.05), dp=st.floats(0.0, 0.05))
def test_krylov_step_matches_dense_solve(d, n, dalpha, dp):
    params = ChoquardParams(d, d - 2 + dalpha, 2.0 + dp)
    params.check_existence_window()
    grid = solver_grid(d, 25.0, n)
    W = riesz_apply_matrix(grid, params.alpha, 0)
    ab = kinetic_tridiag(grid, 0)
    u = solve_choquard(params, grid).field.values
    # a smooth right-hand side far from the roundoff floor
    G = equation_residual(grid, _initial_gaussian(grid, params.p, W),
                          params.p, W)
    step = _krylov_step(linearized_matrix(grid, u, params.p, W), G,
                        tridiag_solver(ab))
    want = np.linalg.solve(dense_jacobian(grid, u, params.p, W, ab), G)
    assert np.max(np.abs(step - want)) <= 1e-10 * np.max(np.abs(want))


def counted_matvecs(J):
    """(J wrapped, the list that each call of it appends to)."""
    calls = []
    return (lambda v: calls.append(1) or J(v)), calls


def test_krylov_step_of_a_zero_residual_is_zero():
    grid = solver_grid(3, 25.0, 200)
    ab = kinetic_tridiag(grid, 0)
    u = _initial_gaussian(grid, 2.0, None)
    J, calls = counted_matvecs(linearized_matrix(grid, u, 2.0, None))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        step = _krylov_step(J, np.zeros(grid.n), tridiag_solver(ab))
    assert np.array_equal(step, np.zeros(grid.n))
    assert calls == []


def test_krylov_step_at_a_breakdown_is_the_preconditioned_residual():
    # the local model at u = 0 has B = 0, so K^{-1} J = I: the first
    # Arnoldi vector spans the solution, and the cycle ends after one
    # product without dividing by the vanishing h_{1,0}
    grid = solver_grid(3, 25.0, 200)
    ab = kinetic_tridiag(grid, 0)
    kinv = tridiag_solver(ab)
    J, calls = counted_matvecs(
        linearized_matrix(grid, np.zeros(grid.n), 2.0, None))
    G = np.exp(-grid.nodes ** 2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        step = _krylov_step(J, G, kinv)
    assert len(calls) == 1
    assert_allclose(step, kinv(G), rtol=1e-14, atol=0.0)
    # the same in exact arithmetic: h_{1,0} is 0.0 for 2 I on a unit vector
    J = lambda v: calls.append(1) or 2.0 * v
    G = np.zeros(grid.n)
    G[4] = 3.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        step = _krylov_step(J, G, lambda v: v.copy())
    assert len(calls) == 2
    assert np.array_equal(step, G / 2.0)


def test_krylov_step_of_a_singular_operator_is_not_finite():
    grid = solver_grid(3, 25.0, 200)
    ab = kinetic_tridiag(grid, 0)
    J = np.zeros_like    # the zero operator
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        step = _krylov_step(J, np.exp(-grid.nodes ** 2), tridiag_solver(ab))
    assert not np.any(np.isfinite(step))


def test_krylov_step_of_a_nan_residual_is_not_finite():
    grid = solver_grid(3, 25.0, 200)
    ab = kinetic_tridiag(grid, 0)
    W = riesz_apply_matrix(grid, 1.0, 0)
    u = _initial_gaussian(grid, 2.0, W)
    J, calls = counted_matvecs(linearized_matrix(grid, u, 2.0, W))
    G = equation_residual(grid, u, 2.0, W)
    G[7] = np.nan
    step = _krylov_step(J, G, tridiag_solver(ab))
    assert not np.all(np.isfinite(step))
    assert calls == []   # no Arnoldi cycle on NaNs


def test_krylov_step_iterations_on_the_continuation_path():
    # the first Newton step of continuing the Newtonian state to
    # (3, 0.97, 2.034): K^{-1} J is a compact perturbation of I, so the
    # cycle needs a handful of products, not a number growing with n
    grid = solver_grid(3, 25.0, 700)
    ab = kinetic_tridiag(grid, 0)
    kinv = tridiag_solver(ab)
    u = solve_choquard(ChoquardParams(3, 1.0, 2.0), grid).field.values
    p = 2.034
    W = riesz_apply_matrix(grid, 0.97, 0)
    J = linearized_matrix(grid, u, p, W)
    G = equation_residual(grid, u, p, W)
    counted, calls = counted_matvecs(J)
    step = _krylov_step(counted, G, kinv)
    assert 1 <= len(calls) <= 12
    # the Givens estimate met the stopping rule on the true residual too
    rel = (np.linalg.norm(kinv(J(step) - G))
           / np.linalg.norm(kinv(G)))
    assert rel <= 1e-11


def test_newton_step_allocates_no_dense_matrix():
    grid = solver_grid(3, 25.0, 1200)
    p = 2.03
    W = riesz_apply_matrix(grid, 0.97, 0)
    u = _initial_gaussian(grid, p, W)
    tracemalloc.start()
    try:
        _, hist = _newton_refine(grid, u, p, W, 0.0, max_steps=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hist) == 2 and hist[1] < hist[0]   # one step was taken
    assert peak < grid.n ** 2 * 8 / 4


def test_newton_stops_at_a_nan_iterate(monkeypatch):
    grid = solver_grid(3, 25.0, 200)
    W = riesz_apply_matrix(grid, 1.0, 0)
    u = _initial_gaussian(grid, 2.0, W)
    u[3] = np.nan
    calls = []
    real = solver.equation_residual
    monkeypatch.setattr(solver, "equation_residual",
                        lambda *a: calls.append(1) or real(*a))
    out, hist = _newton_refine(grid, u, 2.0, W, 1e-10)
    assert len(hist) == 1 and np.isnan(hist[0])
    assert len(calls) == 1   # no damped steps on NaNs


def test_newton_stops_at_a_non_finite_step(monkeypatch):
    grid = solver_grid(3, 25.0, 200)
    W = riesz_apply_matrix(grid, 1.0, 0)
    u = _initial_gaussian(grid, 2.0, W)
    monkeypatch.setattr(solver, "_krylov_step",
                        lambda J, G, ab: np.full_like(G, np.nan))
    calls = []
    real = solver.equation_residual
    monkeypatch.setattr(solver, "equation_residual",
                        lambda *a: calls.append(1) or real(*a))
    out, hist = _newton_refine(grid, u, 2.0, W, 1e-10)
    assert len(hist) == 1 and np.isfinite(hist[0])
    assert out is u
    assert len(calls) == 1   # no line search along a NaN step


def test_nan_at_newton_hand_over_raises_with_iteration_count(monkeypatch):
    grid = solver_grid(3, 25.0, 200)
    W = riesz_apply_matrix(grid, 1.0, 0)
    real = solver._newton_refine
    seen = {}

    def poisoned(grid, u, *args, **kwargs):
        u = u.copy()
        u[3] = np.nan
        out, hist = real(grid, u, *args, **kwargs)
        seen["hist"] = hist
        return out, hist

    monkeypatch.setattr(solver, "_newton_refine", poisoned)
    # the fixed-point phase would reach tol; max_iter hands over first
    with pytest.raises(ConvergenceError) as err:
        _petviashvili(grid, _initial_gaussian(grid, 2.0, W), 2.0, W,
                      SolverOptions(max_iter=5))
    assert len(seen["hist"]) == 1
    assert err.value.iterations == 5   # the fixed-point iterations run
    assert np.isnan(err.value.last_residual)


@pytest.mark.parametrize("d, alpha, p, n", [(3, 0.97, 2.03, 700),
                                            (4, 1.97, 2.0, 80)])
def test_fixed_point_phase_reaches_tol_without_newton(monkeypatch, d, alpha,
                                                      p, n):
    # the benchmark's solve points: Anderson mixing alone reaches tol
    def no_newton(*args, **kwargs):
        raise AssertionError("the Newton fallback was called")

    monkeypatch.setattr(solver, "_newton_refine", no_newton)
    st = solve_choquard(ChoquardParams(d, alpha, p), solver_grid(d, 25.0, n))
    assert st.residual <= 1e-10
    assert st.iterations <= 25


def test_accelerated_state_agrees_with_a_newton_polish():
    grid = solver_grid(3, 25.0, 700)
    st = solve_choquard(ChoquardParams(3, 0.97, 2.03), grid)
    u = st.field.values
    W = riesz_apply_matrix(grid, 0.97, 0)
    polished, hist = _newton_refine(grid, u, 2.03, W, 1e-12)
    assert len(hist) > 1 and hist[-1] < hist[0]   # the polish took a step
    assert np.max(np.abs(polished - u)) <= 1e-9 * np.max(u)


def test_small_max_iter_ends_at_tol_through_the_newton_fallback(monkeypatch):
    calls = []
    real = solver._newton_refine
    monkeypatch.setattr(solver, "_newton_refine",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    st = solve_choquard(ChoquardParams(3, 1.0, 2.0), solver_grid(3, 25.0, 300),
                        SolverOptions(max_iter=5))
    assert calls == [1]
    assert st.residual <= 1e-10
    assert st.iterations > 5   # the Newton steps are counted too
