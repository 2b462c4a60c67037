import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from choquard_lab import (ChoquardParams, ContinuationError, ParameterError,
                          RieszError, SolverOptions, SweepRecord, continuation,
                          distances, make_grid, newton_continue,
                          solve_choquard, solver, solver_grid, sweep,
                          sweep_to_csv)
from choquard_lab.continuation import converged_points


@pytest.fixture(scope="module")
def base_500():
    grid = solver_grid(3, 25.0, 500)
    return solve_choquard(ChoquardParams(3, 1.0, 2.0), grid)


def test_same_target_returns_base(base_500):
    st = newton_continue(base_500, base_500.params)
    assert st is base_500


def test_same_target_leaves_base_unchanged(base_500):
    base = dataclasses.replace(base_500, newton_history=[1e-3, 1e-11])
    assert newton_continue(base, base.params) is base
    assert base.newton_history == [1e-3, 1e-11]


def test_continued_state_carries_newton_history(base_500):
    st = newton_continue(base_500, ChoquardParams(3, 1.01, 2.01), steps=2)
    assert len(st.newton_history) >= 2
    assert st.newton_history[-1] == st.residual
    assert st.iterations == len(st.newton_history)


def test_continue_to_perturbed_point(base_500):
    target = ChoquardParams(3, 1.02, 2.02)
    st = newton_continue(base_500, target, steps=4)
    assert st.residual <= 1e-10
    assert st.params == target
    fresh = solve_choquard(target, base_500.grid)
    d = distances(base_500.grid, st.field.values, fresh.field.values)
    assert d["Linf"] <= 1e-6


def test_newton_quadratic_tail(base_500):
    st = newton_continue(base_500, ChoquardParams(3, 1.02, 2.02), steps=2)
    hist = st.newton_history
    # once below 1e-3 the residual must contract by at least 10x per step
    small = [h for h in hist if h < 1e-3]
    for a, b in zip(small, small[1:]):
        if a > 1e-14:
            assert b / a <= 0.1


@pytest.mark.parametrize("steps", [0, -1, True, 2.5])
def test_continuation_rejects_bad_steps_before_solving(base_500, monkeypatch,
                                                       steps):
    def no_solve(*args, **kwargs):
        raise AssertionError("a Newton solve was started")

    monkeypatch.setattr(continuation, "_newton_refine", no_solve)
    with pytest.raises(ValueError, match="steps"):
        newton_continue(base_500, ChoquardParams(3, 1.01, 2.01), steps=steps)


@pytest.fixture(scope="module")
def base_300():
    return solve_choquard(ChoquardParams(3, 1.0, 2.0),
                          solver_grid(3, 25.0, 300))


@pytest.mark.parametrize("target", [(3, 1.0, 2.034), (3, 0.97, 2.034)],
                         ids=["cold", "sweep-warm"])
def test_secant_predictor_saves_newton_steps(base_300, monkeypatch, target):
    # the benchmark's two continuation paths: in p at the Newtonian alpha,
    # and in (alpha, p); a zero-order start takes 10 Newton steps on both
    target = ChoquardParams(*target)
    calls = []
    real = solver.linearized_matrix
    monkeypatch.setattr(solver, "linearized_matrix",
                        lambda *a: calls.append(1) or real(*a))

    def newton_steps():
        calls.clear()
        st = newton_continue(base_300, target, steps=4)
        assert st.residual <= 1e-10
        return len(calls), st

    secant, st = newton_steps()
    monkeypatch.setattr(continuation, "_secant_start",
                        lambda g, u, *a: (u, None))
    zero_order, _ = newton_steps()
    assert secant < zero_order
    fresh = solve_choquard(target, base_300.grid)
    d = distances(base_300.grid, st.field.values, fresh.field.values)
    assert d["Linf"] <= 1e-6


def test_newton_reuses_the_residual_of_the_secant_start(base_300,
                                                       monkeypatch):
    # _secant_start has evaluated the residual of the start it picks, so
    # Newton skips that evaluation: one fewer per secant increment, and
    # the same bits, as the kinetic band is the grid's cached constant
    target = ChoquardParams(3, 0.97, 2.034)
    residuals, secants = [], []
    real_residual = solver.equation_residual
    real_secant = continuation._secant_start

    def residual(*args, **kwargs):
        residuals.append(1)
        return real_residual(*args, **kwargs)

    def secant(*args):
        secants.append(1)
        return real_secant(*args)

    for module in (solver, continuation):
        monkeypatch.setattr(module, "equation_residual", residual)
    monkeypatch.setattr(continuation, "_secant_start", secant)
    shared = newton_continue(base_300, target, steps=4)
    counts = [len(residuals), len(secants)]
    residuals.clear()
    secants.clear()
    real_refine = continuation._newton_refine
    monkeypatch.setattr(continuation, "_newton_refine",
                        lambda *a, G=None, **k: real_refine(*a, **k))
    again = newton_continue(base_300, target, steps=4)
    assert counts[1] == len(secants) == 2
    assert counts[0] == len(residuals) - len(secants)
    assert shared.field.values.tobytes() == again.field.values.tobytes()
    assert shared.newton_history == again.newton_history


@pytest.mark.parametrize("shift", [0.0, 0.05])
def test_a_bad_secant_guess_starts_newton_from_the_last_state(
        base_300, monkeypatch, shift):
    # shifting the first accepted state throws the secant line off, so its
    # guess at the next increment has the larger residual and is dropped
    starts, accepted = [], []
    real = continuation._newton_refine

    def refine(grid, u, *args, **kwargs):
        starts.append(u)
        out, hist = real(grid, u, *args, **kwargs)
        if not accepted:
            out = out + shift * np.exp(-grid.nodes)
        accepted.append(out)
        return out, hist

    monkeypatch.setattr(continuation, "_newton_refine", refine)
    st = newton_continue(base_300, ChoquardParams(3, 0.97, 2.034), steps=4)
    assert st.residual <= 1e-10
    assert np.array_equal(starts[0], base_300.field.values)
    assert len(starts) == 3   # no increment was bisected
    if shift:
        assert starts[1] is accepted[0]
    else:
        assert not np.array_equal(starts[1], accepted[0])
        assert_allclose(starts[1],
                        3 * accepted[0] - 2 * base_300.field.values,
                        rtol=0, atol=1e-14)
        assert_allclose(starts[2], 1.5 * accepted[1] - 0.5 * accepted[0],
                        rtol=0, atol=1e-14)


def test_continuation_across_dimension_raises(base_500):
    with pytest.raises(ContinuationError):
        newton_continue(base_500, ChoquardParams(4, 2.0, 2.0))


def test_geometric_sweep_distances(base_500):
    grid = base_500.grid
    recs = []
    for k in range(5):
        a = 1 + 0.04 * 2.0 ** -k
        p = 2 + 0.04 * 2.0 ** -k
        recs.extend(sweep(3, [a], [p], grid, reference=base_500))
    assert all(r.converged for r in recs)
    h1 = [r.dist_to_newtonian["H1"] for r in recs]
    linf = [r.dist_to_newtonian["Linf"] for r in recs]
    assert all(h1[i + 1] < h1[i] for i in range(4))
    assert all(linf[i + 1] < linf[i] for i in range(4))
    # convergence claim, relative to the reference H1 norm
    assert h1[-1] / base_500.norms["H1"] <= 1e-2


def test_self_distance_vanishes(base_500):
    recs = sweep(3, [1.0], [2.0], base_500.grid, reference=base_500)
    assert recs[0].dist_to_newtonian["H1"] <= 1e-8
    assert recs[0].dist_to_newtonian["Linf"] <= 1e-8


def test_two_route_consistency_on_small_lattice(base_500):
    grid = base_500.grid
    alphas = [0.99, 1.01]
    ps = [2.0, 2.01]
    fresh = sweep(3, alphas, ps, grid, reference=base_500)
    for rec in fresh:
        cont = newton_continue(base_500, rec.params, steps=4)
        direct = solve_choquard(rec.params, grid)
        d = distances(grid, cont.field.values, direct.field.values)
        assert d["Linf"] <= 1e-5


def test_sweep_records_failures_and_continues(base_500):
    opts = SolverOptions(tol=1e-10, max_iter=2)
    recs = sweep(3, [1.0, 1.01], [2.0], base_500.grid, opts,
                 reference=base_500)
    assert len(recs) == 2
    assert all(not r.converged for r in recs)
    assert all(r.message for r in recs)


def test_sweep_with_spectrum_and_csv(tmp_path, base_500):
    recs = sweep(3, [1.0], [2.0], base_500.grid, reference=base_500,
                 with_spectrum=True)
    assert recs[0].spectral_summary is not None
    assert abs(recs[0].spectral_summary["nearest_zero_ell1"]) < 0.05
    path = tmp_path / "sweep.csv"
    sweep_to_csv(recs, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("alpha,p,converged")


def test_sweep_empty_lattice_raises(base_500):
    with pytest.raises(ValueError):
        sweep(3, [], [2.0], base_500.grid, reference=base_500)


def test_sweep_rejects_inadmissible_lattice_before_solving(base_500):
    # p = 1.5 < 2 lies outside the existence window; nothing is solved
    with pytest.raises(ParameterError, match="existence window"):
        sweep(3, [1.0], [2.0, 1.5], base_500.grid, reference=base_500)


def test_sweep_with_spectrum_rejects_divergent_kernel_before_solving(
        base_500, monkeypatch):
    # the sector kernel diverges on the diagonal at alpha >= d - 1
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point of a rejected lattice")

    monkeypatch.setattr(continuation, "solve_choquard", no_solve)
    with pytest.raises(RieszError, match="alpha < d-1"):
        sweep(3, [1.0, 2.2], [2.0], base_500.grid, with_spectrum=True)


def test_sweep_record_round_trip(base_500):
    recs = sweep(3, [1.0], [2.0], base_500.grid, reference=base_500,
                 with_spectrum=True)
    recs.append(SweepRecord(params=ChoquardParams(3, 1.01, 2.0),
                            converged=False, norms={}, dist_to_newtonian={},
                            message="no convergence"))
    for rec in recs:
        data = dataclasses.asdict(rec)
        assert SweepRecord.from_dict(data) == rec
        assert SweepRecord.from_dict(json.loads(json.dumps(data))) == rec


def test_sweep_resumes_from_reused_records(tmp_path, base_500, monkeypatch):
    grid = base_500.grid
    lattice = ([0.99, 1.0], [2.0, 2.01])
    fresh = tmp_path / "fresh.json"
    whole = sweep(3, *lattice, grid, manifest=fresh)
    real = continuation.sweep_point
    solved = []

    def counted(d, alpha, p, *rest):
        solved.append((alpha, p))
        return real(d, alpha, p, *rest)

    monkeypatch.setattr(continuation, "sweep_point", counted)
    done = {(r.params.alpha, r.params.p): r for r in whole[::2]}
    resumed = tmp_path / "resumed.json"
    assert sweep(3, *lattice, grid, done=done, manifest=resumed) == whole
    assert solved == [(0.99, 2.01), (1.0, 2.01)]
    assert resumed.read_bytes() == fresh.read_bytes()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point of a complete sweep")

    # every point reused: not even the Newtonian reference is solved
    monkeypatch.setattr(continuation, "solve_choquard", no_solve)
    assert sweep(3, *lattice, grid, done=converged_points(fresh, grid),
                 manifest=resumed) == whole
    assert resumed.read_bytes() == fresh.read_bytes()


def _fake_point(d, alpha, p, *rest):
    """A record without a solve: converged with a spectral summary, not
    converged with a message that needs escaping, or converged without a
    summary, by the point's position."""
    pars = ChoquardParams(d, alpha, p)
    norms = {"L2": alpha, "H1": p, "Linf": alpha * p}
    kind = round(10 * alpha + 100 * p) % 3
    if kind == 1:
        return SweepRecord(pars, False, {}, {},
                           message='gave up: "no" über ☃ \\ end')
    return SweepRecord(pars, True, norms, dict(norms),
                       spectral_summary=({"nearest_zero_ell0": -2.5,
                                          "nearest_zero_ell1": 1e-300}
                                         if kind == 0 else None))


def _whole_manifest(records, grid, d):
    return json.dumps({"d": d, "grid": grid.to_dict(),
                       "points": [dataclasses.asdict(r) for r in records]},
                      indent=2)


def test_manifest_is_the_encoding_of_the_records_so_far(tmp_path,
                                                        monkeypatch):
    grid = make_grid(3, 25.0, 16)
    alphas, ps = [0.9, 1.0, 1.1], [2.0, 2.5]
    want = [(a, p) for a in alphas for p in ps]
    reused = _fake_point(3, 1.0, 2.5)
    monkeypatch.setattr(continuation, "sweep_point", _fake_point)
    written = []
    real_write = continuation.write_atomic

    def capture(path, write):
        real_write(path, write)
        written.append(path.read_text())

    monkeypatch.setattr(continuation, "write_atomic", capture)
    assert continuation._manifest_text([], grid, 3) == _whole_manifest(
        [], grid, 3)
    sweep(3, alphas, ps, grid, reference=object(),
          done={(1.0, 2.5): reused}, manifest=tmp_path / "m.json")
    # one write per solved point, each holding the records so far
    solved = [pt for pt in want if pt != (1.0, 2.5)]
    assert len(written) == len(solved)
    for k, text in enumerate(written):
        so_far = set(solved[:k + 1]) | {(1.0, 2.5)}
        recs = [reused if pt == (1.0, 2.5) else _fake_point(3, *pt)
                for pt in want if pt in so_far]
        assert text == _whole_manifest(recs, grid, 3)
    assert {r.converged for r in recs} == {True, False}
    assert any(r.spectral_summary for r in recs)


@pytest.mark.parametrize("side", [2, 3])
@pytest.mark.parametrize("reuse", [False, True])
def test_each_manifest_record_is_encoded_once(tmp_path, monkeypatch, side,
                                              reuse):
    # the parent encoded every record so far at every point: N(N+1)/2 calls
    grid = make_grid(3, 25.0, 16)
    lattice = ([0.9 + 0.1 * j for j in range(side)],
               [2.0 + 0.1 * j for j in range(side)])
    points = [(a, p) for a in lattice[0] for p in lattice[1]]
    done = {pt: _fake_point(3, *pt) for pt in points[::2]} if reuse else {}
    monkeypatch.setattr(continuation, "sweep_point", _fake_point)
    encoded = []
    real_asdict = continuation.asdict

    def counted(rec):
        encoded.append((rec.params.alpha, rec.params.p))
        return real_asdict(rec)

    monkeypatch.setattr(continuation, "asdict", counted)
    sweep(3, *lattice, grid, reference=object(), done=done,
          manifest=tmp_path / "m.json")
    assert sorted(encoded) == sorted(points)
