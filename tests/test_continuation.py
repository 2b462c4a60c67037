import dataclasses
import json

import pytest

from choquard_lab import (ChoquardParams, ContinuationError, ParameterError,
                          RieszError, SolverOptions, SweepRecord, continuation,
                          distances, newton_continue, solve_choquard,
                          solver_grid, sweep, sweep_to_csv)


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
        assert SweepRecord.from_dict(rec.to_dict()) == rec
        assert SweepRecord.from_dict(json.loads(json.dumps(rec.to_dict()))) == rec
