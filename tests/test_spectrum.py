import tracemalloc

import numpy as np
import pytest

from choquard_lab import (ChoquardParams, SpectrumError, apply_lplus,
                          assemble_lplus, correlation, eig_smallest,
                          lplus_identity_residual, make_grid,
                          nondegeneracy_verdict, solve_model, solver_grid,
                          state_from_zero_field, translation_mode)
from choquard_lab.riesz import riesz_apply_matrix


def test_free_operator_spectrum():
    grid = make_grid(3, 40.0, 700, 1.0)
    state = state_from_zero_field(ChoquardParams(3, 1.0, 2.0), grid)
    op = assemble_lplus(state, 0)
    assert op.symmetry_defect() <= 1e-10
    h = grid.nodes[0]
    vals = [v for v, _ in eig_smallest(op, 3)]
    assert vals[0] >= 1.0 - 10 * h * h
    assert abs(vals[0] - 1.0) <= 0.05  # continuum free spectrum starts at 1


def test_free_operator_ell1():
    grid = make_grid(3, 40.0, 500, 1.0)
    state = state_from_zero_field(ChoquardParams(3, 1.0, 2.0), grid)
    vals = [v for v, _ in eig_smallest(assemble_lplus(state, 1), 3)]
    h = grid.nodes[0]
    assert vals[0] >= 1.0 - 10 * h * h


def test_lplus_identity(state_312):
    assert lplus_identity_residual(state_312) <= 1e-6


def test_operator_symmetry(state_312):
    for ell in (0, 1):
        op = assemble_lplus(state_312, ell)
        assert op.symmetry_defect() <= 1e-10


def _assembly_peak(state, ell=0):
    tracemalloc.start()
    try:
        assemble_lplus(state, ell)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lplus_assembly_builds_the_kernel_block_in_place(state_312):
    # with W cached, L+ is built in the n x n buffer of the sector kernel;
    # beside it only the kernel's row blocks and O(n) vectors are live
    grid = state_312.grid
    riesz_apply_matrix(grid, state_312.params.alpha, 0)
    assert _assembly_peak(state_312) < 2.5 * grid.n ** 2 * 8


def test_model_lplus_assembly_holds_one_matrix(state_model_d1_p3):
    n = state_model_d1_p3.grid.n
    for ell in (0, 1):
        assert _assembly_peak(state_model_d1_p3, ell) <= 1.5 * n ** 2 * 8


def test_negative_direction_and_gap(state_312_coarse):
    vals = [v for v, _ in eig_smallest(assemble_lplus(state_312_coarse, 0), 6)]
    # <Q, L+ Q> = -2(p-1) E_nl < 0 forces a negative eigenvalue
    assert vals[0] < 0
    assert sum(1 for v in vals if v < 0) >= 1
    assert not any(abs(v) < 0.05 for v in vals)


def test_translation_mode(state_312_coarse):
    pairs = eig_smallest(assemble_lplus(state_312_coarse, 1), 4)
    val, fld = min(pairs, key=lambda t: abs(t[0]))
    assert abs(val) <= 5e-3
    tmode = translation_mode(state_312_coarse)
    assert correlation(state_312_coarse.grid, fld.values, tmode.values) > 0.99


def test_translation_mode_shrinks_under_refinement(state_312_coarse):
    fine_grid = state_312_coarse.grid.refined()
    from choquard_lab import solve_choquard
    fine = solve_choquard(state_312_coarse.params, fine_grid)
    v_coarse = abs(min((v for v, _ in eig_smallest(
        assemble_lplus(state_312_coarse, 1), 4)), key=abs))
    v_fine = abs(min((v for v, _ in eig_smallest(
        assemble_lplus(fine, 1), 4)), key=abs))
    assert v_coarse / v_fine >= 3.0


def test_verdict(state_312_coarse):
    rep = nondegeneracy_verdict(state_312_coarse)
    assert rep.radial_kernel_trivial
    assert rep.translation_mode_found
    assert rep.negative_count_ell0 >= 1
    assert rep.translation_correlation > 0.99


def test_verdict_at_perturbed_point():
    grid = solver_grid(3, 25.0, 400)
    from choquard_lab import solve_choquard
    st = solve_choquard(ChoquardParams(3, 1.02, 2.02), grid)
    rep = nondegeneracy_verdict(st)
    assert rep.radial_kernel_trivial
    assert rep.translation_mode_found
    assert rep.negative_count_ell0 >= 1


def test_verdict_rejects_far_from_newtonian():
    grid = solver_grid(3, 20.0, 300)
    from choquard_lab import solve_choquard
    st = solve_choquard(ChoquardParams(3, 1.5, 2.0), grid)
    with pytest.raises(SpectrumError):
        nondegeneracy_verdict(st)


def test_model_state_linearization():
    grid = make_grid(1, 15.0, 900, 1.0)
    st = solve_model(1, 3.0, grid)
    # radial (even) sector: one negative direction, no kernel
    vals0 = [v for v, _ in eig_smallest(assemble_lplus(st, 0), 4)]
    assert vals0[0] < 0
    assert not any(abs(v) < 0.05 for v in vals0)
    # odd sector contains the translation mode Q'
    pairs1 = eig_smallest(assemble_lplus(st, 1), 4)
    val, fld = min(pairs1, key=lambda t: abs(t[0]))
    assert abs(val) <= 5e-3
    tmode = translation_mode(st)
    assert correlation(grid, fld.values, tmode.values) > 0.99


def test_translation_mode_annihilated_by_action(state_312):
    # differentiating the equation: the l = 1 action on -dQ/dr vanishes
    # up to discretization error
    grid = state_312.grid
    tmode = translation_mode(state_312).values
    out = apply_lplus(state_312, 1, tmode)
    assert np.max(np.abs(out)) / np.max(np.abs(tmode)) < 5e-3


def test_apply_matches_assembled_action_on_smooth_field(state_312_coarse):
    # the two discretizations agree at second order on smooth inputs
    grid = state_312_coarse.grid
    xi = np.exp(-grid.nodes ** 2 / 4)
    out_apply = apply_lplus(state_312_coarse, 0, xi)
    op = assemble_lplus(state_312_coarse, 0)
    sqm = np.sqrt(grid.measure)
    out_matrix = (op.matrix @ (xi * sqm)) / sqm
    # compare away from the first node, where the flux form is only
    # cell-average consistent
    scale = np.max(np.abs(out_apply))
    assert np.max(np.abs(out_apply - out_matrix)[5:-5]) / scale < 0.05


def test_unsupported_sector_raises(state_312_coarse):
    with pytest.raises(SpectrumError):
        assemble_lplus(state_312_coarse, 2)
    with pytest.raises(SpectrumError):
        apply_lplus(state_312_coarse, 5, state_312_coarse.field.values)
    op = assemble_lplus(state_312_coarse, 0)
    with pytest.raises(SpectrumError):
        eig_smallest(op, 11)


def test_eigenfields_normalized(state_312_coarse):
    from choquard_lab import integrate_radial
    pairs = eig_smallest(assemble_lplus(state_312_coarse, 0), 3)
    for _, fld in pairs:
        nrm = integrate_radial(state_312_coarse.grid, fld.values ** 2)
        assert abs(nrm - 1.0) <= 1e-10
