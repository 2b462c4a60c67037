"""Linearized operator about a ground state, per spherical-harmonic sector.

The linearization of the nonlocal equation at Q acts on xi as

    L+ xi = -Delta xi + xi - (p-1) V xi - p (|.|^{-a} * (Q^{p-1} xi)) Q^{p-1},
    V = (|.|^{-a} * Q^p) Q^{p-2},

and block-diagonalizes over sectors: radial profile times degree-l
harmonic.  Two discrete realisations are used deliberately:

- ``apply_lplus`` uses the pointwise-consistent stencils and the
  product-integrated convolution, matching the solver's residual; the
  identity L+ Q = -2(p-1) (|.|^{-a} * Q^p) Q^{p-1} holds at the level of
  the solver residual.
- ``assemble_lplus`` builds the dense symmetric matrix in the basis
  weighted by sqrt(w_i r_i^{d-1}), used for eigenproblems: the raw
  sector kernel contracted with the grid measure (second-order
  accurate), negated in its own n x n buffer, plus the symmetric band of
  the flux-form Laplacian.  It allocates no other n x n array.  Its
  limit Q -> 0, ``free_operator``, is the band alone: no kernel, no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (ChoquardParams, RadialField, RadialGrid,
                   differentiate, integrate_radial, laplacian_sector,
                   sector_symmetric)
from .riesz import riesz_apply_matrix, sector_kernel
from .solver import GroundState


class SpectrumError(RuntimeError):
    """Eigensolver or assembly failure."""


# half-width of the (alpha, p) box around (d-2, 2) that verdicts accept
_WINDOW_DELTA = 0.06


@dataclass
class SectorOperator:
    """Dense symmetric form of L+ restricted to a harmonic sector."""

    ell: int
    grid: RadialGrid
    matrix: np.ndarray          # in the sqrt(w r^{d-1})-weighted basis

    def symmetry_defect(self) -> float:
        scale = np.max(np.abs(self.matrix))
        return float(np.max(np.abs(self.matrix - self.matrix.T)) / scale)


def _matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x by scipy's BLAS, for the phase that ends in scipy's eigh.

    numpy and scipy each ship an OpenBLAS with its own thread pool, and
    the idle threads of the pool used last hold one of two CPUs for the
    next 0.1-0.4 s: after two numpy W x, eigh at n = 1200 takes 0.161 s
    instead of 0.093 s.  So assemble_lplus keeps its BLAS on scipy's pool,
    while apply_lplus and the identity residual, which sit beside the
    solver, stay on numpy's like the solver.  dgemv on W.T, the
    Fortran-ordered view of W, makes no copy."""
    from scipy.linalg.blas import dgemv
    return dgemv(1.0, W.T, x, trans=1)


def _potential_V(state: GroundState, matvec=np.matmul) -> np.ndarray:
    """(|.|^{-a} * Q^p) Q^{p-2}, or Q^{p-1} for the local model; the
    product with W is ``matvec(W, Q^p)``."""
    grid = state.grid
    q = state.field.values
    params = state.params
    p = params.p
    if isinstance(params, ChoquardParams):
        W = riesz_apply_matrix(grid, params.alpha, 0)
        return matvec(W, np.abs(q) ** p) * np.abs(q) ** (p - 2)
    return np.abs(q) ** (p - 1)


def assemble_lplus(state: GroundState, ell: int) -> SectorOperator:
    """Dense symmetric sector matrix of L+ at the given state.

    For the local model the nonlocal block is absent and the potential is
    p u^{p-1} in total; for the nonlocal equation the raw sector kernel
    is contracted with the grid measure (requires alpha < d-1).
    """
    grid = state.grid
    q = state.field.values
    params = state.params
    p = params.p
    ab = sector_symmetric(grid, ell)
    ab[1] += 1.0
    if isinstance(params, ChoquardParams):
        ab[1] -= (p - 1) * _potential_V(state, _matvec)
        mat = sector_kernel(grid, params.alpha, ell)
        w = np.sqrt(grid.measure) * np.abs(q) ** (p - 1)
        # in K's own buffer: scale, negate (0 - K keeps +0), add the band
        mat *= (p * w)[:, None]
        mat *= w[None, :]
        np.subtract(0.0, mat, out=mat)
    else:
        ab[1] -= p * np.abs(q) ** (p - 1)
        mat = np.zeros((grid.n, grid.n))
    return _with_band(grid, ell, mat, ab)


def _with_band(grid: RadialGrid, ell: int, mat: np.ndarray,
               ab: np.ndarray) -> SectorOperator:
    """Sector ell's operator mat plus the (3, n) band ab (layout of
    ``kinetic_tridiag``), added in place."""
    idx = np.arange(grid.n)
    mat[idx, idx] += ab[1]
    mat[idx[:-1], idx[1:]] += ab[0, 1:]
    mat[idx[1:], idx[:-1]] += ab[2, :-1]
    return SectorOperator(ell=ell, grid=grid, matrix=mat)


def free_operator(grid: RadialGrid, ell: int) -> SectorOperator:
    """-Delta_l + 1, L+ at Q = 0, in the basis of ``assemble_lplus``."""
    ab = sector_symmetric(grid, ell)
    ab[1] += 1.0
    return _with_band(grid, ell, np.zeros((grid.n, grid.n)), ab)


def apply_lplus(state: GroundState, ell: int, xi: np.ndarray) -> np.ndarray:
    """Pointwise application of the sector operator to node values."""
    grid = state.grid
    q = state.field.values
    params = state.params
    p = params.p
    kin = laplacian_sector(grid, RadialField(grid=grid, values=xi), ell).values
    out = kin + xi
    if isinstance(params, ChoquardParams):
        V = _potential_V(state)
        out -= (p - 1) * V * xi
        Wl = riesz_apply_matrix(grid, params.alpha, ell)
        qp = np.abs(q) ** (p - 1)
        out -= p * qp * (Wl @ (qp * xi))
    else:
        out -= p * np.abs(q) ** (p - 1) * xi
    return out


def lplus_identity_residual(state: GroundState) -> float:
    """Relative sup error of L+ Q + 2(p-1) (|.|^{-a} * Q^p) Q^{p-1}.

    Algebraic consequence of the equation, valid for any solution; the
    residual certifies that the assembled linearization is consistent
    with the solved equation.
    """
    grid = state.grid
    q = state.field.values
    params = state.params
    p = params.p
    lhs = apply_lplus(state, 0, q)
    if isinstance(params, ChoquardParams):
        W = riesz_apply_matrix(grid, params.alpha, 0)
        rhs = -2.0 * (p - 1) * (W @ np.abs(q) ** p) * np.abs(q) ** (p - 1)
    else:
        rhs = -(p - 1) * np.abs(q) ** (p - 1) * q
    scale = float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def eig_smallest(op: SectorOperator, k: int):
    """The k algebraically smallest eigenpairs of the sector operator.

    Eigenfields are mapped back to node values and L2-normalized under
    the grid quadrature.
    """
    if not 1 <= k <= 10:
        raise SpectrumError(f"between 1 and 10 eigenpairs supported, got {k}")
    from scipy.linalg import eigh
    n = op.grid.n
    try:
        vals, vecs = eigh(op.matrix, subset_by_index=[0, min(k, n) - 1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        cond = np.linalg.cond(op.matrix)
        raise SpectrumError(f"eigensolver failed (cond={cond:.3e})") from exc
    pairs = []
    sqm = np.sqrt(op.grid.measure)
    for j in range(vals.size):
        f = vecs[:, j] / sqm
        nrm = np.sqrt(max(integrate_radial(op.grid, f ** 2), 1e-300))
        fld = RadialField(grid=op.grid, values=f / nrm)
        pairs.append((float(vals[j]), fld))
    return pairs


def translation_mode(state: GroundState) -> RadialField:
    """-dQ/dr, the radial profile of the translation kernel directions."""
    grid = state.grid
    return RadialField(grid=grid,
                       values=-differentiate(grid, state.field.values))


def correlation(grid: RadialGrid, a: np.ndarray, b: np.ndarray) -> float:
    """L2-quadrature correlation |<a,b>| / (|a| |b|)."""
    num = abs(integrate_radial(grid, a * b))
    den = np.sqrt(integrate_radial(grid, a ** 2)
                  * integrate_radial(grid, b ** 2))
    return float(num / den) if den > 0 else 0.0


@dataclass
class NondegeneracyReport:
    radial_kernel_trivial: bool
    translation_mode_found: bool
    negative_count_ell0: int
    nearest_eigenvalue_ell0: float
    nearest_eigenvalue_ell1: float
    translation_correlation: float
    gap_tol: float
    eigenvalues_ell0: list
    eigenvalues_ell1: list


def nondegeneracy_verdict(state: GroundState, gap_tol: float = 0.05,
                          k: int = 8) -> NondegeneracyReport:
    """Kernel triviality in the radial sector, translation mode in l = 1.

    ``radial_kernel_trivial``: no l = 0 eigenvalue inside (-gap_tol,
    gap_tol).  ``translation_mode_found``: some l = 1 eigenvalue inside
    the window whose eigenfield correlates with -dQ/dr above 0.99.
    Intended near the Newtonian point; a state outside the
    ``_WINDOW_DELTA`` box raises.
    """
    if not 0.0 < gap_tol < np.inf:
        raise SpectrumError(f"gap_tol must be positive and finite, got "
                            f"{gap_tol}")
    params = state.params
    if (isinstance(params, ChoquardParams)
            and not params.near_newtonian(_WINDOW_DELTA)):
        raise SpectrumError(
            f"state at (alpha,p)=({params.alpha},{params.p}) is outside the "
            f"near-Newtonian window (delta={_WINDOW_DELTA})")
    vals0 = [v for v, _ in eig_smallest(assemble_lplus(state, 0), k)]
    pairs1 = eig_smallest(assemble_lplus(state, 1), k)
    vals1 = [v for v, _ in pairs1]
    tmode = translation_mode(state).values
    corr_best = max((correlation(state.grid, fld.values, tmode)
                     for v, fld in pairs1 if abs(v) < gap_tol), default=0.0)
    return NondegeneracyReport(
        radial_kernel_trivial=not any(abs(v) < gap_tol for v in vals0),
        translation_mode_found=corr_best > 0.99,
        negative_count_ell0=sum(1 for v in vals0 if v < 0),
        nearest_eigenvalue_ell0=min(vals0, key=abs),
        nearest_eigenvalue_ell1=min(vals1, key=abs),
        translation_correlation=corr_best,
        gap_tol=gap_tol,
        eigenvalues_ell0=vals0,
        eigenvalues_ell1=vals1,
    )
