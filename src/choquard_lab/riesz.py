"""Radial Riesz potentials |.|^{-alpha} * f and sector kernels.

For a radial f the convolution reduces to a 1D integral against the
reduced kernel

    (|.|^{-alpha} * f)(r) = int_0^inf K_0(r, s) f(s) s^{d-1} ds,

and degree-l spherical-harmonic components see the kernel K_l obtained by
inserting the Gegenbauer weight into the angular integral.  Substituting
u = |x - y| turns the angular integral into

    K_l(r,s) = |S^{d-2}| (2rs)^{3-d} / (rs)
               * int_B^A u^{1-alpha} P_l(t(u)) [(A^2-u^2)(u^2-B^2)]^{(d-3)/2} du

with A = r+s, B = |r-s|, t(u) = (r^2+s^2-u^2)/(2rs).  For every d >= 2
the kernel is a Gauss hypergeometric function of z = 4rs/(r+s)^2, summed
by its series: the one kernel-value layer, behind the band round the
diagonal of the "angular" route and of the sector kernels.  Far from the
diagonal, r <= 0.8 s (_RHO_FAR) or, by the symmetry of K, s <= 0.8 r,
both sum the Gegenbauer expansion instead (DLMF 18.12.4 as 15.2.1),

    K_l(r,s) = |S^{d-1}| c_l r^l s^{-alpha-l}
               2F1(alpha/2+l, alpha/2-d/2+1; d/2+l; (r/s)^2),

c_l = (alpha/2)_l / (d/2)_l, whose terms are separable in r and s: the
rows of one octave of r take it as one GEMM.  Every sector l >= 0 takes
these formulas.  Two kernels are also elementary and keep a closed form,
the "exact" route: d = 1, whose sectors are l = 0, 1, where K_l =
|s-r|^{-alpha} +- (s+r)^{-alpha}, and d = 3, l = 0, where K_0 s^2 is
(2 pi s / r) ((s+r)^e - |s-r|^e) / e, e = 2 - alpha.  At the Newtonian
exponent alpha = d-2 the l = 0 kernel collapses to |S^{d-1}|
max(r,s)^{2-d}.

Application operators integrate, cell by cell, the kernel against the
quadratic interpolant of f alone.  The exact route takes every power
weight by closed-form moments of monomials in s.  The angular route
takes an entry whose cells all lie outside the band 0.8 r < s < r/0.8
from the far series, term by term: c_k r^{2k+l} times the cell moments
of s^{d-1-alpha-l-2k} l(s) beyond the band, and c_k r^{-alpha-l-2k} times
those of s^{d-1+l+2k} l(s) before it, l the Lagrange polynomial, exact
and written in a cell end's own variable.  The band entries (about 10%)
take the 2F1 kernel by Gauss on each cell, and the |s-r|^{d-1-alpha}
factor on the cells beside the diagonal by Gauss-Jacobi.  So the kink or
integrable singularity on the diagonal costs no accuracy.  The Newtonian
route is two rank-one triangles,
|S^{d-1}| r_i^{2-d} A_j inside r_i and B_j outside it, with the cell
weights from a Gauss-Legendre rule in each cell's own coordinate, exact
on these polynomials; only the entries whose cells straddle r_i are
summed cell by cell.
"""

from __future__ import annotations

import functools
import math
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .grid import (RadialField, RadialGrid, _check_field, sphere_area,
                   write_atomic)


class RieszError(ValueError):
    """Invalid Riesz-potential request."""


# Rows assembled together: every (rows, n) temporary of a block stays
# small (0.5 MB at n = 1200), and no n x n temporary is held beside W.
_BLOCK_ROWS = 48
# Band cells integrated together: every (cells, 8) temporary stays at
# 2 MB, and on grids up to n = 500 the band takes one _kernel call.
_BAND_PIECES = 1 << 15


# ---------------------------------------------------------------------------
# exact cell moments


def _shift_poly(coeffs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rewrite sum_k coeffs[k] s^k in powers of (s - c).

    ``coeffs`` has shape (deg+1, rows) and ``c`` shape (rows, 1); the
    result has shape (deg+1, rows, 1).
    """
    out = np.zeros((len(coeffs),) + c.shape)
    for k in range(len(coeffs)):
        ck = coeffs[k][:, None]
        for j in range(k + 1):
            out[j] += ck * math.comb(k, j) * c ** (k - j)
    return out


class _CellRule:
    """Per-grid cell layout and interpolation stencils.

    Cells [x_{j-1}, x_j] (with x_{-1} = 0) carry the quadratic Lagrange
    stencil on nodes (j0, j0+1, j0+2), j0 = clip(j-1, 0, n-3).
    """

    def __init__(self, grid: RadialGrid):
        x = grid.nodes
        n = grid.n
        self.edges = np.concatenate([[0.0], x])   # n + 1 cell edges
        self.a = self.edges[:-1]
        self.b = self.edges[1:]
        self.j0 = np.clip(np.arange(n) - 1, 0, n - 3)
        self.xs = np.stack([x[self.j0 + m] for m in range(3)], axis=0)
        # per stencil node m, the per-cell coefficients (l_m0, l_m1, l_m2)
        # of the Lagrange polynomial l_m in powers of s
        self.lagrange = []
        for m in range(3):
            others = [k for k in range(3) if k != m]
            a1 = self.xs[others[0]]
            a2 = self.xs[others[1]]
            dm = (self.xs[m] - a1) * (self.xs[m] - a2)
            self.lagrange.append((a1 * a2 / dm, -(a1 + a2) / dm, 1.0 / dm))

    def lagrange_local(self, c: np.ndarray, p: np.ndarray,
                       off: np.ndarray) -> list:
        """l_m of the stencils of cells c at s = p + off, m = 0..2, shape
        off.shape, p a point of each cell.  Each s - x_k is taken as
        (p - x_k) + off, both of the cell's size, so no digit goes to |s|
        on thin far cells."""
        xs = self.xs[:, c]
        ds = [(p - x)[:, None] + off for x in xs]
        return [ds[m - 1] * ds[m - 2]
                / ((xs[m] - xs[m - 1]) * (xs[m] - xs[m - 2]))[:, None]
                for m in range(3)]

    def add_cells(self, W: np.ndarray, cell: np.ndarray, m: int) -> None:
        """W[:, j0 + m] += cell for the (rows, n) per-cell weights of node m.

        Cells 0/1 and n-2/n-1 share a column, so the two end cells go
        separately, in cell order, which is the order np.add.at takes.
        """
        n = cell.shape[1]
        W[:, m] += cell[:, 0]
        W[:, m:m + n - 2] += cell[:, 1:n - 1]
        W[:, m + n - 3] += cell[:, n - 1]


# ---------------------------------------------------------------------------
# the closed-form kernel of d = 1 and of d = 3, l = 0
#
# K_l(r,s) s^{d-1} = sum over terms of  poly(s) * weight(s)  with weight
# (s+r)^g (side "A") or |s-r|^g (side "B"):
#   d = 1:         |s-r|^{-alpha} +- (s+r)^{-alpha}  (+ for l = 0, - for l = 1)
#   d = 3, l = 0:  (2 pi s / r) ((s+r)^e - |s-r|^e) / e,  e = 2 - alpha


def _term_table(d, ell, alpha, r: np.ndarray) -> dict:
    """Term polynomials for every radius in ``r``: maps (side, exponent)
    to coefficients in s of shape (deg+1, rows).

    At d = 3 the terms divide by e = 2 - alpha, so within _LOG_STEP/2 of
    alpha = 2 the table is the interpolant in alpha: the union of the
    tables at the nodes, each scaled by its weight (the rows are linear
    in the table).
    """
    if d == 3 and abs(alpha - 2.0) < _LOG_STEP / 2:
        return {key: wk * coef for ak, wk in _log_nodes(d, alpha)
                for key, coef in _term_table(d, ell, ak, r).items()}
    if d == 1:
        e = round(-alpha, 12)
        ones = np.ones((1, r.size))
        return {("B", e): ones, ("A", e): (1.0 if ell == 0 else -1.0) * ones}
    e = (1.0 - alpha) + 1.0
    x = 2.0 * math.pi / r
    zero = np.zeros(r.size)
    return {("A", round(e, 12)): np.stack([zero, x / e]),
            ("B", round(e, 12)): np.stack([zero, -x / e])}


# ---------------------------------------------------------------------------
# kernel values for d >= 2 from the Gauss hypergeometric function
#
# The spherical mean is K_l = |S^{d-1}| (r+s)^{-alpha} c_l (z/4)^l
# 2F1(alpha/2+l, (d-1)/2+l; d-1+2l; z), z = 4rs/(r+s)^2, c_l =
# (alpha/2)_l / (d/2)_l for every l >= 0 (DLMF 15.8(iii)).  A quadratic
# transformation (DLMF 15.8.13) gives the better conditioned form used here,
#   K_l = |S^{d-1}| c_l (rs)^l (r^2+s^2)^{-2a} F(a, a+1/2; c; y^2),
# y = 2rs/(r^2+s^2), a = alpha/4 + l/2, c = d/2 + l.  Where y^2 > 3/4 the
# connection formula (DLMF 15.8.4) in v = 1 - y^2, g = (d-1-alpha)/2, gives
#   F = P1 F(a, a+1/2; 1-g; v) + v^g P2 F(c-a, c-a-1/2; 1+g; v),
# so every series runs in an argument <= 3/4.  The two terms cancel, more
# so the larger v is (a split at y^2 = 1/2 gave 20x larger errors at d = 6)
# and as g nears an integer (a log case): there W and the kernel values
# are taken as their Lagrange interpolant in alpha, in which they are
# analytic.

_TERMS = 200
_Y2_SPLIT = 0.75   # the series below, the connection formula above
# s/r at which y^2 = _Y2_SPLIT, y = 2 rho / (1 + rho^2)
_RHO_SPLIT = (1.0 - math.sqrt(1.0 - _Y2_SPLIT)) / math.sqrt(_Y2_SPLIT)
_LOG_STEP = 1e-2


def _gauss_coefficients(a, b, c) -> np.ndarray:
    """The first _TERMS Taylor coefficients of 2F1(a, b; c; x)."""
    k = np.arange(_TERMS - 1.0)
    return np.cumprod(np.r_[1.0, (a + k) * (b + k) / ((c + k) * (k + 1.0))])


def _series(a, b, c, x):
    """2F1(a, b; c; x) at x <= 3/4 by the Gauss series.

    Each x takes the terms it needs (every term left out is below 1e-17),
    so no value depends on the points beside it.  Horner runs over the
    points sorted by term count, longest first: the points still summing
    at order k are then a prefix.
    """
    shape, x = np.shape(x), np.ravel(x)
    k = np.arange(_TERMS - 1.0)
    coef = _gauss_coefficients(a, b, c)
    with np.errstate(divide="ignore"):
        reach = (1e-17 / np.abs(coef[1:])) ** (1.0 / (k + 1.0))
    # reach[N - 1]: the largest x at which every term from N on is small
    terms = np.searchsorted(np.minimum.accumulate(reach[::-1])[::-1], x) + 1
    order = np.argsort((_TERMS - terms).astype(np.uint8), kind="stable")
    xs = x[order]
    longer = np.cumsum(np.bincount(terms, minlength=_TERMS + 2)[::-1])[::-1]
    acc = np.zeros(x.size)
    for j in range(terms.max(initial=0) - 1, -1, -1):
        m = longer[j + 1]                  # the points with > j terms
        acc[:m] *= xs[:m]
        acc[:m] += coef[j]
    out = np.empty(x.size)
    out[order] = acc
    return out.reshape(shape)


def _sector_factor(d, ell, alpha) -> float:
    """c_l = (alpha/2)_l / (d/2)_l: 1.0 at l = 0 and alpha/d at l = 1."""
    return math.prod((alpha / 2.0 + k) / (d / 2.0 + k) for k in range(ell))


def _kernel(d, ell, alpha, r, s, split=False):
    """K_l(r, s) at broadcast r, s, for g = (d-1-alpha)/2 not an integer.

    With ``split``, at points with y^2 > 3/4 only: analytic (R, S) with
    K = R + |s-r|^{2g} S.
    """
    a, c, g = alpha / 4.0 + ell / 2.0, d / 2.0 + ell, (d - 1 - alpha) / 2.0
    q = r * r + s * s
    c_l = _sector_factor(d, ell, alpha)
    K = sphere_area(d) * (c_l * (r * s) ** ell) * q ** (-2 * a)
    v = ((r - s) * (r + s) / q) ** 2
    G = math.gamma
    p1 = G(c) * G(g) / (G(c - a) * G(c - a - 0.5))
    p2 = G(c) * G(-g) / (G(a) * G(a + 0.5))
    if split:
        return (K * p1 * _series(a, a + 0.5, 1.0 - g, v),
                K * p2 * _series(c - a, c - a - 0.5, 1.0 + g, v)
                * ((r + s) / q) ** (2 * g))
    y2 = (2.0 * r * s / q) ** 2
    low = y2 <= _Y2_SPLIT
    K[low] *= _series(a, a + 0.5, c, y2[low])
    v = v[~low]
    K[~low] *= (p1 * _series(a, a + 0.5, 1.0 - g, v)
                + v ** g * p2 * _series(c - a, c - a - 0.5, 1.0 + g, v))
    return K


def _log_nodes(d: int, alpha: float):
    """[(alpha_k, weight_k)], the Lagrange rule on the nodes
    m + k _LOG_STEP, k = +-1..4, that stands in for alpha within
    _LOG_STEP/2 of a log point m = d-1-2j; None elsewhere."""
    centre = d - 1 - 2 * round((d - 1 - alpha) / 2.0)
    if abs(alpha - centre) >= _LOG_STEP / 2:
        return None
    nodes = centre + _LOG_STEP * np.array([-4, -3, -2, -1, 1, 2, 3, 4.0])
    return [(float(ak), float(np.prod((alpha - np.delete(nodes, k))
                                      / (ak - np.delete(nodes, k)))))
            for k, ak in enumerate(nodes)]


def _kernel_values(d, ell, alpha, r, s) -> np.ndarray:
    """K_l(r, s) for d >= 2 at broadcast r, s; finite on the diagonal
    only for alpha < d - 1."""
    shape = np.broadcast_shapes(np.shape(r), np.shape(s))
    r, s = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
            for x in (r, s))
    nodes = _log_nodes(d, alpha)
    if nodes is None:
        return _kernel(d, ell, alpha, r, s).reshape(shape)
    # on the diagonal (v = 0) nothing cancels, and near alpha = d - 1 K has
    # a pole there that no polynomial in alpha follows: take it directly
    diag = (r == s) & (abs(alpha - (d - 1)) < _LOG_STEP)
    out = np.empty(r.shape)
    out[~diag] = sum(wk * _kernel(d, ell, ak, r[~diag], s[~diag])
                     for ak, wk in nodes)
    if diag.any():
        out[diag] = _kernel(d, ell, alpha, r[diag], s[diag])
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# the separable far field
#
# Where r <= _RHO_FAR s, the kernel sums the far-field series of the module
# docstring term by term, c_k r^{2k+l} s^{-alpha-l-2k}; where s <= _RHO_FAR
# r, by the symmetry of K, c_k s^{2k+l} r^{-alpha-l-2k}.  The series has no
# log case, so it needs no interpolant in alpha.  The band round the
# diagonal takes the 2F1 layer.

_RHO_FAR = 0.8


def _far_coefficients(d, ell, alpha) -> np.ndarray:
    """c_k of F(alpha/2+l, alpha/2-d/2+1; d/2+l; x), cut after the last k
    with |c_k| _RHO_FAR^{2k} >= 1e-17: 47-76 terms for d = 2..6, one at
    alpha = d-2, where the series ends."""
    coef = _gauss_coefficients(alpha / 2.0 + ell, alpha / 2.0 - d / 2.0 + 1.0,
                               d / 2.0 + ell)
    kept = np.abs(coef) * _RHO_FAR ** (2.0 * np.arange(_TERMS)) >= 1e-17
    return coef[:np.flatnonzero(kept)[-1] + 1]


def _powers(base: np.ndarray, terms: int) -> np.ndarray:
    """P[i, k] = base_i^(2k), k < terms, by cumprod along rows; entries
    below 1e-300 are set to zero, as subnormal GEMM operands are slow."""
    out = np.empty((base.size, terms))
    out[:, 0] = 1.0
    out[:, 1:] = (base * base)[:, None]
    np.cumprod(out, axis=1, out=out)
    out[out < 1e-300] = 0.0
    return out


def _octaves(r: np.ndarray) -> list:
    """(g0, g1, e) for each run of nodes r[g0:g1] in one binary octave,
    r_i = m_i 2^e with m_i in [1/2, 1).  The far field is one product per
    octave, so its shapes, and its bits, depend on no row block."""
    expo = np.frexp(r)[1]
    starts = np.flatnonzero(np.diff(expo, prepend=expo[0] - 1)).tolist()
    return [(g0, g1, int(expo[g0]))
            for g0, g1 in zip(starts, starts[1:] + [r.size])]


def _far_rows(d, ell, alpha, r, inner=False) -> np.ndarray:
    """Row factors R[i, k] of the far series at r_i = m_i 2^e (_octaves):
    |S^{d-1}| c_l c_k times m_i^{2k} r_i^l for the columns beyond the
    band, or, with ``inner``, m_i^{-2k} r_i^{-alpha-l} for those before it.
    The column factors carry the rest, (2^e/s)^{2k} or (s/2^e)^{2k}."""
    coef = _far_coefficients(d, ell, alpha)
    mant = np.frexp(r)[0]
    R = _powers(1.0 / mant if inner else mant, coef.size)
    R *= sphere_area(d) * _sector_factor(d, ell, alpha) * coef
    R *= (r ** (-alpha - ell) if inner else r ** ell)[:, None]
    return R


def _power_moments(E: np.ndarray, tau: np.ndarray) -> list:
    """[G_0, G_1, G_2], G_q = int_0^1 (1 + tau v)^E v^q dv, at broadcast E
    and tau >= -1 (E > -1 where tau = -1).

    G_0 = L exprel((E+1) L)/tau, L = log1p(tau), has no case at E = -1
    and cancels nothing.  By parts, G_q = ((1+tau)^{E+1} - q G_{q-1}) /
    (tau (E+1+q)), which loses digits as |tau (E+1+q)| falls.  Below 1/2
    the integrand is nearly a polynomial in v, and a 12-point Gauss rule
    takes it instead, to rounding while |tau| <= 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log1p(tau)
        x = (E + 1.0) * L
        exprel = np.where(x == 0.0, 1.0, np.expm1(x) / x)
        G = [np.where(tau > -1.0, L * exprel / tau, 1.0 / (E + 1.0))]
        P = np.exp(x)
        for q in (1, 2):
            G.append((P - q * G[-1]) / (tau * (E + 1.0 + q)))
    near = np.minimum(abs(tau * (E + 2.0)), abs(tau * (E + 3.0))) < 0.5
    if near.any():
        E, tau = np.broadcast_arrays(E, tau)
        t, w = _gauss_jacobi(12, 0.0)
        v = 0.5 * (1.0 + t)
        f = np.exp(E[near][:, None] * np.log1p(tau[near][:, None] * v))
        f *= 0.5 * w
        for q in range(3):
            G[q][near] = f @ v ** q
    return G


def _far_moments(rule: _CellRule, expo: np.ndarray, e0: float, sign: int,
                 terms: int) -> np.ndarray:
    """Column factors of the far series before the octave scaling,
    M[k, j] = 2^{-2k sign f_j} int s^{e0 + 2k sign} l_j(s) ds over the
    cells of column j, f_j = expo[j]: sign = -1 for the columns beyond the
    band, +1 for those before it.

    Each cell integral is written in the variable u = s - z of one end z
    of the cell: with eta = +-h the step to the other end, int s^E u^q ds
    = z^E h eta^q G_q(E, eta/z) (_power_moments), and l_j = (beta_1 + u)
    (beta_2 + u)/D with beta = z - x over the two other stencil nodes x.
    z is the end nearer the origin for sign = -1, so (s/z)^E <= 1 at every
    E < 0, and the far end for sign = +1; cell 0, from the origin, is
    never beyond a band.  The powers of two 2^{2k (f_z - f_j)} are exact.
    """
    n = rule.b.size
    cells = slice(1, None) if sign < 0 else slice(None)
    h = (rule.b - rule.a)[cells]
    z = (rule.a if sign < 0 else rule.b)[cells]
    eta = -sign * h
    k = np.arange(terms)[:, None]
    G = _power_moments(e0 + 2.0 * sign * k, eta / z)
    mant, fz = np.frexp(z)
    scale = _powers(mant ** sign, terms).T * (z ** e0 * h)
    xs = rule.xs[:, cells]
    M = np.zeros((terms, n))
    for m in range(3):
        b1, b2 = (z - xs[m - 1]), (z - xs[m - 2])
        cell = np.zeros((terms, n))
        cell[:, cells] = np.ldexp(
            (b1 * b2 * G[0] + (b1 + b2) * eta * G[1] + eta * eta * G[2])
            * scale / ((xs[m] - xs[m - 1]) * (xs[m] - xs[m - 2])),
            2 * sign * k * (fz - expo[rule.j0[cells] + m]))
        rule.add_cells(M, cell, m)
    return M


def _far_field(grid: RadialGrid, rule: _CellRule, alpha: float, ell: int,
               W: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Write the far entries of the application operator into W: in row
    i, the columns j <= lo[i] and j >= hi[i] (_far_columns).

    Beyond the band the entries are sum_k R[i, k] (2^e)^{2k} times the
    moments of s^{d-1-alpha-l-2k} l_j, before it sum_k R[i, k] (2^e)^{-2k}
    times those of s^{d-1+l+2k} l_j (_far_rows, _far_moments).  Per octave
    and side this is one numpy product, on numpy's BLAS, where the solver's
    products run.  It spans the columns that are far for any row of the
    octave; a mask keeps each row's own.
    """
    d, r = grid.d, grid.nodes
    expo = np.frexp(r)[1]
    cols = np.arange(grid.n)
    for sign, e0 in ((-1, d - 1.0 - alpha - ell), (1, d - 1.0 + ell)):
        R = _far_rows(d, ell, alpha, r, inner=sign > 0)
        M = _far_moments(rule, expo, e0, sign, R.shape[1])
        k2 = 2 * sign * np.arange(R.shape[1])[:, None]
        k2f = k2 * expo
        for g0, g1, e in _octaves(r):
            j = slice(hi[g0], None) if sign < 0 else slice(0, lo[g1 - 1] + 1)
            C = np.ldexp(M[:, j], k2f[:, j] - k2 * e)
            if C.size == 0:
                continue
            C[np.abs(C) < 1e-300] = 0.0
            keep = (cols[j] >= hi[g0:g1, None] if sign < 0
                    else cols[j] <= lo[g0:g1, None])
            np.copyto(W[g0:g1, j], R[g0:g1] @ C, where=keep)


# ---------------------------------------------------------------------------
# application operators (product integration of f's interpolant)


def _rows_from_groups(rule: _CellRule, groups, r: np.ndarray) -> np.ndarray:
    """Operator rows at the radii ``r`` from a term table (``_term_table``).

    Integrates poly(s) * |t|^e * l_m(s) exactly on every cell, t = s - c
    (c = -r for the A side, r for the B side); the result multiplies the
    f samples at the stencil nodes.  The antiderivatives
    t^{q+1} |t|^e / (q+e+1) of t^q |t|^e are taken at the n + 1 cell
    edges, combined into antiderivatives of s^k * term, k = 0..2, summed
    over the groups, and differenced once per k.
    """
    G = [0.0, 0.0, 0.0]
    for (side, e), poly in groups.items():
        c = (-r if side == "A" else r)[:, None]
        p = _shift_poly(poly, c)
        t = rule.edges - c
        at = np.abs(t)
        # at t = 0, T = t^{q+1} zeroes F
        w = np.where(at > 0, at, 1.0) ** e
        # H[k]: antiderivative of t^k * term = sum_j p_j t^{j+k} |t|^e
        H = [0.0, 0.0, 0.0]
        T = t
        for q in range(len(p) + 2):
            F = T * w
            for k in range(max(0, q - len(p) + 1), min(q, 2) + 1):
                H[k] = H[k] + (p[q - k] / (q + e + 1)) * F
            T = T * t
        # s^k = (t + c)^k
        G[0] = G[0] + H[0]
        G[1] = G[1] + (H[1] + c * H[0])
        G[2] = G[2] + (H[2] + c * (2.0 * H[1] + c * H[0]))
    S = [np.diff(Gk, axis=1) for Gk in G]
    W = np.zeros((r.size, rule.b.size))
    for m, lm in enumerate(rule.lagrange):
        rule.add_cells(W, lm[0] * S[0] + lm[1] * S[1] + lm[2] * S[2], m)
    return W


def _newton_matrix(grid: RadialGrid, rule: _CellRule) -> np.ndarray:
    """The Newtonian (alpha = d-2, l = 0) operator, from its two rank-one
    triangles.

    Times s^{d-1}, the kernel |S^{d-1}| max(r,s)^{2-d} is |S^{d-1}|
    r^{2-d} s^{d-1} on the cells inside r (c <= i) and |S^{d-1}| s on
    those outside.  Column j takes the contiguous cells first[j] ..
    last[j], so W[i, j] = |S^{d-1}| r_i^{2-d} A_j where they all lie
    inside r_i and B_j where they all lie outside, A_j and B_j the column
    sums of the cell integrals P_in = int s^{d-1} l_m and P_out =
    |S^{d-1}| int s l_m.  A (d//2 + 2)-point Gauss-Legendre rule in the
    cell's own coordinate takes both exactly.  The 2-3 entries per row
    whose column straddles r_i are summed cell by cell.
    """
    d, n = grid.d, grid.n
    area = sphere_area(d)
    t, w = _gauss_jacobi(d // 2 + 2, 0.0)
    half = 0.5 * (rule.b - rule.a)[:, None]
    hw = half * w
    s = rule.a[:, None] + half * (1.0 + t)
    lm = rule.lagrange_local(np.arange(n), rule.a, half * (1.0 + t))
    p_in = np.stack([np.sum(hw * s ** (d - 1) * l, axis=1) for l in lm])
    p_out = np.stack([area * np.sum(hw * s * l, axis=1) for l in lm])
    A = np.zeros((1, n))
    B = np.zeros((1, n))
    for m in range(3):
        rule.add_cells(A, p_in[m][None], m)
        rule.add_cells(B, p_out[m][None], m)
    # scalar pow per row: numpy's vector pow may round differently
    coef = np.array([area * ri ** (2 - d) for ri in grid.nodes])
    W = np.empty((n, n))
    np.multiply(coef[:, None], A, out=W)
    cols = np.arange(n)
    first = np.searchsorted(rule.j0 + 2, cols)
    last = np.searchsorted(rule.j0, cols, side="right") - 1
    # row i: the columns from its first outside one on take B
    for i, k in enumerate(np.searchsorted(first, cols, side="right").tolist()):
        W[i, k:] = B[0, k:]
    # the straddling entries, first[j] <= i < last[j]; the clipped end
    # stencils make columns 0-2 and n-3 straddle too
    counts = last - first
    j = np.repeat(cols, counts)
    i = first[j] + np.arange(j.size) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    acc = np.zeros(j.size)
    for k in range(4):
        c = np.minimum(first[j] + k, n - 1)
        m = np.clip(j - rule.j0[c], 0, 2)
        cell = np.where(c <= i, coef[i] * p_in[m, c], p_out[m, c])
        acc += np.where(first[j] + k <= last[j], cell, 0.0)
    W[i, j] = acc
    return W


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n: int, beta: float):
    """Nodes and weights of the n-point Gauss rule for the weight
    (1 - x)^beta on [-1, 1] (beta = 0: Gauss-Legendre), by Golub-Welsch:
    the eigenvalues of the Jacobi matrix of the Jacobi polynomials
    P^(beta, 0), and the squared first components of its eigenvectors.
    Cached, so both arrays are read-only."""
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.concatenate([[-beta / (beta + 2.0)],
                           -beta ** 2 / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * k * (k + beta) ** 2
                  / (s * s * (s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _far_columns(rule: _CellRule, r: np.ndarray):
    """(lo, hi, c0, c1): the columns of row i whose cells all lie before
    the band, b <= _RHO_FAR r_i, are j <= lo[i], and those whose cells all
    lie beyond it, _RHO_FAR a >= r_i, are j >= hi[i]; the cells of the
    columns between are c0[i]..c1[i]."""
    cols = np.arange(r.size)
    # column j takes the cells whose stencil holds node j
    first = np.searchsorted(rule.j0 + 2, cols)
    last = np.searchsorted(rule.j0, cols, side="right") - 1
    before = np.searchsorted(rule.b, _RHO_FAR * r, side="right") - 1
    beyond = np.searchsorted(_RHO_FAR * rule.a, r)
    lo = np.searchsorted(last, before, side="right") - 1
    hi = np.searchsorted(first, beyond)
    return lo, hi, first[lo + 1], last[hi - 1]


def _band(grid: RadialGrid, rule: _CellRule, alpha: float, ell: int,
          lo: np.ndarray, hi: np.ndarray, c0: np.ndarray, c1: np.ndarray):
    """(index, values): the cell integrals of the band entries, row i's
    columns lo[i] < j < hi[i] from its cells c0[i]..c1[i], at the flat
    indices i n + j of W (_far_columns).

    Each cell integral of K(r_i, s) s^{d-1} l_m(s) goes to 8-point Gauss,
    in one _kernel call for every row.  On the two cells beside the
    diagonal, K = R + |s-r_i|^beta S, beta = d-1-alpha, with R and S
    analytic: R goes to Gauss-Legendre and |s-r_i|^beta S to Gauss-Jacobi,
    in one more call, once the part of the cell with y^2 <= 3/4 (on
    solver grids only in the first two cells) is split off to plain
    Gauss.  l_m is taken in the piece's own coordinate
    (_CellRule.lagrange_local).  Near a log point the values are the
    interpolant in alpha (_log_nodes); the index does not depend on alpha.
    """
    d, n, r = grid.d, grid.n, grid.nodes
    rows = np.arange(n)
    counts = c1 - c0 + 1
    i = np.repeat(rows, counts)
    c = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts - c0,
                                      counts)
    off_diagonal = (c != i) & (c != i + 1)
    i, c = i[off_diagonal], c[off_diagonal]
    right = np.minimum(rows + 1, n - 1)
    end = np.where(rows < n - 1, rule.b[right], r)
    cut = np.maximum(rule.a, _RHO_SPLIT * r)
    cut_right = np.minimum(end, r / _RHO_SPLIT)
    # pieces (row, cell, p, q, side): plain Gauss (side 0), or split at
    # r_i = q (side -1) or r_i = p (side 1); pieces of zero width go
    pieces = [(i, c, rule.a[c], rule.b[c], 0), (rows, rows, rule.a, cut, 0),
              (rows, right, cut_right, end, 0), (rows, rows, cut, r, -1),
              (rows, right, r, cut_right, 1)]
    groups = []
    for sides in ((0,), (-1, 1)):
        kept = [[x[q > p] for x in (i, c, p, q)] + [np.full((q > p).sum(), s)]
                for i, c, p, q, s in pieces if s in sides]
        groups.append([np.concatenate(x) for x in zip(*kept)])
    index, keep = [], []
    for i, c, *_ in groups:
        for m in range(3):
            j = rule.j0[c] + m
            keep.append((j > lo[i]) & (j < hi[i]))
            index.append((i * n + j)[keep[-1]])
    t, w = _gauss_jacobi(8, 0.0)

    def contract(vals, c, p, off):
        return [np.sum(vals * lm, axis=1)
                for lm in rule.lagrange_local(c, p, off)]

    def plain(alpha, pieces):
        i, c, p, q = (x[pieces] for x in groups[0][:4])
        hw = 0.5 * (q - p)[:, None]
        s = 0.5 * (p + q)[:, None] + hw * t
        vals = hw * w * _kernel(d, ell, alpha, r[i, None], s) * s ** (d - 1)
        return contract(vals, c, p, hw * (1.0 + t))

    def values(alpha):
        chunks = range(0, max(groups[0][0].size, 1), _BAND_PIECES)
        out = [np.concatenate(m) for m in zip(
            *(plain(alpha, slice(k, k + _BAND_PIECES)) for k in chunks))]
        i, c, p, q, side = groups[1]
        beta = d - 1 - alpha
        x, wj = _gauss_jacobi(8, beta)          # weight (1 - x)^beta
        hw = 0.5 * (q - p)[:, None]
        ri, side = r[i, None], side[:, None]
        s = np.concatenate([0.5 * (p + q)[:, None] + hw * t,
                            ri + side * hw * (1.0 - x)], axis=1)
        R, S = _kernel(d, ell, alpha, ri, s, split=True)
        vals = np.concatenate([hw * w * R[:, :8],
                               hw ** (beta + 1.0) * wj * S[:, 8:]], axis=1)
        off = np.concatenate([hw * (1.0 + t), hw * (1.0 - side * x)], axis=1)
        return out + contract(vals * s ** (d - 1), c, p, off)

    nodes = _log_nodes(d, alpha) or [(alpha, 1.0)]
    parts = [values(ak) for ak, _ in nodes]
    vals = [sum(wk * v[m] for (_, wk), v in zip(nodes, parts))
            for m in range(len(keep))]
    return (np.concatenate(index),
            np.concatenate([v[k] for v, k in zip(vals, keep)]))


def _angular_matrix(grid: RadialGrid, rule: _CellRule, alpha: float,
                    ell: int) -> np.ndarray:
    """The application operator of the 2F1 kernel: the separable far field
    (_far_field), then the cell integrals of the band (_band)."""
    lo, hi, c0, c1 = _far_columns(rule, grid.nodes)
    W = np.zeros((grid.n, grid.n))
    _far_field(grid, rule, alpha, ell, W, lo, hi)
    index, values = _band(grid, rule, alpha, ell, lo, hi, c0, c1)
    np.add.at(W.reshape(-1), index, values)
    return W


# In-memory operators, least recently used first; the oldest go once the
# matrices held pass the byte budget (a continuation adds one per alpha).
_APPLY_CACHE: OrderedDict = OrderedDict()
_APPLY_CACHE_BYTES = 512 << 20
# Leads every disk-cache file name; raise it whenever an assembly change
# alters W, so files written by older code are never read.
_CACHE_VERSION = 7


def clear_caches() -> None:
    _APPLY_CACHE.clear()


def _remember(key, W: np.ndarray) -> None:
    _APPLY_CACHE[key] = W
    held = sum(v.nbytes for v in _APPLY_CACHE.values())
    while held > _APPLY_CACHE_BYTES and len(_APPLY_CACHE) > 1:
        held -= _APPLY_CACHE.popitem(last=False)[1].nbytes


def _check_request(grid: RadialGrid, alpha: float, ell: int = 0) -> None:
    """alpha in (0, d), and l an int >= 0 (at most 1 at d = 1) whose powers
    of r in K_l, r^{2l+alpha}, stay in double range on the grid."""
    d = grid.d
    if not (0.0 < alpha < d):
        raise RieszError(f"alpha outside (0,d): alpha={alpha}, d={d}")
    if (not isinstance(ell, (int, np.integer)) or ell < 0
            or (d == 1 and ell > 1)):
        raise RieszError(f"no sector l={ell!r} at d={d}: l is an int >= 0, "
                         "at most 1 at d = 1")
    span = max(-math.log(grid.nodes[0]), math.log(2.0 * grid.nodes[-1]))
    if (alpha + 2 * ell) * span > 700.0:
        raise RieszError(f"sector l={ell} overflows on this grid")


def riesz_apply_matrix(grid: RadialGrid, alpha: float, ell: int = 0,
                       method: str = "auto") -> np.ndarray:
    """Dense operator W with (|.|^{-alpha} *_l f)(r_i) = (W f)_i.

    ``method``: "newton" (alpha = d-2, l = 0: the shell formula, built
    from its two rank-one triangles), "exact"
    (elementary reduced kernel, d = 1 and d = 3 with l = 0), "angular"
    (the spherical mean in closed form, d >= 2: the separable Gegenbauer
    far field wherever a column's cells lie wholly outside the band
    0.8 r < s < r/0.8, and the Gauss 2F1 kernel by per-cell Gauss rules
    within it), or "auto"
    (newton where it applies, else exact where it exists, else angular).
    Matrices are cached in memory and, when CHOQUARD_LAB_CACHE is set, on
    disk.
    """
    d = grid.d
    if method not in ("auto", "newton", "exact", "angular"):
        raise RieszError(f"unknown method {method!r}; expected one of "
                         "'auto', 'newton', 'exact', 'angular'")
    _check_request(grid, alpha, ell)
    closed_form = d == 1 or (d == 3 and ell == 0)
    if method == "auto":
        if ell == 0 and abs(alpha - (d - 2)) < 1e-14:
            method = "newton"
        elif closed_form:
            method = "exact"
        else:
            method = "angular"
    if method == "newton" and (ell != 0 or abs(alpha - (d - 2)) > 1e-14):
        raise RieszError("newton method requires alpha = d-2 and ell = 0")
    if method == "exact" and not closed_form:
        raise RieszError(f"the exact route serves only d=1 and d=3 with "
                         f"l=0, got d={d}, l={ell}")
    if method == "angular" and d < 2:
        raise RieszError("the angular route requires d >= 2")

    key = (grid.d, grid.n, grid.r_max, grid.stretch,
           round(alpha, 14), ell, method)
    W = _APPLY_CACHE.get(key)
    if W is not None:
        _APPLY_CACHE.move_to_end(key)
        return W
    cache = os.environ.get("CHOQUARD_LAB_CACHE")
    fname = None
    if cache:
        tag = "_".join(str(k).replace(".", "p") for k in key)
        fname = Path(cache) / f"riesz_v{_CACHE_VERSION}_{tag}.npy"
        try:
            W = np.load(fname)
        except (OSError, ValueError, EOFError):   # missing or unreadable
            W = None
        if W is not None and W.shape == (grid.n, grid.n):
            _remember(key, W)
            return W   # anything else is assembled again and rewritten

    rule = _CellRule(grid)
    n = grid.n
    if method == "newton":
        W = _newton_matrix(grid, rule)
    elif method == "angular":
        W = _angular_matrix(grid, rule, alpha, ell)
    else:
        W = np.empty((n, n))
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            r = grid.nodes[lo:hi]
            W[lo:hi] = _rows_from_groups(rule, _term_table(d, ell, alpha, r),
                                         r)
    _remember(key, W)
    if fname is not None:
        fname.parent.mkdir(parents=True, exist_ok=True)
        # a handle: np.save adds no suffix
        write_atomic(fname, lambda fh: np.save(fh, W))
    return W


def riesz_radial(grid: RadialGrid, f: RadialField, alpha: float,
                 method: str = "auto") -> RadialField:
    """Radial profile of |.|^{-alpha} * f on the grid nodes."""
    values = _check_field(grid, f)
    W = riesz_apply_matrix(grid, alpha, 0, method)
    return RadialField(grid=grid, values=W @ values)


def riesz_at_zero(grid: RadialGrid, f: RadialField, alpha: float) -> float:
    """(|.|^{-alpha} * f)(0) = |S^{d-1}| int_0^inf f(s) s^{d-1-alpha} ds
    for the quadratic interpolant f, from the k = 0 far-field moments:
    each cell in its far end's variable (tau in [-1, 0), E > -1)."""
    values = _check_field(grid, f)
    _check_request(grid, alpha)
    M = _far_moments(_CellRule(grid), np.frexp(grid.nodes)[1],
                     grid.d - 1.0 - alpha, 1, 1)
    return sphere_area(grid.d) * float(M[0] @ values)


# ---------------------------------------------------------------------------
# sector kernel matrices


def sector_kernel(grid: RadialGrid, alpha: float, ell: int) -> np.ndarray:
    """Reduced-kernel samples K_l(r_i, r_j), for every d >= 2; finite
    entries require alpha < d - 1.

    The upper triangle (r_i <= r_j) is filled and its strict part
    mirrored, so K is bitwise symmetric.  A far entry, r_i <= _RHO_FAR r_j,
    sums the separable far-field series.  The rows of one octave, r_i =
    m_i t with t = 2^e and m_i in [1/2, 1), take it as one GEMM of
    _far_rows by (t / r_j)^{2k}, scaled by r_j^{-alpha-l}.  The GEMM runs
    on scipy's BLAS, where the eigensolver that reads K runs.  The band
    entries are 2F1 samples (_kernel_values), which depend on r, s only
    through r s, r^2 + s^2, (r - s)^2 and r + s.
    """
    d = grid.d
    _check_request(grid, alpha, ell)
    if alpha >= d - 1:
        raise RieszError(
            f"kernel matrix diverges on the diagonal for alpha >= d-1 "
            f"(alpha={alpha}, d={d}); use the application operator instead")
    from scipy.linalg.blas import dgemm
    r = grid.nodes
    n = grid.n
    K = np.empty((n, n))
    # row i is far from column far[i] on
    far = np.searchsorted(_RHO_FAR * r, r)
    R = _far_rows(d, ell, alpha, r)
    col_scale = r ** (-alpha - ell)
    for g0, g1, e in _octaves(r):
        j0 = int(far[g0])
        if j0 < n:
            S = _powers(np.ldexp(1.0, e) / r[j0:], R.shape[1])
            # (S R^T)^T from the views S^T and R^T: no operand is copied
            F = dgemm(1.0, S.T, R[g0:g1].T, trans_a=1).T
            F *= col_scale[j0:]
            K[g0:g1, j0:] = F
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        cols = np.arange(lo, far[hi - 1])
        i, j = np.nonzero((cols >= np.arange(lo, hi)[:, None])
                          & (cols < far[lo:hi, None]))
        i += lo
        j += lo
        K[i, j] = _kernel_values(d, ell, alpha, r[i], r[j])
        K[hi:, lo:hi] = K[lo:hi, hi:].T
        square = K[lo:hi, lo:hi]
        low = np.tril_indices(hi - lo, -1)
        square[low] = square.T[low]
    return K

