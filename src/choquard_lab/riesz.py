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
by its series: the one kernel-value layer, behind the "angular" route
and the band round the diagonal of the sector kernels.  Far from the
diagonal, r <= 0.8 s (_RHO_FAR), the sector kernels sum the Gegenbauer
expansion instead (DLMF 18.12.4 as 15.2.1),

    K_l(r,s) = |S^{d-1}| c_l r^l s^{-alpha-l}
               2F1(alpha/2+l, alpha/2-d/2+1; d/2+l; (r/s)^2),

c_0 = 1, c_1 = alpha/d, whose terms are separable in r and s: the rows
of one octave of r take it as one GEMM.  Two kernels are also elementary
and keep a closed form, the "exact" route: d = 1 (l = 0, 1), where K_l =
|s-r|^{-alpha} +- (s+r)^{-alpha}, and d = 3, l = 0, where K_0 s^2 is
(2 pi s / r) ((s+r)^e - |s-r|^e) / e, e = 2 - alpha.  At the Newtonian
exponent alpha = d-2 the l = 0 kernel collapses to |S^{d-1}|
max(r,s)^{2-d}.

Application operators integrate, cell by cell, the kernel against the
quadratic interpolant of f alone.  The exact route takes every power
weight by closed-form moments of monomials in s; the angular route takes
the |s-r|^{d-1-alpha} factor on the cells beside the diagonal by
Gauss-Jacobi.  So the kink or integrable singularity on the diagonal
costs no accuracy.  The Newtonian route is two rank-one triangles,
|S^{d-1}| r_i^{2-d} A_j inside r_i and B_j outside it, with the cell
weights from a Gauss-Legendre rule in each cell's own coordinate, exact
on these polynomials; only the entries whose cells straddle r_i are
summed cell by cell.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# exact cell moments


def _origin_moments(rule: _CellRule, gamma: float, kmax: int):
    """M_k = int_a^b s^(k+gamma) ds on every cell, k = 0..kmax (gamma > -1)."""
    out = []
    for k in range(kmax + 1):
        e = k + gamma + 1.0
        out.append((rule.b ** e - rule.a ** e) / e)
    return out


def _cell_integrals(rule: _CellRule, values: np.ndarray,
                    gamma: float) -> np.ndarray:
    """int_a^b s^gamma f(s) ds on every cell, f the quadratic interpolant
    of ``values`` (gamma > -1)."""
    M = _origin_moments(rule, gamma, 2)
    return sum(values[rule.j0 + m] * (lm[0] * M[0] + lm[1] * M[1]
                                      + lm[2] * M[2])
               for m, lm in enumerate(rule.lagrange))


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

    def lagrange_at(self, j, s) -> list:
        """l_m(s) of the stencil of cell j, m = 0..2 (j, s broadcast)."""
        xs = [x[j] for x in self.xs]
        return [(s - xs[m - 1]) * (s - xs[m - 2])
                / ((xs[m] - xs[m - 1]) * (xs[m] - xs[m - 2]))
                for m in range(3)]

    def lagrange_local(self, t: np.ndarray) -> list:
        """l_m on every cell at s = a + (b - a)(1 + t)/2, m = 0..2, shape
        (n, t.size).  Each s - x_k is taken as (a - x_k) + (s - a), both
        of the cell's size, so no digit goes to |s| on thin far cells."""
        xs = self.xs
        off = 0.5 * (self.b - self.a)[:, None] * (1.0 + t)
        ds = [(self.a - x)[:, None] + off for x in xs]
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
# 2F1(alpha/2+l, (d-1)/2+l; d-1+2l; z), z = 4rs/(r+s)^2, c_0 = 1,
# c_1 = alpha/d (DLMF 15.8(iii)).  A quadratic transformation (DLMF
# 15.8.13) gives the better conditioned form used here,
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


def _kernel(d, ell, alpha, r, s, split=False):
    """K_l(r, s) at broadcast r, s, for g = (d-1-alpha)/2 not an integer.

    With ``split``, at points with y^2 > 3/4 only: analytic (R, S) with
    K = R + |s-r|^{2g} S.
    """
    a, c, g = alpha / 4.0 + ell / 2.0, d / 2.0 + ell, (d - 1 - alpha) / 2.0
    q = r * r + s * s
    K = sphere_area(d) * (alpha / d * (r * s) if ell else 1.0) * q ** (-2 * a)
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
    lm = rule.lagrange_local(t)
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


def _gauss_jacobi(n: int, beta: float):
    """Nodes and weights of the n-point Gauss rule for the weight
    (1 - x)^beta on [-1, 1] (beta = 0: Gauss-Legendre), by Golub-Welsch:
    the eigenvalues of the Jacobi matrix of the Jacobi polynomials
    P^(beta, 0), and the squared first components of its eigenvectors."""
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.concatenate([[-beta / (beta + 2.0)],
                           -beta ** 2 / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * k * (k + beta) ** 2
                  / (s * s * (s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2


def _angular_rows(grid: RadialGrid, rule: _CellRule, alpha: float, ell: int,
                  lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the application operator of the 2F1 kernel.

    Cell integrals of K(r_i, s) s^{d-1} l_m(s) by per-cell Gauss.  On the
    two cells beside the diagonal, K = R + |s-r_i|^beta S, beta = d-1-alpha,
    with R and S analytic: R goes to Gauss-Legendre and |s-r_i|^beta S to
    Gauss-Jacobi, once the part of the cell with y^2 <= 3/4 (on solver
    grids only in the first two cells) is split off to plain Gauss.
    """
    nodes = _log_nodes(grid.d, alpha)
    if nodes is not None:
        return sum(wk * _angular_rows(grid, rule, ak, ell, lo, hi)
                   for ak, wk in nodes)
    d, n, beta = grid.d, grid.n, grid.d - 1 - alpha
    t, w = _gauss_jacobi(8, 0.0)
    half = 0.5 * (rule.b - rule.a)[:, None]
    sq = 0.5 * (rule.a + rule.b)[:, None] + half * t
    i = np.arange(lo, hi)
    r = grid.nodes[i]
    K = _kernel(d, ell, alpha, r[:, None, None], sq)
    K[i - lo, i] = 0.0                       # the cells beside the diagonal
    K[i - lo, np.minimum(i + 1, n - 1)] = 0.0    # are integrated below
    W = np.zeros((hi - lo, n))
    for m, lm in enumerate(rule.lagrange_at(np.arange(n)[:, None], sq)):
        rule.add_cells(W, np.sum(K * (half * w * sq ** (d - 1) * lm), axis=2),
                       m)
    cut = np.maximum(rule.a[i], _RHO_SPLIT * r)
    end = np.where(i < n - 1, rule.b[np.minimum(i + 1, n - 1)], r)
    cut_right = np.minimum(end, r / _RHO_SPLIT)
    x, wj = _gauss_jacobi(8, beta)          # weight (1 - x)^beta
    for j, p, q, side in ((i, rule.a[i], cut, 0), (i, cut, r, -1),
                          (i + 1, r, cut_right, 1), (i + 1, cut_right, end, 0)):
        keep = q > p                         # skip pieces of zero width
        j, ri, hw = j[keep], r[keep, None], 0.5 * (q - p)[keep, None]
        s = 0.5 * (p + q)[keep, None] + hw * t
        if side == 0:
            vals = hw * w * _kernel(d, ell, alpha, ri, s)
        else:                                # r_i = q (side -1) or p (+1)
            sj = ri + side * hw * (1.0 - x)
            vals = np.concatenate(
                [hw * w * _kernel(d, ell, alpha, ri, s, split=True)[0],
                 hw ** (beta + 1.0) * wj
                 * _kernel(d, ell, alpha, ri, sj, split=True)[1]], axis=1)
            s = np.concatenate([s, sj], axis=1)
        vals *= s ** (d - 1)
        for m, lm in enumerate(rule.lagrange_at(j[:, None], s)):
            W[(i - lo)[keep], rule.j0[j] + m] += np.sum(vals * lm, axis=1)
    return W


# In-memory operators, least recently used first; the oldest go once the
# matrices held pass the byte budget (a continuation adds one per alpha).
_APPLY_CACHE: OrderedDict = OrderedDict()
_APPLY_CACHE_BYTES = 512 << 20
# Leads every disk-cache file name; raise it whenever an assembly change
# alters W, so files written by older code are never read.
_CACHE_VERSION = 6


def _cache_dir() -> Path | None:
    path = os.environ.get("CHOQUARD_LAB_CACHE")
    return Path(path) if path else None


def clear_caches() -> None:
    _APPLY_CACHE.clear()


def _remember(key, W: np.ndarray) -> None:
    _APPLY_CACHE[key] = W
    held = sum(v.nbytes for v in _APPLY_CACHE.values())
    while held > _APPLY_CACHE_BYTES and len(_APPLY_CACHE) > 1:
        held -= _APPLY_CACHE.popitem(last=False)[1].nbytes


def riesz_apply_matrix(grid: RadialGrid, alpha: float, ell: int = 0,
                       method: str = "auto") -> np.ndarray:
    """Dense operator W with (|.|^{-alpha} *_l f)(r_i) = (W f)_i.

    ``method``: "newton" (alpha = d-2, l = 0: the shell formula, built
    from its two rank-one triangles), "exact"
    (elementary reduced kernel, d = 1 and d = 3 with l = 0), "angular"
    (the spherical mean in closed form, a Gauss 2F1, d >= 2), or "auto"
    (newton where it applies, else exact where it exists, else angular).
    Matrices are cached in memory and, when CHOQUARD_LAB_CACHE is set, on
    disk.
    """
    d = grid.d
    if method not in ("auto", "newton", "exact", "angular"):
        raise RieszError(f"unknown method {method!r}; expected one of "
                         "'auto', 'newton', 'exact', 'angular'")
    if not (0.0 < alpha < d):
        raise RieszError(f"alpha outside (0,d): alpha={alpha}, d={d}")
    if ell not in (0, 1):
        raise RieszError(f"only sectors l in {{0,1}} are supported, got {ell}")
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
    cdir = _cache_dir()
    fname = None
    if cdir is not None:
        tag = "_".join(str(k).replace(".", "p") for k in key)
        fname = cdir / f"riesz_v{_CACHE_VERSION}_{tag}.npy"
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
    else:
        W = np.empty((n, n))
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            if method == "exact":
                r = grid.nodes[lo:hi]
                W[lo:hi] = _rows_from_groups(rule,
                                             _term_table(d, ell, alpha, r), r)
            else:
                W[lo:hi] = _angular_rows(grid, rule, alpha, ell, lo, hi)
    _remember(key, W)
    if fname is not None:
        cdir.mkdir(parents=True, exist_ok=True)
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
    """(|.|^{-alpha} * f)(0) = |S^{d-1}| int_0^inf f(s) s^{d-1-alpha} ds."""
    values = _check_field(grid, f)
    d = grid.d
    if not (0.0 < alpha < d):
        raise RieszError(f"alpha outside (0,d): alpha={alpha}, d={d}")
    cells = _cell_integrals(_CellRule(grid), values, d - 1.0 - alpha)
    return sphere_area(d) * float(np.sum(cells))


# ---------------------------------------------------------------------------
# sector kernel matrices


# Sector-kernel entries with r <= _RHO_FAR s sum the far-field series of
# the module docstring, term by term c_k r^{2k} s^{-2k}.  It has no log
# case, so it needs no interpolant in alpha.  The band round the diagonal
# takes _kernel_values.
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


def sector_kernel(grid: RadialGrid, alpha: float, ell: int) -> np.ndarray:
    """Reduced-kernel samples K_l(r_i, r_j), for every d >= 2; finite
    entries require alpha < d - 1.

    The upper triangle (r_i <= r_j) is filled and its strict part
    mirrored, so K is bitwise symmetric.  A far entry, r_i <= _RHO_FAR r_j,
    sums the separable far-field series.  The rows of one octave, r_i =
    m_i t with t = 2^e and m_i in [1/2, 1), take it as one GEMM of
    c_k m_i^{2k} by (t / r_j)^{2k}, scaled by |S^{d-1}| c_l r_i^l and by
    r_j^{-alpha-l}.  The octaves, not _BLOCK_ROWS, set the GEMM shapes,
    so the far entries do not depend on the row block.  The band entries
    are 2F1 samples (_kernel_values), which depend on r, s only through
    r s, r^2 + s^2, (r - s)^2 and r + s.
    """
    d = grid.d
    if ell not in (0, 1):
        raise RieszError(f"only sectors l in {{0,1}} are supported, got {ell}")
    if not (0.0 < alpha < d):
        raise RieszError(f"alpha outside (0,d): alpha={alpha}, d={d}")
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
    coef = _far_coefficients(d, ell, alpha)
    mant, expo = np.frexp(r)
    R = _powers(mant, coef.size)
    R *= sphere_area(d) * (alpha / d if ell else 1.0) * coef
    R *= (r ** ell)[:, None]
    col_scale = r ** (-alpha - ell)
    starts = np.flatnonzero(np.diff(expo, prepend=expo[0] - 1)).tolist()
    for g0, g1 in zip(starts, starts[1:] + [n]):
        j0 = int(far[g0])
        if j0 < n:
            S = _powers(np.ldexp(1.0, expo[g0]) / r[j0:], coef.size)
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

