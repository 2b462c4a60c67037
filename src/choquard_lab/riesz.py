"""Radial Riesz potentials |.|^{-alpha} * f, sector kernels, and the
ball-overlap function.

For a radial f the convolution reduces to a 1D integral against the
reduced kernel

    (|.|^{-alpha} * f)(r) = int_0^inf K_0(r, s) f(s) s^{d-1} ds,

and degree-l spherical-harmonic components see the kernel K_l obtained by
inserting the Gegenbauer weight into the angular integral.  Substituting
u = |x - y| turns the angular integral into

    K_l(r,s) = |S^{d-2}| (2rs)^{3-d} / (rs)
               * int_B^A u^{1-alpha} P_l(t(u)) [(A^2-u^2)(u^2-B^2)]^{(d-3)/2} du

with A = r+s, B = |r-s|, t(u) = (r^2+s^2-u^2)/(2rs).  For odd d the
bracket is a polynomial and the integral is elementary, a combination of
terms  poly(s) * (s+r)^g  and  poly(s) * |s-r|^g  (log variants when an
exponent crosses zero); these term tables serve only the exact route's
application operator.  For every d >= 2 the kernel is also a Gauss
hypergeometric function of z = 4rs/(r+s)^2, summed by its series: the
one kernel-value layer, behind the sector kernels of every d and the
"angular" route (the one route for even d).  At the Newtonian exponent
alpha = d-2 the l = 0 kernel collapses to |S^{d-1}| max(r,s)^{2-d}.

Application operators integrate, cell by cell, the kernel against the
quadratic interpolant of f alone.  The exact route takes every power and
log weight by closed-form moments; the angular route takes the
|s-r|^{d-1-alpha} factor on the cells beside the diagonal by Gauss-Jacobi.
So the kink or integrable singularity on the diagonal costs no accuracy.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np
from scipy.special import betainc, roots_jacobi, roots_legendre

from .grid import (RadialField, RadialGrid, _check_field, ball_volume,
                   sphere_area, write_atomic)


class RieszError(ValueError):
    """Invalid Riesz-potential request."""


_LOG_EPS = 1e-13  # exponent window treated as the log case
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
# kernel term tables for odd d
#
# K_l(r,s) s^{d-1} = sum over terms of  poly(s) * weight(s)  with weight one
# of (s+r)^g, |s-r|^g, ln(s+r), ln|s-r|.


def _poly(*coeffs) -> np.ndarray:
    return np.asarray(coeffs, dtype=float)


def _conv(p, q) -> np.ndarray:
    return np.convolve(p, q)


def _phi_poly_terms(alpha: float, raw, r: float):
    """Expand poly * Phi(beta) pieces, Phi(beta) = (A^{b+1}-B^{b+1})/(b+1).

    Terms tagged "AB2" carry an extra factor A^2 B^2 = (s^2-r^2)^2 which
    is folded so the |s-r| exponent stays above -1.
    """
    sm = _poly(r ** 2, -2.0 * r, 1.0)   # (s-r)^2
    sp = _poly(r ** 2, 2.0 * r, 1.0)    # (s+r)^2
    out = []
    for term in raw:
        poly, beta = term[0], term[1]
        folded = len(term) > 2 and term[2] == "AB2"
        e = beta + 1.0
        if abs(e) < _LOG_EPS:
            if folded:
                pf = _conv(poly, _conv(sm, sp))
                out.append(("Alog", None, pf))
                out.append(("Blog", None, -pf))
            else:
                out.append(("Alog", None, poly))
                out.append(("Blog", None, -poly))
        elif folded:
            # A^2 B^2 Phi(b) = [B^2 A^{b+3} - A^2 B^{b+3}]/(b+1)
            out.append(("A", e + 2.0, _conv(poly, sm) / e))
            out.append(("B", e + 2.0, -_conv(poly, sp) / e))
        else:
            out.append(("A", e, poly / e))
            out.append(("B", e, -poly / e))
    return out


def _odd_term_polys(d: int, ell: int, alpha: float, r: float):
    if d == 1:
        sign = 1.0 if ell == 0 else -1.0
        return [("B", -alpha, _poly(1.0)), ("A", -alpha, _poly(sign))]
    if d == 3:
        if ell == 0:
            base = 2.0 * math.pi / r * _poly(0.0, 1.0)      # (2 pi / r) s
            return _phi_poly_terms(alpha, [(base, 1.0 - alpha)], r)
        if ell == 1:
            c = math.pi / r ** 2
            return _phi_poly_terms(alpha, [
                (c * _poly(r ** 2, 0.0, 1.0), 1.0 - alpha),
                (_poly(-c), 3.0 - alpha)], r)
    if d == 5:
        s2 = _poly(r ** 2, 0.0, 1.0)                        # r^2 + s^2
        if ell == 0:
            pref = math.pi ** 2 / (2.0 * r ** 3) * _poly(0.0, 1.0)
            return _phi_poly_terms(alpha, [
                (-pref, 5.0 - alpha),
                (2.0 * _conv(pref, s2), 3.0 - alpha),
                (-pref, 1.0 - alpha, "AB2")], r)
        if ell == 1:
            pref = math.pi ** 2 / (4.0 * r ** 4)
            d2 = _conv(_poly(r ** 2, 0.0, -1.0), _poly(r ** 2, 0.0, -1.0))
            return _phi_poly_terms(alpha, [
                (pref * _poly(1.0), 7.0 - alpha),
                (-3.0 * pref * s2, 5.0 - alpha),
                (pref * _pad_add(2.0 * _conv(s2, s2), d2), 3.0 - alpha),
                (-pref * s2, 1.0 - alpha, "AB2")], r)
    raise RieszError(f"no closed-form kernel for d={d}, ell={ell}")


def _pad_add(p, q) -> np.ndarray:
    n = max(len(p), len(q))
    out = np.zeros(n)
    out[:len(p)] += p
    out[:len(q)] += q
    return out


def _group_terms(terms):
    groups: dict = {}
    for side, e, poly in terms:
        key = (side, None if e is None else round(e, 12))
        if key in groups:
            groups[key] = _pad_add(groups[key], poly)
        else:
            groups[key] = np.asarray(poly, dtype=float)
    return groups


def _term_table(d, ell, alpha, r: np.ndarray) -> dict:
    """Grouped term polynomials for every radius in ``r``.

    Maps (side, exponent) to coefficients in s of shape (deg+1, rows).
    The keys depend on alpha only; each row is built by the scalar term
    formulas, so a row does not depend on the rows beside it.
    """
    per_row = [_group_terms(_odd_term_polys(d, ell, alpha, ri)) for ri in r]
    return {key: np.stack([g[key] for g in per_row], axis=1)
            for key in per_row[0]}


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


def _series(a, b, c, x):
    """2F1(a, b; c; x) at x <= 3/4 by the Gauss series.

    Each x takes the terms it needs (every term left out is below 1e-17),
    so no value depends on the points beside it.  Horner runs over the
    points sorted by term count, longest first: the points still summing
    at order k are then a prefix.
    """
    shape, x = np.shape(x), np.ravel(x)
    k = np.arange(_TERMS - 1.0)
    coef = np.cumprod(np.r_[1.0, (a + k) * (b + k) / ((c + k) * (k + 1.0))])
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

    Integrates poly(s) * weight(s) * l_m(s) exactly on every cell; the
    result multiplies the f samples at the stencil nodes.  With
    t = s - c (c = -r for the A side, r for the B side), t^q w(t) has the
    antiderivative t^{q+1} |t|^e / (q+e+1) for w = |t|^e and
    t^{q+1} (ln|t| - 1/(q+1)) / (q+1) for w = ln|t|.  These are taken at
    the n + 1 cell edges, combined into antiderivatives of s^k * term,
    k = 0..2, summed over the groups, and differenced once per k.
    """
    G = [0.0, 0.0, 0.0]
    for (side, e), poly in groups.items():
        c = (-r if side.startswith("A") else r)[:, None]
        p = _shift_poly(poly, c)
        t = rule.edges - c
        at = np.abs(t)
        safe = np.where(at > 0, at, 1.0)   # at t = 0, T = t^{q+1} zeroes F
        logw = e is None
        if logw:
            e = 0.0
        w = np.log(safe) if logw else safe ** e
        # H[k]: antiderivative of t^k * term = sum_j p_j t^{j+k} w(t)
        H = [0.0, 0.0, 0.0]
        T = t
        for q in range(len(p) + 2):
            F = T * w
            if logw:
                F -= T / (q + 1)
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


def _newton_rows(grid: RadialGrid, rule: _CellRule, lo: int,
                 hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the Newtonian (alpha = d-2, l = 0) operator.

    Kernel |S^{d-1}| max(r,s)^{2-d}: polynomial s^{d-1} r^{2-d} inside,
    s outside, integrated exactly against f's interpolant.
    """
    d = grid.d
    n = grid.n
    area = sphere_area(d)
    # scalar pow per row, as in the term tables: numpy's vector pow may
    # round differently
    coef_in = np.array([area * ri ** (2 - d) for ri in grid.nodes[lo:hi]])
    coef_in = coef_in[:, None]
    inside = np.arange(n) <= np.arange(lo, hi)[:, None]
    M = _origin_moments(rule, 0.0, max(d - 1, 1) + 2)
    W = np.zeros((hi - lo, n))
    for m, lm in enumerate(rule.lagrange):
        cell_in = (coef_in * lm[0] * M[d - 1] + coef_in * lm[1] * M[d]
                   + coef_in * lm[2] * M[d + 1])
        cell_out = area * lm[0] * M[1] + area * lm[1] * M[2] \
            + area * lm[2] * M[3]
        rule.add_cells(W, np.where(inside, cell_in, cell_out), m)
    return W


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
    t, w = roots_legendre(8)
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
    x, wj = roots_jacobi(8, beta, 0.0)      # weight (1 - x)^beta
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
_CACHE_VERSION = 3


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

    ``method``: "newton" (alpha = d-2, l = 0 shell formula), "exact"
    (elementary reduced kernel, odd d), "angular" (the spherical mean in
    closed form, a Gauss 2F1, d >= 2), or "auto".  Matrices are cached in
    memory and, when CHOQUARD_LAB_CACHE is set, on disk.
    """
    d = grid.d
    if not (0.0 < alpha < d):
        raise RieszError(f"alpha outside (0,d): alpha={alpha}, d={d}")
    if ell not in (0, 1):
        raise RieszError(f"only sectors l in {{0,1}} are supported, got {ell}")
    if method == "auto":
        if ell == 0 and abs(alpha - (d - 2)) < 1e-14:
            method = "newton"
        elif d % 2 == 1:
            method = "exact"
        else:
            method = "angular"
    if method == "newton" and (ell != 0 or abs(alpha - (d - 2)) > 1e-14):
        raise RieszError("newton method requires alpha = d-2 and ell = 0")
    if method == "exact" and d % 2 == 0:
        raise RieszError("exact reduced kernels exist only for odd d")
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
    W = np.empty((n, n))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        if method == "newton":
            W[lo:hi] = _newton_rows(grid, rule, lo, hi)
        elif method == "exact":
            r = grid.nodes[lo:hi]
            W[lo:hi] = _rows_from_groups(rule, _term_table(d, ell, alpha, r), r)
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
    rule = _CellRule(grid)
    groups = {("B", d - 1.0 - alpha): np.full((1, 1), sphere_area(d))}
    row = _rows_from_groups(rule, groups, np.zeros(1))[0]
    return float(row @ values)


def riesz_bracket(grid: RadialGrid, f: RadialField, alpha: float) -> RadialField:
    """Two-sided control bracket of the Riesz potential,

        r^{-alpha} int_0^r f s^{d-1} ds + int_r^inf f s^{d-1-alpha} ds,

    defined for nonnegative radially decreasing f.
    """
    values = _check_field(grid, f)
    d = grid.d
    if not (0.0 < alpha < d):
        raise RieszError(f"alpha outside (0,d): alpha={alpha}, d={d}")
    scale = max(1.0, float(np.max(np.abs(values))))
    if np.any(values < -1e-12 * scale):
        raise RieszError("bracket requires a nonnegative input")
    if not RadialField(grid, values).is_radially_decreasing(tol=1e-12 * scale):
        raise RieszError("bracket requires a radially decreasing input")
    rule = _CellRule(grid)
    n = grid.n

    def cell_integrals(gamma):
        M = _origin_moments(rule, gamma, 2)
        per_cell = np.zeros(n)
        for m, lm in enumerate(rule.lagrange):
            per_cell += values[rule.j0 + m] * (lm[0] * M[0] + lm[1] * M[1]
                                               + lm[2] * M[2])
        return per_cell

    inner_cells = cell_integrals(d - 1.0)
    outer_cells = cell_integrals(d - 1.0 - alpha)
    inner_prefix = np.cumsum(inner_cells)
    outer_suffix = np.sum(outer_cells) - np.cumsum(outer_cells)
    vals = grid.nodes ** (-alpha) * inner_prefix + outer_suffix
    return RadialField(grid=grid, values=vals)


# ---------------------------------------------------------------------------
# sector kernel matrices


def sector_kernel(grid: RadialGrid, alpha: float, ell: int) -> np.ndarray:
    """Raw reduced-kernel samples K_l(r_i, r_j) from the 2F1 layer, for
    every d >= 2; finite entries require alpha < d - 1.

    Each sample depends on r, s only through r s, r^2 + s^2, (r - s)^2
    and r + s, so K is bitwise symmetric: the upper triangle is taken
    block by block and mirrored, with no symmetrisation step.
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
    r = grid.nodes
    n = grid.n
    K = np.empty((n, n))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        K[lo:hi, lo:] = _kernel_values(d, ell, alpha, r[lo:hi, None], r[lo:])
        K[lo:, lo:hi] = K[lo:hi, lo:].T
    return K


# ---------------------------------------------------------------------------
# ball overlap


def _cap_volume(d: int, R: float, a: float) -> float:
    """Volume of the cap {x in B_R : x_1 >= a}, a in [-R, R]."""
    if a <= -R:
        return ball_volume(d) * R ** d
    if a >= R:
        return 0.0
    if a < 0:
        return ball_volume(d) * R ** d - _cap_volume(d, R, -a)
    x = 1.0 - (a / R) ** 2
    return 0.5 * ball_volume(d) * R ** d * betainc((d + 1) / 2.0, 0.5, x)


def overlap_volume(d: int, R1: float, R2: float, r: float) -> float:
    """Exact volume of B_{R1}(0) intersect B_{R2}(x) with |x| = r.

    Symmetric in (R1, R2), nonincreasing in r; equals the volume of the
    smaller ball when one contains the other and 0 when the balls are
    disjoint.
    """
    if R1 <= 0 or R2 <= 0:
        raise RieszError(f"radii must be positive, got {R1}, {R2}")
    if r < 0:
        raise RieszError(f"center distance must be >= 0, got {r}")
    if r >= R1 + R2:
        return 0.0
    if r <= abs(R1 - R2):
        return ball_volume(d) * min(R1, R2) ** d
    a1 = (r ** 2 + R1 ** 2 - R2 ** 2) / (2.0 * r)
    a2 = r - a1
    return _cap_volume(d, R1, a1) + _cap_volume(d, R2, a2)
