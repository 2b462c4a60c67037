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
exponent crosses zero).  For even d it is evaluated by a graded Gauss
rule in an angle variable.  At the Newtonian exponent alpha = d-2 the
l = 0 kernel collapses to |S^{d-1}| max(r,s)^{2-d}.

Application operators integrate, cell by cell, the exact kernel against
the quadratic interpolant of f alone; all power and log weights are
handled by closed-form moments, so the kink or integrable singularity on
the diagonal costs no accuracy, and different kernel routes differ only
by their kernel values, not by quadrature structure.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc, roots_legendre

from .grid import (RadialField, RadialGrid, _check_field, ball_volume,
                   sphere_area)


class RieszError(ValueError):
    """Invalid Riesz-potential request."""


_LOG_EPS = 1e-13  # exponent window treated as the log case


# ---------------------------------------------------------------------------
# exact cell moments


def _power_moments(a, b, c, gamma, kmax):
    """M_k = int_a^b (s-c)^k |s-c|^gamma ds for k = 0..kmax.

    ``c`` never lies strictly inside a cell (it is a node, the origin, or
    -r).  Requires gamma > -1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    left = b <= c + 1e-300  # s - c <= 0 on the whole cell
    hi = np.where(left, c - a, b - c)
    lo = np.where(left, c - b, a - c)
    hi = np.maximum(hi, 0.0)
    lo = np.maximum(lo, 0.0)
    out = []
    for k in range(kmax + 1):
        e = k + gamma + 1.0
        if abs(e) < _LOG_EPS:
            # the antiderivative degenerates to a logarithm; arguments are
            # bounded away from zero whenever this exponent can occur
            m = np.log(hi / lo)
        else:
            m = (hi ** e - lo ** e) / e
        out.append(np.where(left, m * (-1.0) ** k, m))
    return out


def _log_moments(a, b, c, kmax):
    """int_a^b (s-c)^k ln|s-c| ds for k = 0..kmax."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    left = b <= c + 1e-300
    hi = np.maximum(np.where(left, c - a, b - c), 0.0)
    lo = np.maximum(np.where(left, c - b, a - c), 0.0)
    out = []
    for k in range(kmax + 1):
        e = k + 1.0

        def prim(u):
            safe = np.where(u > 0, u, 1.0)
            return np.where(u > 0, u ** e * (np.log(safe) / e - 1.0 / e ** 2),
                            0.0)

        m = prim(hi) - prim(lo)
        out.append(np.where(left, m * (-1.0) ** k, m))
    return out


def _shift_poly(coeffs: np.ndarray, c: float) -> np.ndarray:
    """Rewrite sum_k coeffs[k] s^k in powers of (s - c)."""
    deg = len(coeffs) - 1
    out = np.zeros(deg + 1)
    for k, ck in enumerate(coeffs):
        if ck == 0.0:
            continue
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
        self.a = np.concatenate([[0.0], x[:-1]])
        self.b = x.copy()
        self.j0 = np.clip(np.arange(n) - 1, 0, n - 3)
        self.xs = np.stack([x[self.j0 + m] for m in range(3)], axis=0)

    def lagrange_polys(self, c: float):
        """Per-cell coefficients of l_m in powers of (s - c), shape (3,3,n)."""
        polys = []
        for m in range(3):
            others = [k for k in range(3) if k != m]
            a1 = self.xs[others[0]] - c
            a2 = self.xs[others[1]] - c
            dm = ((self.xs[m] - self.xs[others[0]])
                  * (self.xs[m] - self.xs[others[1]]))
            polys.append(np.stack([a1 * a2 / dm, -(a1 + a2) / dm,
                                   np.ones_like(dm) / dm]))
        return polys


_CELL_RULES: dict = {}


def _cell_rule(grid: RadialGrid) -> _CellRule:
    key = (grid.d, grid.n, grid.r_max, grid.stretch)
    rule = _CELL_RULES.get(key)
    if rule is None:
        rule = _CellRule(grid)
        _CELL_RULES[key] = rule
    return rule


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


def _odd_kernel_times_sd(d, ell, alpha, r: float, s: np.ndarray) -> np.ndarray:
    """Pointwise K_l(r, s) s^{d-1} from the closed-form term table."""
    s = np.asarray(s, dtype=float)
    acc = np.zeros_like(s)
    A = s + r
    B = np.abs(s - r)
    Bsafe = np.where(B > 0, B, 1.0)
    for (side, e), poly in _group_terms(_odd_term_polys(d, ell, alpha, r)).items():
        pv = np.polynomial.polynomial.polyval(s, poly)
        if side == "A":
            acc += pv * A ** e
        elif side == "B":
            acc += pv * np.where(B > 0, Bsafe ** e, 0.0 if e > 0 else np.inf)
        elif side == "Alog":
            acc += pv * np.log(A)
        else:
            acc += pv * np.where(B > 0, np.log(Bsafe), 0.0) \
                + np.where((B == 0) & (pv != 0), -np.inf, 0.0)
    return acc


# ---------------------------------------------------------------------------
# even-d kernel values by graded angular quadrature

_PSI_RULE: dict = {}


def _psi_rule(npts: int = 200, grading: float = 4.0):
    key = (npts, grading)
    rule = _PSI_RULE.get(key)
    if rule is None:
        t, w = roots_legendre(npts)
        tau = 0.5 * (t + 1.0)
        psi = (math.pi / 2.0) * tau ** grading
        jac = (math.pi / 2.0) * grading * tau ** (grading - 1.0) * 0.5 * w
        rule = (np.sin(psi) ** 2, np.sin(psi) * np.cos(psi), jac)
        _PSI_RULE[key] = rule
    return rule


def _angular_kernel_values(d, ell, alpha, r, s, npts: int = 200):
    """K_l(r,s) for d >= 2 via u^2 = B^2 cos^2 psi + A^2 sin^2 psi.

    The graded rule resolves the u^{-alpha} boundary layer of width
    ~ B/A.  Finite on the diagonal only for alpha < d - 1.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    A = r + s
    B = np.abs(r - s)
    sin2, sc, jac = _psi_rule(npts)
    u2 = B[..., None] ** 2 + (A[..., None] ** 2 - B[..., None] ** 2) * sin2
    integ = u2 ** (-alpha / 2.0)
    if ell == 1:
        t = ((r[..., None] ** 2 + s[..., None] ** 2 - u2)
             / (2.0 * r[..., None] * s[..., None]))
        integ = integ * t
    integ = integ * sc ** (d - 2)
    J = (A ** 2 - B ** 2) ** (d - 2) * (integ @ jac)
    pref = sphere_area(d - 1) * (2.0 * r * s) ** (3 - d) / (r * s)
    return pref * J


# ---------------------------------------------------------------------------
# application operators (product integration of f's interpolant)


def _row_from_groups(rule: _CellRule, groups, r: float):
    """Row weights from grouped (side, exponent) -> poly tables.

    Integrates poly(s) * weight(s) * l_m(s) exactly on every cell; the
    result multiplies the f samples at the stencil nodes.
    """
    n = rule.b.size
    row = np.zeros(n)
    for (side, e), poly in groups.items():
        c = -r if side.startswith("A") else r
        shifted = _shift_poly(poly, c)
        lag = rule.lagrange_polys(c)
        kmax = len(shifted) - 1 + 2
        if side in ("Alog", "Blog"):
            M = _log_moments(rule.a, rule.b, c, kmax)
        else:
            M = _power_moments(rule.a, rule.b, c, e, kmax)
        for m in range(3):
            lm = lag[m]  # (3, ncells) coefficients in (s-c)
            cell = np.zeros(n)
            for j, pj in enumerate(shifted):
                if pj == 0.0:
                    continue
                for k in range(3):
                    cell += pj * lm[k] * M[j + k]
            np.add.at(row, rule.j0 + m, cell)
    return row


def _newton_row(grid: RadialGrid, rule: _CellRule, i: int) -> np.ndarray:
    """Row of the Newtonian (alpha = d-2, l = 0) application operator.

    Kernel |S^{d-1}| max(r,s)^{2-d}: polynomial s^{d-1} r^{2-d} inside,
    s outside, integrated exactly against f's interpolant.
    """
    d = grid.d
    r = grid.nodes[i]
    n = grid.n
    area = sphere_area(d)
    inside = np.arange(n) <= i

    poly_in = np.zeros(d)
    poly_in[d - 1] = area * r ** (2 - d)
    poly_out = np.array([0.0, area])
    kmax = max(d - 1, 1) + 2
    M = _power_moments(rule.a, rule.b, 0.0, 0.0, kmax)
    lag = rule.lagrange_polys(0.0)
    row = np.zeros(n)
    for m in range(3):
        lm = lag[m]
        cell_in = np.zeros(n)
        cell_out = np.zeros(n)
        for j in range(d):
            if poly_in[j]:
                for k in range(3):
                    cell_in += poly_in[j] * lm[k] * M[j + k]
        for j in range(2):
            if poly_out[j]:
                for k in range(3):
                    cell_out += poly_out[j] * lm[k] * M[j + k]
        np.add.at(row, rule.j0 + m, np.where(inside, cell_in, cell_out))
    return row


def _exact_row(grid: RadialGrid, rule: _CellRule, i: int, alpha: float,
               ell: int) -> np.ndarray:
    r = grid.nodes[i]
    groups = _group_terms(_odd_term_polys(grid.d, ell, alpha, r))
    return _row_from_groups(rule, groups, r)


def _angular_rows(grid: RadialGrid, alpha: float, ell: int,
                  ngauss: int = 8, npts: int = 200) -> np.ndarray:
    """All rows of the angular-quadrature application operator.

    Cell integrals of K(r_i, s) s^{d-1} l_m(s) by per-cell Gauss;
    the kernel is smooth inside every cell because the diagonal falls on
    cell boundaries.
    """
    d = grid.d
    rule = _cell_rule(grid)
    n = grid.n
    t, w = roots_legendre(ngauss)
    mid = 0.5 * (rule.a + rule.b)
    half = 0.5 * (rule.b - rule.a)
    sq = mid[:, None] + half[:, None] * t[None, :]     # (cells, ngauss)
    wq = half[:, None] * w[None, :]
    lm_at_sq = []
    for m in range(3):
        others = [k for k in range(3) if k != m]
        lm = ((sq - rule.xs[others[0]][:, None])
              * (sq - rule.xs[others[1]][:, None])
              / ((rule.xs[m] - rule.xs[others[0]])
                 * (rule.xs[m] - rule.xs[others[1]]))[:, None])
        lm_at_sq.append(lm)
    base = wq * sq ** (d - 1)
    W = np.zeros((n, n))
    flat_s = sq.ravel()
    # keep the (rows x points x psi) intermediate around 50 MB
    chunk = max(1, int(6e7 / (flat_s.size * npts)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        rr = np.repeat(grid.nodes[lo:hi, None], flat_s.size, axis=1)
        ss = np.broadcast_to(flat_s, rr.shape)
        K = _angular_kernel_values(d, ell, alpha, rr, ss, npts)
        K = K.reshape(hi - lo, n, ngauss)
        G = K * base[None, :, :]
        for m in range(3):
            contrib = np.sum(G * lm_at_sq[m][None, :, :], axis=2)
            for ii in range(lo, hi):
                np.add.at(W[ii], rule.j0 + m, contrib[ii - lo])

    # The kernel is analytic inside every cell except for a fractional
    # |s - r_i| power at the diagonal endpoint; redo the two adjacent
    # cells of each row with a graded subcell rule.
    nsub, ratio = 10, 3.0
    t01 = 0.5 * (t + 1.0)
    for i in range(n):
        r = grid.nodes[i]
        for j in (i, i + 1):
            if j >= n:
                continue
            a, b = rule.a[j], rule.b[j]
            width = b - a
            if width <= 0:
                continue
            # fractions of the cell, graded toward the singular end
            fr = ratio ** np.arange(nsub + 1)
            fr = (fr - 1.0) / (fr[-1] - 1.0)
            if j == i:      # singularity at the right end s = b = r_i
                edges = b - width * fr[::-1]
            else:           # singularity at the left end s = a = r_i
                edges = a + width * fr
            sa, sb = edges[:-1], edges[1:]
            ssub = sa[:, None] + (sb - sa)[:, None] * t01[None, :]
            wsub = 0.5 * (sb - sa)[:, None] * w[None, :]
            Ksub = _angular_kernel_values(
                d, ell, alpha, np.full_like(ssub, r), ssub, npts)
            gsub = wsub * Ksub * ssub ** (d - 1)
            gold = base[j] * _angular_kernel_values(
                d, ell, alpha, np.full_like(sq[j], r), sq[j], npts)
            for m in range(3):
                others = [k for k in range(3) if k != m]
                denom = ((rule.xs[m][j] - rule.xs[others[0]][j])
                         * (rule.xs[m][j] - rule.xs[others[1]][j]))
                lm_sub = ((ssub - rule.xs[others[0]][j])
                          * (ssub - rule.xs[others[1]][j]) / denom)
                W[i, rule.j0[j] + m] += (np.sum(gsub * lm_sub)
                                         - np.sum(gold * lm_at_sq[m][j]))
    return W


_APPLY_CACHE: dict = {}


def _cache_dir() -> Path | None:
    path = os.environ.get("CHOQUARD_LAB_CACHE")
    return Path(path) if path else None


def _save_atomic(path: Path, W: np.ndarray) -> None:
    """Write through a per-process temp file in the same directory and
    rename it onto ``path``, so a reader sees either no file or a whole one."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:   # a handle: np.save adds no suffix
            np.save(fh, W)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def clear_caches() -> None:
    _APPLY_CACHE.clear()
    _CELL_RULES.clear()


def riesz_apply_matrix(grid: RadialGrid, alpha: float, ell: int = 0,
                       method: str = "auto") -> np.ndarray:
    """Dense operator W with (|.|^{-alpha} *_l f)(r_i) = (W f)_i.

    ``method``: "newton" (alpha = d-2, l = 0 shell formula), "exact"
    (elementary reduced kernel, odd d), "angular" (graded angular
    quadrature, d >= 2), or "auto".  Matrices are cached in memory and,
    when CHOQUARD_LAB_CACHE is set, on disk.
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
        raise RieszError("angular quadrature requires d >= 2")

    key = (grid.d, grid.n, grid.r_max, grid.stretch,
           round(alpha, 14), ell, method)
    W = _APPLY_CACHE.get(key)
    if W is not None:
        return W
    cdir = _cache_dir()
    fname = None
    if cdir is not None:
        tag = "_".join(str(k).replace(".", "p") for k in key)
        fname = cdir / f"riesz_{tag}.npy"
        try:
            W = np.load(fname)
        except (OSError, ValueError, EOFError):   # missing or unreadable
            W = None
        if W is not None and W.shape == (grid.n, grid.n):
            _APPLY_CACHE[key] = W
            return W   # anything else is assembled again and rewritten

    rule = _cell_rule(grid)
    n = grid.n
    if method == "angular":
        W = _angular_rows(grid, alpha, ell)
    else:
        W = np.empty((n, n))
        for i in range(n):
            if method == "newton":
                W[i] = _newton_row(grid, rule, i)
            else:
                W[i] = _exact_row(grid, rule, i, alpha, ell)
    _APPLY_CACHE[key] = W
    if fname is not None:
        cdir.mkdir(parents=True, exist_ok=True)
        _save_atomic(fname, W)
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
    rule = _cell_rule(grid)
    groups = {("B", d - 1.0 - alpha): _poly(sphere_area(d))}
    row = _row_from_groups(rule, groups, 0.0)
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
    rule = _cell_rule(grid)
    n = grid.n

    def cell_integrals(gamma):
        M = _power_moments(rule.a, rule.b, 0.0, gamma, 2)
        lag = rule.lagrange_polys(0.0)
        per_cell = np.zeros(n)
        for m in range(3):
            lm = lag[m]
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


@dataclass
class SectorKernel:
    """Raw reduced-kernel samples K_l(r_i, s_j) on a grid."""

    d: int
    alpha: float
    ell: int
    grid: RadialGrid
    matrix: np.ndarray

    def symmetry_defect(self) -> float:
        m = np.max(np.abs(self.matrix))
        return float(np.max(np.abs(self.matrix - self.matrix.T)) / m)

    def save(self, stem) -> None:
        """Binary row-major float64 dump plus a JSON sidecar."""
        stem = Path(stem)
        self.matrix.astype(np.float64).tofile(stem.with_suffix(".bin"))
        sidecar = {"d": self.d, "alpha": self.alpha, "ell": self.ell,
                   "n": self.grid.n, "grid": self.grid.to_dict()}
        stem.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))

    @classmethod
    def load(cls, stem) -> "SectorKernel":
        stem = Path(stem)
        sidecar = json.loads(stem.with_suffix(".json").read_text())
        grid = RadialGrid.from_dict(sidecar["grid"])
        mat = np.fromfile(stem.with_suffix(".bin"), dtype=np.float64)
        mat = mat.reshape(sidecar["n"], sidecar["n"])
        return cls(d=sidecar["d"], alpha=sidecar["alpha"], ell=sidecar["ell"],
                   grid=grid, matrix=mat)


def sector_kernel(grid: RadialGrid, alpha: float, ell: int) -> SectorKernel:
    """Assemble K_l(r_i, s_j); finite entries require alpha < d - 1."""
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
    if d % 2 == 1:
        K = np.empty((n, n))
        sd = r ** (d - 1)
        for i in range(n):
            K[i] = _odd_kernel_times_sd(d, ell, alpha, r[i], r) / sd
    else:
        K = np.empty((n, n))
        chunk = max(1, int(4e7 / (n * 200)))
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            R = np.repeat(r[lo:hi, None], n, axis=1)
            S = np.broadcast_to(r, R.shape)
            K[lo:hi] = _angular_kernel_values(d, ell, alpha, R, S)
    K = 0.5 * (K + K.T)
    return SectorKernel(d=d, alpha=alpha, ell=ell, grid=grid, matrix=K)


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
