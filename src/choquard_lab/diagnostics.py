"""Identity, bound, and parameter-window verification for computed states.

Covers the energy-balance and dilation (Pohozaev) identities, a priori
norm tables with the pointwise-decay certificate, the exponent-system
feasibility check behind the radial-symmetry window, and the weighted
exponential tail integral with its two-sided power bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import (ChoquardParams, ParameterError, RadialGrid,
                   differentiate, integrate_radial)
from .riesz import riesz_apply_matrix
from .solver import GroundState, nonlinear_term, state_norms


@dataclass
class PohozaevReport:
    """Residuals of the four functional identities of a solution.

    ``nonlocal_energy`` is int (|.|^{-a} * u^p) u^p (or int u^{p+1} for
    the local model); residuals are absolute, with ``scale`` =
    max(grad_sq, mass_sq) for relative reporting.
    """

    nonlocal_energy: float
    grad_sq: float
    mass_sq: float
    residual_func01: float
    residual_func02: float
    residual_func03: float
    residual_func04: float
    ratio_grad_mass: float
    predicted_ratio: float
    scale: float
    zero_field: bool = False

    @property
    def relative_residuals(self) -> dict:
        s = self.scale if self.scale > 0 else 1.0
        return {"func01": self.residual_func01 / s,
                "func02": self.residual_func02 / s,
                "func03": self.residual_func03 / s,
                "func04": self.residual_func04 / s}

    def max_relative(self) -> float:
        return max(self.relative_residuals.values())


def predicted_grad_mass_ratio(params) -> float:
    """|grad u|^2 / |u|^2 forced by the identities."""
    if isinstance(params, ChoquardParams):
        d, alpha, p = params.d, params.alpha, params.p
        return (p * d - (2 * d - alpha)) / ((2 * d - alpha) - p * (d - 2))
    d, p = params.d, params.p
    return d * (p - 1) / ((d + 2) - p * (d - 2))


def pohozaev_report(state: GroundState) -> PohozaevReport:
    """Evaluate the energy-balance and dilation identities by quadrature.

    Gradients use fourth-order stencils so that injecting an exact
    profile reproduces the identities to quadrature accuracy (~1e-8),
    while converged states show their genuine discretization error.
    """
    grid = state.grid
    u = state.field.values
    params = state.params
    d = params.d
    du = differentiate(grid, u)
    grad_sq = integrate_radial(grid, du ** 2)
    mass_sq = integrate_radial(grid, u ** 2)
    if isinstance(params, ChoquardParams):
        alpha, p = params.alpha, params.p
        W = riesz_apply_matrix(grid, alpha, 0)
        enl = integrate_radial(grid, (W @ np.abs(u) ** p) * np.abs(u) ** p)
        c01, c02 = 1.0, (2 * d - alpha) / (2 * p)
        c03 = (p * d - (2 * d - alpha)) / (2 * p)
        c04 = ((2 * d - alpha) - p * (d - 2)) / (2 * p)
    else:
        p = params.p
        enl = integrate_radial(grid, np.abs(u) ** (p + 1))
        c01, c02 = 1.0, d / (p + 1)
        c03 = d * (p - 1) / (2 * (p + 1))
        c04 = ((d + 2) - p * (d - 2)) / (2 * (p + 1))
    scale = max(grad_sq, mass_sq)
    zero = scale <= 0.0
    report = PohozaevReport(
        nonlocal_energy=enl,
        grad_sq=grad_sq,
        mass_sq=mass_sq,
        residual_func01=abs(grad_sq + mass_sq - c01 * enl),
        residual_func02=abs((d - 2) / 2 * grad_sq + d / 2 * mass_sq - c02 * enl),
        residual_func03=abs(grad_sq - c03 * enl),
        residual_func04=abs(mass_sq - c04 * enl),
        ratio_grad_mass=(grad_sq / mass_sq) if mass_sq > 0 else float("nan"),
        predicted_ratio=predicted_grad_mass_ratio(params),
        scale=scale,
        zero_field=zero,
    )
    return report


# ---------------------------------------------------------------------------
# exponent-system feasibility (radial-symmetry parameter window)

# subdivisions of each reciprocal-exponent interval in the lattice scan
_SCAN_POINTS = 9


@dataclass
class ExponentWitness:
    """Exact rational witness of the Holder-exponent bookkeeping system."""

    r: Fraction
    r1: Fraction
    r2: Fraction
    r3: Fraction
    t: Fraction
    t1: Fraction
    s: Fraction

    def equality_residuals(self, d: int, alpha: Fraction, p: Fraction) -> list:
        """The three coupling equalities, evaluated exactly."""
        e1 = 1 / self.t1 + (p - 2) / self.r1 + 1 / self.r - 1 / self.s
        e2 = (p - 1) / self.r2 + 1 / self.t - 1 / self.s
        e3 = 1 / self.t + Fraction(alpha, d) - (p - 1) / self.r3 - 1 / self.r
        return [e1, e2, e3]


@dataclass
class FeasibilityReport:
    feasible: bool
    witness: ExponentWitness | None
    residuals: list


def _exponent_intervals(d: int, alpha: Fraction, p: Fraction):
    lo_r = Fraction(d - 2, 2 * d)          # 1/r lower bound from r <= 2d/(d-2)
    hi_r = Fraction(1, 2)
    t_lo = p * Fraction(d - 2, 2 * d) - Fraction(d - alpha, d)
    t_hi = Fraction(alpha, d)              # open on the right
    return (lo_r, hi_r), (t_lo, t_hi)


def _check_witness(d, alpha, p, w: ExponentWitness) -> bool:
    (lo_r, hi_r), (t_lo, t_hi) = _exponent_intervals(d, alpha, p)
    for rr in (w.r, w.r1, w.r2, w.r3):
        x = 1 / rr
        if not (lo_r <= x <= hi_r):
            return False
    if not (w.r1 >= p - 2 and w.r2 >= p - 1 and w.r3 >= p - 1):
        return False
    for tt in (w.t, w.t1):
        x = 1 / tt
        # membership in [t_lo, t_hi) intersected with (0, 1)
        if not (t_lo <= x < t_hi and 0 < x < 1):
            return False
    xs = 1 / w.s
    if not (Fraction(2, d) <= xs <= 1):
        return False
    if not (1 / w.r <= xs <= 1 / w.r + Fraction(2, d)):
        return False
    return all(e == 0 for e in w.equality_residuals(d, alpha, p))


def _remark_witness(d: int, alpha: Fraction, p: Fraction) -> ExponentWitness | None:
    """Closed-form witnesses for d in {3,4}; r3 solved from the third
    equality (it coincides with the published table at the anchor
    exponents)."""
    if d == 3:
        r = r1 = Fraction(8, 3)
        r2 = Fraction(8, 3) * (p - 1)
        t = Fraction(24, 7)
        den = 7 - 9 * (p - 2)
        if den <= 0:
            return None
        t1 = Fraction(24, den)
        s = Fraction(3, 2)
    elif d == 4:
        r = r1 = Fraction(8, 3)
        r2 = Fraction(8, 3) * (p - 1)
        t = Fraction(4)
        den = 2 - 3 * (p - 2)
        if den <= 0:
            return None
        t1 = Fraction(8, den)
        s = Fraction(8, 5)
    else:
        return None
    # third equality: (p-1)/r3 = 1/t + alpha/d - 1/r
    rhs = 1 / t + Fraction(alpha, d) - 1 / r
    if rhs <= 0:
        return None
    r3 = (p - 1) / rhs
    return ExponentWitness(r=r, r1=r1, r2=r2, r3=r3, t=t, t1=t1, s=s)


def feasible_exponents(params: ChoquardParams) -> FeasibilityReport:
    """Search for exponents satisfying the coupling system exactly.

    Works in reciprocal variables, where the three equalities are linear;
    tries the closed-form witness first and falls back to a rational
    lattice scan over the free parameters.  Infeasibility (no witness
    found) is a valid outcome.
    """
    d = params.d
    if d < 3:
        raise ParameterError("exponent system is defined for d >= 3")
    if params.p < 2:
        raise ParameterError("exponent system requires p >= 2")
    alpha = Fraction(params.alpha).limit_denominator(10 ** 6)
    p = Fraction(params.p).limit_denominator(10 ** 6)

    w = _remark_witness(d, alpha, p)
    if w is not None and _check_witness(d, alpha, p, w):
        return FeasibilityReport(True, w, w.equality_residuals(d, alpha, p))

    (lo_r, hi_r), (t_lo, t_hi) = _exponent_intervals(d, alpha, p)
    t_lo = max(t_lo, Fraction(0))
    t_hi = min(t_hi, Fraction(1))
    if not (t_lo < t_hi):
        return FeasibilityReport(False, None, [])

    def lattice(lo, hi, m):
        span = hi - lo
        return sorted({lo + span * Fraction(k, m) for k in range(m + 1)})

    def candidates(lo, hi):
        """Sample points of [lo, hi]; the set often degenerates to a face,
        so endpoints and a few interior rationals are all tried."""
        if lo > hi:
            return []
        mid = (lo + hi) / 2
        return sorted({lo, mid, hi, (lo + mid) / 2, (mid + hi) / 2})

    ad = Fraction(alpha, d)
    r_cap = min(hi_r, Fraction(1) / (p - 1))   # 1/r2, 1/r3 must stay below
    if p > 2:
        xr1_grid = lattice(lo_r, min(hi_r, 1 / (p - 2)), _SCAN_POINTS)
    else:
        xr1_grid = [lo_r]  # r1 unconstrained by the equalities when p = 2
    for xr in lattice(lo_r, hi_r, _SCAN_POINTS):
        # x_t window forced by the r3 membership through equality (3)
        xt_lo = max(t_lo, (p - 1) * lo_r + xr - ad)
        xt_hi = min(t_hi, (p - 1) * r_cap + xr - ad)
        for xt in candidates(xt_lo, xt_hi):
            if not (t_lo <= xt < t_hi and 0 < xt < 1):
                continue
            xr3 = (xt + ad - xr) / (p - 1)
            if not (lo_r <= xr3 <= r_cap):
                continue
            for xr1 in xr1_grid:
                # x_s window: s membership, r2 membership via equality (2),
                # t1 membership via equality (1)
                xs_lo = max(Fraction(2, d), xr,
                            xt + (p - 1) * lo_r,
                            xr + (p - 2) * xr1 + t_lo)
                xs_hi = min(Fraction(1), xr + Fraction(2, d),
                            xt + (p - 1) * r_cap,
                            xr + (p - 2) * xr1 + t_hi)
                for xs in candidates(xs_lo, xs_hi):
                    xr2 = (xs - xt) / (p - 1)
                    xt1 = xs - (p - 2) * xr1 - xr
                    if not (lo_r <= xr2 <= r_cap):
                        continue
                    if not (t_lo <= xt1 < t_hi and 0 < xt1 < 1):
                        continue
                    w = ExponentWitness(r=1 / xr, r1=1 / xr1, r2=1 / xr2,
                                        r3=1 / xr3, t=1 / xt, t1=1 / xt1,
                                        s=1 / xs)
                    if _check_witness(d, alpha, p, w):
                        return FeasibilityReport(
                            True, w, w.equality_residuals(d, alpha, p))
    return FeasibilityReport(False, None, [])


# ---------------------------------------------------------------------------
# a priori norm table and decay certificate


def lq_norm(grid: RadialGrid, values: np.ndarray, q: float) -> float:
    return integrate_radial(grid, np.abs(values) ** q) ** (1.0 / q)


def apriori_report(state: GroundState, r_exponents=(2.0,)) -> dict:
    """Discrete L^q, H^1 and W^{2,q} surrogates plus the decay certificate.

    Second derivatives are recovered from the equation itself,
    Delta u = u - N(u)/u-structure, which avoids double numerical
    differentiation; the certificate is sup over the tail of
    (|u'(s)| + u(s)) e^{s/2}.
    """
    grid = state.grid
    u = state.field.values
    params = state.params
    du = differentiate(grid, u)
    out = state_norms(grid, u)
    # -Delta u = N(u) - u pointwise from the equation
    W = (riesz_apply_matrix(grid, params.alpha, 0)
         if isinstance(params, ChoquardParams) else None)
    lap = u - nonlinear_term(u, params.p, W)
    for q in r_exponents:
        out[f"L{q:g}"] = lq_norm(grid, u, q)
        out[f"W2_{q:g}"] = (lq_norm(grid, u, q) + lq_norm(grid, du, q)
                            + lq_norm(grid, lap, q))
    tail = grid.nodes >= 1.0
    cert = (np.abs(du[tail]) + np.abs(u[tail])) * np.exp(grid.nodes[tail] / 2.0)
    out["decay_certificate"] = float(np.max(cert)) if np.any(tail) else float("nan")
    return out


# ---------------------------------------------------------------------------
# weighted exponential tail integral


def exp_tail_integral(R: float, alpha: float, beta: float) -> float:
    """I(R; alpha, beta) = int_R^inf r^{-alpha} e^{-beta r} dr.

    Adaptive quadrature on a finite window plus an analytic remainder
    bound beyond; requires R >= 1 and beta >= 1/2 so the integrand is
    dominated by its exponential factor.
    """
    if not (R >= 1.0):
        raise ParameterError(f"need R >= 1, got {R}")
    if not (beta >= 0.5):
        raise ParameterError(f"need beta >= 1/2, got {beta}")
    import warnings

    from scipy.integrate import quad
    cutoff = R + max(50.0 / beta, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(lambda r: r ** (-alpha) * math.exp(-beta * r), R, cutoff,
                      epsabs=1e-16, epsrel=1e-13, limit=400)
    # remainder: int_T^inf r^{-a} e^{-br} dr expanded by parts twice
    T = cutoff
    rem = (T ** (-alpha) / beta) * math.exp(-beta * T) \
        * (1.0 - alpha / (beta * T) + alpha * (alpha + 1) / (beta * T) ** 2)
    return val + rem
