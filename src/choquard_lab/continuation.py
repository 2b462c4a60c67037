"""Parameter sweeps and Newton continuation in (alpha, p).

Continuation path-follows the root of

    G(u; alpha, p) = (-Delta_h + 1) u - (|.|^{-alpha} * u^p) u^{p-1}

along a straight line in (alpha, p), with a damped Newton iteration whose
Jacobian is the radial-sector linearized operator.  Damping (step halving
on residual increase) is mandatory here: the derivative of the map is
continuous only at the Newtonian exponent pair itself, so undamped steps
can overshoot even close to the target.

Sweeps solve a lattice of parameter points, one after another, record
norms and distances to the stored Newtonian reference state, and attach
nearest-to-zero sector eigenvalues on request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import (ChoquardParams, GridError, RadialField, RadialGrid,
                   write_atomic)
from .riesz import RieszError, riesz_apply_matrix
from .solver import (ConvergenceError, GroundState, SolverOptions,
                     _newton_refine, solve_choquard, state_from_field,
                     state_norms)
from .spectrum import assemble_lplus, eig_smallest


# halvings of the continuation increment before a failure is reported
_MAX_BISECTIONS = 6


class ContinuationError(RuntimeError):
    """Newton continuation failed; carries the last good parameter point."""

    def __init__(self, message, last_good: ChoquardParams | None = None):
        super().__init__(message)
        self.last_good = last_good


def distances(grid: RadialGrid, a: np.ndarray, b: np.ndarray) -> dict:
    """L2, H1 and Linf distances of two profiles on a common grid."""
    return {k: v for k, v in state_norms(grid, a - b).items()
            if k != "grad_L2"}


@dataclass
class SweepRecord:
    params: ChoquardParams
    converged: bool
    norms: dict
    dist_to_newtonian: dict
    spectral_summary: dict | None = None
    message: str = ""

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                "converged": self.converged,
                "norms": self.norms,
                "dist_to_newtonian": self.dist_to_newtonian,
                "spectral_summary": self.spectral_summary,
                "message": self.message}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRecord":
        """Inverse of to_dict; TypeError unless the norms, the distances
        and any spectral summary map names to numbers."""
        summary = data.get("spectral_summary")
        for m in (data["norms"], data["dist_to_newtonian"],
                  {} if summary is None else summary):
            if not isinstance(m, dict) or any(
                    type(v) not in (int, float) for v in m.values()):
                raise TypeError(f"not a map of names to numbers: {m!r}")
        return cls(**{**data, "params": ChoquardParams.from_dict(data["params"])})


def newton_continue(base: GroundState, target: ChoquardParams,
                    steps: int = 4,
                    opts: SolverOptions | None = None) -> GroundState:
    """Continue the base state to the target parameters.

    The homotopy is linear in (alpha, p) over ``steps`` increments; a
    failed Newton solve bisects the increment (up to ``_MAX_BISECTIONS``
    times) before reporting the last good parameter point.  Returns a
    state whose fixed-point residual meets opts.tol; iteration residual
    history of the last increment is kept in ``newton_history``.
    """
    opts = opts or SolverOptions()
    grid = base.grid
    start = base.params
    if not isinstance(start, ChoquardParams):
        raise ContinuationError("continuation needs a nonlocal-equation state")
    if target.d != start.d:
        raise ContinuationError("cannot continue across dimensions")
    if target.alpha == start.alpha and target.p == start.p:
        return base

    u = base.field.values.copy()
    s_now = 0.0
    ds = 1.0 / steps
    last_good = start
    history = [base.residual]
    bisections = 0
    while s_now < 1.0 - 1e-12:
        s_try = min(1.0, s_now + ds)
        pars = ChoquardParams(
            start.d,
            (1 - s_try) * start.alpha + s_try * target.alpha,
            (1 - s_try) * start.p + s_try * target.p)
        W = riesz_apply_matrix(grid, pars.alpha, 0)
        u_try, hist = _newton_refine(grid, u, pars.p, W, opts.tol)
        if hist[-1] <= opts.tol:
            u = u_try
            s_now = s_try
            ds = min(2 * ds, 1.0 - s_now) if s_now < 1.0 else ds
            last_good = pars
            history = hist
        else:
            ds *= 0.5
            bisections += 1
            if bisections > _MAX_BISECTIONS:
                raise ContinuationError(
                    f"Newton diverged at s={s_try:.4f} "
                    f"(residual {hist[-1]:.2e})", last_good=last_good)
    return state_from_field(target, RadialField(grid=grid, values=u),
                            history[-1], len(history), newton_history=history)


def lattice(d: int, alphas, ps, with_spectrum: bool = False) -> list:
    """Parameter points of the lattice (alphas outer, ps inner); raises
    ParameterError unless every point lies in the existence window, and
    RieszError if a spectrum is wanted where the sector kernel diverges
    (alpha >= d-1)."""
    ps = list(ps)
    points = [ChoquardParams(d, float(a), float(p)).check_existence_window()
              for a in alphas for p in ps]
    if not points:
        raise ValueError("sweep lattice is empty")
    bad = sorted({pt.alpha for pt in points if pt.alpha >= d - 1})
    if with_spectrum and bad:
        raise RieszError(f"the sector spectrum needs alpha < d-1 = {d - 1}, "
                         f"got alpha in {bad}")
    return points


def sweep_point(d: int, alpha: float, p: float, grid: RadialGrid,
                opts: SolverOptions, reference: GroundState,
                with_spectrum: bool = False) -> SweepRecord:
    """Solve one admissible lattice point and measure it against the
    reference; a solve that does not converge is recorded, not raised."""
    pars = ChoquardParams(d, alpha, p)
    try:
        st = solve_choquard(pars, grid, opts)
    except ConvergenceError as exc:
        return SweepRecord(params=pars, converged=False, norms={},
                           dist_to_newtonian={}, message=str(exc))
    summary = None
    if with_spectrum:
        summary = {}
        for ell in (0, 1):
            vals = [v for v, _ in eig_smallest(assemble_lplus(st, ell), 4)]
            summary[f"nearest_zero_ell{ell}"] = min(vals, key=abs)
    return SweepRecord(
        params=pars, converged=True, norms=st.norms,
        dist_to_newtonian=distances(grid, st.field.values,
                                    reference.field.values),
        spectral_summary=summary)


def sweep(d: int, alphas, ps, grid: RadialGrid,
          opts: SolverOptions | None = None,
          reference: GroundState | None = None,
          with_spectrum: bool = False):
    """Solve every lattice point and record distances to the Newtonian state.

    The whole lattice is checked before any solve; per-point
    non-convergence is recorded (``converged=False``) and the sweep goes on.
    """
    opts = opts or SolverOptions()
    if grid.d != d:
        raise GridError(f"grid dimension {grid.d} != requested dimension {d}")
    points = lattice(d, alphas, ps, with_spectrum)
    if reference is None:
        reference = solve_choquard(ChoquardParams(d, float(d - 2), 2.0),
                                   grid, opts)
    return [sweep_point(d, pt.alpha, pt.p, grid, opts, reference,
                        with_spectrum) for pt in points]


def sweep_to_csv(records, path) -> None:
    """One CSV row per record, written atomically."""
    cols = ["alpha", "p", "converged", "L2", "H1", "Linf",
            "dist_L2", "dist_H1", "dist_Linf",
            "nearest_zero_ell0", "nearest_zero_ell1"]
    lines = [",".join(cols)]
    for rec in records:
        row = [f"{rec.params.alpha:.17g}", f"{rec.params.p:.17g}",
               "1" if rec.converged else "0"]
        for key in ("L2", "H1", "Linf"):
            row.append(f"{rec.norms.get(key, float('nan')):.17g}")
        for key in ("L2", "H1", "Linf"):
            row.append(f"{rec.dist_to_newtonian.get(key, float('nan')):.17g}")
        ss = rec.spectral_summary or {}
        row.append(f"{ss.get('nearest_zero_ell0', float('nan')):.17g}")
        row.append(f"{ss.get('nearest_zero_ell1', float('nan')):.17g}")
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    write_atomic(path, lambda fh: fh.write(text.encode()))


def sweep_manifest(records, grid: RadialGrid, d: int) -> str:
    return json.dumps({
        "d": d,
        "grid": grid.to_dict(),
        "points": [rec.to_dict() for rec in records],
    }, indent=2)
