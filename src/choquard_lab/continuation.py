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
nearest-to-zero sector eigenvalues on request.  The CLI verb runs
``sweep`` too, which resumes from the converged points of a manifest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .grid import (ChoquardParams, GridError, RadialField, RadialGrid,
                   write_atomic)
from .riesz import RieszError, riesz_apply_matrix
from .solver import (ConvergenceError, GroundState, SolverOptions,
                     _newton_refine, equation_residual, solve_choquard,
                     state_from_field, state_norms)
from .spectrum import assemble_lplus, eig_smallest


# halvings of the continuation increment before a failure is reported
_MAX_BISECTIONS = 6
# the norms and distances that sweep_to_csv writes for every record
_CSV_NORMS = ("L2", "H1", "Linf")
# a record's indent in the manifest: the "points" list sits in the top level
_POINT_INDENT = "    "


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

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRecord":
        """Inverse of ``dataclasses.asdict``; TypeError unless the norms,
        the distances and any spectral summary map names to numbers,
        ``converged`` is a bool, ``message`` a str, and a converged record
        has both maps' columns of ``sweep_to_csv``."""
        summary = data.get("spectral_summary")
        maps = (data["norms"], data["dist_to_newtonian"])
        for m in (*maps, {} if summary is None else summary):
            if not isinstance(m, dict) or any(
                    type(v) not in (int, float) for v in m.values()):
                raise TypeError(f"not a map of names to numbers: {m!r}")
        converged = data["converged"]
        if (type(converged) is not bool or type(data["message"]) is not str
                or converged and not all(k in m for m in maps
                                         for k in _CSV_NORMS)):
            raise TypeError(f"not a bool converged, a str message and, if "
                            f"converged, the norms {_CSV_NORMS}: {data!r}")
        return cls(**{**data, "params": ChoquardParams.from_dict(data["params"])})


def newton_continue(base: GroundState, target: ChoquardParams,
                    steps: int = 4,
                    opts: SolverOptions | None = None) -> GroundState:
    """Continue the base state to the target parameters.

    The homotopy is linear in (alpha, p) over ``steps`` increments (an int
    >= 1, else ValueError); a failed Newton solve bisects the increment
    (up to ``_MAX_BISECTIONS`` times) before reporting the last good
    parameter point.  The first increment starts Newton from the base
    state; every later attempt, also after a bisection, from the secant
    predictor through the last two accepted points (``_secant_start``).
    Returns a state whose fixed-point residual meets opts.tol; iteration
    residual history of the last increment is kept in ``newton_history``.
    """
    if type(steps) is not int or steps < 1:
        raise ValueError(f"steps must be an int >= 1, got {steps!r}")
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
    # the accepted point before (s_now, u); none before the first increment
    s_prev, u_prev = None, None
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
        u0, G0 = (u, None) if u_prev is None else _secant_start(
            grid, u, u + (s_try - s_now) / (s_now - s_prev) * (u - u_prev),
            pars.p, W)
        u_try, hist = _newton_refine(grid, u0, pars.p, W, opts.tol, G=G0)
        if hist[-1] <= opts.tol:
            s_prev, u_prev = s_now, u
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


def _secant_start(grid: RadialGrid, u: np.ndarray, guess: np.ndarray,
                  p: float, W: np.ndarray):
    """(start, residual): Newton's start at the next parameters, the
    secant ``guess`` if its sup-norm residual there is finite and below
    that of the accepted state ``u``, else ``u``, with its residual vector,
    which Newton then need not evaluate again.  Two residual evaluations."""
    G_guess = equation_residual(grid, guess, p, W)
    G_u = equation_residual(grid, u, p, W)
    r_guess = float(np.max(np.abs(G_guess)))
    if math.isfinite(r_guess) and r_guess < float(np.max(np.abs(G_u))):
        return guess, G_guess
    return u, G_u


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
          with_spectrum: bool = False, *, done: dict | None = None,
          manifest=None) -> list:
    """Solve every lattice point and record distances to the Newtonian state.

    The whole lattice is checked before any solve; per-point
    non-convergence is recorded (``converged=False``) and the sweep goes on.
    ``done`` maps (alpha, p) to converged records to reuse, as
    ``converged_points`` reads them; the reference is solved only if some
    point is missing.  A ``manifest`` path is rewritten atomically after
    every solved point, with the records so far in lattice order.  Each
    record is encoded once, when it is solved or reused, and every
    rewrite joins those texts, so a point's overhead does not grow with
    its position in the lattice.
    """
    opts = opts or SolverOptions()
    if grid.d != d:
        raise GridError(f"grid dimension {grid.d} != requested dimension {d}")
    want = [(pt.alpha, pt.p) for pt in lattice(d, alphas, ps, with_spectrum)]
    known = dict(done or {})
    if reference is None and any(pt not in known for pt in want):
        reference = solve_choquard(ChoquardParams(d, float(d - 2), 2.0),
                                   grid, opts)
    texts = ({pt: _point_text(known[pt]) for pt in want if pt in known}
             if manifest is not None else {})
    for pt in want:
        if pt in known:
            continue
        known[pt] = sweep_point(d, *pt, grid, opts, reference, with_spectrum)
        if manifest is not None:
            texts[pt] = _point_text(known[pt])
            text = _manifest_text([texts[q] for q in want if q in texts],
                                  grid, d)
            write_atomic(manifest, lambda fh: fh.write(text.encode()))
    return [known[pt] for pt in want]


def sweep_to_csv(records, path) -> None:
    """One CSV row per record, written atomically."""
    cols = ["alpha", "p", "converged", "L2", "H1", "Linf",
            "dist_L2", "dist_H1", "dist_Linf",
            "nearest_zero_ell0", "nearest_zero_ell1"]
    lines = [",".join(cols)]
    for rec in records:
        row = [f"{rec.params.alpha:.17g}", f"{rec.params.p:.17g}",
               "1" if rec.converged else "0"]
        for m in (rec.norms, rec.dist_to_newtonian):
            row += [f"{m.get(key, float('nan')):.17g}" for key in _CSV_NORMS]
        ss = rec.spectral_summary or {}
        row.append(f"{ss.get('nearest_zero_ell0', float('nan')):.17g}")
        row.append(f"{ss.get('nearest_zero_ell1', float('nan')):.17g}")
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    write_atomic(path, lambda fh: fh.write(text.encode()))


def _point_text(rec: SweepRecord) -> str:
    """The record's JSON as it stands in the manifest's points list: the
    ``indent=2`` text, shifted by the list's two levels."""
    return _POINT_INDENT + json.dumps(asdict(rec), indent=2).replace(
        "\n", "\n" + _POINT_INDENT)


def _manifest_text(points, grid: RadialGrid, d: int) -> str:
    """The manifest of the records whose ``_point_text`` are ``points``:
    the text of ``json.dumps({"d": d, "grid": grid.to_dict(), "points":
    [asdict(rec) for rec in records]}, indent=2)``.  JSON strings hold no
    raw newline, so shifting every line of a record reproduces the
    encoder's nesting exactly."""
    head = json.dumps({"d": d, "grid": grid.to_dict(), "points": []},
                      indent=2)
    if not points:
        return head
    return (head[:-len("[]\n}")] + "[\n" + ",\n".join(points)
            + "\n  ]\n}")


def converged_points(path, grid: RadialGrid) -> dict:
    """Converged records of the manifest at ``path`` written on ``grid``,
    by (alpha, p).  A manifest that cannot be read or is not a JSON object
    counts as absent, and so does a point that does not parse: that point
    is solved again."""
    try:
        old = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(old, dict) or old.get("grid") != grid.to_dict():
        return {}
    points = old.get("points")
    done = {}
    for pt in points if isinstance(points, list) else ():
        try:
            rec = SweepRecord.from_dict(pt)
        except (AttributeError, KeyError, TypeError, ValueError):
            continue
        if rec.converged:
            done[(rec.params.alpha, rec.params.p)] = rec
    return done
