"""Ground-state solvers for the nonlocal equation and its local model.

The discrete problem for the nonlocal equation is

    (-Delta_h + 1) u = (W u^p) u^{p-1},   W = Riesz application operator,

solved by a normalized fixed-point iteration: each step applies the
inverse shifted Laplacian to the nonlinearity and rescales by a power of
the Rayleigh quotient S = <(-Delta+1)u, u> / <N(u), u> so that the
energy-balance identity holds at the fixed point.  Anderson mixing of
depth 5 accelerates the iteration, which then reaches the requested
residual by itself.  A damped Newton-Krylov step (shared with the
continuation module; GMRES preconditioned by the kinetic tridiagonal, no
n x n Jacobian) is only the fallback, after a stall or when max_iter
runs out.

The local model -u'' + u - u^p = 0 in d = 1 is additionally offered on a
Numerov discretization (fourth order), accurate enough to compare
against the closed-form soliton family to 1e-6 on moderate grids.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .grid import (ChoquardParams, GridError, ParameterError, RadialField,
                   RadialGrid, band_matvec, differentiate, integrate_radial,
                   kinetic_tridiag, write_atomic)
from .riesz import riesz_apply_matrix

# GMRES of a Newton step stops at this residual of the preconditioned
# system, relative to K^{-1} G, or after one cycle of _KRYLOV_CYCLE
# iterations (8 to 11 are needed near the Newtonian pair)
_KRYLOV_RTOL = 1e-12
_KRYLOV_CYCLE = 60
_EPS = float(np.finfo(float).eps)
# Anderson mixing of the fixed-point phase uses the last 5 differences
_ANDERSON_DEPTH = 5


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual."""

    def __init__(self, message, last_residual=None, iterations=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


class FitError(ValueError):
    """Tail fit cannot be performed reliably."""


@dataclass(frozen=True)
class ModelParams:
    """Parameters (d, p) of the local model equation."""

    d: int
    p: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ParameterError(f"d must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        if self.p <= 1.0:
            raise ParameterError(f"p must be > 1, got {self.p}")
        if self.d >= 3 and self.p >= (self.d + 2) / (self.d - 2):
            raise ParameterError(
                f"p={self.p} supercritical for d={self.d} "
                f"(needs p < {(self.d + 2) / (self.d - 2)})")


@dataclass
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ParameterError(f"tol must be positive and finite, got "
                                 f"{self.tol}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class DecayFit:
    gamma: float
    C: float
    beta: float
    window: tuple


@dataclass
class GroundState:
    params: ChoquardParams | ModelParams
    field: RadialField
    residual: float
    iterations: int
    decay: DecayFit | None
    norms: dict
    # residuals of the last Newton solve of a continuation; not saved
    newton_history: list = field(default_factory=list)

    @property
    def grid(self) -> RadialGrid:
        return self.field.grid

    @property
    def equation(self) -> str:
        return "choquard" if isinstance(self.params, ChoquardParams) else "model"

    def to_json(self) -> str:
        return json.dumps({
            "equation": self.equation,
            "params": asdict(self.params),
            "grid": self.grid.to_dict(),
            "residual": self.residual,
            "iterations": self.iterations,
            "decay": asdict(self.decay) if self.decay else None,
            "norms": self.norms,
        }, indent=2)

    def save(self, stem) -> None:
        """Write <stem>.json metadata and <stem>.csv profile, each
        atomically."""
        stem = Path(stem)
        text = self.to_json()
        write_atomic(stem.with_suffix(".json"),
                     lambda fh: fh.write(text.encode()))
        self.field.to_csv(stem.with_suffix(".csv"))

    @classmethod
    def load(cls, stem) -> "GroundState":
        """Inverse of save; ValueError if either file is not one that save
        writes (``equation`` is "choquard" or "model", an integral d that
        params and grid share, values finite)."""
        stem = Path(stem)
        meta = json.loads(stem.with_suffix(".json").read_text())
        try:
            grid = RadialGrid.from_dict(meta["grid"])
            eq, pars, dd = meta["equation"], meta["params"], meta.get("decay")
            if eq not in ("choquard", "model"):
                raise ValueError(f"equation must be 'choquard' or 'model', "
                                 f"got {eq!r}")
            params = (ChoquardParams.from_dict(pars) if eq == "choquard"
                      else ModelParams(pars["d"], float(pars["p"])))
            if params.d != grid.d:
                raise ValueError(f"params dimension {params.d} != grid "
                                 f"dimension {grid.d}")
            decay = None if not dd else DecayFit(
                float(dd["gamma"]), float(dd["C"]), float(dd["beta"]),
                tuple(dd["window"]))
            kept = {k: meta[k] for k in ("residual", "iterations", "norms")}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{stem.with_suffix('.json')} is not a saved "
                             f"state: {exc!r}") from None
        fld = RadialField.from_csv(stem.with_suffix(".csv"), grid=grid)
        return cls(params=params, field=fld, decay=decay, **kept)


# ---------------------------------------------------------------------------
# shared discrete pieces


def tridiag_solver(ab: np.ndarray):
    """Solve with the tridiagonal ``ab`` (layout of ``kinetic_tridiag``):
    LAPACK gttrf factors it once, and each call of the returned function
    is one gttrs solve."""
    from scipy.linalg.lapack import dgttrf, dgttrs
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:
        raise ConvergenceError(f"tridiagonal matrix is singular (pivot "
                               f"{info} is zero)")

    def solve(v):
        return dgttrs(dl, d, du, du2, ipiv, v)[0]

    return solve


def nonlinear_term(u: np.ndarray, p: float, W: np.ndarray | None) -> np.ndarray:
    """N(u): (W u^p) u^{p-1} for the nonlocal equation, u^p for the model."""
    if W is None:
        return np.abs(u) ** (p - 1) * u
    return (W @ np.abs(u) ** p) * np.abs(u) ** (p - 2) * u


def equation_residual(grid: RadialGrid, u: np.ndarray, p: float,
                      W: np.ndarray | None, ab=None) -> np.ndarray:
    """Pointwise residual (-Delta_h + 1) u - N(u)."""
    if ab is None:
        ab = kinetic_tridiag(grid, 0)
    return band_matvec(ab, u) - nonlinear_term(u, p, W)


def state_norms(grid: RadialGrid, values: np.ndarray) -> dict:
    l2sq = integrate_radial(grid, values ** 2)
    du = differentiate(grid, values)
    gradsq = integrate_radial(grid, du ** 2)
    return {
        "L2": math.sqrt(max(l2sq, 0.0)),
        "grad_L2": math.sqrt(max(gradsq, 0.0)),
        "H1": math.sqrt(max(l2sq + gradsq, 0.0)),
        "Linf": float(np.max(np.abs(values))),
    }


def linearized_matrix(grid: RadialGrid, u: np.ndarray, p: float,
                      W: np.ndarray | None, ab=None):
    """Jacobian J = K - B of (-Delta_h + 1) u - N(u) about u (radial
    sector), as a scipy LinearOperator; no n x n array is formed.

    K is the kinetic tridiagonal ``ab``.  For the nonlocal equation
    B v = (p-1) V v + p a W(a v) with V = (W |u|^p) |u|^{p-2} and
    a = |u|^{p-1}, the radial-sector restriction of the linearized
    operator; for the local model (W = None) B v = p |u|^{p-1} v.
    """
    from scipy.sparse.linalg import LinearOperator
    if ab is None:
        ab = kinetic_tridiag(grid, 0)
    a = np.abs(u) ** (p - 1)
    if W is None:
        def coupling(v):
            return p * a * v
    else:
        V = (W @ np.abs(u) ** p) * np.abs(u) ** (p - 2)

        def coupling(v):
            return (p - 1) * V * v + p * a * (W @ (a * v))

    def matvec(v):
        v = np.ravel(v)
        return band_matvec(ab, v) - coupling(v)

    return LinearOperator((grid.n, grid.n), matvec=matvec, dtype=float)


def _krylov_step(J, G: np.ndarray, kinv):
    """Newton step s with J s = G by one restart-free GMRES cycle on
    (K^{-1} J) s = K^{-1} G from s = 0, K the kinetic tridiagonal and
    ``kinv`` its ``tridiag_solver``.  K^{-1} J = I - K^{-1} B, with B
    smoothing, so the iteration count does not grow with n.

    The cycle stops as scipy's ``gmres`` does: when the Givens estimate of
    the residual falls to _KRYLOV_RTOL |K^{-1} G|, at a breakdown (the new
    basis vector vanishes to roundoff, h_{k+1,k} <= eps |K^{-1} J v_k|),
    or after _KRYLOV_CYCLE iterations.  Each iteration orthogonalises by
    classical Gram-Schmidt done twice, two products with the basis block,
    and rotates its Hessenberg column in Python floats.  A step short of
    _KRYLOV_RTOL is returned too; the line search judges it.  A zero G
    gives a zero step; a non-finite G, or an operator that is singular or
    not finite on the Krylov space, a non-finite one.
    """
    b = kinv(G)
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    if not math.isfinite(beta):
        return np.full_like(b, np.nan)
    V = np.empty((_KRYLOV_CYCLE + 1, b.size))
    V[0] = b / beta
    # columns of the rotated Hessenberg matrix (the triangle R), the
    # rotations (c, s), and the rotated right-hand side beta e_1
    cols, rots, g = [], [], [beta]
    for k in range(_KRYLOV_CYCLE):
        w = kinv(J.matvec(V[k]))
        h0 = float(np.linalg.norm(w))
        basis = V[:k + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        col = (h + h2).tolist()
        h1 = float(np.linalg.norm(w))
        if h1 <= _EPS * h0:     # breakdown: w is roundoff in span(basis)
            h1 = 0.0
        for i, (c, s) in enumerate(rots):
            col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                  c * col[i + 1] - s * col[i])
        rho = math.hypot(col[k], h1)
        if not rho > 0.0:
            return np.full_like(b, np.nan)
        c, s = col[k] / rho, h1 / rho
        col[k] = rho
        cols.append(col)
        rots.append((c, s))
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= _KRYLOV_RTOL * beta or h1 == 0.0:
            break
        V[k + 1] = w / h1
    m = len(cols)
    y = [0.0] * m
    for i in reversed(range(m)):
        y[i] = (g[i] - sum(cols[j][i] * y[j] for j in range(i + 1, m))
                ) / cols[i][i]
    return np.array(y) @ V[:m]


def _newton_refine(grid: RadialGrid, u: np.ndarray, p: float,
                   W: np.ndarray | None, tol: float, max_steps: int = 25,
                   ab=None, kinv=None, G=None):
    """Damped Newton to the discrete root; returns (u, residuals).  Stops
    at the first residual or Krylov step that is not finite.  ``kinv`` is
    the ``tridiag_solver`` of ``ab``; it is factored here when not given.
    ``G``, when given, is the residual ``equation_residual`` of u."""
    if ab is None:
        ab = kinetic_tridiag(grid, 0)
    if kinv is None:
        kinv = tridiag_solver(ab)
    res_hist = []
    if G is None:
        G = equation_residual(grid, u, p, W, ab)
    res = float(np.max(np.abs(G)))
    res_hist.append(res)
    for _ in range(max_steps):
        if res <= tol or not math.isfinite(res):
            break
        step = _krylov_step(linearized_matrix(grid, u, p, W, ab), G, kinv)
        if not np.all(np.isfinite(step)):
            break
        theta = 1.0
        while theta > 1e-4:
            trial = u - theta * step
            Gt = equation_residual(grid, trial, p, W, ab)
            rt = float(np.max(np.abs(Gt)))
            if rt < res:
                u, G, res = trial, Gt, rt
                break
            theta *= 0.5
        else:
            break
        res_hist.append(res)
    return u, res_hist


# ---------------------------------------------------------------------------
# normalized fixed-point iteration


def _petviashvili(grid: RadialGrid, u0: np.ndarray, p: float,
                  W: np.ndarray | None, opts: SolverOptions):
    """Returns (u, residual, n_iter).  W = None selects the local model.

    The fixed-point map is T(u) = S(u)^gamma K^{-1} N(u).  Anderson mixing
    (type II, depth _ANDERSON_DEPTH) replaces T(u_k) by T(u_k) - dG c with
    c = argmin |f_k - dF c|, f_j = T(u_j) - u_j and dG, dF the differences
    of the last depth + 1 values of T(u_j) and f_j; it removes the slow
    contraction mode of the plain normalized iteration.  Each iteration is
    one W matvec and one kinetic solve.  Newton is the fallback only: it
    finishes after 12 consecutive iterations without a 3% residual
    decrease, or when max_iter runs out.
    """
    ab = kinetic_tridiag(grid, 0)
    kinv = tridiag_solver(ab)
    m = grid.measure
    # stabilizing exponent: homogeneity 2p of the nonlocal energy, p+1 local
    gamma = (2 * p) / (2 * p - 1) if W is not None else p / (p - 1.0)
    u = u0.copy()
    # K u and N(u) of the current iterate, carried from the residual of
    # one iteration to the energy quotient of the next
    Ku, Nu = band_matvec(ab, u), nonlinear_term(u, p, W)
    # the last depth + 1 values of T(u_j) and f_j, oldest first
    T_hist = deque(maxlen=_ANDERSON_DEPTH + 1)
    f_hist = deque(maxlen=_ANDERSON_DEPTH + 1)
    res_prev = np.inf
    stall = 0
    n_iter = 0
    for n_iter in range(1, opts.max_iter + 1):
        num = float(np.sum(m * u * Ku))
        den = float(np.sum(m * u * Nu))
        if den <= 0 or num <= 0:
            raise ConvergenceError("iteration lost positivity of the "
                                   "energy quotient", iterations=n_iter)
        S = num / den
        if not math.isfinite(S):
            raise ConvergenceError(f"energy quotient {S} is not finite at "
                                   f"iteration {n_iter}", iterations=n_iter)
        Tu = S ** gamma * kinv(Nu)
        T_hist.append(Tu)
        f_hist.append(Tu - u)
        u = Tu
        if len(T_hist) > 1:
            dF = np.diff(f_hist, axis=0).T
            c = np.linalg.lstsq(dF, f_hist[-1], rcond=None)[0]
            u = Tu - np.diff(T_hist, axis=0).T @ c
        Ku, Nu = band_matvec(ab, u), nonlinear_term(u, p, W)
        res = float(np.max(np.abs(Ku - Nu)))
        if not math.isfinite(res):
            raise ConvergenceError(f"residual {res} is not finite at "
                                   f"iteration {n_iter}", last_residual=res,
                                   iterations=n_iter)
        if res <= opts.tol:
            return u, res, n_iter
        if res > 0.97 * res_prev:
            stall += 1
        else:
            stall = 0
        res_prev = res
        if stall >= 12:
            break
    u, hist = _newton_refine(grid, u, p, W, opts.tol, ab=ab, kinv=kinv)
    res = hist[-1]
    n_iter += len(hist) - 1
    if res <= opts.tol:
        return u, res, n_iter
    raise ConvergenceError(
        f"no convergence after {n_iter} iterations (residual {res:.3e})",
        last_residual=res, iterations=n_iter)


def _initial_gaussian(grid: RadialGrid, p: float, W: np.ndarray | None,
                      width: float = 1.0) -> np.ndarray:
    """Gaussian seed scaled so the energy-balance identity holds exactly."""
    g = np.exp(-grid.nodes ** 2 / (2.0 * width ** 2))
    ab = kinetic_tridiag(grid, 0)
    m = grid.measure
    num = float(np.sum(m * g * band_matvec(ab, g)))
    den = float(np.sum(m * g * nonlinear_term(g, p, W)))
    # <L(cg), cg> = <N(cg), cg>  =>  c^{2q-2} = num/den with q the
    # nonlinearity degree (2p-1 nonlocal, p local)
    q = 2 * p - 1 if W is not None else p
    c = (num / den) ** (1.0 / (2 * q - 2.0))
    return c * g


def _validate_profile(grid: RadialGrid, u: np.ndarray, what: str):
    """u as a field on grid, once it is positive and nonincreasing."""
    fld = RadialField(grid=grid, values=u)
    scale = float(np.max(np.abs(u)))
    if np.min(u) <= 0:
        raise ConvergenceError(f"{what}: converged profile is not strictly "
                               f"positive (min {np.min(u):.3e})")
    if not fld.is_radially_decreasing(tol=1e-10 * scale):
        raise ConvergenceError(f"{what}: converged profile is not radially "
                               "nonincreasing")
    return fld


def solve_choquard(params: ChoquardParams, grid: RadialGrid,
                   opts: SolverOptions | None = None) -> GroundState:
    """Radial positive ground state of the nonlocal equation.

    Requires parameters in the existence window 1/2 >= 1/p > (d-2)/(2d-a).
    Raises ConvergenceError when the iteration fails; the returned state
    satisfies the discrete equation to opts.tol in the sup norm and is
    strictly positive and radially decreasing.
    """
    opts = opts or SolverOptions()
    if grid.d != params.d:
        raise GridError(f"grid dimension {grid.d} != params dimension {params.d}")
    params.check_existence_window()
    W = riesz_apply_matrix(grid, params.alpha, 0)
    u0 = _initial_gaussian(grid, params.p, W)
    u, res, it = _petviashvili(grid, u0, params.p, W, opts)
    fld = _validate_profile(grid, u, "choquard solve")
    return state_from_field(params, fld, res, it)


def _solve_model_numerov(d: int, p: float, grid: RadialGrid,
                         opts: SolverOptions) -> GroundState:
    """Fourth-order Numerov discretization of -u'' + u - u^p = 0 (d = 1).

    The origin is included as an auxiliary even-symmetry unknown; the
    Dirichlet fence sits one spacing beyond r_max.  Seeded by the
    second-order fixed-point solution, finished by Newton.
    """
    n = grid.n
    h = grid.nodes[0]
    x = np.concatenate([[0.0], grid.nodes])

    seed_opts = SolverOptions(tol=max(opts.tol, 1e-8), max_iter=opts.max_iter)
    useed, _, it0 = _petviashvili(grid, _initial_gaussian(grid, p, None),
                                  p, None, seed_opts)
    U = np.concatenate([[useed[0] + (useed[0] - useed[1]) * 0.5], useed])

    c = h * h / 12.0

    def gfun(v):
        return v - np.abs(v) ** (p - 1) * v

    def gprime(v):
        return 1.0 - p * np.abs(v) ** (p - 1)

    def numerov_residual(U):
        g = gfun(U)
        R = np.empty(n + 1)
        R[0] = 2.0 * U[1] - 2.0 * U[0] - c * (10.0 * g[0] + 2.0 * g[1])
        R[1:-1] = (U[:-2] - 2.0 * U[1:-1] + U[2:]
                   - c * (g[:-2] + 10.0 * g[1:-1] + g[2:]))
        R[-1] = U[-2] - 2.0 * U[-1] - c * (g[-2] + 10.0 * g[-1])
        return R

    res_hist = []
    for _ in range(60):
        R = numerov_residual(U)
        res = float(np.max(np.abs(R)) / (h * h))
        res_hist.append(res)
        if res <= opts.tol:
            break
        gp = gprime(U)
        ab = np.zeros((3, n + 1))
        ab[1] = -2.0 - 10.0 * c * gp
        ab[0, 1:] = 1.0 - c * gp[1:]
        ab[0, 1] = 2.0 - 2.0 * c * gp[1]
        ab[2, :-1] = 1.0 - c * gp[:-1]
        dU = tridiag_solver(ab)(R)
        U = U - dU
    else:
        raise ConvergenceError("Numerov iteration did not converge",
                               last_residual=res_hist[-1],
                               iterations=len(res_hist))
    fld = _validate_profile(grid, U[1:], "model solve")
    return state_from_field(ModelParams(d, p), fld, res_hist[-1],
                            it0 + len(res_hist))


def solve_model(d: int, p: float, grid: RadialGrid,
                opts: SolverOptions | None = None) -> GroundState:
    """Ground state of the local model -Delta u + u - |u|^{p-1} u = 0.

    p in (1, inf) for d <= 2 and p in (1, (d+2)/(d-2)) for d >= 3.  In
    d = 1 on uniform grids a Numerov scheme delivers fourth-order
    profiles; otherwise the generic second-order path is used.
    """
    params = ModelParams(d, p)  # validates the window
    opts = opts or SolverOptions()
    if grid.d != d:
        raise GridError(f"grid dimension {grid.d} != requested dimension {d}")
    if d == 1 and grid.stretch == 1.0:
        return _solve_model_numerov(d, p, grid, opts)
    u0 = _initial_gaussian(grid, p, None)
    u, res, it = _petviashvili(grid, u0, p, None, opts)
    fld = _validate_profile(grid, u, "model solve")
    return state_from_field(params, fld, res, it)


def decay_beta(d: int) -> float:
    """Power-law correction exponent of the comparison profile
    r^{-beta} e^{-r/2}: 0 for d <= 2 and (d-1)/2 for d >= 3."""
    return 0.0 if d <= 2 else (d - 1) / 2.0


def fit_decay(state: GroundState) -> DecayFit:
    """Least-squares fit log Q = log C - gamma r - beta log r on the tail.

    ``beta`` is pinned to the comparison exponent for the dimension; the
    window is [0.55 rb, rb] with rb the last radius where the profile
    stays above 1e-13 (capped below the Dirichlet fence).
    """
    grid = state.grid
    q = state.field.values
    r = grid.nodes
    floor = 1e-13
    good = q > floor
    if not np.any(good):
        raise FitError("profile is below the noise floor everywhere")
    # stay clear of the Dirichlet fence, whose pull steepens the tail
    rb = min(r[good][-1], grid.r_max - 2.5)
    ra = 0.55 * rb
    mask = (r >= ra) & (r <= rb) & good
    if np.count_nonzero(mask) < 8:
        raise FitError(f"tail window [{ra:.3g},{rb:.3g}] has too few usable "
                       "nodes; fit unreliable")
    beta = decay_beta(grid.d)
    y = np.log(q[mask]) + beta * np.log(r[mask])
    Amat = np.column_stack([np.ones(np.count_nonzero(mask)), -r[mask]])
    coef, *_ = np.linalg.lstsq(Amat, y, rcond=None)
    return DecayFit(gamma=float(coef[1]), C=float(math.exp(coef[0])),
                    beta=beta, window=(float(ra), float(rb)))


def model_soliton(p: float, r: np.ndarray) -> np.ndarray:
    """Closed-form d = 1 soliton ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1)r/2)."""
    amp = ((p + 1) / 2.0) ** (1.0 / (p - 1))
    return amp * np.cosh((p - 1) * r / 2.0) ** (-2.0 / (p - 1))


def state_from_field(params, fld: RadialField, residual: float = 0.0,
                     iterations: int = 0, newton_history=()) -> GroundState:
    """The one way a profile becomes a state: norms, then the tail fit
    (``decay`` is None when the fit is unreliable)."""
    state = GroundState(params=params, field=fld, residual=residual,
                        iterations=iterations, decay=None,
                        norms=state_norms(fld.grid, fld.values),
                        newton_history=list(newton_history))
    try:
        state.decay = fit_decay(state)
    except FitError:
        pass
    return state
