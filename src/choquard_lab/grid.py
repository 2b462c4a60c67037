"""Radial discretization: grids, quadrature with the surface weight, and
sector Laplacians.

Conventions used throughout the package:

- A radial function u on R^d is represented by its samples on a grid of
  nodes 0 < r_0 < ... < r_{n-1} = r_max.  The origin is excluded; values
  at r = 0 are recovered by parity (even profiles in the l = 0 sector,
  vanishing profiles for l >= 1).
- Volume integrals reduce to 1D integrals against the surface weight,
  int_{R^d} u dx = |S^{d-1}| int_0^inf u(r) r^{d-1} dr.  For d = 1 the
  even extension gives the factor 2.
- Beyond r_max every field is treated as zero (homogeneous Dirichlet a
  spacing beyond the last node), justified by the exponential decay of
  all solver fields.

Two discrete realisations of the sector Laplacian coexist on purpose,
both held as (3, n) tridiagonal bands in the layout of
``kinetic_tridiag`` and applied by ``band_matvec``:

- the pointwise-consistent finite-difference stencils (exact on
  quadratics) of ``laplacian_sector`` and ``kinetic_tridiag``, used for
  residuals, the solver and operator identities;
- the flux (finite-volume) form of ``sector_symmetric``, conjugated by
  the weight sqrt(w_i r_i^{d-1}) into a symmetric band, used for
  symmetric eigenproblems.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or mismatched grid/field operations."""


class ParameterError(ValueError):
    """Parameter triple outside its admissible range."""


def sphere_area(d: int) -> float:
    """Surface measure |S^{d-1}| of the unit sphere in R^d (2 for d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class ChoquardParams:
    """Parameter triple (d, alpha, p) of the nonlocal equation.

    d is the space dimension, alpha the Riesz kernel exponent in (0, d),
    p the nonlinearity exponent (p >= 1).
    """

    d: int
    alpha: float
    p: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ParameterError(f"d must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        if not (0.0 < self.alpha < self.d):
            raise ParameterError(
                f"alpha outside (0,d): alpha={self.alpha}, d={self.d}")
        if not self.p >= 1.0:
            raise ParameterError(f"p must be >= 1, got {self.p}")

    @property
    def in_existence_window(self) -> bool:
        """True iff 1/2 >= 1/p > (d-2)/(2d-alpha).

        This is the window in which ground states exist, are positive and
        regular, and (for p >= 2) decay exponentially.
        """
        return self.p >= 2.0 and self.p * (self.d - 2) < (2 * self.d - self.alpha)

    def check_existence_window(self) -> "ChoquardParams":
        """Self, or ParameterError when outside the existence window."""
        if not self.in_existence_window:
            raise ParameterError(
                f"(d,alpha,p)=({self.d},{self.alpha},{self.p}) is outside "
                "the existence window 1/2 >= 1/p > (d-2)/(2d-alpha)")
        return self

    def near_newtonian(self, delta: float) -> bool:
        """True iff |alpha-(d-2)| <= delta and 0 <= p-2 <= delta."""
        return (abs(self.alpha - (self.d - 2)) <= delta
                and 0.0 <= self.p - 2.0 <= delta)

    @classmethod
    def from_dict(cls, data: dict) -> "ChoquardParams":
        return cls(data["d"], float(data["alpha"]), float(data["p"]))


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes with positive quadrature weights.

    ``quad_weights`` are trapezoid weights of the node set extended by the
    origin and by a Dirichlet fence one first-spacing beyond r_max; they
    integrate node samples over [0, r_max] and double as the measure that
    symmetrizes the flux form of the sector Laplacian.
    """

    d: int
    nodes: np.ndarray
    quad_weights: np.ndarray
    r_max: float
    stretch: float

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def surface_weight(self) -> np.ndarray:
        """r_i^{d-1} at the nodes."""
        return self.nodes ** (self.d - 1)

    @property
    def measure(self) -> np.ndarray:
        """w_i r_i^{d-1}, the discrete radial measure (no sphere factor)."""
        return self.quad_weights * self.surface_weight

    def spacings(self) -> np.ndarray:
        """Cell widths [r_0, r_1-r_0, ..., r_max-r_{n-2}]."""
        return np.diff(self.nodes, prepend=0.0)

    def same_layout(self, other: "RadialGrid") -> bool:
        return (self.d == other.d and self.n == other.n
                and np.array_equal(self.nodes, other.nodes))

    def refined(self) -> "RadialGrid":
        """Grid with every spacing halved exactly (2n nodes, sqrt stretch)."""
        return make_grid(self.d, self.r_max, 2 * self.n, math.sqrt(self.stretch))

    def to_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "r_max": self.r_max,
                "stretch": self.stretch}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialGrid":
        return make_grid(data["d"], float(data["r_max"]),
                         int(data["n"]), float(data.get("stretch", 1.0)))

    @cached_property
    def _constants(self) -> dict:
        return {}

    def _constant(self, key, build) -> np.ndarray:
        """The array ``build()`` under ``key``, derived once per grid and
        read-only, because every caller shares it.  The grid is frozen, so
        the array cannot go stale; a refined or reloaded grid is a new
        instance with constants of its own."""
        try:
            return self._constants[key]
        except KeyError:
            a = self._constants[key] = build()
            a.setflags(write=False)
            return a


def make_grid(d: int, r_max: float, n: int, stretch: float = 1.0) -> RadialGrid:
    """Build a geometrically stretched radial grid on (0, r_max].

    Spacings grow by the factor ``stretch`` per cell (uniform when
    stretch = 1); the first node sits one spacing away from the excluded
    origin and the last node is exactly r_max.
    """
    if int(d) != d or d < 1:
        raise GridError(f"d must be a positive integer, got {d}")
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise GridError(f"r_max must be positive and finite, got {r_max}")
    if n < 16:
        raise GridError(f"need at least 16 nodes, got {n}")
    if not (math.isfinite(stretch) and stretch >= 1.0):
        raise GridError(f"stretch must be finite and >= 1, got {stretch}")

    per_cell = (f"stretch is the growth factor per cell (the last cell is "
                f"stretch**(n-1) times the first), got stretch={stretch}, "
                f"n={n}")
    if stretch == 1.0:
        nodes = r_max * np.arange(1, n + 1) / n
    else:
        # r_i = h0 (s^{i+1} - 1)/(s - 1) with r_{n-1} = r_max
        try:
            total = float(stretch) ** n
        except OverflowError:
            raise GridError(f"stretch**n overflows: {per_cell}") from None
        powers = np.power(stretch, np.arange(1, n + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = r_max * (powers - 1.0) / (total - 1.0)
        nodes[-1] = r_max
    if not (np.all(np.isfinite(nodes)) and nodes[0] > 0.0
            and np.all(np.diff(nodes) > 0.0)):
        raise GridError(f"nodes are not positive and strictly increasing: "
                        f"{per_cell}")
    h = np.diff(nodes, prepend=0.0)
    # the denominators h_l h_r (h_l + h_r) of the Laplacian stencils
    if not np.min(h[:-1] * h[1:] * (h[:-1] + h[1:])) >= np.finfo(float).tiny:
        raise GridError(f"the first spacing {h[0]:.3g} is too small: the "
                        f"Laplacian stencils underflow; {per_cell}")

    # Trapezoid weights on the extended node set {0} u nodes u {fence},
    # fence spacing equal to the first spacing so the weights sum to r_max.
    h_ext = np.append(h, h[0])
    weights = 0.5 * (h_ext[:-1] + h_ext[1:])
    if d == 1:
        # even reflection through the origin: the first cell is not cut in half
        weights = weights.copy()
        weights[0] = h[0] + 0.5 * h[1]
        weights[-1] = 0.5 * h[-1]
    return RadialGrid(d=int(d), nodes=nodes, quad_weights=weights,
                      r_max=float(r_max), stretch=float(stretch))


def solver_grid(d: int, r_max: float = 25.0, n: int = 600,
                total_stretch: float = 25.0) -> RadialGrid:
    """Grid whose last cell is ``total_stretch`` times the first.

    A mild geometric stretch resolves the core cheaply while keeping
    enough tail nodes for exponentially decaying profiles.
    """
    if total_stretch <= 1.0:
        return make_grid(d, r_max, n, 1.0)
    return make_grid(d, r_max, n,
                     math.exp(math.log(total_stretch) / max(n - 1, 1)))


@dataclass
class RadialField:
    """Samples of a radial function on a grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise GridError(
                f"field has {self.values.shape} values for a grid of size {self.grid.n}")

    def is_radially_decreasing(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.diff(self.values) <= tol))

    def to_csv(self, path) -> None:
        """Columns r,value, written atomically."""
        data = np.column_stack([self.grid.nodes, self.values])
        write_atomic(path, lambda fh: np.savetxt(
            fh, data, delimiter=",", header="r,value", comments="",
            fmt="%.17g"))

    @classmethod
    def from_csv(cls, path, grid: RadialGrid | int) -> "RadialField":
        """Read columns r,value onto ``grid``, or, given a dimension d,
        onto the geometric d-dimensional grid rebuilt from the nodes;
        GridError unless every entry is a finite number."""
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise GridError(f"profile {path} is not a numeric r,value "
                            f"table: {exc}")
        if data.shape[0] < 2 or data.shape[1] < 2:
            raise GridError(f"profile {path} needs two columns r,value and "
                            f"at least two rows, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise GridError(f"profile {path} holds a non-finite value")
        r, v = data[:, 0], data[:, 1]
        if isinstance(grid, RadialGrid):
            if not np.allclose(r, grid.nodes, rtol=1e-12, atol=1e-12):
                raise GridError("CSV nodes do not match the supplied grid")
            return cls(grid=grid, values=v)
        # infer the stretch from the first two spacings
        stretch = (r[1] - r[0]) / r[0]
        if abs(stretch - 1.0) < 1e-9:
            stretch = 1.0
        rebuilt = make_grid(grid, float(r[-1]), r.size, float(stretch))
        if not np.allclose(rebuilt.nodes, r, rtol=1e-9, atol=1e-12):
            raise GridError("profile nodes are not a geometric grid this tool "
                            "can reconstruct; resample the profile")
        return cls(grid=rebuilt, values=v)


def write_atomic(path, write) -> None:
    """Call ``write`` on a binary handle to a per-process temp file in the
    directory of ``path``, then rename the file onto ``path``: a reader sees
    the old file or the whole new one, never a half-written one."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_field(grid: RadialGrid, f: RadialField) -> np.ndarray:
    if f.grid is not grid and not grid.same_layout(f.grid):
        raise GridError("field lives on a different grid")
    return f.values


def _extrapolate_origin(nodes: np.ndarray, values: np.ndarray) -> float:
    """Quadratic extrapolation of samples to r = 0 (exact for quadratics)."""
    x0, x1, x2 = nodes[:3]
    f0, f1, f2 = values[:3]
    l0 = (0 - x1) * (0 - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (0 - x0) * (0 - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (0 - x0) * (0 - x1) / ((x2 - x0) * (x2 - x1))
    return l0 * f0 + l1 * f1 + l2 * f2


def _composite_parabolic(x: np.ndarray, g: np.ndarray) -> float:
    """Integrate samples g(x) by parabolas over pairs of adjacent cells.

    Handles an odd cell count by integrating the last cell with the
    quadratic through the last three points.  Exact for quadratics on any
    node layout; fourth order on smoothly varying grids.
    """
    m = x.size - 1  # number of cells
    total = 0.0
    npairs = m // 2
    if npairs:
        x0 = x[0:2 * npairs:2]
        x1 = x[1:2 * npairs + 1:2]
        x2 = x[2:2 * npairs + 2:2]
        g0 = g[0:2 * npairs:2]
        g1 = g[1:2 * npairs + 1:2]
        g2 = g[2:2 * npairs + 2:2]
        hl = x1 - x0
        hr = x2 - x1
        span = x2 - x0
        # weights of the quadratic through (x0,x1,x2) integrated over [x0,x2]
        w0 = span * (2 * hl - hr) / (6 * hl)
        w1 = span ** 3 / (6 * hl * hr)
        w2 = span * (2 * hr - hl) / (6 * hr)
        total += float(np.sum(w0 * g0 + w1 * g1 + w2 * g2))
    if m % 2 == 1:
        xa, xb, xc = x[-3], x[-2], x[-1]
        ga, gb, gc = g[-3], g[-2], g[-1]
        # integrate the interpolating quadratic over the last cell [xb, xc]
        for xx, gg, (o1, o2) in ((xa, ga, (xb, xc)), (xb, gb, (xa, xc)),
                                 (xc, gc, (xa, xb))):
            denom = (xx - o1) * (xx - o2)
            # int_{xb}^{xc} (s-o1)(s-o2) ds
            def prim(s, o1=o1, o2=o2):
                return s ** 3 / 3 - (o1 + o2) * s ** 2 / 2 + o1 * o2 * s
            total += gg * (prim(xc) - prim(xb)) / denom
    return total


def integrate_radial(grid: RadialGrid, f: RadialField | np.ndarray) -> float:
    """Volume integral |S^{d-1}| int_0^{r_max} f(r) r^{d-1} dr.

    Uses a composite parabolic rule on the nodes extended by the origin
    (where the integrand is known for d >= 2 and extrapolated for d = 1),
    which keeps monomial integrals accurate to well below 1e-6 on the
    grid sizes used here.  For d = 1 this is 2 int_0^{r_max} f dr, the
    even extension.
    """
    values = _check_field(grid, f) if isinstance(f, RadialField) else np.asarray(f)
    x = np.concatenate([[0.0], grid.nodes])
    g = np.empty(grid.n + 1)
    g[1:] = values * grid.surface_weight
    if grid.d >= 2:
        g[0] = 0.0
    else:
        g[0] = _extrapolate_origin(grid.nodes, values)
    return sphere_area(grid.d) * _composite_parabolic(x, g)


# ---------------------------------------------------------------------------
# finite-difference machinery


def _fd_weights(z: np.ndarray, X: np.ndarray, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative, one stencil per row.

    Row i holds the weights at z[i] from the nodes X[i] (z of shape (n,),
    X of shape (n, k); returns (n, k)).  The recursion is Fornberg's
    (Math. Comp. 51, 1988) with every scalar operation applied to the
    n-vector of rows in the scalar order, so each row has the bits of a
    one-stencil evaluation.
    """
    k = X.shape[1]
    # c[j, q] is the weight of node j for the q-th derivative, per row
    c = np.zeros((k, m + 1, z.size))
    c1 = 1.0
    c4 = X[:, 0] - z
    c[0, 0] = 1.0
    for i in range(1, k):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = X[:, i] - z
        for j in range(i):
            c3 = X[:, i] - X[:, j]
            c2 *= c3
            if j == i - 1:
                for q in range(mn, 0, -1):
                    c[i, q] = c1 * (q * c[i - 1, q - 1] - c5 * c[i - 1, q]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for q in range(mn, 0, -1):
                c[j, q] = (c4 * c[j, q] - q * c[j, q - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m].T


def differentiate(grid: RadialGrid, values: np.ndarray,
                  order: int = 1) -> np.ndarray:
    """Derivative of node samples by sliding Fornberg stencils.

    Five nodes per stencil give fourth-order first derivatives on smooth
    grids, which the diagnostics rely on.  Node i uses the k = min(5, n)
    nodes starting at lo_i = clip(i - k//2, 0, n - k), centred where the
    grid allows and one-sided at the ends.  The stencil table
    idx[i] = lo_i + arange(k) and the weights of each order, from one
    row-wise Fornberg pass, are derived once per grid and kept on it, so
    repeated calls pay only the reduction.  The reduction is a batched
    (1, k) @ (k, 1) matmul because that reproduces, bit for bit, a
    per-node ``w @ v``; einsum or a column-by-column sum round
    differently (up to 3e-13 relative near the origin).
    """
    values = np.asarray(values, dtype=float)
    n = grid.n
    k = min(5, n)
    r = grid.nodes
    idx = grid._constant("stencil_index", lambda: (
        np.clip(np.arange(n) - k // 2, 0, n - k)[:, None] + np.arange(k)))
    w = grid._constant(("fd_weights", order),
                      lambda: _fd_weights(r, r[idx], order))
    return (w[:, None, :] @ values[idx][:, :, None])[:, 0, 0]


def band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ab @ v for a (3, n) band ab in the layout of ``kinetic_tridiag``."""
    out = ab[1] * v
    out[:-1] += ab[0, 1:] * v[1:]
    out[1:] += ab[2, :-1] * v[:-1]
    return out


def _centrifugal(grid: RadialGrid, ell) -> float:
    """l(l+d-2) once l is a sector of the grid: an int >= 0, at most 1 at
    d = 1 (the even and odd profiles), whose terms l(l+d-2) max(1, m_i)/r_i^2
    in the sector Laplacians stay finite floats with a factor 4 to spare."""
    if (not isinstance(ell, (int, np.integer)) or ell < 0
            or (grid.d == 1 and ell > 1)):
        raise GridError(f"no sector l={ell!r} at d={grid.d}: l is an int "
                        ">= 0, at most 1 at d = 1")
    kappa = int(ell) * (int(ell) + grid.d - 2)   # an int: compared exactly
    scale = float(np.max(np.maximum(grid.measure, 1.0) / grid.nodes ** 2))
    if kappa > float(np.finfo(float).max) / (4.0 * scale):
        raise GridError(f"sector l={ell} overflows on this grid: "
                        "l(l+d-2) max(1, m_i)/r_i^2 is not a finite float")
    return float(kappa)


def _pointwise_rows(grid: RadialGrid, ell: int, kappa: float) -> np.ndarray:
    """Band of the pointwise sector operator, laid out as in
    ``kinetic_tridiag``; kappa is ``_centrifugal(grid, ell)``.

    Rows are exact on quadratics.  Row 0 uses the origin parity (even
    two-point form for l = 0, vanishing ghost for l >= 1); the last row
    is closed with a zero ghost at the Dirichlet fence r_max + r_0.
    """
    r = grid.nodes
    d = grid.d
    h = grid.spacings()
    ab = np.zeros((3, grid.n))

    hl = h[:-1].copy()
    hr = h[1:].copy()
    hl[0] = r[0]  # distance to the origin ghost
    denom = hl * hr * (hl + hr)
    ri = r[:-1]
    ab[2, :-2] = ((-2.0 * hr + (d - 1) * hr ** 2 / ri) / denom)[1:]
    ab[0, 1:] = (-2.0 * hl - (d - 1) * hl ** 2 / ri) / denom
    ab[1, :-1] = (2.0 * (hl + hr) - (d - 1) * (hr ** 2 - hl ** 2) / ri) / denom
    ab[1, :-1] += kappa / ri ** 2

    if ell == 0:
        # exact on even quadratics {1, r^2} through (r_0, r_1)
        b0 = -2.0 * d / (r[1] ** 2 - r[0] ** 2)
        ab[0, 1] = b0
        ab[1, 0] = -b0
        # kappa = 0 in this sector
    # for ell >= 1 the generic row already used the zero ghost at the origin

    # last row: zero ghost at the fence r_max + h[0]
    hf = h[0]
    hl_last = h[-1]
    denom_l = hl_last * hf * (hl_last + hf)
    rl = r[-1]
    ab[2, -2] = (-2.0 * hf + (d - 1) * hf ** 2 / rl) / denom_l
    ab[1, -1] = ((2.0 * (hl_last + hf) - (d - 1) * (hf ** 2 - hl_last ** 2) / rl)
                 / denom_l + kappa / rl ** 2)
    return ab


def laplacian_sector(grid: RadialGrid, f: RadialField, ell: int) -> RadialField:
    """Apply -f'' - ((d-1)/r) f' + l(l+d-2) f / r^2 at the nodes.

    Pointwise-consistent second-order stencils; the last node is treated
    as a pure differential-operator evaluation with a one-sided stencil
    so non-decaying test functions are not polluted by the fence.
    """
    kappa = _centrifugal(grid, ell)
    values = _check_field(grid, f)
    out = band_matvec(_pointwise_rows(grid, ell, kappa), values)

    # replace the fence row by a one-sided evaluation of the operator
    r = grid.nodes
    d = grid.d
    x = r[None, -3:]
    w2 = _fd_weights(r[-1:], x, 2)[0]
    w1 = _fd_weights(r[-1:], x, 1)[0]
    out[-1] = (-(w2 @ values[-3:]) - (d - 1) / r[-1] * (w1 @ values[-3:])
               + kappa / r[-1] ** 2 * values[-1])
    return RadialField(grid=grid, values=out)


def kinetic_tridiag(grid: RadialGrid, ell: int) -> np.ndarray:
    """Banded matrix of (-Delta_l + 1) with the pointwise stencils.

    Returned as a (3, n) band: row 0 holds the superdiagonal in columns
    1..n-1, row 1 the diagonal, and row 2 the subdiagonal in columns
    0..n-2, the input of ``solver.tridiag_solver`` and ``band_matvec``.
    The fence row keeps the zero ghost, so the matrix is the one whose
    root the solver actually finds.  The band is a read-only
    ``RadialGrid._constant``: a solve asks for the l = 0 one several times.
    """
    def build():
        ab = _pointwise_rows(grid, ell, _centrifugal(grid, ell))
        ab[1] += 1.0
        return ab

    return grid._constant(("kinetic", ell), build)


def sector_symmetric(grid: RadialGrid, ell: int) -> np.ndarray:
    """Flux (finite-volume) form S of the sector Laplacian, conjugated to
    sqrt(m)^{-1} S sqrt(m)^{-1}, m_i = w_i r_i^{d-1}, as a symmetric (3, n)
    band in the layout of ``kinetic_tridiag``; on node values the operator
    is diag(1/m) S.  Boundary closure: zero flux at the origin for l = 0
    (regularity), vanishing ghost value for l >= 1, Dirichlet fence beyond
    r_max.
    """
    kappa = _centrifugal(grid, ell)
    r = grid.nodes
    d = grid.d
    h = grid.spacings()
    m = grid.measure
    flux = (0.5 * (r[1:] + r[:-1])) ** (d - 1) / h[1:]
    ab = np.zeros((3, grid.n))
    ab[1, :-1] += flux
    ab[1, 1:] += flux
    if ell >= 1:
        # Dirichlet ghost at the origin
        ab[1, 0] += (0.5 * r[0]) ** (d - 1) / h[0]
    # fence flux (ghost value zero at r_max + h[0])
    ab[1, -1] += (r[-1] + 0.5 * h[0]) ** (d - 1) / h[0]
    ab[1] += kappa / r ** 2 * m
    inv = 1.0 / np.sqrt(m)
    ab[0, 1:] = (-flux * inv[:-1]) * inv[1:]
    ab[1] = ab[1] * inv * inv
    ab[2, :-1] = (-flux * inv[1:]) * inv[:-1]
    return ab
