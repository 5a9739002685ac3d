"""Uniform space-time grids, finite-difference stencils and discrete norms.

Everything downstream (forward solver, weighted functional, verification
suites) works on a tensor grid: ``nx`` nodes on ``[x_left, x_right]`` times
``nt`` time levels on ``[0, t_final]``.  Space-time fields are stored as
arrays of shape ``(nt, nx)`` with time as the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on [x_left, x_right] x [0, t_final]."""

    x_left: float
    x_right: float
    nx: int
    t_final: float
    nt: int

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.t_final / (self.nt - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.nx)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.nt)

    def refined(self, factor: int) -> "SpaceTimeGrid":
        """Grid with both spacings divided by ``factor``; nodes stay aligned."""
        if factor < 1 or int(factor) != factor:
            raise ValueError(f"refinement factor must be a positive integer, got {factor}")
        factor = int(factor)
        return SpaceTimeGrid(self.x_left, self.x_right, factor * (self.nx - 1) + 1,
                             self.t_final, factor * (self.nt - 1) + 1)


@dataclass
class TraceSeries:
    """Samples of a boundary quantity at one endpoint over all time levels."""

    side: str                 # "left" or "right"
    samples: np.ndarray       # shape (nt,)

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("trace samples must be one-dimensional")


def build_grid(x_left: float, x_right: float, nx: int, t_final: float, nt: int) -> SpaceTimeGrid:
    """Validate and build a uniform space-time grid."""
    if not x_right > x_left:
        raise ValueError(f"domain must satisfy x_right > x_left, got [{x_left}, {x_right}]")
    if not t_final > 0:
        raise ValueError(f"final time must be positive, got {t_final}")
    if nx < 5 or nt < 5:
        # one-sided second-order closures need at least five points per axis
        raise ValueError(f"need nx >= 5 and nt >= 5, got nx={nx}, nt={nt}")
    return SpaceTimeGrid(float(x_left), float(x_right), int(nx), float(t_final), int(nt))


# ---------------------------------------------------------------------------
# spatial stencils
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _laplacian_matrix(nx: int, h: float) -> sp.csr_matrix:
    main = np.full(nx, -2.0 / h ** 2)
    off = np.full(nx - 1, 1.0 / h ** 2)
    lap = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    lap[0, :] = 0.0   # boundary rows carry no stencil; output is zero there
    lap[-1, :] = 0.0
    return lap.tocsr()


def laplacian_matrix(grid: SpaceTimeGrid) -> sp.csr_matrix:
    """Second-order centered 1-D Laplacian; boundary rows are zero."""
    return _laplacian_matrix(grid.nx, grid.h)


def apply_laplacian(field: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Centered second difference of a scalar field; zero at the endpoints."""
    field = np.asarray(field, dtype=float)
    if field.shape != (grid.nx,):
        raise ValueError(f"field has shape {field.shape}, expected ({grid.nx},)")
    return laplacian_matrix(grid) @ field


def boundary_normal_derivative(field: np.ndarray, grid: SpaceTimeGrid,
                               side: str) -> float | np.ndarray:
    """Outward normal derivative at one endpoint, one-sided second order.

    Exact for polynomials up to degree two.  At the right endpoint the outward
    normal is +1 and the stencil is (3 f[-1] - 4 f[-2] + f[-3]) / (2 h); at the
    left endpoint the mirrored stencil already carries the sign of the outward
    normal -1.  A field of shape (nx,) gives one value; a space-time field of
    shape (nt, nx) gives the series over its time levels.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim not in (1, 2) or field.shape[-1] != grid.nx:
        raise ValueError(f"field has shape {field.shape}, expected ({grid.nx},) "
                         f"or (nt, {grid.nx})")
    h = grid.h
    if side == "right":
        return (3.0 * field[..., -1] - 4.0 * field[..., -2] + field[..., -3]) / (2.0 * h)
    if side == "left":
        return (3.0 * field[..., 0] - 4.0 * field[..., 1] + field[..., 2]) / (2.0 * h)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# time stencils
# ---------------------------------------------------------------------------
# Matrices act on a series of nt samples and return the k-th time derivative
# at every level.  Interior rows are centered; rows near the ends use
# one-sided second-order closures.

@lru_cache(maxsize=None)
def time_derivative_matrix(nt: int, dt: float, order: int) -> sp.csr_matrix:
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    if nt < order + 2:
        raise ValueError(f"need at least {order + 2} samples for order {order}, got {nt}")
    rows, cols, vals = [], [], []

    def put(r, offsets, coeffs, scale):
        for o, c in zip(offsets, coeffs):
            rows.append(r)
            cols.append(r + o)
            vals.append(c * scale)

    if order == 1:
        s = 1.0 / (2.0 * dt)
        put(0, (0, 1, 2), (-3.0, 4.0, -1.0), s)
        for n in range(1, nt - 1):
            put(n, (-1, 1), (-1.0, 1.0), s)
        put(nt - 1, (0, -1, -2), (3.0, -4.0, 1.0), s)
    elif order == 2:
        s = 1.0 / dt ** 2
        put(0, (0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0), s)
        for n in range(1, nt - 1):
            put(n, (-1, 0, 1), (1.0, -2.0, 1.0), s)
        put(nt - 1, (0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0), s)
    else:
        if nt < 5:
            raise ValueError(f"need at least 5 samples for order 3, got {nt}")
        s = 1.0 / (2.0 * dt ** 3)
        put(0, (0, 1, 2, 3, 4), (-5.0, 18.0, -24.0, 14.0, -3.0), s)
        put(1, (-1, 0, 1, 2, 3), (-3.0, 10.0, -12.0, 6.0, -1.0), s)
        for n in range(2, nt - 2):
            put(n, (-2, -1, 1, 2), (-1.0, 2.0, -2.0, 1.0), s)
        put(nt - 2, (1, 0, -1, -2, -3), (3.0, -10.0, 12.0, -6.0, 1.0), s)
        put(nt - 1, (0, -1, -2, -3, -4), (5.0, -18.0, 24.0, -14.0, 3.0), s)
    return sp.csr_matrix((vals, (rows, cols)), shape=(nt, nt))


@lru_cache(maxsize=None)
def time_derivative_matrix_zero_start(nt: int, dt: float, order: int) -> sp.csr_matrix:
    """Time stencils for series constrained to y(0) = 0 and y_t(0) = 0.

    The constraint is encoded by a ghost level y[-1] = y[1], so the first
    derivative vanishes at level 0 and the second derivative there reduces to
    2 (y[1] - y[0]) / dt^2.  Third-derivative rows at the first two levels use
    one-sided second-order stencils (the ghost cannot complete them); all
    remaining rows match :func:`time_derivative_matrix`.
    """
    base = time_derivative_matrix(nt, dt, order).tolil()
    if order == 1:
        base[0, :] = 0.0
    elif order == 2:
        base[0, :] = 0.0
        base[0, 0] = -2.0 / dt ** 2
        base[0, 1] = 2.0 / dt ** 2
    return base.tocsr()


def time_difference(samples: np.ndarray, dt: float, order: int) -> np.ndarray:
    """k-th discrete time derivative along the leading axis, k in {1, 2, 3}.

    Accepts a sample series or a space-time field with time levels as rows.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2):
        raise ValueError("samples must be a series or a (time, space) field")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return time_derivative_matrix(samples.shape[0], float(dt), order) @ samples


# ---------------------------------------------------------------------------
# quadrature and norms
# ---------------------------------------------------------------------------

def trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    w = np.full(n, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def interior_weights(n: int, spacing: float) -> np.ndarray:
    """Quadrature weights for integrands known only at interior nodes
    (extended by zero to the endpoints)."""
    w = np.full(n, spacing)
    w[0] = 0.0
    w[-1] = 0.0
    return w


def discrete_norms(values, grid: SpaceTimeGrid, which: str) -> float:
    """Discrete norms by trapezoidal quadrature.

    ``which`` selects the norm:

    * ``"l2"``        -- L2(Omega) of a scalar field, shape (nx,)
    * ``"l2_l2"``     -- L2(0,T; L2(Omega)) of a space-time field, shape (nt, nx)
    * ``"l2_trace"``  -- L2(0,T) of a trace series (L2 at a single endpoint is
      the squared point value, so the boundary integral degenerates)
    * ``"h1_trace"``  -- adds the first time derivative
    * ``"h2_trace"``  -- adds first and second time derivatives
    """
    if isinstance(values, TraceSeries):
        values = values.samples
    values = np.asarray(values, dtype=float)

    if which == "l2":
        if values.shape != (grid.nx,):
            raise ValueError(f"expected shape ({grid.nx},), got {values.shape}")
        return float(np.sqrt(trapezoid_weights(grid.nx, grid.h) @ values ** 2))

    if which == "l2_l2":
        if values.shape != (grid.nt, grid.nx):
            raise ValueError(f"expected shape ({grid.nt}, {grid.nx}), got {values.shape}")
        qx = trapezoid_weights(grid.nx, grid.h)
        qt = trapezoid_weights(grid.nt, grid.dt)
        return float(np.sqrt(qt @ (values ** 2 @ qx)))

    if which in ("l2_trace", "h1_trace", "h2_trace"):
        if values.shape != (grid.nt,):
            raise ValueError(f"expected shape ({grid.nt},), got {values.shape}")
        qt = trapezoid_weights(grid.nt, grid.dt)
        total = qt @ values ** 2
        if which in ("h1_trace", "h2_trace"):
            total += qt @ time_difference(values, grid.dt, 1) ** 2
        if which == "h2_trace":
            total += qt @ time_difference(values, grid.dt, 2) ** 2
        return float(np.sqrt(total))

    raise ValueError(f"unknown norm tag {which!r}")
