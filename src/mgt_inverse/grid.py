"""Uniform space-time grids, finite-difference stencils and discrete norms.

Everything downstream (forward solver, weighted functional, verification
suites) works on a tensor grid: ``nx`` nodes on ``[x_left, x_right]`` times
``nt`` time levels on ``[0, t_final]``.  Space-time fields are stored as
arrays of shape ``(nt, nx)`` with time as the leading axis.
"""

from __future__ import annotations

import math
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
        if not (factor >= 1 and float(factor).is_integer()):
            raise ValueError(f"refinement factor must be a positive integer, got {factor}")
        factor = int(factor)
        return SpaceTimeGrid(self.x_left, self.x_right, factor * (self.nx - 1) + 1,
                             self.t_final, factor * (self.nt - 1) + 1)


def build_grid(x_left: float, x_right: float, nx: int, t_final: float, nt: int) -> SpaceTimeGrid:
    """Validate and build a uniform space-time grid."""
    for name, value in (("x_left", x_left), ("x_right", x_right), ("t_final", t_final)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not x_right > x_left:
        raise ValueError(f"domain must satisfy x_right > x_left, got [{x_left}, {x_right}]")
    if not t_final > 0:
        raise ValueError(f"final time must be positive, got {t_final}")
    for name, size in (("nx", nx), ("nt", nt)):
        # one-sided second-order closures need at least five points per axis
        if not (size >= 5 and float(size).is_integer()):
            raise ValueError(f"{name} must be an integer >= 5, got {size}")
    return SpaceTimeGrid(float(x_left), float(x_right), int(nx), float(t_final), int(nt))


def sine_sum(grid: SpaceTimeGrid, amplitudes, offset: float = 0.0) -> np.ndarray:
    """offset + sum_m a_m sin(m pi xhat) at the nodes, xhat = (x - x_left) / length."""
    xi = (grid.x - grid.x_left) / (grid.x_right - grid.x_left)
    values = np.full(grid.nx, float(offset))
    for m, a in enumerate(amplitudes, start=1):
        values += a * np.sin(m * np.pi * xi)
    return values


# ---------------------------------------------------------------------------
# spatial stencils
# ---------------------------------------------------------------------------
# Each stencil is one function of a field; its matrix, where one is needed, is
# that function applied to the identity (``functional`` builds M's rows so).

def apply_laplacian(field: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Centered second difference in x of an (nx,) or (nt, nx) field; zero at the ends."""
    field = np.asarray(field, dtype=float)
    if field.ndim not in (1, 2) or field.shape[-1] != grid.nx:
        raise ValueError(f"field has shape {field.shape}, expected ({grid.nx},) or (nt, {grid.nx})")
    out = np.zeros(field.shape)
    out[..., 1:-1] = (field[..., :-2] - 2.0 * field[..., 1:-1] + field[..., 2:]) / grid.h ** 2
    return out


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
    return edge_normal_derivative(field, grid.h, side)


# the nodes the one-sided stencils read: three at the left end, three at the right
EDGE_NODES = (0, 1, 2, -3, -2, -1)


def edge_normal_derivative(edge: np.ndarray, h: float, side: str) -> float | np.ndarray:
    """The stencil of :func:`boundary_normal_derivative` along the last axis
    of ``edge``, which is a whole field or only its ``EDGE_NODES`` columns:
    either way the left stencil reads entries 0, 1, 2 and the right one
    entries -1, -2, -3, so both give the same numbers."""
    if side == "right":
        return (3.0 * edge[..., -1] - 4.0 * edge[..., -2] + edge[..., -3]) / (2.0 * h)
    if side == "left":
        return (3.0 * edge[..., 0] - 4.0 * edge[..., 1] + edge[..., 2]) / (2.0 * h)
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


def zero_start_acceleration(first_level, dt: float):
    """y_tt(0) of a series with y(0) = y_t(0) = 0, from its first level after
    zero: 2 y^1 / dt^2, the zero-start second-derivative row at level 0 with
    the ghost level equal to y^1 and y^0 = 0.  Exact for fields quadratic in
    time."""
    return 2.0 * first_level / dt ** 2


def time_difference(samples: np.ndarray, dt: float, order: int) -> np.ndarray:
    """k-th discrete time derivative along the leading axis, k in {1, 2, 3}.

    Accepts a sample series or a space-time field with time levels as rows.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2):
        raise ValueError("samples must be a series or a (time, space) field")
    if not dt > 0:
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


def quotient(lhs: float, rhs: float) -> float:
    """lhs / rhs, the empirical constant C of a bound lhs <= C rhs; 0/0 reads 0, x/0 inf."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else float("inf")
    return float(lhs / rhs)


def discrete_norms(values, grid: SpaceTimeGrid, which: str) -> float:
    """Discrete norms by trapezoidal quadrature.

    ``which`` selects the norm:

    * ``"l2"``        -- L2(Omega) of a scalar field, shape (nx,)
    * ``"l2_l2"``     -- L2(0,T; L2(Omega)) of a space-time field, shape (nt, nx)
    * ``"h1_trace"``  -- H1(0,T) of a trace series: the series and its first
      time derivative
    """
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

    if which == "h1_trace":
        if values.shape != (grid.nt,):
            raise ValueError(f"expected shape ({grid.nt},), got {values.shape}")
        qt = trapezoid_weights(grid.nt, grid.dt)
        return float(np.sqrt(qt @ values ** 2
                             + qt @ time_difference(values, grid.dt, 1) ** 2))

    raise ValueError(f"unknown norm tag {which!r}")
