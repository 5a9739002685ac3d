"""Carleman weight machinery: admissibility of the observation geometry,
the convexified weight phi_lambda = exp(lambda * phi) with

    phi(x, t) = |x - x0|^2 - beta t^2 + M0,

and a quadrature evaluation of both sides of the weighted observability
estimate.  Weights enter all computations normalized by their global minimum,
a positive rescaling that cancels in every reported ratio; the practical
limit on the surviving exponent range is guarded explicitly because
exp(lambda * phi) sits inside another exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .grid import (SpaceTimeGrid, boundary_normal_derivative, interior_weights,
                   laplacian_matrix, time_derivative_matrix_zero_start,
                   trapezoid_weights)
from .solver import MGTCoefficients

LOG_RANGE_LIMIT = 700.0   # exp() overflows just above this in double precision


class WeightOverflowError(RuntimeError):
    """Raised when exp of the weight exponent range would overflow."""


@dataclass(frozen=True)
class CarlemanGeometry:
    """Observation point x0, time slope beta, offset M0 and boundary subset.

    ``gamma0_sides`` lists the observed endpoints; leave empty to have
    :func:`validate_admissibility` derive the required subset.
    """

    x0: float
    beta: float
    m0: float
    gamma0_sides: tuple = ()


@dataclass(frozen=True)
class CarlemanScales:
    """Weight parameters: lambda convexifies phi, s scales the exponent."""

    lam: float
    s: float

    def __post_init__(self) -> None:
        if self.lam < 0 or self.s < 0:
            raise ValueError(f"scales must be nonnegative, got lam={self.lam}, s={self.s}")


@dataclass(frozen=True)
class CarlemanSetup:
    geometry: CarlemanGeometry
    scales: CarlemanScales


@dataclass
class AdmissibilityReport:
    accepted: bool
    violations: list
    gamma0_sides: tuple
    sup_distance: float
    phi_min: float


def required_sides(geometry: CarlemanGeometry, grid: SpaceTimeGrid) -> tuple:
    """Endpoints p with (p - x0) . n(p) >= 0; the multiplier condition."""
    sides = []
    if geometry.x0 >= grid.x_left:       # left endpoint, outward normal -1
        sides.append("left")
    if geometry.x0 <= grid.x_right:      # right endpoint, outward normal +1
        sides.append("right")
    return tuple(sides)


def validate_admissibility(geometry: CarlemanGeometry, grid: SpaceTimeGrid) -> AdmissibilityReport:
    """Check every geometric condition the weighted estimate relies on."""
    violations = []
    sup_distance = max(abs(grid.x_left - geometry.x0), abs(grid.x_right - geometry.x0))
    T = grid.t_final

    if grid.x_left <= geometry.x0 <= grid.x_right:
        violations.append(
            f"x0 = {geometry.x0} must lie strictly outside [{grid.x_left}, {grid.x_right}]")
    if not 0.0 < geometry.beta < 1.0:
        violations.append(f"beta must lie in (0, 1), got {geometry.beta}")
    if not T > sup_distance:
        violations.append(f"need T > sup |x - x0| = {sup_distance}, got T = {T}")
    if not geometry.beta * T > sup_distance:
        violations.append(
            f"need beta*T > sup |x - x0| = {sup_distance}, got beta*T = {geometry.beta * T}")
    if not geometry.m0 >= geometry.beta * T ** 2 + 1.0:
        violations.append(
            f"need M0 >= beta*T^2 + 1 = {geometry.beta * T ** 2 + 1.0}, got M0 = {geometry.m0}")

    required = required_sides(geometry, grid)
    sides = geometry.gamma0_sides or required
    missing = set(required) - set(sides)
    if missing:
        violations.append(f"observation boundary must include {sorted(missing)}")

    dmin = min(abs(grid.x_left - geometry.x0), abs(grid.x_right - geometry.x0))
    phi_min = dmin ** 2 - geometry.beta * T ** 2 + geometry.m0
    return AdmissibilityReport(not violations, violations, tuple(sides),
                               float(sup_distance), float(phi_min))


def admissible_geometry(geometry: CarlemanGeometry, grid: SpaceTimeGrid) -> CarlemanGeometry:
    """Validated copy of ``geometry`` with the observed sides filled in."""
    report = validate_admissibility(geometry, grid)
    if not report.accepted:
        raise ValueError("inadmissible observation geometry: " + "; ".join(report.violations))
    return replace(geometry, gamma0_sides=report.gamma0_sides)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def phi(x, t, geometry: CarlemanGeometry):
    """phi(x, t) = |x - x0|^2 - beta t^2 + M0, vectorized in x and t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return (x - geometry.x0) ** 2 - geometry.beta * t ** 2 + geometry.m0


def log_weight(x, t, geometry: CarlemanGeometry, scales: CarlemanScales):
    """Natural-log exponent of the Carleman weight: 2 s exp(lambda phi)."""
    if scales.s == 0.0:
        return np.zeros(np.broadcast(np.asarray(x, dtype=float),
                                     np.asarray(t, dtype=float)).shape)[()]
    return 2.0 * scales.s * np.exp(scales.lam * phi(x, t, geometry))


def log_weight_table(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                     scales: CarlemanScales) -> np.ndarray:
    """log_weight sampled on the full grid, shape (nt, nx)."""
    return log_weight(grid.x[None, :], grid.t[:, None], geometry, scales)


def phi_lambda_table(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                     scales: CarlemanScales) -> np.ndarray:
    return np.exp(scales.lam * phi(grid.x[None, :], grid.t[:, None], geometry))


@dataclass
class WeightStatistics:
    log_min: float
    log_max: float
    log10_ratio: float


def weight_statistics(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                      scales: CarlemanScales) -> WeightStatistics:
    """Extremes of the weight exponent over the grid closure times [0, T].

    log10_ratio = (log_max - log_min) / ln 10 is the dynamic range of the
    weight in decades; it is computed in the log domain, so ranges far beyond
    what exp() can represent are still reported exactly.
    """
    table = log_weight_table(grid, geometry, scales)
    log_min = float(table.min())
    log_max = float(table.max())
    return WeightStatistics(log_min, log_max, (log_max - log_min) / np.log(10.0))


def check_weight_range(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                       scales: CarlemanScales) -> WeightStatistics:
    """Guard before exponentiating normalized weights."""
    stats = weight_statistics(grid, geometry, scales)
    span = stats.log_max - stats.log_min
    if span > LOG_RANGE_LIMIT:
        raise WeightOverflowError(
            f"log_weight max {stats.log_max:.6g} exceeds the minimum {stats.log_min:.6g} "
            f"by {span:.6g} > {LOG_RANGE_LIMIT:g}; lower s or lambda")
    return stats


def normalized_weight_table(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                            scales: CarlemanScales) -> np.ndarray:
    """exp(log_weight - min log_weight) on the grid; minimum entry is one."""
    stats = check_weight_range(grid, geometry, scales)
    return np.exp(log_weight_table(grid, geometry, scales) - stats.log_min)


# ---------------------------------------------------------------------------
# two sides of the weighted observability estimate
# ---------------------------------------------------------------------------

@dataclass
class CarlemanEvaluation:
    lhs: float
    rhs_interior: float
    rhs_boundary: float
    ratio: float


def carleman_lhs_rhs(y: np.ndarray, coeffs: MGTCoefficients, geometry: CarlemanGeometry,
                     scales: CarlemanScales, grid: SpaceTimeGrid) -> CarlemanEvaluation:
    """Quadrature of both sides of the weighted estimate for one field.

    ``y`` must vanish on the boundary columns and satisfy the discrete
    start conditions y(., 0) = y_t(., 0) = 0; time derivatives use the
    ghost-level convention of the constrained trajectory space.  The left
    side collects the s^(1/2) initial-acceleration term plus the weighted
    interior energies of y and y_t; the right side is the weighted residual
    norm of L y plus the observed-boundary fluxes.  The reported ratio
    lhs / rhs is the empirical estimate constant; it is invariant under the
    weight normalization used internally.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (grid.nt, grid.nx):
        raise ValueError(f"field has shape {y.shape}, expected ({grid.nt}, {grid.nx})")
    scale = max(np.abs(y).max(), 1e-300)
    if max(np.abs(y[:, 0]).max(), np.abs(y[:, -1]).max()) > 1e-10 * scale:
        raise ValueError("field must vanish at the boundary columns")
    if np.abs(y[0]).max() > 1e-10 * scale:
        raise ValueError("field must vanish at time level zero")

    geometry = admissible_geometry(geometry, grid)
    if scales.lam <= 0 or scales.s <= 0:
        raise ValueError("estimate evaluation needs strictly positive scales")
    lam, s = scales.lam, scales.s
    c4 = coeffs.c ** 4

    weight = normalized_weight_table(grid, geometry, scales)
    phil = phi_lambda_table(grid, geometry, scales)

    d1 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 1)
    d2 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 2)
    d3 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 3)
    lap = laplacian_matrix(grid)

    yt = d1 @ y
    ytt = d2 @ y
    yx = np.gradient(y, grid.h, axis=1, edge_order=2)
    yxt = np.gradient(yt, grid.h, axis=1, edge_order=2)
    ly = (d3 @ y + ytt * coeffs.alpha
          - coeffs.c ** 2 * (lap @ y.T).T - coeffs.b * (lap @ yt.T).T)

    qx = trapezoid_weights(grid.nx, grid.h)
    qt = trapezoid_weights(grid.nt, grid.dt)
    qx_int = interior_weights(grid.nx, grid.h)

    def integrate(table):
        return float(qt @ (table @ qx))

    ytt0 = 2.0 * y[1] / grid.dt ** 2          # encoded initial acceleration
    lhs = (np.sqrt(s) * float(qx @ (weight[0] * ytt0 ** 2))
           + s * lam * c4 * integrate(weight * phil * (yt ** 2 + yx ** 2))
           + s ** 3 * lam ** 3 * c4 * integrate(weight * phil ** 3 * y ** 2)
           + s * lam * integrate(weight * phil * (ytt ** 2 + yxt ** 2))
           + s ** 3 * lam ** 3 * integrate(weight * phil ** 3 * yt ** 2))

    rhs_interior = float(qt @ ((weight * ly ** 2) @ qx_int))

    rhs_boundary = 0.0
    for side in geometry.gamma0_sides:
        col = 0 if side == "left" else grid.nx - 1
        dyn = boundary_normal_derivative(y, grid, side)
        dytn = d1 @ dyn
        rhs_boundary += s * lam * float(qt @ (weight[:, col] * (dytn ** 2 + c4 * dyn ** 2)))

    rhs = rhs_interior + rhs_boundary
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = float(lhs / rhs)
    return CarlemanEvaluation(float(lhs), rhs_interior, float(rhs_boundary), ratio)
