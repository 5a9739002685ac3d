"""Carleman weight machinery: admissibility of the observation geometry
(``admissible_geometry`` checks it and raises where it fails), the
convexified weight phi_lambda = exp(lambda * phi) with

    phi(x, t) = |x - x0|^2 - beta t^2 + M0,

and a quadrature evaluation of both sides of the weighted observability
estimate: ``carleman_lhs_rhs`` for any one field at one scale pair, in one
pass, ``separable_lhs_rhs`` for many fields a(t) b(x) at many scale pairs at
once.  Both read lhs / rhs through ``grid.quotient``.  Weights enter all
computations normalized by their global minimum, a positive rescaling that
cancels in every reported ratio; the practical limit on the surviving
exponent range is guarded explicitly because exp(lambda * phi) sits inside
another exponential.  The guard and the normalization live in
``normalized_weight``; ``normalized_weight_table``, its whole-grid form, also
weights the objective in ``functional``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (SpaceTimeGrid, apply_laplacian, boundary_normal_derivative,
                   edge_normal_derivative, interior_weights, quotient,
                   time_derivative_matrix_zero_start, trapezoid_weights,
                   zero_start_acceleration)
from .solver import MGTCoefficients

LOG_RANGE_LIMIT = 700.0   # exp() overflows just above this in double precision


class WeightOverflowError(RuntimeError):
    """Raised when exp of the weight exponent range would overflow."""


@dataclass(frozen=True)
class CarlemanGeometry:
    """Observation point x0, time slope beta, offset M0 and boundary subset.

    ``gamma0_sides`` lists the observed endpoints; leave empty to have
    :func:`admissible_geometry` derive the required subset.
    """

    x0: float
    beta: float
    m0: float
    gamma0_sides: tuple = ()


@dataclass(frozen=True)
class CarlemanScales:
    """Weight parameters: lambda convexifies phi, s scales the exponent; both
    are strictly positive and finite (NaN is refused), as the estimate
    assumes."""

    lam: float
    s: float

    def __post_init__(self) -> None:
        if not (self.lam > 0 and self.s > 0 and math.isfinite(self.lam)
                and math.isfinite(self.s)):
            raise ValueError(
                f"scales must be positive and finite, got lam={self.lam}, s={self.s}")


@dataclass(frozen=True)
class CarlemanSetup:
    geometry: CarlemanGeometry
    scales: CarlemanScales


def required_sides(geometry: CarlemanGeometry, grid: SpaceTimeGrid) -> tuple:
    """Endpoints p with (p - x0) . n(p) >= 0; the multiplier condition."""
    sides = []
    if geometry.x0 >= grid.x_left:       # left endpoint, outward normal -1
        sides.append("left")
    if geometry.x0 <= grid.x_right:      # right endpoint, outward normal +1
        sides.append("right")
    return tuple(sides)


def admissible_geometry(geometry: CarlemanGeometry, grid: SpaceTimeGrid) -> CarlemanGeometry:
    """Copy of ``geometry`` with the observed sides filled in, once every
    geometric condition the weighted estimate relies on holds; otherwise
    ValueError naming each violated one."""
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

    if violations:
        raise ValueError("inadmissible observation geometry: " + "; ".join(violations))
    return replace(geometry, gamma0_sides=tuple(sides))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def phi(x, t, geometry: CarlemanGeometry):
    """phi(x, t) = |x - x0|^2 - beta t^2 + M0, vectorized in x and t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return (x - geometry.x0) ** 2 - geometry.beta * t ** 2 + geometry.m0


def log_weight(x, t, geometry: CarlemanGeometry, scales: CarlemanScales):
    """Natural-log exponent of the Carleman weight: 2 s exp(lambda phi).

    An exponent beyond the double range is inf, without a warning:
    ``normalized_weight`` refuses it by its range guard."""
    with np.errstate(over="ignore"):
        return 2.0 * scales.s * np.exp(scales.lam * phi(x, t, geometry))


def log_weight_table(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                     scales: CarlemanScales) -> np.ndarray:
    """log_weight sampled on the full grid, shape (nt, nx)."""
    return log_weight(grid.x[None, :], grid.t[:, None], geometry, scales)


@dataclass
class WeightStatistics:
    m0: float           # the geometry's offset, which moves the range by decades
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
    return WeightStatistics(geometry.m0, log_min, log_max,
                            (log_max - log_min) / np.log(10.0))


def normalized_weight(log_values: np.ndarray) -> np.ndarray:
    """exp(log_values - min log_values): weights normalized by their minimum.

    Guarded before exponentiating: a span of exponents above LOG_RANGE_LIMIT
    would overflow the largest normalized entry.  A NaN span fails too: it is
    inf - inf when the exponents themselves overflow.
    """
    log_min, log_max = float(log_values.min()), float(log_values.max())
    span = log_max - log_min
    if not span <= LOG_RANGE_LIMIT:
        raise WeightOverflowError(
            f"log_weight max {log_max:.6g} exceeds the minimum {log_min:.6g} "
            f"by {span:.6g}, not within {LOG_RANGE_LIMIT:g}; lower s or lambda")
    return np.exp(log_values - log_min)


def normalized_weight_table(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                            scales: CarlemanScales) -> np.ndarray:
    """exp(log_weight - min log_weight) on the grid; minimum entry is one."""
    return normalized_weight(log_weight_table(grid, geometry, scales))


# ---------------------------------------------------------------------------
# two sides of the weighted observability estimate
# ---------------------------------------------------------------------------

@dataclass
class CarlemanEvaluation:
    lhs: float
    rhs_interior: float
    rhs_boundary: float
    ratio: float


def _phi_growth(geometry: CarlemanGeometry, lam: float, grid: SpaceTimeGrid):
    """e^(lambda phi) on the grid and its cube, the factors of the estimate's
    gradient and value terms.  They depend on lambda and the geometry alone,
    so one pair serves every field and every s."""
    phil = np.exp(lam * phi(grid.x[None, :], grid.t[:, None], geometry))
    return phil, phil ** 3


def carleman_lhs_rhs(y: np.ndarray, coeffs: MGTCoefficients, geometry: CarlemanGeometry,
                     scales: CarlemanScales, grid: SpaceTimeGrid) -> CarlemanEvaluation:
    """Quadrature of both sides of the weighted estimate for one field, in one pass.

    ``y`` must be finite, vanish on the boundary columns and satisfy the
    discrete start conditions y(., 0) = y_t(., 0) = 0 (ghost-level time
    derivatives, as in the constrained trajectory space).  The left side is
    the s^(1/2) initial-acceleration term plus the weighted energies of y and
    y_t; the right side is the weighted interior norm of L y plus the
    observed-boundary fluxes.  lhs / rhs (``grid.quotient``) is the empirical
    estimate constant; the weight normalization used here cancels in it.
    """
    geometry = admissible_geometry(geometry, grid)
    y = np.asarray(y, dtype=float)
    if y.shape != (grid.nt, grid.nx):
        raise ValueError(f"field has shape {y.shape}, expected ({grid.nt}, {grid.nx})")
    # before the vanishing checks, which a NaN passes: every comparison with it is false
    if not np.all(np.isfinite(y)):
        raise ValueError("field must be finite")
    scale = max(np.abs(y).max(), 1e-300)
    if max(np.abs(y[:, 0]).max(), np.abs(y[:, -1]).max()) > 1e-10 * scale:
        raise ValueError("field must vanish at the boundary columns")
    if np.abs(y[0]).max() > 1e-10 * scale:
        raise ValueError("field must vanish at time level zero")
    lam, s = scales.lam, scales.s
    c4 = coeffs.c ** 4

    d1, d2, d3 = (time_derivative_matrix_zero_start(grid.nt, grid.dt, order)
                  for order in (1, 2, 3))
    yt = d1 @ y
    ytt = d2 @ y
    yx = np.gradient(y, grid.h, axis=1, edge_order=2)
    yxt = np.gradient(yt, grid.h, axis=1, edge_order=2)
    # L y = y_ttt + alpha y_tt - c^2 y_xx - b y_txx; no Laplacian on the boundary columns
    ly = d3 @ y + ytt * coeffs.alpha - apply_laplacian(coeffs.c ** 2 * y + coeffs.b * yt, grid)
    gradients = c4 * (yt ** 2 + yx ** 2) + ytt ** 2 + yxt ** 2

    weight = normalized_weight_table(grid, geometry, scales)
    phil, phil3 = _phi_growth(geometry, lam, grid)
    qx = trapezoid_weights(grid.nx, grid.h)
    qt = trapezoid_weights(grid.nt, grid.dt)
    lhs = (np.sqrt(s) * float(qx @ (weight[0] * zero_start_acceleration(y[1], grid.dt) ** 2))
           + s * lam * float(qt @ ((weight * phil * gradients) @ qx))
           + s ** 3 * lam ** 3 * float(qt @ ((weight * phil3 * (c4 * y ** 2 + yt ** 2)) @ qx)))
    rhs_interior = float(qt @ ((weight * ly ** 2) @ interior_weights(grid.nx, grid.h)))
    rhs_boundary = 0
    for side in geometry.gamma0_sides:
        dyn = boundary_normal_derivative(y, grid, side)
        flux = (d1 @ dyn) ** 2 + c4 * dyn ** 2
        col = 0 if side == "left" else grid.nx - 1
        rhs_boundary += s * lam * float(qt @ (weight[:, col] * flux))

    return CarlemanEvaluation(float(lhs), rhs_interior, float(rhs_boundary),
                              quotient(lhs, rhs_interior + rhs_boundary))


def separable_lhs_rhs(factors, coeffs: MGTCoefficients, geometry: CarlemanGeometry,
                      scales_list, grid: SpaceTimeGrid) -> tuple:
    """Both sides of the weighted estimate for fields y = a(t) b(x), one
    tuple of evaluations per scale pair with one entry per field.

    ``factors`` holds the (a, b) pairs: a series of nt time levels with
    a(0) = 0 and a profile of nx nodes that vanishes at both ends.  Every
    integrand of :func:`carleman_lhs_rhs` is then a short sum of (series) x
    (profile) products, e.g. y_t = a_t b, y_x = a b_x and

        L y = a_ttt b + a_tt (alpha b) - (c^2 a + b_visc a_t) b_xx,

    and the flux of y is a times b's edge stencil, so each weighted
    quadrature sum_t q_t sum_x K(t, x) A(t) B(x) is one product of the
    kernel table K with the profiles of all fields.  The numbers are
    carleman_lhs_rhs's on the outer products up to rounding, and each scale
    pair's weight range is guarded as there.
    """
    geometry = admissible_geometry(geometry, grid)
    a = np.array([pair[0] for pair in factors], dtype=float)
    b = np.array([pair[1] for pair in factors], dtype=float)
    if a.ndim != 2 or a.shape[1] != grid.nt or b.shape != (len(a), grid.nx):
        raise ValueError(f"factors have shapes {a.shape} and {b.shape}, expected "
                         f"(n, {grid.nt}) and (n, {grid.nx}) for n >= 1 fields")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("factors must be finite")
    if np.any(np.abs(a[:, 0]) > 1e-10 * np.abs(a).max(axis=1)):
        raise ValueError("time factors must vanish at time level zero")
    if np.any(np.maximum(np.abs(b[:, 0]), np.abs(b[:, -1])) > 1e-10 * np.abs(b).max(axis=1)):
        raise ValueError("space factors must vanish at both ends")
    c4 = coeffs.c ** 4

    # series as columns (nt, n), profiles as rows (n, nx)
    a = a.T
    at, att, attt = (time_derivative_matrix_zero_start(grid.nt, grid.dt, order) @ a
                     for order in (1, 2, 3))
    energy = c4 * a ** 2 + at ** 2
    b2 = b ** 2
    gradient_series = np.hstack([c4 * at ** 2 + att ** 2, energy])
    gradient_profiles = np.vstack([b2, np.gradient(b, grid.h, axis=1, edge_order=2) ** 2])
    # (L y)^2 = sum_kl A_k A_l B_k B_l over the three products A_k B_k of L y
    series = (attt, att, -(coeffs.c ** 2 * a + coeffs.b * at))
    profiles = (b, coeffs.alpha * b, apply_laplacian(b, grid))
    pairs = [(k, l) for k in range(3) for l in range(k, 3)]
    residual_series = np.hstack([(1.0 if k == l else 2.0) * series[k] * series[l]
                                 for k, l in pairs])
    residual_profiles = np.vstack([profiles[k] * profiles[l] for k, l in pairs])
    acceleration = zero_start_acceleration(a[1], grid.dt) ** 2
    edges = [(0 if side == "left" else grid.nx - 1, edge_normal_derivative(b, grid.h, side) ** 2)
             for side in geometry.gamma0_sides]

    qx = trapezoid_weights(grid.nx, grid.h)
    qt = trapezoid_weights(grid.nt, grid.dt)

    def quadrature(kernel, series, profiles):
        """sum_t q_t sum_x kernel A B of each stacked product, summed per field."""
        return (qt @ (series * (kernel @ profiles.T))).reshape(-1, len(b)).sum(axis=0)

    growth = {}
    rows = []
    for scales in scales_list:
        lam, s = scales.lam, scales.s
        weight = normalized_weight_table(grid, geometry, scales)
        if lam not in growth:
            growth[lam] = _phi_growth(geometry, lam, grid)
        phil, phil3 = growth[lam]
        lhs = (np.sqrt(s) * acceleration * (b2 @ (weight[0] * qx))
               + s * lam * quadrature(weight * phil * qx, gradient_series, gradient_profiles)
               + s ** 3 * lam ** 3 * quadrature(weight * phil3 * qx, energy, b2))
        rhs_interior = quadrature(weight * interior_weights(grid.nx, grid.h),
                                  residual_series, residual_profiles)
        rhs_boundary = np.zeros(len(b))
        for col, edge in edges:
            rhs_boundary += s * lam * edge * (qt @ (weight[:, col, None] * energy))
        rows.append(tuple(CarlemanEvaluation(float(lhs[k]), float(rhs_interior[k]),
                                             float(rhs_boundary[k]),
                                             quotient(lhs[k], rhs_interior[k] + rhs_boundary[k]))
                          for k in range(len(b))))
    return tuple(rows)
