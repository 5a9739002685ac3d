"""Weighted space-time least squares for the third-order operator.

The unknown lives in a constrained trajectory space: zero at the initial
level, zero on the boundary columns, with a ghost convention that encodes a
vanishing initial velocity.  The quadratic objective is half of |M y - b|^2:
M stacks the operator rows and, per observed side, the trace and trace-rate
rows, each times its square-root weight, and b is the weighted data
[g; mu; mu_t].  It is minimized by LSMR (Fong & Saunders, SIAM J. Sci.
Comput. 33, 2011) on M R^-1; the normal equations are never formed.  R^T R
is block diagonal: one block per group of seven adjacent interior nodes (the
last group may be shorter), made of those nodes' time series in M^T M.  M^T M
couples unknowns at most four time levels and two nodes apart, so with a
group's unknowns ordered time-major each block is one band of half-width
4 * 7 + 2 = 30.  The bands are scattered in one pass from a temporary M^T M,
their diagonal is scaled by 1 + 1e-10 (without it the steepest weights leave
a block numerically indefinite), and they are factored once per assembly by
banded Cholesky; R^-1 and R^-T are one banded triangular solve each.  Seven
nodes is the widest group whose band, 31 stored rows per unknown, stays below
the about 32 nonzeros per row of M^T M.

Every solve is certified by the backward error of the preconditioned
problem, |R^-T M^T r| / (sqrt(n) |r|) with r = b - M y recomputed from the
returned y; sqrt(n) is |M R^-1|_F, since the trace of (R^T R)^-1 M^T M is n
for a block-diagonal R^T R made of M^T M's own blocks.  It is invariant under
scaling the data and the weights, and LSMR's stop test bounds it.

All weighted sums use weights normalized by the global minimum exponent, a
positive rescaling of the objective that does not move the minimizer; every
reported weighted value therefore carries the common factor
exp(-log_weight_min).  The table is ``carleman.normalized_weight_table``,
built once per assembly or evaluation.  M's unweighted rows are built once
per (grid, c, b, observed sides) and cached; the solve, the objective, the
norms and the minimizer diagnostics all evaluate them, so the stencil
``solver.apply_operator`` serves only the Carleman estimate and the test
that pins the rows to it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dtbtrs
from scipy.sparse.linalg import LinearOperator, lsmr

from .carleman import CarlemanSetup, admissible_geometry, normalized_weight_table
from .grid import (SpaceTimeGrid, laplacian_matrix,
                   time_derivative_matrix_zero_start, trapezoid_weights)
from .observation import MuPair, zero_mu
from .solver import MGTCoefficients


# Farthest time-level coupling within a node's series in M^T M:
# the third difference spans five levels, so its Gram product spans +-4.
_TIME_BANDWIDTH = 4

# Interior nodes per preconditioner block.  M^T M couples nodes at most two
# apart, so a group of q nodes in time-major order is one band with
# kd = 4q + 2: 4q + 3 = 31 stored rows per unknown, below the about 32
# nonzeros per row of M^T M.
_GROUP_NODES = 7

# Relative shift of the blocks' diagonal before factoring: without it the
# steepest weights (s = 4) leave a group block numerically indefinite.
_BLOCK_SHIFT = 1e-10


class MinimizationError(RuntimeError):
    """Assembly breakdown or failure to reach the requested backward error."""


@dataclass
class TrajectoryVariable:
    """Interior unknowns at time levels 1..nt-1; level 0 and boundary fixed."""

    grid: SpaceTimeGrid
    values: np.ndarray      # shape (nt - 1, nx - 2)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt - 1, self.grid.nx - 2)
        if self.values.shape != expected:
            raise ValueError(f"values have shape {self.values.shape}, expected {expected}")

    @classmethod
    def zero(cls, grid: SpaceTimeGrid) -> "TrajectoryVariable":
        return cls(grid, np.zeros((grid.nt - 1, grid.nx - 2)))

    @classmethod
    def from_vector(cls, vec: np.ndarray, grid: SpaceTimeGrid) -> "TrajectoryVariable":
        return cls(grid, np.asarray(vec, dtype=float).reshape(grid.nt - 1, grid.nx - 2))

    @classmethod
    def from_full_field(cls, field: np.ndarray, grid: SpaceTimeGrid) -> "TrajectoryVariable":
        field = np.asarray(field, dtype=float)
        if field.shape != (grid.nt, grid.nx):
            raise ValueError(f"field has shape {field.shape}, expected ({grid.nt}, {grid.nx})")
        scale = max(np.abs(field).max(), 1.0)
        if np.abs(field[0]).max() > 1e-12 * scale:
            raise ValueError("field must vanish at the initial time level")
        if max(np.abs(field[:, 0]).max(), np.abs(field[:, -1]).max()) > 1e-12 * scale:
            raise ValueError("field must vanish on the boundary columns")
        return cls(grid, field[1:, 1:-1].copy())

    def to_vector(self) -> np.ndarray:
        return self.values.ravel()

    def full_field(self) -> np.ndarray:
        field = np.zeros((self.grid.nt, self.grid.nx))
        field[1:, 1:-1] = self.values
        return field


def initial_second_derivative(y_star: TrajectoryVariable, dt: float) -> np.ndarray:
    """Recovered initial acceleration 2 y^1 / dt^2, zero at the boundary.

    Exact for fields quadratic in time: with y^0 = 0 and the ghost level
    equal to y^1 the centered second difference collapses to this form.
    """
    out = np.zeros(y_star.grid.nx)
    out[1:-1] = 2.0 * y_star.values[0] / dt ** 2
    return out


def _as_mu_list(mu, sides: Sequence[str], nt: int, dt: float) -> list:
    """Normalize the trace-target argument to one MuPair per observed side."""
    if mu is None:
        return [zero_mu(side, nt, dt) for side in sides]
    if isinstance(mu, MuPair):
        mu = [mu]
    mu = list(mu)
    got = sorted(pair.side for pair in mu)
    if got != sorted(sides):
        raise ValueError(f"trace targets cover sides {got}, geometry observes {sorted(sides)}")
    for pair in mu:
        if pair.mu.shape != (nt,) or pair.mu_t.shape != (nt,):
            raise ValueError("trace target length does not match the grid")
    return mu


def _interior_trace_row(grid: SpaceTimeGrid, side: str) -> np.ndarray:
    """Normal-derivative stencil restricted to interior unknowns.

    The boundary node itself is constrained to zero, so only two interior
    coefficients survive from the one-sided second-order stencil.
    """
    row = np.zeros(grid.nx - 2)
    if side == "left":
        row[0] = -4.0 / (2.0 * grid.h)
        row[1] = 1.0 / (2.0 * grid.h)
    else:
        row[-1] = -4.0 / (2.0 * grid.h)
        row[-2] = 1.0 / (2.0 * grid.h)
    return row


@functools.lru_cache(maxsize=4)
def _unweighted_rows(grid: SpaceTimeGrid, c: float, b: float, sides: tuple):
    """Read-only unweighted rows of M: the operator at every level and interior
    node (time-major), then per observed side the trace at every level and its
    rate.  Returns (fixed, alpha_rows), the gamma-independent rows and the
    second-derivative rows whose columns alpha scales: M is the square-root
    weights times fixed + alpha_rows diag(alpha).
    """
    nt, nt1, m = grid.nt, grid.nt - 1, grid.nx - 2
    embed = sp.csr_matrix((np.ones(nt1), (np.arange(1, nt), np.arange(nt1))),
                          shape=(nt, nt1))
    d1e, d2e, d3e = (sp.csr_matrix(time_derivative_matrix_zero_start(nt, grid.dt, k))
                     @ embed for k in (1, 2, 3))
    lap_int = sp.csr_matrix(laplacian_matrix(grid)[1:-1, 1:-1])
    eye_m = sp.identity(m, format="csr")
    trace_rows = []
    for side in sides:
        row = sp.csr_matrix(_interior_trace_row(grid, side)[None, :])
        trace_rows += [sp.kron(embed, row), sp.kron(d1e, row)]
    fixed = sp.vstack([sp.kron(d3e, eye_m) - c ** 2 * sp.kron(embed, lap_int)
                       - b * sp.kron(d1e, lap_int)] + trace_rows, format="csr")
    zero_rows = sp.csr_matrix((nt * len(trace_rows), nt1 * m))
    alpha_rows = sp.vstack([sp.kron(d2e, eye_m), zero_rows], format="csr")
    for rows in (fixed, alpha_rows):
        for array in (rows.data, rows.indices, rows.indptr):
            array.flags.writeable = False
    return fixed, alpha_rows


def _row_weights(grid: SpaceTimeGrid, sides: Sequence[str], omega: np.ndarray,
                 s: float) -> np.ndarray:
    """Quadrature weight of each row of M: (1/s) q_t h omega at the operator
    rows, q_t omega at the observed column for each trace and rate row."""
    qt = trapezoid_weights(grid.nt, grid.dt)
    weights = [(1.0 / s) * qt[:, None] * grid.h * omega[:, 1:-1]]
    for side in sides:
        col = 0 if side == "left" else grid.nx - 1
        weights += [qt * omega[:, col]] * 2
    return np.concatenate([w.ravel() for w in weights])


def _weighted_data(root_weight: np.ndarray, grid: SpaceTimeGrid, sides: Sequence[str],
                   mu, g: Optional[np.ndarray]) -> np.ndarray:
    """Square-root weights times the data [g; mu; mu_t], row by row of M."""
    mu_list = _as_mu_list(mu, sides, grid.nt, grid.dt)
    g = np.zeros((grid.nt, grid.nx)) if g is None else np.asarray(g, dtype=float)
    if g.shape != (grid.nt, grid.nx):
        raise ValueError(f"target has shape {g.shape}, expected ({grid.nt}, {grid.nx})")
    parts = [g[:, 1:-1].ravel()]
    by_side = {pair.side: pair for pair in mu_list}
    for side in sides:
        parts += [by_side[side].mu, by_side[side].mu_t]
    return root_weight * np.concatenate(parts)


def _sum_of_squares(v: np.ndarray) -> float:
    """|v|^2 summed elementwise: OpenBLAS threads a dot product above 10,000
    entries, and waking its threads took about 8 ms per call on a busy 2-core
    machine, against 15 us for this sum."""
    return float(np.sum(v * v))


def _weighting(carleman: CarlemanSetup, grid: SpaceTimeGrid, purpose: Optional[str] = None):
    """Validated geometry and weight table; ``purpose`` demands positive scales."""
    geometry = admissible_geometry(carleman.geometry, grid)
    scales = carleman.scales
    if purpose is not None and (scales.lam <= 0 or scales.s <= 0):
        raise ValueError(f"{purpose} needs strictly positive weight scales")
    return geometry, normalized_weight_table(grid, geometry, scales)


class CarlemanLeastSquares:
    """Assembled quadratic objective for one (coefficients, weights, grid).

    ``operator`` is the stacked weighted residual map M: square-root weights
    times the operator rows and the value and rate trace rows of each
    observed side, so the objective is half of |M y - weighted_data|^2.  The
    engine also holds the banded Cholesky factor of the node-group
    time-series blocks of M^T M, the right preconditioner of the solve; M^T M
    itself is not kept.  M depends on the zeroth-order coefficient only
    through alpha; ``update_gamma`` rebuilds M and its preconditioner, which
    is what the reconstruction loop needs.  ``omega`` is the normalized
    weight table; :func:`minimizer_difference_check` reuses it.
    """

    def __init__(self, coeffs: MGTCoefficients, carleman: CarlemanSetup,
                 grid: SpaceTimeGrid):
        self.geometry, self.omega = _weighting(carleman, grid, "minimization")
        self.scales = carleman.scales
        self.grid = grid

        sides = self.geometry.gamma0_sides
        self._fixed_rows, self._alpha_rows = _unweighted_rows(grid, coeffs.c, coeffs.b,
                                                              sides)
        self._root_weight = np.sqrt(_row_weights(grid, sides, self.omega, self.scales.s))
        nt1, m = grid.nt - 1, grid.nx - 2
        n = self._n_unknowns = nt1 * m
        # Groups of _GROUP_NODES adjacent interior nodes, the last one possibly
        # shorter.  Within a group the unknowns run time-major: level t of node
        # j sits at nt1 * start + t * width + j - start.  ``_position`` maps
        # each time-major index there and ``_group_order`` back.
        node = np.arange(m)
        start = node // _GROUP_NODES * _GROUP_NODES
        self._group = np.tile(start, nt1)      # each unknown's group, by first node
        width = np.minimum(start + _GROUP_NODES, m) - start
        self._position = (nt1 * start[None, :] + np.arange(nt1)[:, None] * width[None, :]
                          + (node - start)[None, :]).ravel()
        self._group_order = np.empty(n, dtype=np.intp)
        self._group_order[self._position] = np.arange(n)
        self._assemble(coeffs)

    def update_gamma(self, gamma: np.ndarray) -> None:
        """Swap the zeroth-order coefficient and refresh M and its preconditioner."""
        self._assemble(self.coeffs.with_gamma(gamma))

    def _assemble(self, coeffs: MGTCoefficients) -> None:
        """Build M and the banded Cholesky factor of the group blocks of M^T M."""
        # release the previous coefficient's matrices before forming new ones
        self.operator = self._block_factor = None
        self.coeffs = coeffs
        n = self._n_unknowns
        alpha = sp.diags(np.tile(coeffs.alpha[1:-1], self.grid.nt - 1))
        self.operator = (sp.diags(self._root_weight)
                         @ (self._fixed_rows + self._alpha_rows @ alpha)).tocsr()
        normal = (self.operator.T @ self.operator).tocsr()
        if not np.all(np.isfinite(normal.data)) or np.any(normal.diagonal() <= 0):
            raise MinimizationError(
                "normal matrix has non-finite or non-positive diagonal entries; "
                "the weight range is too extreme for this grid")

        # Scatter the entries on or above the diagonal whose nodes share a
        # group into the lower band of that group's time-major block.
        col = normal.indices
        row = np.repeat(np.arange(n, dtype=col.dtype), np.diff(normal.indptr))
        keep = (col >= row) & (self._group[row] == self._group[col])
        low, high = self._position[row[keep]], self._position[col[keep]]
        band = np.zeros((_TIME_BANDWIDTH * _GROUP_NODES + 3, n), order="F")
        band[high - low, low] = normal.data[keep]
        band[0] *= 1.0 + _BLOCK_SHIFT
        self._block_factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise MinimizationError(
                f"node-group preconditioner is not positive definite "
                f"(banded Cholesky info {info})")

    def weighted_data(self, mu, g: Optional[np.ndarray]) -> np.ndarray:
        """Square-root weights times the data [g; mu; mu_t], row by row of M."""
        return _weighted_data(self._root_weight, self.grid, self.geometry.gamma0_sides,
                              mu, g)

    def _right_solve(self, v: np.ndarray, trans: str) -> np.ndarray:
        """R^-1 v (``trans`` "T") or R^-T v ("N") for a time-major vector.

        R is the transpose of the group blocks' lower Cholesky factor.
        """
        x, _ = dtbtrs(self._block_factor, v[self._group_order], uplo="L", trans=trans)
        out = np.empty_like(x)
        out[self._group_order] = x
        return out

    def _backward_error(self, residual: np.ndarray) -> float:
        """|R^-T M^T r| / (sqrt(n) |r|), sqrt(n) being |M R^-1|_F."""
        rnorm = np.linalg.norm(residual)
        if rnorm == 0.0:
            return 0.0
        gradient = self._right_solve(self.operator.T @ residual, "N")
        return float(np.linalg.norm(gradient) / (np.sqrt(self._n_unknowns) * rnorm))

    def solve_normal_equations(self, b: np.ndarray, tol: float,
                               x0: Optional[np.ndarray] = None,
                               max_iterations: Optional[int] = None):
        """Least-squares solution of M y = b by LSMR on M R^-1.

        ``b`` is ``weighted_data(mu, g)``; the normal equations are never
        formed.  Returns (solution, iterations, backward error), the backward
        error being that of the preconditioned problem, recomputed from the
        returned solution; above ``tol`` the solve raises.  A warm start
        ``x0`` that already meets ``tol`` is returned as it is; otherwise
        LSMR solves for its correction.  ``max_iterations`` caps LSMR's
        iterations (by default n).
        """
        n = self._n_unknowns
        if np.linalg.norm(b) == 0.0:
            return np.zeros(n), 0, 0.0
        y = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
        residual = b - self.operator @ y
        if x0 is not None:
            error = self._backward_error(residual)
            if error <= tol:
                return y, 0, error

        preconditioned = LinearOperator(
            self.operator.shape, dtype=float,
            matvec=lambda z: self.operator @ self._right_solve(z, "T"),
            rmatvec=lambda r: self._right_solve(self.operator.T @ r, "N"))
        # conlim=0: no stop on the condition estimate, only on the tolerance
        z, _, iterations = lsmr(preconditioned, residual, atol=tol, btol=tol,
                                conlim=0.0, maxiter=max_iterations)[:3]
        y += self._right_solve(z, "T")
        error = self._backward_error(b - self.operator @ y)
        if error > tol:
            raise MinimizationError(
                f"LSMR stopped at backward error {error:.3e} after {iterations} "
                f"iterations (target {tol:.1e}, cap {max_iterations or n})")
        return y, iterations, error


# ---------------------------------------------------------------------------
# objective evaluation (the cached rows of M, weighted by the same table)
# ---------------------------------------------------------------------------

def _weighted_residual(y: TrajectoryVariable, mu, g, coeffs: MGTCoefficients,
                       carleman: CarlemanSetup, grid: SpaceTimeGrid) -> np.ndarray:
    """M y - b for the coefficient ``coeffs``, without assembling M."""
    geometry, omega = _weighting(carleman, grid, "evaluation")
    sides = geometry.gamma0_sides
    root_weight = np.sqrt(_row_weights(grid, sides, omega, carleman.scales.s))
    fixed, alpha_rows = _unweighted_rows(grid, coeffs.c, coeffs.b, sides)
    vec = y.to_vector()
    image = fixed @ vec + alpha_rows @ (np.tile(coeffs.alpha[1:-1], grid.nt - 1) * vec)
    return root_weight * image - _weighted_data(root_weight, grid, sides, mu, g)


def evaluate_J(y: TrajectoryVariable, mu, g, coeffs: MGTCoefficients,
               carleman: CarlemanSetup, grid: SpaceTimeGrid) -> float:
    """Value of the weighted least-squares objective at ``y``: half |M y - b|^2."""
    return 0.5 * _sum_of_squares(_weighted_residual(y, mu, g, coeffs, carleman, grid))


def v_norm_sq(y: TrajectoryVariable, coeffs: MGTCoefficients,
              carleman: CarlemanSetup, grid: SpaceTimeGrid) -> float:
    """Squared weighted graph norm |M y|^2: twice the objective at zero data."""
    return _sum_of_squares(_weighted_residual(y, None, None, coeffs, carleman, grid))


def weighted_data_norms(mu, g, carleman: CarlemanSetup, grid: SpaceTimeGrid):
    """Weighted squared norms of the data pair: interior target and traces.

    Returns (g_norm_sq, mu_norm_sq) without the 1/s factor (the rows'
    weights at s = 1); these are the ingredients of the minimizer energy
    bound.
    """
    geometry, omega = _weighting(carleman, grid)
    sides = geometry.gamma0_sides
    data = _weighted_data(np.sqrt(_row_weights(grid, sides, omega, 1.0)), grid, sides,
                          mu, g)
    interior, traces = np.split(data, [grid.nt * (grid.nx - 2)])
    return _sum_of_squares(interior), _sum_of_squares(traces)


@dataclass
class MinimizerDiagnostics:
    j_value: float
    v_norm_sq: float
    el_residual: float
    solver_iterations: int
    bound_slack: float


def minimize_J(mu, g, coeffs: MGTCoefficients, carleman: CarlemanSetup,
               grid: SpaceTimeGrid, solver_tol: float = 1e-9,
               engine: Optional[CarlemanLeastSquares] = None,
               warm_start: Optional[TrajectoryVariable] = None,
               max_iterations: Optional[int] = None):
    """Minimizer of the weighted objective and its diagnostics.

    ``engine`` allows reuse of an assembled operator and preconditioner
    across calls with the same coefficients, weights and grid.  The energy
    bound check uses the exact factor 4: ||y*||^2 <= (4/s) |g|_w^2 + 4 |mu|_w^2,
    a discrete inequality inherited from J(y*) <= J(0) plus Young's inequality.
    """
    if engine is None:
        engine = CarlemanLeastSquares(coeffs, carleman, grid)
    x0 = None if warm_start is None else warm_start.to_vector()
    b = engine.weighted_data(mu, g)
    vec, iterations, rel = engine.solve_normal_equations(
        b, solver_tol, x0=x0, max_iterations=max_iterations)
    y_star = TrajectoryVariable.from_vector(vec, grid)

    image = engine.operator @ vec
    norm_sq = _sum_of_squares(image)
    diagnostics = MinimizerDiagnostics(
        j_value=0.5 * _sum_of_squares(b - image),
        v_norm_sq=norm_sq,
        el_residual=float(rel),
        solver_iterations=int(iterations),
        bound_slack=4.0 * _sum_of_squares(b) - norm_sq,
    )
    return y_star, diagnostics


@dataclass
class DifferenceCheckReport:
    difference_energy: float       # (1/2s) weighted |L d|^2 + weighted traces of d
    bound: float                   # (2/s) weighted |g1 - g2|^2
    slack: float
    curvature_constant: float      # sqrt(s) * weighted initial curvature / bound norm
    minimizer_gap: float
    diagnostics_first: MinimizerDiagnostics
    diagnostics_second: MinimizerDiagnostics


def minimizer_difference_check(g1, g2, mu, coeffs: MGTCoefficients,
                               carleman: CarlemanSetup, grid: SpaceTimeGrid,
                               solver_tol: float = 1e-9) -> DifferenceCheckReport:
    """Compare the minimizers of two targets sharing the same trace data.

    Subtracting the two optimality systems bounds the weighted graph energy
    of the difference by (2/s) times the weighted energy of g1 - g2; the
    slack reported here must stay nonnegative up to solver tolerance.  Also
    reported: the ratio sqrt(s) * weighted |difference of recovered initial
    accelerations|^2 / weighted |g1 - g2|^2, the empirical constant of the
    corresponding stability statement.
    """
    engine = CarlemanLeastSquares(coeffs, carleman, grid)
    y1, diag1 = minimize_J(mu, g1, coeffs, carleman, grid, solver_tol, engine=engine)
    y2, diag2 = minimize_J(mu, g2, coeffs, carleman, grid, solver_tol, engine=engine,
                           warm_start=y1)
    s = engine.scales.s
    pde, traces = np.split(engine.operator @ (y1.to_vector() - y2.to_vector()),
                           [grid.nt * (grid.nx - 2)])
    difference_energy = 0.5 * _sum_of_squares(pde) + _sum_of_squares(traces)

    a = np.zeros((grid.nt, grid.nx)) if g1 is None else np.asarray(g1, dtype=float)
    b = np.zeros((grid.nt, grid.nx)) if g2 is None else np.asarray(g2, dtype=float)
    delta_sq = _sum_of_squares(engine.weighted_data(None, a - b))
    bound = 2.0 * delta_sq
    delta_norm = s * delta_sq     # without the rows' 1/s factor

    ytt_diff = (initial_second_derivative(y1, grid.dt)
                - initial_second_derivative(y2, grid.dt))
    qx = trapezoid_weights(grid.nx, grid.h)
    initial_term = np.sqrt(s) * float(qx @ (engine.omega[0] * ytt_diff ** 2))
    curvature_constant = initial_term / delta_norm if delta_norm > 0 else 0.0

    gap = float(np.abs(y1.values - y2.values).max())
    return DifferenceCheckReport(
        difference_energy=float(difference_energy),
        bound=float(bound),
        slack=float(bound - difference_energy),
        curvature_constant=float(curvature_constant),
        minimizer_gap=gap,
        diagnostics_first=diag1,
        diagnostics_second=diag2,
    )
