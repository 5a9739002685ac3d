"""Weighted space-time least squares for the third-order operator.

The unknown lives in a constrained trajectory space: zero at the initial
level, zero on the boundary columns, with a ghost convention that encodes a
vanishing initial velocity.  The quadratic objective is half of |M y - b|^2:
M stacks the operator rows and, per observed side, the trace and trace-rate
rows, each times its square-root weight, and b is the weighted data
[g; mu; mu_t].  It is minimized through the normal equations M^T M y = M^T b
by preconditioned conjugate gradients.  M^T M is first equilibrated by an
explicit symmetric diagonal rescaling, which keeps the stored entries near
unit scale and defines the residual the solver reports.  The preconditioner
is then block diagonal: one block per group of seven adjacent interior nodes
(the last group may be shorter), made of those nodes' time series.  M^T M
couples unknowns at most four time levels and two nodes apart, so with a
group's unknowns ordered time-major each block is one band of half-width
4 * 7 + 2 = 30, scattered from the rescaled matrix's entries in one pass,
shifted by 1e-10 on its unit diagonal (without it the steepest weights leave
a block numerically indefinite), factored once per assembly by banded
Cholesky and applied by one banded solve per iteration.  Seven nodes is the
widest group whose band, 31 stored rows per unknown, stays below the about 32
nonzeros per row of M^T M, so the factor never needs more memory than the
matrix it preconditions.

All weighted sums use weights normalized by the global minimum exponent, a
positive rescaling of the objective that does not move the minimizer; every
reported weighted value therefore carries the common factor
exp(-log_weight_min).  The table is ``carleman.normalized_weight_table``,
built once per assembly and reused by the minimizer diagnostics.  Besides
the sparse assembly the normal equations need, the objective evaluates the
operator by the stencil ``solver.apply_operator``, far cheaper than an assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .carleman import (CarlemanGeometry, CarlemanSetup, admissible_geometry,
                       normalized_weight_table)
from .grid import (SpaceTimeGrid, laplacian_matrix,
                   time_derivative_matrix_zero_start, trapezoid_weights)
from .observation import MuPair, zero_mu
from .solver import MGTCoefficients, apply_operator


# Farthest time-level coupling within a node's series in the normal matrix:
# the third difference spans five levels, so its Gram product spans +-4.
_TIME_BANDWIDTH = 4

# Interior nodes per preconditioner block.  The normal matrix couples nodes at
# most two apart, so a group of q nodes in time-major order is one band with
# kd = 4q + 2: 4q + 3 = 31 stored rows per unknown, below the about 32
# nonzeros per row of the normal matrix, so the factor never needs more
# memory than the matrix it preconditions.
_GROUP_NODES = 7

# Added to the unit diagonal of the blocks before factoring: without it the
# steepest weights (s = 4) leave a group block numerically indefinite.
_BLOCK_SHIFT = 1e-10


class MinimizationError(RuntimeError):
    """Solver breakdown or failure to reach the requested residual."""


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
    engine also holds M^T M rescaled to a unit diagonal and the banded
    Cholesky factor of its node-group time-series blocks.  M depends on the
    zeroth-order coefficient only through alpha; ``update_gamma`` rebuilds M
    and what is derived from it, which is what the reconstruction loop
    needs.  ``omega`` is the normalized weight table; the diagnostics of
    :func:`minimize_J` reuse it.
    """

    def __init__(self, coeffs: MGTCoefficients, carleman: CarlemanSetup,
                 grid: SpaceTimeGrid):
        self.geometry, self.omega = _weighting(carleman, grid, "minimization")
        self.scales = carleman.scales
        self.grid = grid

        nt, nt1, m = grid.nt, grid.nt - 1, grid.nx - 2
        n = self._n_unknowns = nt1 * m
        embed = sp.csr_matrix((np.ones(nt1), (np.arange(1, nt), np.arange(nt1))),
                              shape=(nt, nt1))
        d1e = sp.csr_matrix(time_derivative_matrix_zero_start(nt, grid.dt, 1)) @ embed
        d2e = sp.csr_matrix(time_derivative_matrix_zero_start(nt, grid.dt, 2)) @ embed
        d3e = sp.csr_matrix(time_derivative_matrix_zero_start(nt, grid.dt, 3)) @ embed
        lap_int = sp.csr_matrix(laplacian_matrix(grid)[1:-1, 1:-1])
        eye_m = sp.identity(m, format="csr")

        # Rows of M: the operator at every level and interior node (time-major),
        # then per observed side the trace at every level and its rate.  They
        # are held unweighted, split into the gamma-independent rows and the
        # second-derivative rows whose columns alpha scales.
        qt = trapezoid_weights(nt, grid.dt)
        weights = [(1.0 / self.scales.s) * qt[:, None] * grid.h * self.omega[:, 1:-1]]
        trace_rows = []
        for side in self.geometry.gamma0_sides:
            col = 0 if side == "left" else grid.nx - 1
            row = sp.csr_matrix(_interior_trace_row(grid, side)[None, :])
            trace_rows += [sp.kron(embed, row), sp.kron(d1e, row)]
            weights += [qt * self.omega[:, col]] * 2
        self._fixed_rows = sp.vstack(
            [sp.kron(d3e, eye_m) - coeffs.c ** 2 * sp.kron(embed, lap_int)
             - coeffs.b * sp.kron(d1e, lap_int)] + trace_rows, format="csr")
        zero_rows = sp.csr_matrix((nt * len(trace_rows), n))
        self._alpha_rows = sp.vstack([sp.kron(d2e, eye_m), zero_rows], format="csr")
        self._root_weight = np.sqrt(np.concatenate([w.ravel() for w in weights]))

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
        """Swap the zeroth-order coefficient and refresh the normal matrix."""
        self._assemble(self.coeffs.with_gamma(gamma))

    def _assemble(self, coeffs: MGTCoefficients) -> None:
        """Build M, the rescaled M^T M and the factor of its group blocks."""
        # release the previous coefficient's matrices before forming new ones
        self.operator = self._normal_scaled = self._block_factor = None
        self.coeffs = coeffs
        n = self._n_unknowns
        alpha = sp.diags(np.tile(coeffs.alpha[1:-1], self.grid.nt - 1))
        self.operator = (sp.diags(self._root_weight)
                         @ (self._fixed_rows + self._alpha_rows @ alpha)).tocsr()
        normal = (self.operator.T @ self.operator).tocsr()
        diag = normal.diagonal()
        if not np.all(np.isfinite(normal.data)) or np.any(diag <= 0):
            raise MinimizationError(
                "normal matrix has non-finite or non-positive diagonal entries; "
                "the weight range is too extreme for this grid")
        self._scale = 1.0 / np.sqrt(diag)
        col = normal.indices
        row = np.repeat(np.arange(n, dtype=col.dtype), np.diff(normal.indptr))
        normal.data *= self._scale[row]        # in place: no second copy of M^T M
        normal.data *= self._scale[col]
        self._normal_scaled = normal

        # Scatter the entries on or above the diagonal whose nodes share a
        # group into the lower band of that group's time-major block.
        keep = (col >= row) & (self._group[row] == self._group[col])
        low, high = self._position[row[keep]], self._position[col[keep]]
        band = np.zeros((_TIME_BANDWIDTH * _GROUP_NODES + 3, n), order="F")
        band[high - low, low] = normal.data[keep]
        band[0] += _BLOCK_SHIFT
        self._block_factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise MinimizationError(
                f"node-group preconditioner is not positive definite "
                f"(banded Cholesky info {info})")

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """Solve the node-group blocks for a time-major vector."""
        z, _ = dpbtrs(self._block_factor, r[self._group_order], lower=1)
        out = np.empty_like(z)
        out[self._group_order] = z
        return out

    def weighted_data(self, mu, g: Optional[np.ndarray]) -> np.ndarray:
        """Square-root weights times the data [g; mu; mu_t], row by row of M."""
        grid = self.grid
        mu_list = _as_mu_list(mu, self.geometry.gamma0_sides, grid.nt, grid.dt)
        g = np.zeros((grid.nt, grid.nx)) if g is None else np.asarray(g, dtype=float)
        if g.shape != (grid.nt, grid.nx):
            raise ValueError(f"target has shape {g.shape}, expected ({grid.nt}, {grid.nx})")
        parts = [g[:, 1:-1].ravel()]
        by_side = {pair.side: pair for pair in mu_list}
        for side in self.geometry.gamma0_sides:
            parts += [by_side[side].mu, by_side[side].mu_t]
        return self._root_weight * np.concatenate(parts)

    def rhs_vector(self, mu, g: Optional[np.ndarray]) -> np.ndarray:
        return self.operator.T @ self.weighted_data(mu, g)

    def solve_normal_equations(self, rhs: np.ndarray, tol: float,
                               x0: Optional[np.ndarray] = None,
                               max_iterations: Optional[int] = None):
        """Preconditioned conjugate gradients on the rescaled normal matrix.

        The preconditioner is the node-group time-series block diagonal
        factored in ``_assemble``.  Returns (solution, iterations, relative
        residual), the residual being that of the rescaled system.  The
        recursion residual is cross-checked against the true residual before
        the method is allowed to stop, so the reported residual is genuine.
        """
        n = self._n_unknowns
        cap = 10 * n if max_iterations is None else max_iterations
        mat = self._normal_scaled
        b = self._scale * rhs
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(n), 0, 0.0

        x = np.zeros(n) if x0 is None else x0 / self._scale
        r = b - mat @ x
        z = self._precondition(r)
        p = z.copy()
        rz = float(r @ z)
        iterations = 0
        while iterations < cap:
            if np.linalg.norm(r) <= tol * bnorm:
                r = b - mat @ x        # trust only the recomputed residual
                if np.linalg.norm(r) <= tol * bnorm:
                    break
                z = self._precondition(r)
                rz = float(r @ z)
                p = z.copy()
            q = mat @ p
            curvature = float(p @ q)
            if curvature <= 0.0 or not np.isfinite(curvature):
                raise MinimizationError(
                    f"conjugate gradient breakdown at iteration {iterations}: "
                    f"direction curvature {curvature}")
            step = rz / curvature
            x += step * p
            r -= step * q
            z = self._precondition(r)
            rz_next = float(r @ z)
            p = z + (rz_next / rz) * p
            rz = rz_next
            iterations += 1
        rel = float(np.linalg.norm(b - mat @ x) / bnorm)
        if rel > tol:
            raise MinimizationError(
                f"conjugate gradient stalled at relative residual {rel:.3e} "
                f"after {iterations} iterations (target {tol:.1e}, cap {cap})")
        return self._scale * x, iterations, rel


# ---------------------------------------------------------------------------
# objective evaluation (stencil path; same quadrature as the assembled form)
# ---------------------------------------------------------------------------

def _weighted_terms(y: TrajectoryVariable, mu, g, coeffs: MGTCoefficients, s: float,
                    geometry: CarlemanGeometry, omega: np.ndarray, grid: SpaceTimeGrid):
    """PDE and trace mismatch energies entering the objective.

    ``geometry`` and ``omega`` come from :func:`_weighting`.  Returns
    (pde_term, trace_term) where the objective is half their sum; pde_term
    carries the 1/s factor.
    """
    mu_list = _as_mu_list(mu, geometry.gamma0_sides, grid.nt, grid.dt)
    d1 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 1)
    resid = apply_operator(y.full_field(), coeffs, grid, zero_start=True)[:, 1:-1]
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.shape != (grid.nt, grid.nx):
            raise ValueError(f"target has shape {g.shape}, expected ({grid.nt}, {grid.nx})")
        resid = resid - g[:, 1:-1]

    qt = trapezoid_weights(grid.nt, grid.dt)
    pde_term = (1.0 / s) * float(
        (qt[:, None] * grid.h * omega[:, 1:-1] * resid ** 2).sum())

    by_side = {pair.side: pair for pair in mu_list}
    trace_term = 0.0
    for side in geometry.gamma0_sides:
        col = 0 if side == "left" else grid.nx - 1
        row = _interior_trace_row(grid, side)
        trace = np.concatenate(([0.0], y.values @ row))   # level 0 is constrained
        trace_t = d1 @ trace
        pair = by_side[side]
        w = qt * omega[:, col]
        trace_term += float(w @ ((trace - pair.mu) ** 2 + (trace_t - pair.mu_t) ** 2))
    return pde_term, trace_term


def evaluate_J(y: TrajectoryVariable, mu, g, coeffs: MGTCoefficients,
               carleman: CarlemanSetup, grid: SpaceTimeGrid) -> float:
    """Value of the weighted least-squares objective at ``y``."""
    geometry, omega = _weighting(carleman, grid, "evaluation")
    pde_term, trace_term = _weighted_terms(y, mu, g, coeffs, carleman.scales.s,
                                           geometry, omega, grid)
    return 0.5 * (pde_term + trace_term)


def v_norm_sq(y: TrajectoryVariable, coeffs: MGTCoefficients,
              carleman: CarlemanSetup, grid: SpaceTimeGrid) -> float:
    """Squared weighted graph norm of ``y``: twice the objective at zero data."""
    geometry, omega = _weighting(carleman, grid, "evaluation")
    pde_term, trace_term = _weighted_terms(y, None, None, coeffs, carleman.scales.s,
                                           geometry, omega, grid)
    return pde_term + trace_term


def weighted_data_norms(mu, g, carleman: CarlemanSetup, grid: SpaceTimeGrid):
    """Weighted squared norms of the data pair: interior target and traces.

    Returns (g_norm_sq, mu_norm_sq) without the 1/s factor; these are the
    ingredients of the minimizer energy bound.
    """
    return _weighted_data_norms(mu, g, *_weighting(carleman, grid), grid)


def _weighted_data_norms(mu, g, geometry: CarlemanGeometry, omega: np.ndarray,
                         grid: SpaceTimeGrid):
    mu_list = _as_mu_list(mu, geometry.gamma0_sides, grid.nt, grid.dt)
    qt = trapezoid_weights(grid.nt, grid.dt)
    g_norm = 0.0
    if g is not None:
        g = np.asarray(g, dtype=float)
        g_norm = float((qt[:, None] * grid.h * omega[:, 1:-1] * g[:, 1:-1] ** 2).sum())
    mu_norm = 0.0
    for pair in mu_list:
        col = 0 if pair.side == "left" else grid.nx - 1
        w = qt * omega[:, col]
        mu_norm += float(w @ (pair.mu ** 2 + pair.mu_t ** 2))
    return g_norm, mu_norm


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

    ``engine`` allows reuse of an assembled normal matrix across calls with
    the same coefficients, weights and grid.  The energy bound check uses
    the exact factor 4: ||y*||^2 <= (4/s) |g|_w^2 + 4 |mu|_w^2, a discrete
    inequality inherited from J(y*) <= J(0) plus Young's inequality.
    """
    if engine is None:
        engine = CarlemanLeastSquares(coeffs, carleman, grid)
    rhs = engine.rhs_vector(mu, g)
    x0 = None if warm_start is None else warm_start.to_vector()
    vec, iterations, rel = engine.solve_normal_equations(
        rhs, solver_tol, x0=x0, max_iterations=max_iterations)
    y_star = TrajectoryVariable.from_vector(vec, grid)

    s, geometry, omega = engine.scales.s, engine.geometry, engine.omega
    pde_term, trace_term = _weighted_terms(y_star, mu, g, coeffs, s, geometry, omega, grid)
    j_value = 0.5 * (pde_term + trace_term)
    pde_term, trace_term = _weighted_terms(y_star, None, None, coeffs, s, geometry, omega,
                                           grid)
    norm_sq = pde_term + trace_term
    g_norm, mu_norm = _weighted_data_norms(mu, g, geometry, omega, grid)
    bound_rhs = (4.0 / s) * g_norm + 4.0 * mu_norm
    diagnostics = MinimizerDiagnostics(
        j_value=float(j_value),
        v_norm_sq=float(norm_sq),
        el_residual=float(rel),
        solver_iterations=int(iterations),
        bound_slack=float(bound_rhs - norm_sq),
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
    d = TrajectoryVariable(grid, y1.values - y2.values)
    s, geometry, omega = engine.scales.s, engine.geometry, engine.omega
    pde_term, trace_term = _weighted_terms(d, None, None, coeffs, s, geometry, omega, grid)
    difference_energy = 0.5 * pde_term + trace_term

    if g1 is None and g2 is None:
        delta_norm = 0.0
    else:
        a = np.zeros((grid.nt, grid.nx)) if g1 is None else np.asarray(g1, dtype=float)
        b = np.zeros((grid.nt, grid.nx)) if g2 is None else np.asarray(g2, dtype=float)
        delta_norm, _ = _weighted_data_norms(None, a - b, geometry, omega, grid)
    bound = (2.0 / s) * delta_norm

    omega0 = omega[0]
    ytt_diff = (initial_second_derivative(y1, grid.dt)
                - initial_second_derivative(y2, grid.dt))
    qx = trapezoid_weights(grid.nx, grid.h)
    initial_term = np.sqrt(s) * float(qx @ (omega0 * ytt_diff ** 2))
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
