"""Iterative recovery of the damping offset from boundary flux data.

One outer iteration: forward-solve with the current coefficient, differentiate
the mismatch between computed and measured normal-derivative traces, minimize
the weighted least-squares functional driven by that mismatch, then shift the
coefficient by the minimizer's initial acceleration divided by u2 and clamp
back into the admissible box.  With synthetic data the weighted error of each
iterate against the true coefficient is recorded so the contraction of the
scheme can be read off directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .carleman import (CarlemanSetup, WeightOverflowError, admissible_geometry,
                       log_weight, normalized_weight)
from .functional import (CarlemanLeastSquares, MinimizationError,
                         MinimizerDiagnostics, initial_second_derivative)
from .grid import SpaceTimeGrid, interior_weights, trapezoid_weights
from .observation import (ObservationData, build_mu, check_smooth_window,
                          extract_observation, perturb_with_noise)
from .solver import (ForwardSolveError, InitialData, MGTCoefficients,
                     solve_forward)

# e_k below this floor makes the ratio e_{k+1}/e_k meaningless (0/0 noise)
RATIO_FLOOR = 1e-30


class ReconstructionError(RuntimeError):
    """Failure inside an outer iteration; carries the partial history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


@dataclass
class ReconstructionConfig:
    """Everything one reconstruction run needs besides the data itself.

    The operator coefficients c and b and the box bound M are known and fixed;
    only the nodal offset gamma is updated.  eta must be positive because the
    update divides by u2 and |u2| >= eta is the hypothesis that makes that
    division safe.
    """

    grid: SpaceTimeGrid
    c: float
    b: float
    box_bound: float
    init: InitialData
    carleman: CarlemanSetup
    max_iterations: int = 20
    stop_tol: float = 1e-6
    noise_level: float = 0.0
    data_refinement: int = 2
    noise_seed: int = 0
    smooth_window: int = 0
    solver_tol: float = 1e-6
    solver_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.init.eta > 0:
            raise ValueError("eta must be positive: the coefficient update divides by u2")
        if self.init.u0.shape != (self.grid.nx,):
            raise ValueError(
                f"initial data has shape {self.init.u0.shape}, expected ({self.grid.nx},)")
        # written so that NaN and infinities fail before anything converts them
        if not (self.max_iterations >= 1 and float(self.max_iterations).is_integer()):
            raise ValueError(
                f"max_iterations must be a positive integer, got {self.max_iterations}")
        if not (self.stop_tol > 0 and math.isfinite(self.stop_tol)):
            raise ValueError(f"stop_tol must be positive and finite, got {self.stop_tol}")
        if not self.noise_level >= 0:
            raise ValueError(f"noise level must be nonnegative, got {self.noise_level}")
        if not (self.data_refinement >= 1 and float(self.data_refinement).is_integer()):
            raise ValueError(
                f"data refinement must be a positive integer, got {self.data_refinement}")
        if not (isinstance(self.noise_seed, numbers.Integral) and self.noise_seed >= 0):
            raise ValueError(
                f"noise_seed must be a nonnegative integer, got {self.noise_seed!r}")
        check_smooth_window(self.smooth_window)
        if not (self.solver_tol > 0 and math.isfinite(self.solver_tol)):
            raise ValueError(f"solver_tol must be positive and finite, got {self.solver_tol}")
        if self.solver_cap is not None and not (
                self.solver_cap >= 1 and float(self.solver_cap).is_integer()):
            raise ValueError(
                f"solver_cap must be None or a positive integer, got {self.solver_cap}")
        self.carleman = replace(
            self.carleman, geometry=admissible_geometry(self.carleman.geometry, self.grid))

    @property
    def sides(self) -> tuple:
        return self.carleman.geometry.gamma0_sides

    def coefficients(self, gamma: np.ndarray) -> MGTCoefficients:
        return MGTCoefficients(self.c, self.b, gamma, self.box_bound)


@dataclass
class IterateRecord:
    """State after ``iteration`` outer steps.

    weighted_error_sq is e_k against the true coefficient (synthetic mode
    only); diagnostics belong to the minimization that produced this iterate,
    so both are None where they do not apply.  The update's reach is the
    interior nodes that the raw update y*_tt(0) / u2 moved: ``reach_nodes``
    counts them and ``reach_x`` is the smallest x among them (None when it
    moved none); ``clamped_fraction`` is the share of interior nodes that
    the box projection clamped.  All three are None for the start.
    """

    iteration: int
    gamma: np.ndarray
    weighted_error_sq: Optional[float]
    step_change: Optional[float]
    diagnostics: Optional[MinimizerDiagnostics]
    reach_nodes: Optional[int] = None
    reach_x: Optional[float] = None
    clamped_fraction: Optional[float] = None


@dataclass
class ReconstructionReport:
    history: list
    stop_reason: str          # "converged", "stalled_at_box", "max_iterations" or "diverged"
    ratios: list              # e_{k+1}/e_k, nan where e_k is below the floor

    @property
    def iterations(self) -> int:
        return len(self.history) - 1


def project_to_box(gamma_tilde: np.ndarray, box_bound: float) -> np.ndarray:
    """Nodewise clamp onto [0, box_bound]."""
    if not box_bound > 0:
        raise ValueError(f"box bound must be positive, got {box_bound}")
    return np.clip(np.asarray(gamma_tilde, dtype=float), 0.0, box_bound)


def weighted_coefficient_error(gamma_a, gamma_b, carleman: CarlemanSetup,
                               grid: SpaceTimeGrid) -> float:
    """Squared distance of two coefficients in the t = 0 weighted norm.

    The weight is the initial-time slice of the Carleman weight normalized by
    its own minimum; a common normalization constant cancels from every ratio
    e_{k+1}/e_k.  Quadrature runs over interior nodes only: the update never
    moves the boundary values (trajectories vanish there), and the weight
    peaks at the observed endpoint, so including the boundary nodes would pin
    e_k to an immovable term.
    """
    omega = normalized_weight(log_weight(grid.x, 0.0, carleman.geometry, carleman.scales))
    qx = interior_weights(grid.nx, grid.h)
    diff = np.asarray(gamma_a, dtype=float) - np.asarray(gamma_b, dtype=float)
    return float(qx @ (omega * diff ** 2))


def _resample(values: np.ndarray, x_from: np.ndarray, x_to: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through (x_from, values), at x_to.

    Written out in the operation order of SciPy's ``CubicSpline`` and its
    ``PPoly`` evaluation, whose values it gives bit for bit, so that the
    resampling does not import ``scipy.interpolate`` (about 19 MB and 0.25 s
    per process).  ``x_from`` is increasing with at least four nodes; points
    outside it extend the end pieces.
    """
    x, y = np.asarray(x_from, dtype=float), np.asarray(values, dtype=float)
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # the slopes at the nodes: a tridiagonal system whose first and last rows
    # make the third derivative continuous at the second and last-but-one node
    band = np.zeros((3, n))
    rhs = np.empty(n)
    band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    band[0, 2:] = dx[:-1]
    band[-1, :-2] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    band[1, 0], band[0, 1] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    band[1, -1], band[-1, -2] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    deriv = solve_banded((1, 1), band, rhs, overwrite_ab=True, overwrite_b=True,
                         check_finite=False)
    # each piece y_i + deriv_i z + quad_i z^2 + cubic_i z^3, z = x - x_i,
    # summed from the constant term up
    t = (deriv[:-1] + deriv[1:] - 2 * slope) / dx
    cubic, quad = t / dx, (slope - deriv[:-1]) / dx - t
    piece = np.clip(np.searchsorted(x, x_to, side="right") - 1, 0, n - 2)
    z = np.asarray(x_to, dtype=float) - x[piece]
    z2 = z * z
    return (0.0 + y[piece] + deriv[piece] * z + quad[piece] * z2
            + cubic[piece] * (z2 * z))


def _true_coefficient(gamma_true, grid: SpaceTimeGrid) -> np.ndarray:
    """``gamma_true`` as a finite profile of one value per node, or ValueError."""
    gamma_true = np.asarray(gamma_true, dtype=float)
    if gamma_true.shape != (grid.nx,) or not np.all(np.isfinite(gamma_true)):
        raise ValueError(f"gamma_true must be a finite array of shape ({grid.nx},)")
    return gamma_true


def synthetic_observations(config: ReconstructionConfig, gamma_true) -> list:
    """Boundary data manufactured on a ``data_refinement`` times finer grid.

    The true coefficient and the initial triple are resampled onto the fine
    grid by cubic splines, the forward problem is solved there, and the traces
    are restricted back to the reconstruction time levels.  Generating the
    data on a different grid keeps the iteration from inverting its own
    discretization exactly.  Gaussian noise scaled by the trace amplitude is
    added when the configured level is positive; one generator seeded with
    ``noise_seed`` draws the noise of every observed side in turn.
    """
    gamma_true = _true_coefficient(gamma_true, config.grid)
    factor = int(config.data_refinement)
    fine = config.grid.refined(factor)
    if factor == 1:
        gamma_fine = gamma_true
        init_fine = config.init
    else:
        xc, xf = config.grid.x, fine.x
        gamma_fine = np.clip(_resample(gamma_true, xc, xf), 0.0, config.box_bound)
        init_fine = InitialData(_resample(config.init.u0, xc, xf),
                                _resample(config.init.u1, xc, xf),
                                _resample(config.init.u2, xc, xf),
                                eta=config.init.eta)
    coeffs_fine = MGTCoefficients(config.c, config.b, gamma_fine, config.box_bound)
    traj = solve_forward(coeffs_fine, init_fine, None, fine)
    rng = np.random.default_rng(config.noise_seed)
    observations = []
    for side in config.sides:
        obs_fine = extract_observation(traj, side)
        obs = ObservationData(side, obs_fine.samples[::factor], config.grid.dt)
        if config.noise_level > 0:
            obs = perturb_with_noise(obs, config.noise_level, rng)
        observations.append(obs)
    return observations


def reconstruction_step(gamma_k: np.ndarray, data_obs: Sequence[ObservationData],
                        config: ReconstructionConfig, engine: CarlemanLeastSquares):
    """One outer iteration; returns the projected next coefficient, the
    diagnostics and the increment y*_tt(0) / u2 before the projection.

    ``engine`` is the run's assembled least-squares operator, reused across
    iterations; it is reassembled only when gamma_k differs from its
    coefficient.  |u2| >= eta > 0 holds by construction of ``config.init``.
    """
    grid = config.grid
    traj = solve_forward(config.coefficients(gamma_k), config.init, None, grid)

    by_side = {obs.side: obs for obs in data_obs}
    mu = []
    for side in config.sides:
        if side not in by_side:
            raise ValueError(f"no observation supplied for side {side!r}")
        mu.append(build_mu(extract_observation(traj, side), by_side[side],
                           smooth_window=config.smooth_window))

    if not np.array_equal(engine.coeffs.gamma, gamma_k):
        engine.update_gamma(gamma_k)
    y_star, diagnostics = engine.minimize(mu, None, config.solver_tol, config.solver_cap)
    increment = initial_second_derivative(y_star, grid.dt) / config.init.u2
    gamma_next = project_to_box(gamma_k + increment, config.box_bound)
    return gamma_next, diagnostics, increment


def run_reconstruction(config: ReconstructionConfig, gamma_true=None,
                       data: Optional[Sequence[ObservationData]] = None) -> ReconstructionReport:
    """Iterate from gamma = 0 until the update stalls or the budget runs out.

    Without explicit ``data`` the observations are synthesized from
    ``gamma_true``, a finite profile of one value per node; supplying it (in
    either mode) turns on the weighted-error bookkeeping.  Stops when the
    plain L2 change of the iterate falls below stop_tol: "converged" if the
    increment before the box projection is below stop_tol too, "stalled_at_box"
    if only the projection held the iterate still.  Otherwise stops after
    max_iterations, or when the weighted error has risen three times in a row
    ("diverged").
    """
    grid = config.grid
    synthetic = gamma_true is not None
    if synthetic:
        gamma_true = _true_coefficient(gamma_true, grid)
    if data is None:
        if not synthetic:
            raise ValueError("provide observation data or gamma_true to synthesize it")
        data = synthetic_observations(config, gamma_true)

    gamma = np.zeros(grid.nx)

    def error_of(candidate):
        if not synthetic:
            return None
        return weighted_coefficient_error(candidate, gamma_true, config.carleman, grid)

    records = [IterateRecord(0, gamma.copy(), error_of(gamma), None, None)]
    engine = None
    qx = trapezoid_weights(grid.nx, grid.h)
    stop_reason = "max_iterations"
    rising = 0
    for k in range(int(config.max_iterations)):
        try:
            if engine is None:
                engine = CarlemanLeastSquares(config.coefficients(gamma), config.carleman, grid)
            gamma_next, diagnostics, increment = reconstruction_step(gamma, data, config,
                                                                     engine=engine)
        except (ForwardSolveError, MinimizationError, WeightOverflowError) as exc:
            raise ReconstructionError(f"iteration {k + 1}: {exc}", records) from exc
        step_change = math.sqrt(float(qx @ (gamma_next - gamma) ** 2))
        e_next = error_of(gamma_next)
        moved = np.flatnonzero(increment[1:-1]) + 1
        raw = (gamma + increment)[1:-1]
        clamped = float(np.mean((raw < 0.0) | (raw > config.box_bound)))
        records.append(IterateRecord(k + 1, gamma_next.copy(), e_next, step_change,
                                     diagnostics, moved.size,
                                     float(grid.x[moved[0]]) if moved.size else None,
                                     clamped))
        if synthetic:
            rising = rising + 1 if e_next > records[-2].weighted_error_sq else 0
        gamma = gamma_next
        if step_change < config.stop_tol:
            increment_norm = math.sqrt(float(qx @ increment ** 2))
            stop_reason = "converged" if increment_norm < config.stop_tol else "stalled_at_box"
            break
        if rising >= 3:
            stop_reason = "diverged"
            break
    errors = [rec.weighted_error_sq for rec in records] if synthetic else []
    ratios = [after / before if before > RATIO_FLOOR else math.nan
              for before, after in zip(errors, errors[1:])]
    return ReconstructionReport(records, stop_reason, ratios)


@dataclass
class SweepEntry:
    s: float
    report: ReconstructionReport


def run_scale_sweep(config: ReconstructionConfig, gamma_true,
                    s_values: Sequence[float]) -> list:
    """Rerun the reconstruction over a list of s values on shared data.

    The observations are synthesized once (same grid, same noise draw) so the
    runs differ only through the weight scale.
    """
    values = tuple(s_values)
    if not values:
        raise ValueError("no s values supplied for the sweep")
    data = synthetic_observations(config, gamma_true)
    entries = []
    for s in values:
        setup = CarlemanSetup(config.carleman.geometry,
                              replace(config.carleman.scales, s=float(s)))
        run_config = replace(config, carleman=setup)
        report = run_reconstruction(run_config, gamma_true, data=data)
        entries.append(SweepEntry(float(s), report))
    return entries
