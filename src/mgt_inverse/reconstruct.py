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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .carleman import (CarlemanSetup, WeightOverflowError, admissible_geometry,
                       log_weight_table, normalized_weight)
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
        if self.init.eta <= 0:
            raise ValueError("eta must be positive: the coefficient update divides by u2")
        if self.init.u0.shape != (self.grid.nx,):
            raise ValueError(
                f"initial data has shape {self.init.u0.shape}, expected ({self.grid.nx},)")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.stop_tol <= 0:
            raise ValueError(f"stop_tol must be positive, got {self.stop_tol}")
        if self.noise_level < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.noise_level}")
        if self.data_refinement < 1 or int(self.data_refinement) != self.data_refinement:
            raise ValueError(
                f"data refinement must be a positive integer, got {self.data_refinement}")
        check_smooth_window(self.smooth_window)
        if self.solver_tol <= 0:
            raise ValueError(f"solver_tol must be positive, got {self.solver_tol}")
        if self.solver_cap is not None and (
                self.solver_cap < 1 or int(self.solver_cap) != self.solver_cap):
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
    so both are None where they do not apply.
    """

    iteration: int
    gamma: np.ndarray
    weighted_error_sq: Optional[float]
    step_change: Optional[float]
    diagnostics: Optional[MinimizerDiagnostics]


@dataclass
class ReconstructionReport:
    history: list
    stop_reason: str          # "converged", "max_iterations" or "diverged"
    ratios: list              # e_{k+1}/e_k, nan where e_k is below the floor

    @property
    def gamma(self) -> np.ndarray:
        return self.history[-1].gamma

    @property
    def iterations(self) -> int:
        return len(self.history) - 1


def project_to_box(gamma_tilde: np.ndarray, box_bound: float) -> np.ndarray:
    """Nodewise clamp onto [0, box_bound]."""
    if box_bound <= 0:
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
    omega = normalized_weight(log_weight_table(grid, carleman.geometry, carleman.scales)[0])
    qx = interior_weights(grid.nx, grid.h)
    diff = np.asarray(gamma_a, dtype=float) - np.asarray(gamma_b, dtype=float)
    return float(qx @ (omega * diff ** 2))


def _resample(values: np.ndarray, x_from: np.ndarray, x_to: np.ndarray) -> np.ndarray:
    # imported here, its only use: at module level it cost every CLI
    # command about 0.25 s and 18 MB
    from scipy.interpolate import CubicSpline
    return CubicSpline(x_from, values)(x_to)


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
    gamma_true = np.asarray(gamma_true, dtype=float)
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
                        config: ReconstructionConfig,
                        engine: Optional[CarlemanLeastSquares] = None):
    """One outer iteration; returns (projected next coefficient, diagnostics).

    Passing ``engine`` reuses the assembled least-squares operator across
    iterations; it is reassembled only when gamma_k differs from its
    coefficient.
    """
    grid = config.grid
    u2 = config.init.u2
    if np.abs(u2).min() < config.init.eta:
        raise ValueError(
            f"|u2| >= eta = {config.init.eta} violated, min |u2| = {np.abs(u2).min()}")
    coeffs = config.coefficients(gamma_k)
    traj = solve_forward(coeffs, config.init, None, grid)

    by_side = {obs.side: obs for obs in data_obs}
    mu = []
    for side in config.sides:
        if side not in by_side:
            raise ValueError(f"no observation supplied for side {side!r}")
        mu.append(build_mu(extract_observation(traj, side), by_side[side],
                           smooth_window=config.smooth_window))

    if engine is None:
        engine = CarlemanLeastSquares(coeffs, config.carleman, grid)
    elif not np.array_equal(engine.coeffs.gamma, gamma_k):
        engine.update_gamma(gamma_k)
    y_star, diagnostics = engine.minimize(mu, None, config.solver_tol, config.solver_cap)
    utt0 = initial_second_derivative(y_star, grid.dt)
    gamma_next = project_to_box(gamma_k + utt0 / u2, config.box_bound)
    return gamma_next, diagnostics


def contraction_ratios(history) -> list:
    """rho_k = e_{k+1}/e_k from recorded weighted errors.

    Accepts IterateRecord sequences or plain floats.  Entries whose base error
    is at or below the floor come out as nan rather than a division artifact.
    """
    errors = []
    for item in history:
        value = getattr(item, "weighted_error_sq", item)
        if value is None:
            raise ValueError("history carries no weighted errors; run with gamma_true")
        errors.append(float(value))
    return [after / before if before > RATIO_FLOOR else math.nan
            for before, after in zip(errors, errors[1:])]


def run_reconstruction(config: ReconstructionConfig, gamma_true=None,
                       data: Optional[Sequence[ObservationData]] = None) -> ReconstructionReport:
    """Iterate from gamma = 0 until the update stalls or the budget runs out.

    Without explicit ``data`` the observations are synthesized from
    ``gamma_true``; supplying ``gamma_true`` (in either mode) turns on the
    weighted-error bookkeeping.  Stops when the plain L2 change of the iterate
    falls below stop_tol ("converged"), after max_iterations, or when the
    weighted error has risen three times in a row ("diverged").
    """
    grid = config.grid
    if data is None:
        if gamma_true is None:
            raise ValueError("provide observation data or gamma_true to synthesize it")
        data = synthetic_observations(config, gamma_true)
    synthetic = gamma_true is not None
    if synthetic:
        gamma_true = np.asarray(gamma_true, dtype=float)

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
    for k in range(config.max_iterations):
        try:
            if engine is None:
                engine = CarlemanLeastSquares(config.coefficients(gamma), config.carleman, grid)
            gamma_next, diagnostics = reconstruction_step(gamma, data, config, engine=engine)
        except (ForwardSolveError, MinimizationError, WeightOverflowError) as exc:
            raise ReconstructionError(f"iteration {k + 1}: {exc}", records) from exc
        step_change = math.sqrt(float(qx @ (gamma_next - gamma) ** 2))
        e_next = error_of(gamma_next)
        records.append(IterateRecord(k + 1, gamma_next.copy(), e_next, step_change,
                                     diagnostics))
        if synthetic:
            rising = rising + 1 if e_next > records[-2].weighted_error_sq else 0
        gamma = gamma_next
        if step_change < config.stop_tol:
            stop_reason = "converged"
            break
        if rising >= 3:
            stop_reason = "diverged"
            break
    ratios = contraction_ratios(records) if synthetic else []
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
