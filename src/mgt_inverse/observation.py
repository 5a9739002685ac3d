"""Boundary observations: extraction of normal-derivative traces from a
solved trajectory, synthetic measurement noise, the trace targets fed to the
weighted least-squares functional, and an energy check that the observed
traces are controlled by the data that generated them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (SpaceTimeGrid, apply_laplacian, boundary_normal_derivative,
                   discrete_norms, quotient, time_difference, trapezoid_weights)
from .solver import InitialData, Trajectory


@dataclass(frozen=True)
class ObservationData:
    """Normal-derivative samples of the state at one endpoint, level by level."""

    side: str
    samples: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 1 or self.samples.size < 5:
            raise ValueError("observation needs at least five time samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class MuPair:
    """Trace targets for the least-squares functional: mu and its rate."""

    side: str
    mu: np.ndarray
    mu_t: np.ndarray
    dt: float


def extract_observation(traj: Trajectory, side: str) -> ObservationData:
    """Sample the outward normal derivative of the state on one endpoint.

    The one-sided stencil acts on u; where the trajectory carries a
    closed-form corner part, its ``flux_correction`` swaps the stencil of
    that part for its exact normal derivative.  The stencil cannot resolve
    the corner fronts, which are narrower than a cell at the first levels.
    """
    samples = boundary_normal_derivative(traj.u, traj.grid, side)
    correction = traj.flux_correction.get(side)
    if correction is not None:
        samples = samples + correction
    return ObservationData(side, samples, traj.grid.dt)


def perturb_with_noise(obs: ObservationData, level: float,
                       rng: np.random.Generator) -> ObservationData:
    """Additive Gaussian noise scaled to the series amplitude.

    The standard deviation is ``level * max |samples|``, so ``level`` reads
    as a relative noise magnitude; level 0 returns the samples unchanged.
    """
    if not level >= 0:
        raise ValueError(f"noise level must be nonnegative, got {level}")
    if level == 0.0:
        return obs
    scale = level * np.abs(obs.samples).max()
    noisy = obs.samples + rng.normal(0.0, scale, size=obs.samples.shape)
    return ObservationData(obs.side, noisy, obs.dt)


def check_smooth_window(window) -> None:
    """Accept 0, 1 (no smoothing) or an odd integer: a centered average over
    an even window lags the series by half a time step."""
    if not (window >= 0 and float(window).is_integer()):
        raise ValueError(f"smooth_window must be a nonnegative integer, got {window}")
    if window > 1 and window % 2 == 0:
        raise ValueError(f"smooth_window must be odd or at most 1, got {window}")


def _moving_average(samples: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return samples
    padded = np.pad(samples, window, mode="reflect")
    kernel = np.ones(window) / window
    smoothed = np.convolve(padded, kernel, mode="same")
    return smoothed[window:-window]


def build_mu(obs_iterate: ObservationData, obs_data: ObservationData,
             smooth_window: int = 0) -> MuPair:
    """Trace targets from the mismatch between an iterate and the data.

    The auxiliary variable the functional reconstructs is the time
    derivative of (iterate - truth), so the target is the first time
    derivative of the trace mismatch and its rate is the second.  An
    optional moving average tames measurement noise before differencing.
    """
    check_smooth_window(smooth_window)
    if obs_iterate.side != obs_data.side:
        raise ValueError("observations were taken on different endpoints")
    if obs_iterate.samples.shape != obs_data.samples.shape:
        raise ValueError("observations have different lengths")
    if obs_iterate.dt != obs_data.dt:
        raise ValueError("observations have different time steps")
    mismatch = _moving_average(obs_iterate.samples - obs_data.samples,
                               int(smooth_window))
    mu = time_difference(mismatch, obs_iterate.dt, 1)
    mu_t = time_difference(mu, obs_iterate.dt, 1)
    return MuPair(obs_iterate.side, mu, mu_t, obs_iterate.dt)


def zero_mu(side: str, nt: int, dt: float) -> MuPair:
    z = np.zeros(nt)
    return MuPair(side, z, z.copy(), dt)


# ---------------------------------------------------------------------------
# trace energy versus data energy
# ---------------------------------------------------------------------------

@dataclass
class HiddenRegularityReport:
    trace_energy: float
    data_energy: float
    ratio: float


def _initial_data_energy(data: InitialData, f: Optional[np.ndarray],
                         grid: SpaceTimeGrid) -> float:
    """Squared strength of the generating data: two derivatives on the
    displacement, one on the velocity, none on the acceleration, plus the
    space-time norm of the source."""
    qx = trapezoid_weights(grid.nx, grid.h)
    u0x = np.gradient(data.u0, grid.h, edge_order=2)
    u0xx = apply_laplacian(data.u0, grid)
    u1x = np.gradient(data.u1, grid.h, edge_order=2)
    total = float(qx @ (data.u0 ** 2 + u0x ** 2 + u0xx ** 2)
                  + qx @ (data.u1 ** 2 + u1x ** 2)
                  + qx @ (data.u2 ** 2))
    if f is not None:
        total += discrete_norms(np.asarray(f, dtype=float), grid, "l2_l2") ** 2
    return total


def hidden_regularity_check(traj: Trajectory, data: InitialData,
                            f: Optional[np.ndarray],
                            observations) -> HiddenRegularityReport:
    """Trace energy of the normal derivative against the generating data.

    ``observations`` is a nonempty sequence of :class:`ObservationData`;
    energies over several endpoints add.  The trace energy integrates
    the squared trace and its first time derivative over (0, T); the ratio
    to the data energy (``grid.quotient``: inf for a nonzero trace over zero
    data) is the empirical constant of the boundary-regularity bound and
    should not blow up under grid refinement.
    """
    if not observations:
        raise ValueError("need at least one observation series")
    trace_energy = 0.0
    for obs in observations:
        if obs.samples.size != traj.grid.nt:
            raise ValueError("observation length does not match the grid")
        trace_energy += discrete_norms(obs.samples, traj.grid, "h1_trace") ** 2
    data_energy = _initial_data_energy(data, f, traj.grid)
    return HiddenRegularityReport(float(trace_energy), float(data_energy),
                                  quotient(trace_energy, data_energy))

