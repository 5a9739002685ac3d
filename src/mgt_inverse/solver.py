"""Forward solver and energy diagnostics for the third-order-in-time model

    u_ttt + alpha(x) u_tt - c^2 u_xx - b u_txx = f,   u = 0 on the boundary,

with alpha parametrized by the damping offset gamma through
alpha = gamma + c^2 / b.  The equation is advanced by the trapezoidal
(Crank-Nicolson) rule for the first-order system in (u, u_t, u_tt).  The
step eliminates u and u_t, so each time level is one tridiagonal solve for
u_tt, whose matrix is factored once per solve; u_t and u follow by the
trapezoidal rule.

An initial acceleration u2 that does not vanish at the Dirichlet ends launches
a front from each corner of the space-time domain along which u_tt jumps.  The
front is narrower than a grid cell at the first time levels, so the solver
splits off a closed-form corner part (:func:`corner_part`) and time-steps only
the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .grid import (SpaceTimeGrid, apply_laplacian, boundary_normal_derivative,
                   discrete_norms, time_derivative_matrix,
                   time_derivative_matrix_zero_start, trapezoid_weights)


class ForwardSolveError(RuntimeError):
    """Raised when the time stepping cannot be carried out."""


@dataclass
class MGTCoefficients:
    """Wave speed c, viscosity b > 0 and nodal damping offset gamma in [0, M]."""

    c: float
    b: float
    gamma: np.ndarray
    box_bound: float

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.c == 0:
            raise ValueError("wave speed c must be nonzero")
        if self.box_bound <= 0:
            raise ValueError(f"box bound must be positive, got {self.box_bound}")
        if self.gamma.ndim != 1:
            raise ValueError("gamma must be a one-dimensional nodal field")
        if self.gamma.min() < 0.0 or self.gamma.max() > self.box_bound:
            raise ValueError(
                f"gamma must lie in [0, {self.box_bound}], got range "
                f"[{self.gamma.min()}, {self.gamma.max()}]")

    @property
    def alpha(self) -> np.ndarray:
        return self.gamma + self.c ** 2 / self.b

    def with_gamma(self, gamma: np.ndarray) -> "MGTCoefficients":
        return MGTCoefficients(self.c, self.b, gamma, self.box_bound)


@dataclass
class InitialData:
    """Initial triple (u0, u1, u2) = (u, u_t, u_tt) at t = 0.

    u0 and u1 must vanish at the endpoints; u2 need not.  The mismatch between
    a nonzero u2 and the Dirichlet condition launches a front from each
    corner along which u_tt jumps; :func:`solve_forward` carries it in the
    closed-form corner part instead of resolving it on the grid.  That part
    does not depend on gamma, so the first solve keeps it here, keyed by
    everything it depends on, and later solves from the same instance reuse
    it.  When eta > 0 the acceleration profile must satisfy |u2| >= eta
    everywhere, which the reconstruction update divides by.
    """

    u0: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    eta: float = 0.0
    _corner_parts: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self) -> None:
        self.u0 = np.asarray(self.u0, dtype=float)
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if not (self.u0.shape == self.u1.shape == self.u2.shape):
            raise ValueError("u0, u1, u2 must share one shape")
        scale = max(np.abs(self.u0).max(initial=0.0), np.abs(self.u1).max(initial=0.0), 1.0)
        for name, arr in (("u0", self.u0), ("u1", self.u1)):
            if max(abs(arr[0]), abs(arr[-1])) > 1e-9 * scale:
                raise ValueError(f"{name} must vanish at the boundary nodes")
        if self.eta > 0 and np.abs(self.u2).min() < self.eta:
            raise ValueError(
                f"|u2| >= eta = {self.eta} violated, min |u2| = {np.abs(self.u2).min()}")


@dataclass
class Trajectory:
    """Snapshots of u, u_t and u_tt on the full grid, shape (nt, nx) each.

    ``flux_correction`` maps an endpoint to a series of nt values that trace
    extraction adds to the one-sided stencil of u: the closed-form outward
    normal derivative of the corner part minus that stencil applied to the
    corner part's samples.  It is empty when the solve has no corner part.
    """

    grid: SpaceTimeGrid
    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray
    flux_correction: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed-form corner part
# ---------------------------------------------------------------------------

def _relaxation(tau: np.ndarray, k: float, order: int) -> np.ndarray:
    """E_n(tau) = int_0^tau (tau - s)^(n-1) / (n-1)! exp(-k s) ds, zero for tau <= 0.

    E_0 is exp(-k tau) for tau > 0, and E_n' = E_{n-1}.  Small |k tau| uses
    the power series, larger the closed form, which loses at most two digits
    at the switch.  k may be zero or negative.
    """
    out = np.zeros(np.shape(tau))
    arrived = tau > 0.0          # most nodes lie ahead of most fronts
    tp = tau[arrived]
    x = k * tp
    small = np.abs(x) < 0.5
    values = np.empty(tp.shape)
    xs = x[small]
    term = np.full(xs.shape, 1.0 / math.factorial(order))
    series = np.zeros(xs.shape)
    for m in range(18):
        series += term
        term = term * (-xs) / (order + m + 1)
    values[small] = tp[small] ** order * series
    if not small.all():
        xl = x[~small]
        taylor = sum((-xl) ** m / math.factorial(m) for m in range(order))
        values[~small] = (np.exp(-xl) - taylor) / (-k) ** order
    out[arrived] = values
    return out


def _corner_images(left: float, right: float, length: float, xi: np.ndarray, count: int):
    """Fronts that make the free solution of a linear profile vanish at both ends.

    Yields (strength, distance, slope) per front: ``distance`` is how far the
    front has to travel to reach each node (``xi`` is the offset from the
    left end) and ``slope`` its derivative in x.  The front from the right
    corner and its reflections carry the right value, those from the left
    corner the left value, with a sign flip at every Dirichlet reflection.
    """
    for n in range(1, count + 1):
        yield (right if n % 2 else -left), n * length - xi, -1.0
    for n in range(count + 1):
        yield (left if n % 2 == 0 else -right), n * length + xi, 1.0


def _hat_average(tau: np.ndarray, k: float, order: int, width: float,
                 centre: np.ndarray) -> np.ndarray:
    """Hat-weighted average over tau +- width of E_{order-2}, from its second
    antiderivative E_order; ``centre`` is E_order(tau)."""
    return (_relaxation(tau + width, k, order) - 2.0 * centre
            + _relaxation(tau - width, k, order)) / width ** 2


@dataclass(frozen=True)
class CornerPart:
    """Closed-form part of a solution whose u2 does not vanish at the ends.

    ``profile`` is the linear interpolant w of u2's endpoint values;
    ``source`` is (L + reference d_tt) applied to u, with L the operator at
    gamma = 0; ``utt_average`` averages u_tt over each node's two cells with
    hat weights; ``normal_derivative`` maps a side to the outward normal
    derivative in closed form, and ``flux_correction`` to that derivative
    minus the one-sided stencil applied to u.  Fields are (nt, nx) arrays
    unless noted.  All arrays are read-only, because one part serves every
    solve from the same initial data.
    """

    reference: float
    profile: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray
    source: np.ndarray
    utt_average: np.ndarray
    normal_derivative: dict
    flux_correction: dict


def corner_part(c: float, b: float, reference: float, left: float, right: float,
                grid: SpaceTimeGrid) -> CornerPart:
    """Corner part for the u2 endpoint values ``left`` and ``right``.

    With k = c^2 / b, fronts travel at sqrt(b).  The linear profile w of the
    two endpoint values has the free solution w(x) E_2(t) (see
    :func:`_relaxation`); each Dirichlet end subtracts fronts
    s_j a_j E_2(t - d_j / sqrt(b)), where d_j is the distance the front has
    travelled and a_j = exp(-reference d_j / (2 sqrt(b))) is how the jump of
    u_tt decays under the damping offset ``reference``.  A second family of
    the same shape, one time integration higher and with strengths
    -reference * (left, right), cancels the source the damping leaves at the
    corners, so the remainder starts compatible to third order.

    Nothing here depends on the gamma of the solve: the remainder carries
    gamma - reference, so the trace depends on gamma only through the
    discrete scheme.
    """
    nt, nx = grid.nt, grid.nx
    k = c ** 2 / b
    speed = math.sqrt(b)
    length = grid.x_right - grid.x_left
    xi = grid.x - grid.x_left
    t = grid.t[:, None]
    count = int(speed * grid.t_final / length) + 2
    cell_time = grid.h / speed
    front_rate = k - 0.5 * reference     # a_j E_0(tau) = exp(-reference t / 2) exp(-front_rate tau)
    decay = np.exp(-0.5 * reference * t)
    free = {order: _relaxation(t, k, order) for order in (1, 2, 3)}

    u = np.zeros((nt, nx))
    ut = np.zeros((nt, nx))
    utt = np.zeros((nt, nx))
    source = np.zeros((nt, nx))
    average = np.zeros((nt, nx))
    dudx = np.zeros((nt, nx))

    profile = left + (right - left) * xi / length
    u += profile * free[2]
    ut += profile * free[1]
    utt += profile * np.exp(-k * t)
    average += profile * np.exp(-k * t)
    dudx += (right - left) / length * free[2]
    for strength, distance, slope in _corner_images(left, right, length, xi, count):
        if strength == 0.0:
            continue
        tau = t - distance / speed
        jump = strength * np.exp(-0.5 * reference * distance / speed)
        e2, e1 = _relaxation(tau, k, 2), _relaxation(tau, k, 1)
        u -= jump * e2
        ut -= jump * e1
        utt -= jump * _relaxation(tau, k, 0)
        source += jump * (0.25 * reference ** 2 * np.maximum(tau, 0.0)
                           + reference * (tau > 0.0))
        dudx += slope * jump * (0.5 * reference * e2 + e1) / speed
        average -= strength * decay * _hat_average(
            tau, front_rate, 2, cell_time, _relaxation(tau, front_rate, 2))

    left3, right3 = -reference * left, -reference * right
    profile3 = left3 + (right3 - left3) * xi / length
    u += profile3 * free[3]
    ut += profile3 * free[2]
    utt += profile3 * free[1]
    average += profile3 * free[1]
    source += profile3
    dudx += (right3 - left3) / length * free[3]
    for strength, distance, slope in _corner_images(left3, right3, length, xi, count):
        if strength == 0.0:
            continue
        tau = t - distance / speed
        e3, e2 = _relaxation(tau, k, 3), _relaxation(tau, k, 2)
        u -= strength * e3
        ut -= strength * e2
        utt -= strength * _relaxation(tau, k, 1)
        dudx += slope * strength * e2 / speed
        average -= strength * _hat_average(tau, k, 3, cell_time, e3)

    source += reference * utt
    for arr in (u, ut, source, average):
        arr[:, 0] = 0.0          # the fronts cancel exactly at the ends, and the
        arr[:, -1] = 0.0         # boundary rows of the scheme take no corner source
    # a copy, so a kept part does not hold on to all of dudx
    exact = {"right": dudx[:, -1].copy(), "left": -dudx[:, 0]}
    correction = {side: value - boundary_normal_derivative(u, grid, side)
                  for side, value in exact.items()}
    for arr in (profile, u, ut, utt, source, average, *exact.values(), *correction.values()):
        arr.flags.writeable = False
    return CornerPart(reference, profile, u, ut, utt, source, average, exact, correction)


def solve_forward(coeffs: MGTCoefficients, data: InitialData, f: np.ndarray,
                  grid: SpaceTimeGrid) -> Trajectory:
    """Trapezoidal time stepping of the first-order system, one tridiagonal
    solve for u_tt per level.

    ``f`` is the source sampled on the full grid, shape (nt, nx), or None for
    a source-free problem.  Returns the trajectory with snapshot 0 equal to
    the initial triple.

    When u2 does not vanish at the ends (beyond 1e-9 of its scale),
    u = u_c + u_r: u_c is the
    :func:`corner_part` with its fronts damped at the box midpoint
    reference = M / 2, which halves the worst case of gamma - reference over
    the admissible box [0, M].  Only u_r is time-stepped, with initial data
    (u0, u1, u2 - w) and source f - (L + reference d_tt) u_c
    - (gamma - reference) d_tt u_c.  The last term jumps across the fronts,
    so each node takes its hat-weighted average over the two adjacent cells,
    the weighting for which the three-point Laplacian is exact.  The
    returned fields are u_c + u_r, and ``flux_correction`` lets trace
    extraction take the normal derivative of u_c in closed form.

    u_c does not depend on gamma, so it is computed once per initial data,
    grid, c, b and M, and kept on ``data`` for every later solve: solves
    that differ only in gamma share one ``InitialData``.
    """
    nx, nt = grid.nx, grid.nt
    f = np.zeros((nt, nx)) if f is None else np.asarray(f, dtype=float)
    if f.shape != (nt, nx):
        raise ValueError(f"source has shape {f.shape}, expected ({nt}, {nx})")
    if coeffs.gamma.shape != (nx,):
        raise ValueError(f"gamma has shape {coeffs.gamma.shape}, expected ({nx},)")
    if data.u0.shape != (nx,):
        raise ValueError(f"initial data has shape {data.u0.shape}, expected ({nx},)")

    corner = None
    u2 = data.u2
    # same tolerance as InitialData applies to u0 and u1 at the ends
    scale = max(np.abs(data.u2).max(initial=0.0), 1.0)
    if max(abs(data.u2[0]), abs(data.u2[-1])) > 1e-9 * scale:
        key = (coeffs.c, coeffs.b, 0.5 * coeffs.box_bound,
               float(data.u2[0]), float(data.u2[-1]), grid)
        corner = data._corner_parts.get(key)
        if corner is None:
            corner = data._corner_parts[key] = corner_part(*key)
        f = f - corner.source - (coeffs.gamma - corner.reference) * corner.utt_average
        u2 = data.u2 - corner.profile

    # (I + half alpha - half kappa Lap P) w+ = (I - half alpha) w
    #     + half Lap (2 c^2 u + (c^2 dt + 2 b) v + kappa P w) + half (f_n + f_n+1),
    # with P the interior projection and Lap the three-point Laplacian with
    # zero boundary rows; the boundary rows of u and v are never written
    half = 0.5 * grid.dt
    c2 = coeffs.c ** 2
    kappa = 0.25 * c2 * grid.dt ** 2 + half * coeffs.b
    mix = c2 * grid.dt + 2.0 * coeffs.b
    lap_scale = half / grid.h ** 2
    diag = 1.0 + half * coeffs.alpha
    diag[1:-1] += 2.0 * kappa * lap_scale
    off = np.zeros(nx - 1)
    off[1:-1] = -kappa * lap_scale
    dl, d, du, du2, ipiv, info = dgttrf(off, diag, off)
    if info != 0:
        raise ForwardSolveError(f"step matrix factorization failed: dgttrf info {info}")
    explicit = 1.0 - half * coeffs.alpha
    source = half * (f[:-1] + f[1:])

    u, ut, utt = np.zeros((nt, nx)), np.zeros((nt, nx)), np.empty((nt, nx))
    u[0, 1:-1], ut[0, 1:-1], utt[0] = data.u0[1:-1], data.u1[1:-1], u2   # exact Dirichlet start
    ui, vi, wi = u[:, 1:-1], ut[:, 1:-1], utt[:, 1:-1]
    z = np.zeros(nx)                     # 2 c^2 u + mix v + kappa P w
    lap = lap_scale * np.array([1.0, -2.0, 1.0])
    # a non-finite state propagates to every later level; it is located after the loop
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(nt - 1):
            np.multiply(2.0 * c2, ui[n], out=z[1:-1])
            z[1:-1] += mix * vi[n] + kappa * wi[n]
            w = utt[n + 1]
            np.multiply(explicit, utt[n], out=w)
            w += source[n]
            w[1:-1] += np.convolve(z, lap, "valid")
            utt[n + 1] = dgttrs(dl, d, du, du2, ipiv, w, overwrite_b=True)[0]
            vi[n + 1] = vi[n] + half * (wi[n] + wi[n + 1])
            ui[n + 1] = ui[n] + half * (vi[n] + vi[n + 1])
    bad = ~(np.isfinite(u) & np.isfinite(ut) & np.isfinite(utt)).all(axis=1)[1:]
    if bad.any():
        raise ForwardSolveError(f"non-finite state at time step {int(np.argmax(bad)) + 1}")
    u[0], ut[0] = data.u0, data.u1
    if corner is None:
        return Trajectory(grid, u, ut, utt)

    u += corner.u
    ut += corner.ut
    utt += corner.utt
    utt[0] = data.u2
    return Trajectory(grid, u, ut, utt, dict(corner.flux_correction))


# ---------------------------------------------------------------------------
# energies and verification ratios
# ---------------------------------------------------------------------------

def energy_e(y: np.ndarray, yt: np.ndarray, b: float, grid: SpaceTimeGrid):
    """E(y) = (b/2) ||y_x||^2 + (1/2) ||y_t||^2 with centered gradients.

    Fields of shape (nx,) give one float; (nt, nx) fields give the array of
    per-level energies, each the same dot products as for its row alone.
    """
    grad_sq = np.gradient(np.asarray(y, dtype=float), grid.h, axis=-1, edge_order=2) ** 2
    rate_sq = np.asarray(yt, dtype=float) ** 2
    qx = trapezoid_weights(grid.nx, grid.h)
    potential, kinetic = 0.5 * b * qx, 0.5 * qx
    if grad_sq.ndim == 1:
        return float(potential @ grad_sq + kinetic @ rate_sq)
    return np.array([potential @ g + kinetic @ r for g, r in zip(grad_sq, rate_sq)])


def total_energy(traj: Trajectory, n: int, b: float) -> float:
    """Energy of the pair (u, u_t) at time level n: E(u_t) + E(u)."""
    return (energy_e(traj.ut[n], traj.utt[n], b, traj.grid)
            + energy_e(traj.u[n], traj.ut[n], b, traj.grid))


def energy_series(traj: Trajectory, b: float):
    """Per-level E(u) and E_total = E(u_t) + E(u), each energy evaluated once."""
    e_u = energy_e(traj.u, traj.ut, b, traj.grid)
    return e_u, energy_e(traj.ut, traj.utt, b, traj.grid) + e_u


@dataclass
class EnergyBoundReport:
    max_energy: float
    initial_energy: float
    source_norm_sq: float
    ratio: float
    growth_flag: bool
    level_e: np.ndarray          # E(u) per time level
    level_total: np.ndarray      # E_total per time level


def verify_energy_bound(traj: Trajectory, f: np.ndarray, b: float,
                        growth_threshold: float = 1e6) -> EnergyBoundReport:
    """Empirical constant in  max_t E_total(t) <= C (E_total(0) + ||f||^2)."""
    grid = traj.grid
    level_e, energies = energy_series(traj, b)
    fsq = discrete_norms(f, grid, "l2_l2") ** 2
    denom = energies[0] + fsq
    if denom == 0.0:
        ratio = 0.0 if energies.max() == 0.0 else np.inf
    else:
        ratio = float(energies.max() / denom)
    return EnergyBoundReport(float(energies.max()), float(energies[0]), float(fsq),
                             ratio, bool(ratio > growth_threshold), level_e, energies)


@dataclass
class LaplacianBoundReport:
    max_laplacian_sq: float
    bound: float
    ratio: float


def verify_laplacian_bound(traj: Trajectory, data: InitialData, f: np.ndarray,
                           b: float) -> LaplacianBoundReport:
    """Empirical constant in  max_t ||u_xx(t)||^2 <= C (||f||^2 + E(0) + ||u0_xx||^2)."""
    grid = traj.grid
    lap_sq = apply_laplacian(traj.u, grid) ** 2 @ trapezoid_weights(grid.nx, grid.h)
    bound = (discrete_norms(f, grid, "l2_l2") ** 2
             + total_energy(traj, 0, b)
             + discrete_norms(apply_laplacian(data.u0, grid), grid, "l2") ** 2)
    if bound == 0.0:
        ratio = 0.0 if lap_sq.max() == 0.0 else np.inf
    else:
        ratio = float(lap_sq.max() / bound)
    return LaplacianBoundReport(float(lap_sq.max()), float(bound), ratio)


def apply_operator(field: np.ndarray, coeffs: MGTCoefficients, grid: SpaceTimeGrid,
                   zero_start: bool = False) -> np.ndarray:
    """L y = y_ttt + alpha y_tt - c^2 y_xx - b y_txx on an (nt, nx) field.

    ``zero_start`` selects the time stencils for series with y(0) = y_t(0) = 0
    over the plain ones; boundary columns carry no Laplacian.  L's only other
    form is the cached sparse rows that serve every least-squares use in
    ``functional``; the stencil serves the Carleman estimate and
    ``pde_residual``, and is the reference the rows are tested against.
    """
    stencil = time_derivative_matrix_zero_start if zero_start else time_derivative_matrix
    d1, d2, d3 = (stencil(grid.nt, grid.dt, order) for order in (1, 2, 3))
    return (d3 @ field + (d2 @ field) * coeffs.alpha
            - apply_laplacian(coeffs.c ** 2 * field + coeffs.b * (d1 @ field), grid))


def pde_residual(traj: Trajectory, coeffs: MGTCoefficients, f: np.ndarray) -> np.ndarray:
    """Pointwise stencil residual u_ttt + alpha u_tt - c^2 u_xx - b u_txx - f.

    Computed from the u snapshots alone with the grid's time and space
    stencils; entries at the two boundary columns are zero.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != traj.u.shape:
        raise ValueError(f"source has shape {f.shape}, expected {traj.u.shape}")
    res = apply_operator(traj.u, coeffs, traj.grid) - f
    res[:, 0] = 0.0
    res[:, -1] = 0.0
    return res


# ---------------------------------------------------------------------------
# manufactured solution for convergence and oracle tests
# ---------------------------------------------------------------------------

def manufactured_solution(grid: SpaceTimeGrid, coeffs: MGTCoefficients):
    """Exact solution u = sin(pi xhat) t^3 and the source that produces it.

    xhat rescales the domain to [0, 1].  Substituting u into the model gives

        f = sin(pi xhat) (6 + 6 alpha t + 3 b k^2 t^2 + c^2 k^2 t^3),

    with k = pi / (x_right - x_left).  The matching initial triple is zero.
    Returns (u_exact, f) as (nt, nx) arrays.
    """
    k = np.pi / (grid.x_right - grid.x_left)
    xhat = (grid.x - grid.x_left) / (grid.x_right - grid.x_left)
    shape = np.sin(np.pi * xhat)
    t = grid.t[:, None]
    u = shape[None, :] * t ** 3
    f = shape[None, :] * (6.0 + 6.0 * coeffs.alpha[None, :] * t
                          + 3.0 * coeffs.b * k ** 2 * t ** 2
                          + coeffs.c ** 2 * k ** 2 * t ** 3)
    return u, f
