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

One stepping loop (``_march``) advances a batch of k members that share c, b,
the box bound, the initial data and the grid, each with its own gamma.
:func:`solve_forward` runs it with k = 1 and keeps every level;
:func:`forward_traces` runs many members at once and keeps only the current
and the next level and the columns that trace extraction reads.  A step of
one member is about a dozen NumPy calls on arrays of nx values, whose call
overhead outweighs their arithmetic at these sizes, so the members' rows
lie end to end in one contiguous row of k nx values per level, and every
elementwise update acts on that row and pays the overhead once per batch.
The step matrix I + half dt alpha - half kappa Lap P is symmetric, and
with alpha = gamma + c^2 / b > 0 its diagonal is positive and exceeds the
sum of its off-diagonal magnitudes in every row, so it is symmetric
positive definite and is factored as L D L^T by LAPACK's ``dpttrf``, with no
pivoting; ``dpttrs`` then solves each level with one multiplication per row
on the forward and the backward recurrence, where LU's back substitution
divides on its chain.  The k step matrices are factored as one
block-diagonal tridiagonal system of k nx rows: each member's boundary rows
are decoupled from its interior, so the off-diagonals vanish at every join,
``dpttrf`` carries a zero e across it and leaves the next d unchanged, and
one factor per batch and one in-place ``dpttrs`` per level give each member
the numbers of its own factor and solve.  The joins stay exact only while
every member is finite: a member that turns non-finite spreads NaN into the
others through 0 * inf in the shared recurrences, so :func:`forward_traces`
solves the members of a non-finite batch one at a time to name the one that
failed.
The Laplacian of all members is one ``np.convolve`` over the level row of
z = 2 c^2 u + (c^2 dt + 2 b) u_t + kappa P u_tt, whose boundary entries
are zero: each interior output is the same three-term product of the
member's own three nodes as when its row is convolved alone, so the result
is the same bits, and the outputs that straddle two members fall on
boundary nodes, where no Laplacian enters.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import (EDGE_NODES, SpaceTimeGrid, apply_laplacian, boundary_normal_derivative,
                   discrete_norms, edge_normal_derivative, quotient, trapezoid_weights)


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
        # written so that NaN fails each check with the field's name
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if not (abs(self.c) > 0 and math.isfinite(self.c)):
            raise ValueError(f"wave speed c must be nonzero and finite, got {self.c}")
        if not (self.box_bound > 0 and math.isfinite(self.box_bound)):
            raise ValueError(f"box bound must be positive and finite, got {self.box_bound}")
        if self.gamma.ndim != 1:
            raise ValueError("gamma must be a one-dimensional nodal field")
        if not np.all(np.isfinite(self.gamma)):
            raise ValueError("gamma must be finite")
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

    All three must be finite.  u0 and u1 must vanish at the endpoints; u2
    need not.  The mismatch between a nonzero u2 and the Dirichlet condition
    launches a front from each corner along which u_tt jumps;
    :func:`solve_forward` carries it in the closed-form corner part instead
    of resolving it on the grid.  When eta > 0 the acceleration profile must
    satisfy |u2| >= eta everywhere, which the reconstruction update divides
    by.
    """

    u0: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    eta: float = 0.0

    def __post_init__(self) -> None:
        self.u0 = np.asarray(self.u0, dtype=float)
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        if not self.eta >= 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if not (self.u0.shape == self.u1.shape == self.u2.shape):
            raise ValueError("u0, u1, u2 must share one shape")
        for name, arr in (("u0", self.u0), ("u1", self.u1), ("u2", self.u2)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
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
    hat weights; ``flux_correction`` maps a side to the closed-form outward
    normal derivative minus the one-sided stencil applied to u.  Fields are
    (nt, nx) arrays unless noted.  All arrays are read-only, because one part
    serves every solve from the same initial data.
    """

    reference: float
    profile: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray
    source: np.ndarray
    utt_average: np.ndarray
    flux_correction: dict


@functools.lru_cache(maxsize=4)
def corner_part(c: float, b: float, reference: float, left: float, right: float,
                grid: SpaceTimeGrid) -> CornerPart:
    """Corner part for the u2 endpoint values ``left`` and ``right``.

    Cached on its arguments: it does not depend on gamma, so the solves of
    one reconstruction or stability campaign, and the ``verify`` suites run
    in one process, share one part, whose arrays are read-only.

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
    exact = {"right": dudx[:, -1], "left": -dudx[:, 0]}
    correction = {side: value - boundary_normal_derivative(u, grid, side)
                  for side, value in exact.items()}
    for arr in (profile, u, ut, utt, source, average, *correction.values()):
        arr.flags.writeable = False
    return CornerPart(reference, profile, u, ut, utt, source, average, correction)


def _check_shapes(coeffs: MGTCoefficients, data: InitialData, grid: SpaceTimeGrid) -> None:
    if coeffs.gamma.shape != (grid.nx,):
        raise ValueError(f"gamma has shape {coeffs.gamma.shape}, expected ({grid.nx},)")
    if data.u0.shape != (grid.nx,):
        raise ValueError(f"initial data has shape {data.u0.shape}, expected ({grid.nx},)")


def _corner_split(c: float, b: float, box_bound: float, data: InitialData,
                  grid: SpaceTimeGrid):
    """The :func:`corner_part` of ``data`` and the u2 that is time-stepped:
    (None, u2) when u2 vanishes at the ends, within 1e-9 of its scale (the
    tolerance InitialData applies to u0 and u1)."""
    scale = max(np.abs(data.u2).max(initial=0.0), 1.0)
    if max(abs(data.u2[0]), abs(data.u2[-1])) > 1e-9 * scale:
        corner = corner_part(c, b, 0.5 * box_bound, float(data.u2[0]), float(data.u2[-1]),
                             grid)
        return corner, data.u2 - corner.profile
    return None, data.u2


def _level_rows(store: np.ndarray) -> np.ndarray:
    """(L, k nx) view of an (L, k, nx) level store: each level one contiguous
    row with the members' rows end to end."""
    rows = store.reshape(store.shape[0], -1)
    assert rows.flags.c_contiguous and np.may_share_memory(rows, store), \
        "level stores must be C-contiguous, so that their rows are views"
    return rows


def _march(c: float, b: float, alphas: np.ndarray, u: np.ndarray, ut: np.ndarray,
           utt: np.ndarray, sources, grid: SpaceTimeGrid, edges=None) -> None:
    """Advance the k members of a batch from level 0 to level nt - 1.

    ``alphas`` is (k, nx).  ``u``, ``ut`` and ``utt`` are C-contiguous
    (L, k, nx) level stores that hold level n in row n % L: L = nt keeps
    every level, L = 2 the current and the next.  Row 0 holds the start,
    with zero boundary values of u and u_t.  ``sources`` yields half
    (f_n + f_n+1) for each step, broadcastable to the (k nx,) level row.
    ``edges``, when given, is (nt, k, len(EDGE_NODES)) and receives u's
    EDGE_NODES columns at every level from 1 on.

    The k step matrices are factored once by ``dpttrf``, as one
    block-diagonal system of k nx rows.  Each is symmetric, and strictly
    diagonally dominant with a positive diagonal while alpha > -2 / dt, so
    positive definite; one that is not raises ForwardSolveError, naming the
    member, before any level is stepped.  Every join's off-diagonal is zero,
    so each member's d and e are those of its own factor, bit for bit.  Each
    level is one in-place ``dpttrs`` on its contiguous row, whose
    recurrences multiply by the stored e and divide by d off the chain, and
    a few elementwise updates of whole rows, each element in the order of a
    member stepped alone.  z is formed on whole rows and zeroed
    at every member's boundary nodes, and the Laplacian's outputs there are
    set to -0.0 before it is added, so the boundary nodes of u_tt keep their
    bits.  The updates of u_t and u also write the boundary nodes, which
    feed no interior node; on return they are +0.0 in every stored level,
    as are the boundary columns of ``edges`` from level 1 on.
    """
    # (I + half alpha - half kappa Lap P) w+ = (I - half alpha) w
    #     + half Lap (2 c^2 u + (c^2 dt + 2 b) v + kappa P w) + half (f_n + f_n+1),
    # with P the interior projection and Lap the three-point Laplacian with
    # zero boundary rows
    nx, nt = grid.nx, grid.nt
    k, levels = len(alphas), u.shape[0]
    half = 0.5 * grid.dt
    c2 = c ** 2
    kappa = 0.25 * c2 * grid.dt ** 2 + half * b
    mix = c2 * grid.dt + 2.0 * b
    lap_scale = half / grid.h ** 2
    off = np.zeros((k, nx))              # zero at each member's boundary rows and joins
    off[:, 1:-2] = -kappa * lap_scale
    off = off.reshape(-1)[:-1]
    diag = 1.0 + half * alphas
    diag[:, 1:-1] += 2.0 * kappa * lap_scale
    *factor, info = dpttrf(diag.reshape(-1), off, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise ForwardSolveError(
            f"step matrix of member {(info - 1) // nx} is not positive definite: "
            f"dpttrf info {info}")
    explicit = (1.0 - half * alphas).reshape(-1)

    uf, vf, wf = _level_rows(u), _level_rows(ut), _level_rows(utt)
    ends = np.arange(k) * nx
    ends = np.concatenate([ends, ends + nx - 1])     # every member's boundary nodes
    z = np.empty(k * nx)                 # 2 c^2 u + mix v + kappa P w
    mixed, scaled, step = np.empty(k * nx), np.empty(k * nx), np.empty(k * nx)
    lap = lap_scale * np.array([1.0, -2.0, 1.0])
    nodes = np.array(EDGE_NODES)
    u_new, v_new, w_new = uf[0], vf[0], wf[0]
    # a non-finite state propagates to every later level; callers locate it
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(nt - 1):
            u_now, v_now, w_now = u_new, v_new, w_new
            new = (n + 1) % levels
            u_new, v_new, w_new = uf[new], vf[new], wf[new]
            np.multiply(2.0 * c2, u_now, out=z)
            np.multiply(mix, v_now, out=mixed)
            np.multiply(kappa, w_now, out=scaled)
            mixed += scaled
            z += mixed
            z[ends] = 0.0
            np.multiply(explicit, w_now, out=w_new)
            w_new += next(sources)
            laplacian = np.convolve(z, lap, "same")
            # x + (-0.0) is x bit for bit, so the boundary nodes of w+ keep
            # their values as if only the interior nodes took the Laplacian
            laplacian[ends] = -0.0
            w_new += laplacian
            solved = dpttrs(*factor, w_new, overwrite_b=True)[0]
            assert solved is w_new, "dpttrs must solve the level row in place"
            # v+ = v + half (w + w+), then u+ = u + half (v + v+)
            np.add(w_now, w_new, out=step)
            step *= half
            np.add(v_now, step, out=v_new)
            np.add(v_now, v_new, out=step)
            step *= half
            np.add(u_now, step, out=u_new)
            if edges is not None:
                np.take(u[new], nodes, axis=1, out=edges[n + 1])
    for store in (u, ut):
        store[..., 0] = 0.0
        store[..., -1] = 0.0
    if edges is not None:
        edges[1:, :, 0] = 0.0
        edges[1:, :, -1] = 0.0


def _finite(u: np.ndarray, ut: np.ndarray, utt: np.ndarray) -> np.ndarray:
    """Whether the state is finite at every node, along the last axis."""
    return (np.isfinite(u) & np.isfinite(ut) & np.isfinite(utt)).all(axis=-1)


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

    u_c does not depend on gamma: :func:`corner_part` computes it once per
    u2 end values, grid, c, b and M, and every later solve with the same
    ones reuses it.
    """
    nx, nt = grid.nx, grid.nt
    f = np.zeros((nt, nx)) if f is None else np.asarray(f, dtype=float)
    if f.shape != (nt, nx):
        raise ValueError(f"source has shape {f.shape}, expected ({nt}, {nx})")
    _check_shapes(coeffs, data, grid)

    corner, u2 = _corner_split(coeffs.c, coeffs.b, coeffs.box_bound, data, grid)
    if corner is not None:
        f = f - corner.source - (coeffs.gamma - corner.reference) * corner.utt_average

    u, ut, utt = np.zeros((nt, nx)), np.zeros((nt, nx)), np.empty((nt, nx))
    u[0, 1:-1], ut[0, 1:-1], utt[0] = data.u0[1:-1], data.u1[1:-1], u2   # exact Dirichlet start
    # a batch of one member whose level n is row n
    source = 0.5 * grid.dt * (f[:-1] + f[1:])
    _march(coeffs.c, coeffs.b, coeffs.alpha[None], u[:, None], ut[:, None], utt[:, None],
           iter(source), grid)
    # a non-finite state persists to every later level, so the last one shows it
    if not _finite(u[-1], ut[-1], utt[-1]):
        bad = ~_finite(u, ut, utt)[1:]
        raise ForwardSolveError(f"non-finite state at time step {int(np.argmax(bad)) + 1}")
    u[0], ut[0] = data.u0, data.u1
    if corner is None:
        return Trajectory(grid, u, ut, utt)

    u += corner.u
    ut += corner.ut
    utt += corner.utt
    utt[0] = data.u2
    return Trajectory(grid, u, ut, utt, dict(corner.flux_correction))


def _corner_sources(corner: CornerPart, gammas: np.ndarray, half: float):
    """half (f_n + f_n+1) of each step for the members' sources
    f = -corner source - (gamma - reference) utt_average, level by level:
    the numbers solve_forward forms from its whole-grid source with f None.
    Each step's values are yielded as one flat (k nx) buffer, which the next
    step overwrites."""
    offsets = gammas - corner.reference
    negated = np.empty(offsets.shape[1])
    now, new, out = np.empty(offsets.shape), np.empty(offsets.shape), np.empty(offsets.shape)
    flat = out.reshape(-1)
    for n, (source, average) in enumerate(zip(corner.source, corner.utt_average)):
        # f = (0.0 - source) - offsets * average, in that order
        np.subtract(0.0, source, out=negated)
        np.multiply(offsets, average, out=new)
        np.subtract(negated, new, out=new)
        if n:
            np.add(now, new, out=out)
            out *= half
            yield flat
        now, new = new, now


def forward_traces(c: float, b: float, box_bound: float, gammas, init: InitialData,
                   grid: SpaceTimeGrid, sides) -> np.ndarray:
    """Observed traces of source-free solves that differ only in gamma.

    Member j starts from ``init`` with damping offset ``gammas[j]``; entry
    [j, i] of the (len(gammas), len(sides), nt) result is, bit for bit,
    ``extract_observation(solve_forward(...), sides[i]).samples``.  The
    members advance together as one stacked system, and only their current
    and next levels are kept, with u's EDGE_NODES columns at every level: no
    member's (nt, nx) field is formed.

    In the stacked system a member whose state turns non-finite spreads NaN
    into the others, so a batch that ends non-finite is solved again member
    by member with solve_forward, in order, and the first member that fails
    raises its ForwardSolveError, time step included.  If none fails alone,
    ForwardSolveError is raised for the batch.
    """
    nx, nt = grid.nx, grid.nt
    members = [MGTCoefficients(c, b, gamma, box_bound) for gamma in gammas]
    for member in members:
        _check_shapes(member, init, grid)
    k = len(members)
    if k == 0:
        return np.empty((0, len(sides), nt))

    corner, u2 = _corner_split(c, b, box_bound, init, grid)
    u, ut, utt = np.zeros((2, k, nx)), np.zeros((2, k, nx)), np.empty((2, k, nx))
    u[0, :, 1:-1], ut[0, :, 1:-1], utt[0] = init.u0[1:-1], init.u1[1:-1], u2
    edges = np.empty((nt, k, len(EDGE_NODES)))
    edges[0] = np.take(init.u0, EDGE_NODES)
    if corner is None:
        sources = itertools.repeat(0.0, nt - 1)
    else:
        sources = _corner_sources(corner, np.array([m.gamma for m in members]), 0.5 * grid.dt)
    _march(c, b, np.array([m.alpha for m in members]), u, ut, utt, sources, grid, edges)

    last = (nt - 1) % 2
    if not _finite(u[last], ut[last], utt[last]).all():
        for member in members:
            solve_forward(member, init, None, grid)
        raise ForwardSolveError("non-finite state in a batch whose members are finite alone")

    if corner is not None:
        edges += np.take(corner.u, EDGE_NODES, axis=1)[:, None]
    traces = np.empty((k, len(sides), nt))
    for i, side in enumerate(sides):
        series = edge_normal_derivative(edges, grid.h, side)
        if corner is not None:
            series += corner.flux_correction[side][:, None]
        traces[:, i] = series.T
    return traces


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


ENERGY_GROWTH_THRESHOLD = 1e6


@dataclass
class EnergyBoundReport:
    max_energy: float
    initial_energy: float
    source_norm_sq: float
    ratio: float
    growth_flag: bool
    level_e: np.ndarray          # E(u) per time level
    level_total: np.ndarray      # E_total per time level


def verify_energy_bound(traj: Trajectory, f: np.ndarray, b: float) -> EnergyBoundReport:
    """Empirical constant in  max_t E_total(t) <= C (E_total(0) + ||f||^2);
    the growth flag is set above ENERGY_GROWTH_THRESHOLD."""
    grid = traj.grid
    level_e, energies = energy_series(traj, b)
    fsq = discrete_norms(f, grid, "l2_l2") ** 2
    ratio = quotient(energies.max(), energies[0] + fsq)
    return EnergyBoundReport(float(energies.max()), float(energies[0]), float(fsq),
                             ratio, bool(ratio > ENERGY_GROWTH_THRESHOLD), level_e, energies)


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
    return LaplacianBoundReport(float(lap_sq.max()), float(bound), quotient(lap_sq.max(), bound))


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
