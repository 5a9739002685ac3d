import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg.lapack import dgttrf, dgttrs

from mgt_inverse import solver
from mgt_inverse.experiments import STABILITY_BATCH
from mgt_inverse.grid import (apply_laplacian, build_grid, discrete_norms,
                              time_derivative_matrix, time_derivative_matrix_zero_start)
from mgt_inverse.observation import extract_observation
from mgt_inverse.solver import (ForwardSolveError, InitialData, MGTCoefficients,
                                Trajectory, corner_part, energy_e, forward_traces,
                                manufactured_solution, solve_forward, total_energy,
                                verify_energy_bound, verify_laplacian_bound)


def canonical_grid(nx=51, nt=101, T=1.0):
    return build_grid(0.0, 1.0, nx, T, nt)


def constant_alpha_coeffs(grid, alpha=1.0, c=1.0, b=1.0, M=2.0):
    # alpha = gamma + c^2/b
    gamma = np.full(grid.nx, alpha - c ** 2 / b)
    return MGTCoefficients(c, b, gamma, M)


def zero_data(grid):
    z = np.zeros(grid.nx)
    return InitialData(z, z, z)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        MGTCoefficients(1.0, 0.0, np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        MGTCoefficients(0.0, 1.0, np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        MGTCoefficients(1.0, 1.0, np.full(5, 1.5), 1.0)
    with pytest.raises(ValueError):
        MGTCoefficients(1.0, 1.0, np.full(5, -0.1), 1.0)
    co = MGTCoefficients(2.0, 4.0, np.full(5, 0.25), 1.0)
    assert np.allclose(co.alpha, 0.25 + 1.0)


@pytest.mark.parametrize("field, value, message", [
    ("c", np.nan, "wave speed c"), ("c", np.inf, "wave speed c"),
    ("c", -np.inf, "wave speed c"),
    ("b", np.nan, "b must be"), ("b", np.inf, "b must be"),
    ("box_bound", np.nan, "box bound"), ("box_bound", np.inf, "box bound"),
    ("gamma", np.nan, "gamma must be finite"), ("gamma", np.inf, "gamma must be finite"),
])
def test_non_finite_coefficients_are_refused_by_name(field, value, message):
    # NaN passed the old checks (b <= 0, c == 0, box_bound <= 0 and the box
    # test on gamma), and so did an infinite b or box bound
    fields = {"c": 1.0, "b": 1.0, "gamma": np.full(5, 0.5), "box_bound": 1.0}
    if field == "gamma":
        fields["gamma"][2] = value
    else:
        fields[field] = value
    with pytest.raises(ValueError, match=message):
        MGTCoefficients(**fields)
    # a negative finite c stays a wave speed
    assert np.array_equal(MGTCoefficients(-2.0, 4.0, np.full(5, 0.25), 1.0).alpha,
                          np.full(5, 1.25))


def test_initial_data_validation():
    g = canonical_grid()
    with pytest.raises(ValueError):
        InitialData(np.ones(g.nx), np.zeros(g.nx), np.zeros(g.nx))
    with pytest.raises(ValueError):
        InitialData(np.zeros(g.nx), np.zeros(g.nx), np.zeros(g.nx), eta=1.0)
    InitialData(np.zeros(g.nx), np.zeros(g.nx), np.ones(g.nx), eta=1.0)
    # a NaN made the boundary check's scale NaN, and |u2| >= eta is never
    # violated by a NaN: both used to construct and fail in the forward solve
    for bad in (np.nan, np.inf, -np.inf):
        for index, name in enumerate(("u0", "u1", "u2")):
            for node in (0, g.nx // 2):
                profiles = [np.zeros(g.nx), np.zeros(g.nx), np.ones(g.nx)]
                profiles[index][node] = bad
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    InitialData(*profiles, eta=1.0)
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    InitialData(*profiles)


def test_zero_data_gives_zero_trajectory():
    g = canonical_grid(31, 41)
    co = constant_alpha_coeffs(g)
    traj = solve_forward(co, zero_data(g), np.zeros((g.nt, g.nx)), g)
    assert np.abs(traj.u).max() == 0.0
    assert np.abs(traj.utt).max() == 0.0


def test_snapshot_zero_matches_initial_data():
    g = canonical_grid(41, 61)
    co = constant_alpha_coeffs(g)
    u0 = np.sin(np.pi * g.x)
    u1 = 0.5 * np.sin(2.0 * np.pi * g.x)
    u2 = np.cos(np.pi * g.x) + 2.0
    traj = solve_forward(co, InitialData(u0, u1, u2), np.zeros((g.nt, g.nx)), g)
    assert np.allclose(traj.u[0][1:-1], u0[1:-1], atol=1e-14)
    assert np.allclose(traj.ut[0][1:-1], u1[1:-1], atol=1e-14)
    assert np.allclose(traj.utt[0], u2, atol=1e-14)


def test_dirichlet_exact_at_all_levels():
    g = canonical_grid(41, 81)
    co = constant_alpha_coeffs(g, alpha=1.3)
    _, f = manufactured_solution(g, co)
    traj = solve_forward(co, zero_data(g), f, g)
    assert np.abs(traj.u[:, 0]).max() == 0.0
    assert np.abs(traj.u[:, -1]).max() == 0.0
    assert np.abs(traj.ut[:, 0]).max() == 0.0
    assert np.abs(traj.ut[:, -1]).max() == 0.0


@pytest.mark.parametrize("case", ["corner", "no corner", "source", "signed zeros"])
def test_boundary_values_are_positive_zero_at_every_level(case):
    # the stepping updates u and u_t on whole level rows, boundary nodes
    # included, and then sets those nodes back to +0.0: no -0.0 and no
    # leftover of the update may reach a trajectory.  u_tt's boundary nodes
    # step on their own and take no Laplacian, not even a +0.0 that would
    # turn -0.0 into +0.0.
    g = canonical_grid(41, 81)
    co = MGTCoefficients(1.0, 1.0, 0.4 + 0.3 * np.sin(np.pi * g.x), 1.0)
    sine = np.sin(np.pi * g.x)
    u2 = {"corner": 1.0 + 0.5 * sine, "no corner": np.sin(2.0 * np.pi * g.x) + 1e-10,
          "source": 0.3 * sine, "signed zeros": 0.3 * sine}[case]
    f = manufactured_solution(g, co)[1] - 2.0 if case == "source" else None
    if case == "signed zeros":
        u2[[0, -1]] = -0.0
        f = manufactured_solution(g, co)[1]
        f[:, [0, -1]] = -0.0
    traj = solve_forward(co, InitialData(0.2 * sine, -0.5 * sine, u2), f, g)
    assert bool(traj.flux_correction) == (case == "corner")
    for field in (traj.u, traj.ut):
        ends = field[1:, [0, -1]]
        assert np.all(ends == 0.0) and not np.any(np.signbit(ends))
    if case == "signed zeros":
        assert np.all(traj.utt[:, [0, -1]] == 0.0) and np.all(np.signbit(traj.utt[:, [0, -1]]))


def test_manufactured_convergence_order():
    errs = []
    for nx, nt in ((26, 51), (51, 101), (101, 201)):
        g = build_grid(0.0, 1.0, nx, 1.0, nt)
        co = constant_alpha_coeffs(g)
        u_exact, f = manufactured_solution(g, co)
        traj = solve_forward(co, zero_data(g), f, g)
        errs.append(np.abs(traj.u - u_exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.8


def test_superposition_in_data_and_source():
    g = canonical_grid(31, 51)
    co = constant_alpha_coeffs(g, alpha=1.7)
    rng = np.random.default_rng(3)
    u0a = np.sin(np.pi * g.x)
    u0b = np.sin(2.0 * np.pi * g.x)
    fa = rng.standard_normal((g.nt, g.nx))
    fb = rng.standard_normal((g.nt, g.nx))
    za = solve_forward(co, InitialData(u0a, 0.3 * u0b, np.cos(g.x)), fa, g)
    zb = solve_forward(co, InitialData(u0b, np.zeros(g.nx), np.ones(g.nx)), fb, g)
    mix = solve_forward(co, InitialData(u0a + 2.0 * u0b, 0.3 * u0b, np.cos(g.x) + 2.0),
                        fa + 2.0 * fb, g)
    assert np.allclose(mix.u, za.u + 2.0 * zb.u, atol=1e-10)
    assert np.allclose(mix.utt, za.utt + 2.0 * zb.utt, atol=1e-9)


def first_order_system_solve(coeffs, data, f, grid):
    """Reference: the trapezoidal rule on the first-order system in
    (u, u_t, u_tt), one SuperLU solve of the 3 nx system per level, with the
    corner part split off as solve_forward does."""
    nx, nt, dt = grid.nx, grid.nt, grid.dt
    f = np.zeros((nt, nx)) if f is None else f
    u2, corner = data.u2, None
    if max(abs(data.u2[0]), abs(data.u2[-1])) > 1e-9 * max(np.abs(data.u2).max(), 1.0):
        corner = corner_part(coeffs.c, coeffs.b, 0.5 * coeffs.box_bound,
                             float(data.u2[0]), float(data.u2[-1]), grid)
        f = f - corner.source - (coeffs.gamma - corner.reference) * corner.utt_average
        u2 = data.u2 - corner.profile
    interior = sp.diags(np.r_[0.0, np.ones(nx - 2), 0.0])
    # the three-point Laplacian, zero on the boundary rows
    lap = interior @ sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nx, nx)) / grid.h ** 2
    a = sp.bmat([[None, interior, None], [None, None, interior],
                 [coeffs.c ** 2 * lap, coeffs.b * lap, sp.diags(-coeffs.alpha)]],
                format="csc")
    eye = sp.identity(3 * nx, format="csc")
    step = spla.splu(eye - 0.5 * dt * a)
    dirichlet = [0, nx - 1, nx, 2 * nx - 1]          # boundary u and v
    state = np.concatenate([data.u0, data.u1, u2])
    out = np.empty((nt, 3 * nx))
    out[0] = state
    state[dirichlet] = 0.0
    for n in range(nt - 1):
        rhs = (eye + 0.5 * dt * a) @ state
        rhs[2 * nx:] += 0.5 * dt * (f[n] + f[n + 1])
        state = step.solve(rhs)
        state[dirichlet] = 0.0
        out[n + 1] = state
    u, ut, utt = out[:, :nx], out[:, nx:2 * nx], out[:, 2 * nx:]
    if corner is not None:
        u, ut, utt = u + corner.u, ut + corner.ut, utt + corner.utt
        utt[0] = data.u2
    return u, ut, utt


@pytest.mark.parametrize("nx, nt, c, b, with_source", [
    (41, 81, 1.0, 1.0, False),      # u2 = 1: the corner part is split off
    (41, 81, 1.3, 0.7, True),
    (201, 401, 1.0, 1.0, False),
])
def test_tridiagonal_step_matches_first_order_system(nx, nt, c, b, with_source):
    grid = build_grid(0.0, 1.0, nx, 1.25, nt)
    coeffs = MGTCoefficients(c, b, 0.4 + 0.3 * np.sin(np.pi * grid.x), 1.0)
    if with_source:
        data = InitialData(np.zeros(nx), 0.5 * np.sin(np.pi * grid.x),
                           1.0 + np.cos(2.0 * np.pi * grid.x) * np.sin(np.pi * grid.x))
        f = np.outer(np.cos(3.0 * grid.t), np.sin(2.0 * np.pi * grid.x) + grid.x)
    else:
        data = InitialData(np.zeros(nx), np.zeros(nx), np.ones(nx), eta=1.0)
        f = None
    traj = solve_forward(coeffs, data, f, grid)
    for got, want in zip((traj.u, traj.ut, traj.utt),
                         first_order_system_solve(coeffs, data, f, grid)):
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
    assert np.all(traj.u[1:, [0, -1]] == 0.0) and np.all(traj.ut[1:, [0, -1]] == 0.0)


def test_non_finite_source_names_its_time_step():
    # the source at level 5 enters the step from level 4 to level 5
    g = canonical_grid(31, 41)
    f = np.zeros((g.nt, g.nx))
    f[5, 15] = np.inf
    with pytest.raises(ForwardSolveError, match="non-finite state at time step 5$"):
        solve_forward(constant_alpha_coeffs(g), zero_data(g), f, g)


@pytest.mark.parametrize("nx, nt", [(21, 41), (41, 81)])
@pytest.mark.parametrize("corner", [True, False])
def test_forward_traces_are_the_observed_traces_of_solve_forward(nx, nt, corner):
    # the members advance together and only u's edge columns are kept, yet
    # each member's traces are extract_observation's of its own full solve,
    # bit for bit; u0 = sin(pi x) is 1.2e-16 at x = 1, which the trace at
    # level 0 reads
    grid = build_grid(0.0, 1.0, nx, 1.25, nt)
    c, b, box_bound = 1.3, 0.7, 2.0
    # u2 = 1 + ... launches corner fronts; sin(2 pi x) + 1e-10 is below the
    # corner part's threshold at the ends, where u_tt then steps on its own
    u2 = (1.0 + 0.5 * np.sin(np.pi * grid.x) if corner
          else np.sin(2.0 * np.pi * grid.x) + 1e-10)
    data = InitialData(0.2 * np.sin(np.pi * grid.x), 0.5 * np.sin(np.pi * grid.x), u2)
    rng = np.random.default_rng(nx + corner)
    # a campaign's batch and an odd count on the finer grid
    for k in (1, 2, 7) + ((STABILITY_BATCH, 13) if nx >= 41 else ()):
        gammas = [rng.uniform(0.0, box_bound, nx) for _ in range(k)]
        full = [solve_forward(MGTCoefficients(c, b, gamma, box_bound), data, None, grid)
                for gamma in gammas]
        assert all(bool(traj.flux_correction) == corner for traj in full)
        for sides in (("left",), ("right",), ("left", "right")):
            traces = forward_traces(c, b, box_bound, gammas, data, grid, sides)
            want = [[extract_observation(traj, side).samples for side in sides]
                    for traj in full]
            assert traces.shape == (k, len(sides), nt)
            assert np.array_equal(traces, want)


def test_forward_traces_name_the_time_step_of_a_non_finite_member():
    # u1 = 2.4 * 2^1018 sin(pi x) overflows a few steps in: at step 5 with
    # gamma = 5, at step 4 with gamma = 10, never with gamma = 0.  The batch
    # raises solve_forward's error for its first member that fails.
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    data = InitialData(np.zeros(grid.nx), 2.4 * 2.0 ** 1018 * np.sin(np.pi * grid.x),
                       np.zeros(grid.nx))
    gammas = {value: np.full(grid.nx, value) for value in (0.0, 5.0, 10.0)}
    solve_forward(MGTCoefficients(1.0, 1.0, gammas[0.0], 10.0), data, None, grid)
    for value, step in ((5.0, 5), (10.0, 4)):
        with pytest.raises(ForwardSolveError, match=f"^non-finite state at time step {step}$"):
            solve_forward(MGTCoefficients(1.0, 1.0, gammas[value], 10.0), data, None, grid)
    for order, step in (((0.0, 5.0, 10.0), 5), ((0.0, 10.0, 5.0), 4)):
        with pytest.raises(ForwardSolveError, match=f"^non-finite state at time step {step}$"):
            forward_traces(1.0, 1.0, 10.0, [gammas[v] for v in order], data, grid, ("right",))


def test_corner_split_resolves_early_trace_below_gamma_signal():
    # u2 = 1 does not vanish at the Dirichlet ends, so a front leaves each
    # corner; at the first levels it is narrower than a cell.  The right-end
    # trace must agree with the one from the 2x refined grid better than the
    # trace tells gamma_true from gamma = 0, level by level.
    def right_trace(grid, gamma):
        data = InitialData(np.zeros(grid.nx), np.zeros(grid.nx), np.ones(grid.nx), eta=1.0)
        traj = solve_forward(MGTCoefficients(1.0, 1.0, gamma, 1.0), data, None, grid)
        assert np.all(traj.u[:, 0] == 0.0) and np.all(traj.u[:, -1] == 0.0)
        assert np.array_equal(traj.utt[0], data.u2)
        return extract_observation(traj, "right").samples

    coarse = build_grid(0.0, 1.0, 51, 1.25, 101)
    fine = coarse.refined(2)
    gamma_true = lambda x: 0.4 + 0.3 * np.sin(np.pi * x)
    trace = right_trace(coarse, gamma_true(coarse.x))
    refined = right_trace(fine, gamma_true(fine.x))[::2]
    at_zero = right_trace(coarse, np.zeros(coarse.nx))
    discrepancy = np.abs(trace - refined)[1:9]
    signal = np.abs(trace - at_zero)[1:9]
    assert np.all(discrepancy < signal), (discrepancy, signal)


def test_corner_part_solves_reference_equation_with_exact_flux():
    # centred differences on a fine grid, away from the fronts: the corner
    # part solves u_ttt + (reference + c^2/b) u_tt - c^2 u_xx - b u_txx = source,
    # and its closed-form normal derivative matches the one-sided stencil:
    # flux_correction is the one minus the other
    grid = build_grid(0.0, 1.0, 401, 1.25, 501)
    part = corner_part(1.0, 1.0, 0.5, 1.0, 0.7, grid)
    h, dt = grid.h, grid.dt
    u, ut, utt = part.u, part.ut, part.utt
    uttt = (utt[2:, 1:-1] - utt[:-2, 1:-1]) / (2.0 * dt)
    uxx = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h ** 2
    utxx = (ut[1:-1, 2:] - 2.0 * ut[1:-1, 1:-1] + ut[1:-1, :-2]) / h ** 2
    residual = uttt + 1.5 * utt[1:-1, 1:-1] - uxx - utxx - part.source[1:-1, 1:-1]
    x, t = np.meshgrid(grid.x[1:-1], grid.t[1:-1])
    away = t > 0.02
    for distance in (1.0 - x, 2.0 - x, x, 1.0 + x):     # fronts reaching x by t = 1.25
        away &= np.abs(t - distance) > 0.02
    assert np.abs(residual[away]).max() < 1e-4
    assert np.all(u[:, 0] == 0.0) and np.all(u[:, -1] == 0.0)
    assert list(part.flux_correction) == ["right", "left"]
    for correction in part.flux_correction.values():
        assert np.abs(correction).max() < 5e-3


def test_corner_part_is_computed_once_per_initial_data():
    # the corner part depends on neither gamma nor the InitialData instance:
    # solves with the same u2 end values, c, b, M and grid share one cached
    # part, and match solves that start from an empty cache
    def computed():
        return corner_part.cache_info().misses

    corner_part.cache_clear()
    try:
        grid = build_grid(0.0, 1.0, 41, 1.25, 81)
        data = InitialData(np.zeros(grid.nx), np.zeros(grid.nx), np.ones(grid.nx), eta=1.0)
        gammas = (0.4 + 0.3 * np.sin(np.pi * grid.x), np.full(grid.nx, 0.9))
        shared = [solve_forward(MGTCoefficients(1.0, 1.0, gamma, 1.0), data, None, grid)
                  for gamma in gammas]
        # another instance whose u2 has the same end values
        other_data = InitialData(data.u0, data.u1, 1.0 + 0.5 * np.sin(np.pi * grid.x),
                                 eta=1.0)
        solve_forward(MGTCoefficients(1.0, 1.0, gammas[0], 1.0), other_data, None, grid)
        assert computed() == 1
        part = corner_part(1.0, 1.0, 0.5, 1.0, 1.0, grid)
        assert computed() == 1
        for gamma, traj in zip(gammas, shared):
            corner_part.cache_clear()
            copy = InitialData(data.u0.copy(), data.u1.copy(), data.u2.copy(), eta=1.0)
            fresh = solve_forward(MGTCoefficients(1.0, 1.0, gamma, 1.0), copy, None, grid)
            assert computed() == 1
            for name in ("u", "ut", "utt"):
                assert np.array_equal(getattr(traj, name), getattr(fresh, name))
            assert list(traj.flux_correction) == list(fresh.flux_correction) == ["right", "left"]
            for side, series in fresh.flux_correction.items():
                assert np.array_equal(traj.flux_correction[side], series)

        arrays = [getattr(part, f.name) for f in dataclasses.fields(part)
                  if isinstance(getattr(part, f.name), np.ndarray)]
        arrays += list(part.flux_correction.values())
        assert len(arrays) == 8
        for arr in arrays:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            part.u[1, 1] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.u = np.zeros_like(part.u)

        # a different box bound or grid recomputes
        solve_forward(MGTCoefficients(1.0, 1.0, gammas[0], 2.0), data, None, grid)
        assert computed() == 2
        other = build_grid(0.0, 1.0, 41, 1.0, 81)
        solve_forward(MGTCoefficients(1.0, 1.0, gammas[0], 1.0), data, None, other)
        assert computed() == 3
        assert corner_part.cache_info().currsize == 3
        # keyed on the damping reference M / 2 and on the grid
        corner_part(1.0, 1.0, 1.0, 1.0, 1.0, grid)
        corner_part(1.0, 1.0, 0.5, 1.0, 1.0, other)
        assert computed() == 3
    finally:
        corner_part.cache_clear()


def test_energy_e_values():
    g = canonical_grid(101, 5)
    assert energy_e(np.zeros(g.nx), np.zeros(g.nx), 1.0, g) == 0.0
    # (1/2) int pi^2 cos^2(pi x) dx = pi^2/4
    want = quad(lambda x: 0.5 * np.pi ** 2 * np.cos(np.pi * x) ** 2, 0, 1)[0]
    got = energy_e(np.sin(np.pi * g.x), np.zeros(g.nx), 1.0, g)
    assert want == pytest.approx(np.pi ** 2 / 4.0, abs=1e-12)
    assert got == pytest.approx(want, abs=1e-3)
    # pure kinetic part
    assert energy_e(np.zeros(g.nx), np.ones(g.nx), 1.0, g) == pytest.approx(0.5)


def test_total_energy_of_manufactured_solution():
    g = build_grid(0.0, 1.0, 101, 1.0, 201)
    co = constant_alpha_coeffs(g)
    _, f = manufactured_solution(g, co)
    traj = solve_forward(co, zero_data(g), f, g)
    # analytic energy of u = sin(pi x) t^3 at t = 1 via independent quadrature
    ints = quad(lambda x: np.cos(np.pi * x) ** 2, 0, 1)[0]
    intc = quad(lambda x: np.sin(np.pi * x) ** 2, 0, 1)[0]
    t = 1.0
    e_ut = 0.5 * (3 * np.pi * t ** 2) ** 2 * ints + 0.5 * (6 * t) ** 2 * intc
    e_u = 0.5 * (np.pi * t ** 3) ** 2 * ints + 0.5 * (3 * t ** 2) ** 2 * intc
    want = e_ut + e_u
    got = total_energy(traj, g.nt - 1, co.b)
    assert got == pytest.approx(want, rel=0.01)


def test_energy_bound_zero_case_and_stability():
    g = canonical_grid(41, 81, T=1.25)
    co = MGTCoefficients(1.0, 1.0, np.zeros(g.nx), 1.0)
    rep0 = verify_energy_bound(
        solve_forward(co, zero_data(g), np.zeros((g.nt, g.nx)), g),
        np.zeros((g.nt, g.nx)), co.b)
    assert rep0.ratio == 0.0 and not rep0.growth_flag

    def ratio(nx, nt):
        gg = build_grid(0.0, 1.0, nx, 1.25, nt)
        cc = MGTCoefficients(1.0, 1.0, np.zeros(gg.nx), 1.0)
        data = InitialData(np.zeros(gg.nx), np.zeros(gg.nx), np.ones(gg.nx), eta=1.0)
        tr = solve_forward(cc, data, np.zeros((gg.nt, gg.nx)), gg)
        return verify_energy_bound(tr, np.zeros((gg.nt, gg.nx)), cc.b).ratio

    r1, r2 = ratio(41, 81), ratio(81, 161)
    assert 0 < r1 < 1e3
    assert abs(r2 - r1) <= 0.2 * r1


def test_energy_bound_at_box_top():
    g = canonical_grid(41, 81, T=1.25)
    co = MGTCoefficients(1.0, 1.0, np.ones(g.nx), 1.0)
    data = InitialData(np.zeros(g.nx), np.zeros(g.nx), np.ones(g.nx), eta=1.0)
    traj = solve_forward(co, data, np.zeros((g.nt, g.nx)), g)
    rep = verify_energy_bound(traj, np.zeros((g.nt, g.nx)), co.b)
    assert np.isfinite(rep.ratio) and rep.ratio > 0 and not rep.growth_flag
    # the per-level series are bit-identical to the level-by-level energies
    assert rep.level_e.tolist() == [energy_e(traj.u[n], traj.ut[n], co.b, g)
                                    for n in range(g.nt)]
    assert rep.level_total.tolist() == [total_energy(traj, n, co.b) for n in range(g.nt)]


def test_laplacian_bound_manufactured_value():
    g = build_grid(0.0, 1.0, 101, 1.0, 201)
    co = constant_alpha_coeffs(g)
    u_exact, f = manufactured_solution(g, co)
    traj = solve_forward(co, zero_data(g), f, g)
    rep = verify_laplacian_bound(traj, zero_data(g), f, co.b)
    # max_t ||u_xx||^2 at t = 1 equals pi^4 int sin^2 = pi^4 / 2
    want = np.pi ** 4 * quad(lambda x: np.sin(np.pi * x) ** 2, 0, 1)[0]
    assert rep.max_laplacian_sq == pytest.approx(want, rel=0.01)
    assert np.isfinite(rep.ratio) and rep.ratio > 0


def test_laplacian_bound_zero_case():
    g = canonical_grid(31, 41)
    co = constant_alpha_coeffs(g)
    traj = solve_forward(co, zero_data(g), np.zeros((g.nt, g.nx)), g)
    rep = verify_laplacian_bound(traj, zero_data(g), np.zeros((g.nt, g.nx)), co.b)
    assert rep.ratio == 0.0


def apply_operator(field, coeffs, grid, zero_start=False):
    """L y = y_ttt + alpha y_tt - c^2 y_xx - b y_txx on an (nt, nx) field.

    ``zero_start`` selects the time stencils for series with y(0) = y_t(0) = 0
    over the plain ones; boundary columns carry no Laplacian.  The reference
    that the forward solver's residual, the least-squares rows and the
    Carleman estimate's residual are held to.
    """
    stencil = time_derivative_matrix_zero_start if zero_start else time_derivative_matrix
    d1, d2, d3 = (stencil(grid.nt, grid.dt, order) for order in (1, 2, 3))
    return (d3 @ field + (d2 @ field) * coeffs.alpha
            - apply_laplacian(coeffs.c ** 2 * field + coeffs.b * (d1 @ field), grid))


def pde_residual(traj, coeffs, f):
    """Pointwise stencil residual u_ttt + alpha u_tt - c^2 u_xx - b u_txx - f of
    the u snapshots, zero at the two boundary columns: the reference the
    forward solver is held to."""
    res = apply_operator(traj.u, coeffs, traj.grid) - f
    res[:, 0] = res[:, -1] = 0.0
    return res


def test_pde_residual_zero_for_zero_trajectory():
    g = canonical_grid(31, 41)
    co = constant_alpha_coeffs(g)
    traj = Trajectory(g, np.zeros((g.nt, g.nx)), np.zeros((g.nt, g.nx)),
                      np.zeros((g.nt, g.nx)))
    assert np.abs(pde_residual(traj, co, np.zeros((g.nt, g.nx)))).max() == 0.0


def test_pde_residual_consistency_order():
    norms = []
    for nx, nt in ((26, 51), (51, 101), (101, 201)):
        g = build_grid(0.0, 1.0, nx, 1.0, nt)
        co = constant_alpha_coeffs(g)
        _, f = manufactured_solution(g, co)
        traj = solve_forward(co, zero_data(g), f, g)
        norms.append(discrete_norms(pde_residual(traj, co, f), g, "l2_l2"))
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert orders.min() > 1.8


def test_variable_alpha_maintains_order():
    errs = []
    for nx, nt in ((51, 101), (101, 201)):
        g = build_grid(0.0, 1.0, nx, 1.0, nt)
        gamma = 0.4 + 0.3 * np.sin(np.pi * g.x)
        co = MGTCoefficients(1.0, 1.0, gamma, 1.0)
        u_exact, f = manufactured_solution(g, co)
        traj = solve_forward(co, zero_data(g),
                             f, g)
        errs.append(np.abs(traj.u - u_exact).max())
    assert np.log2(errs[0] / errs[1]) > 1.8


@settings(max_examples=15, deadline=None)
@given(k=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2 ** 16))
def test_energy_and_laplacian_ratios_are_invariant_under_data_scaling(k, seed):
    # the solution is linear in (u0, u1, u2, f) and both bounds compare
    # squared norms, so neither ratio may see k
    g = canonical_grid(21, 41, T=1.25)
    co = MGTCoefficients(1.0, 1.0, np.full(g.nx, 0.25), 1.0)
    rng = np.random.default_rng(seed)
    modes = np.array([np.sin((m + 1) * np.pi * g.x) for m in range(3)])
    u0, u1 = rng.normal(size=3) @ modes, rng.normal(size=3) @ modes
    u2 = rng.normal() + rng.normal(size=3) @ modes
    f = rng.normal(size=(g.nt, g.nx))

    def ratios(scale):
        data = InitialData(scale * u0, scale * u1, scale * u2)
        traj = solve_forward(co, data, scale * f, g)
        return (verify_energy_bound(traj, scale * f, co.b).ratio,
                verify_laplacian_bound(traj, data, scale * f, co.b).ratio)

    assert ratios(k) == pytest.approx(ratios(1.0), rel=1e-12)


@pytest.mark.parametrize("order, step", [
    ((5.0, 0.0, 0.0), 5),            # the failing member first,
    ((0.0, 10.0, 0.0), 4),           # in the middle
    ((0.0, 0.0, 0.0, 5.0), 5),       # and last
    ((0.0, 5.0, 0.0, 10.0), 5),      # two that fail, the later one sooner
    ((10.0, 0.0, 5.0), 4),
])
def test_a_non_finite_member_is_named_wherever_it_sits_in_the_batch(order, step):
    # in the stacked system the failing member's inf spreads NaN into the
    # others, yet the batch raises the step of the first member that fails
    # on its own, as the members solved one by one would
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    data = InitialData(np.zeros(grid.nx), 2.4 * 2.0 ** 1018 * np.sin(np.pi * grid.x),
                       np.zeros(grid.nx))
    gammas = [np.full(grid.nx, value) for value in order]
    with pytest.raises(ForwardSolveError, match=f"^non-finite state at time step {step}$"):
        forward_traces(1.0, 1.0, 10.0, gammas, data, grid, ("left", "right"))


def test_a_non_finite_batch_whose_members_pass_alone_is_an_error(monkeypatch):
    # the stacked system must not report traces of a batch that ended
    # non-finite, even if no member fails when solved on its own
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    data = InitialData(np.zeros(grid.nx), 2.4 * 2.0 ** 1018 * np.sin(np.pi * grid.x),
                       np.zeros(grid.nx))
    monkeypatch.setattr(solver, "solve_forward", lambda *args: None)
    with pytest.raises(ForwardSolveError, match="^non-finite state in a batch"):
        forward_traces(1.0, 1.0, 10.0, [np.zeros(grid.nx), np.full(grid.nx, 5.0)], data, grid,
                       ("right",))


@pytest.mark.parametrize("k", [1, 7, 20])
def test_the_stacked_factor_is_each_members_own_factor(monkeypatch, k):
    # dpttrf's e[i] / d[i] and d[i+1] - e[i] e[i] d[i] change nothing across
    # a join whose e is zero, so each member's slice of the stacked LDL^T
    # factor is the factor of its own step matrix, bit for bit
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    nx = grid.nx
    data = InitialData(np.zeros(nx), 0.5 * np.sin(np.pi * grid.x), 1.0 + grid.x)
    rng = np.random.default_rng(k)
    gammas = [rng.uniform(0.0, 2.0, nx) for _ in range(k)]
    factors, factor_of = [], solver.dpttrf

    def recording(d, e, **options):
        *factor, info = factor_of(d, e, **options)
        factors.append(factor)
        return (*factor, info)

    monkeypatch.setattr(solver, "dpttrf", recording)
    forward_traces(1.3, 0.7, 2.0, gammas, data, grid, ("right",))
    for gamma in gammas:
        forward_traces(1.3, 0.7, 2.0, [gamma], data, grid, ("right",))
    (d, e), own = factors[0], factors[1:]
    assert d.shape == (k * nx,) and e.shape == (k * nx - 1,)
    joins = np.arange(1, k) * nx - 1
    assert np.all(e[joins] == 0.0)
    for j, (d_own, e_own) in enumerate(own):
        assert d[j * nx:(j + 1) * nx].tobytes() == d_own.tobytes()
        assert e[j * nx:(j + 1) * nx - 1].tobytes() == e_own.tobytes()


@pytest.mark.parametrize("node, row", [(0, 0), (-1, 20)])
def test_a_step_matrix_that_is_not_positive_definite_stops_before_any_level(node, row):
    # alpha > 0 for every admissible gamma, so only the private loop can be
    # handed a step matrix whose boundary row 1 + dt alpha / 2 is negative;
    # dpttrf's info is the failing row counted from 1, the first or the last
    # of member 3
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    k, nx = 5, grid.nx
    alphas = np.ones((k, nx))
    alphas[3, node] = -3.0 / grid.dt
    u, ut = np.zeros((2, k, nx)), np.zeros((2, k, nx))
    utt = np.ones((2, k, nx))
    sources = iter([0.0])
    with pytest.raises(ForwardSolveError,
                       match=f"^step matrix of member 3 is not positive definite: "
                             f"dpttrf info {3 * nx + row + 1}$"):
        solver._march(1.0, 1.0, alphas, u, ut, utt, sources, grid)
    assert next(sources) == 0.0
    assert np.all(u == 0.0) and np.all(ut == 0.0) and np.all(utt == 1.0)


def _pivoted_lu(monkeypatch):
    """Patch the solver's SPD factor and solve with LU with partial pivoting
    (dgttrf/dgttrs) on the same symmetric tridiagonal matrix."""
    monkeypatch.setattr(solver, "dpttrf", lambda d, e, **options: dgttrf(e, d, e))
    monkeypatch.setattr(solver, "dpttrs", lambda *factor, overwrite_b: dgttrs(
        *factor, overwrite_b=overwrite_b))


@pytest.mark.parametrize("nx, nt", [(21, 41), (201, 401)])
@pytest.mark.parametrize("case", ["corner", "no corner", "source"])
def test_the_spd_factor_moves_the_solution_by_rounding_only(monkeypatch, nx, nt, case):
    # LDL^T and pivoted LU (which never pivots on this diagonally dominant
    # matrix) round differently, so the fields and traces move in their last
    # bits.  Largest moves measured here, relative to each array's largest
    # value: 3.7e-13 on u_tt (201x401 with the source), 2.7e-15 on u_t,
    # 7.6e-16 on u and 3.4e-15 on the traces
    grid = build_grid(0.0, 1.0, nx, 1.25, nt)
    c, b, box_bound = 1.0, 1.0, 1.0
    gammas = [0.4 + 0.3 * np.sin(np.pi * grid.x), np.full(nx, box_bound), np.zeros(nx)]
    sine = np.sin(np.pi * grid.x)
    u2 = {"corner": np.ones(nx), "no corner": 0.3 * sine, "source": np.ones(nx)}[case]
    data = InitialData(np.zeros(nx), 0.5 * sine, u2)
    coeffs = MGTCoefficients(c, b, gammas[0], box_bound)
    f = manufactured_solution(grid, coeffs)[1] if case == "source" else None

    def solve():
        traj = solve_forward(coeffs, data, f, grid)
        traces = forward_traces(c, b, box_bound, gammas, data, grid, ("left", "right"))
        return traj.u, traj.ut, traj.utt, traces

    spd = solve()
    _pivoted_lu(monkeypatch)
    for got, want in zip(spd, solve()):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
