import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from mgt_inverse import solver
from mgt_inverse.grid import build_grid, discrete_norms
from mgt_inverse.observation import extract_observation
from mgt_inverse.solver import (InitialData, MGTCoefficients, Trajectory, corner_part,
                                energy_e, manufactured_solution, pde_residual,
                                solve_forward, total_energy, verify_energy_bound,
                                verify_laplacian_bound)


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


def test_initial_data_validation():
    g = canonical_grid()
    with pytest.raises(ValueError):
        InitialData(np.ones(g.nx), np.zeros(g.nx), np.zeros(g.nx))
    with pytest.raises(ValueError):
        InitialData(np.zeros(g.nx), np.zeros(g.nx), np.zeros(g.nx), eta=1.0)
    InitialData(np.zeros(g.nx), np.zeros(g.nx), np.ones(g.nx), eta=1.0)


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
    # and its closed-form normal derivative matches the one-sided stencil
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
    for side, (i0, i1, i2) in (("right", (-1, -2, -3)), ("left", (0, 1, 2))):
        stencil = (3.0 * u[:, i0] - 4.0 * u[:, i1] + u[:, i2]) / (2.0 * h)
        assert np.abs(stencil - part.normal_derivative[side]).max() < 5e-3


def test_corner_part_is_computed_once_per_initial_data(monkeypatch):
    # the corner part does not depend on gamma: solves from one InitialData
    # share it, and match solves that each start from a fresh copy
    calls = []
    original = solver.corner_part

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver, "corner_part", counted)
    grid = build_grid(0.0, 1.0, 41, 1.25, 81)
    data = InitialData(np.zeros(grid.nx), np.zeros(grid.nx), np.ones(grid.nx), eta=1.0)
    gammas = (0.4 + 0.3 * np.sin(np.pi * grid.x), np.full(grid.nx, 0.9))
    shared = [solve_forward(MGTCoefficients(1.0, 1.0, gamma, 1.0), data, None, grid)
              for gamma in gammas]
    assert len(calls) == 1
    for gamma, traj in zip(gammas, shared):
        copy = InitialData(data.u0.copy(), data.u1.copy(), data.u2.copy(), eta=1.0)
        fresh = solve_forward(MGTCoefficients(1.0, 1.0, gamma, 1.0), copy, None, grid)
        for name in ("u", "ut", "utt"):
            assert np.array_equal(getattr(traj, name), getattr(fresh, name))
        assert list(traj.flux_correction) == list(fresh.flux_correction) == ["right", "left"]
        for side, series in fresh.flux_correction.items():
            assert np.array_equal(traj.flux_correction[side], series)
    assert len(calls) == 3

    (part,) = data._corner_parts.values()
    arrays = [getattr(part, f.name) for f in dataclasses.fields(part)
              if isinstance(getattr(part, f.name), np.ndarray)]
    arrays += [*part.normal_derivative.values(), *part.flux_correction.values()]
    assert len(arrays) == 10
    for arr in arrays:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        part.u[1, 1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.u = np.zeros_like(part.u)

    # a different box bound or grid on the same instance recomputes
    solve_forward(MGTCoefficients(1.0, 1.0, gammas[0], 2.0), data, None, grid)
    other = build_grid(0.0, 1.0, 41, 1.0, 81)
    solve_forward(MGTCoefficients(1.0, 1.0, gammas[0], 1.0), data, None, other)
    assert len(calls) == 5
    assert calls[3][2] == 1.0 and calls[4][5] == other
    assert len(data._corner_parts) == 3


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
    rep = verify_energy_bound(solve_forward(co, data, np.zeros((g.nt, g.nx)), g),
                              np.zeros((g.nt, g.nx)), co.b)
    assert np.isfinite(rep.ratio) and rep.ratio > 0 and not rep.growth_flag


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
