import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgt_inverse.grid import build_grid, time_difference
from mgt_inverse.observation import (ObservationData, _moving_average, build_mu,
                                     extract_observation,
                                     hidden_regularity_check,
                                     perturb_with_noise, zero_mu)
from mgt_inverse.solver import (InitialData, MGTCoefficients, Trajectory,
                                manufactured_solution, solve_forward)


def canonical_grid(nx=101, nt=201):
    return build_grid(0.0, 1.0, nx, 1.0, nt)


def constant_coeffs(grid, gamma=0.5):
    return MGTCoefficients(c=1.0, b=1.0, gamma=np.full(grid.nx, gamma), box_bound=1.0)


def solved_manufactured(grid):
    coeffs = constant_coeffs(grid)
    u_exact, f = manufactured_solution(grid, coeffs)
    data = InitialData(u0=u_exact[0],
                       u1=np.zeros(grid.nx),
                       u2=np.zeros(grid.nx))
    return solve_forward(coeffs, data, f, grid), coeffs


def test_extract_matches_closed_form_trace():
    # state sin(pi x) t^3 has normal derivative -pi t^3 at both endpoints
    grid = canonical_grid()
    traj, _ = solved_manufactured(grid)
    expected = -np.pi * grid.t ** 3
    for side in ("left", "right"):
        obs = extract_observation(traj, side)
        assert obs.samples.shape == (grid.nt,)
        assert np.max(np.abs(obs.samples - expected)) < 5e-3 * np.pi


def test_extraction_is_linear():
    grid = canonical_grid(41, 61)
    rng = np.random.default_rng(7)
    u = rng.normal(size=(grid.nt, grid.nx))
    v = rng.normal(size=(grid.nt, grid.nx))
    z = np.zeros_like(u)
    ta = Trajectory(grid, u, z, z)
    tb = Trajectory(grid, v, z, z)
    tc = Trajectory(grid, 2.0 * u - 3.0 * v, z, z)
    for side in ("left", "right"):
        a = extract_observation(ta, side).samples
        b = extract_observation(tb, side).samples
        c = extract_observation(tc, side).samples
        assert np.allclose(c, 2.0 * a - 3.0 * b, atol=1e-12)


def test_observation_validation():
    with pytest.raises(ValueError):
        ObservationData("top", np.zeros(9), 0.1)
    with pytest.raises(ValueError):
        ObservationData("left", np.zeros(3), 0.1)
    for dt in (0.0, math.nan):
        with pytest.raises(ValueError, match="^dt must be positive"):
            ObservationData("left", np.zeros(9), dt)
    for value in (math.nan, math.inf, -math.inf):
        for index in (0, 4):
            samples = np.zeros(9)
            samples[index] = value
            with pytest.raises(ValueError, match="^samples must be finite$"):
                ObservationData("left", samples, 0.1)


def test_noise_scaling_and_determinism():
    obs = ObservationData("right", np.sin(np.linspace(0, 3, 10000)), 1e-3)
    noisy = perturb_with_noise(obs, 0.05, np.random.default_rng(42))
    again = perturb_with_noise(obs, 0.05, np.random.default_rng(42))
    assert np.array_equal(noisy.samples, again.samples)

    resid = noisy.samples - obs.samples
    target = 0.05 * np.abs(obs.samples).max()
    assert abs(resid.std() - target) < 0.1 * target
    assert abs(resid.mean()) < 0.05 * target

    clean = perturb_with_noise(obs, 0.0, np.random.default_rng(1))
    assert np.array_equal(clean.samples, obs.samples)
    for level in (-0.1, math.nan):
        with pytest.raises(ValueError, match="noise level"):
            perturb_with_noise(obs, level, np.random.default_rng(1))


def test_build_mu_differentiates_the_mismatch():
    nt, dt = 101, 0.01
    t = np.arange(nt) * dt
    base = ObservationData("right", 0.3 * np.ones(nt), dt)
    # quadratic mismatch: both difference orders are exact
    shifted = ObservationData("right", base.samples + t ** 2, dt)
    pair = build_mu(shifted, base)
    assert np.allclose(pair.mu, 2.0 * t, atol=1e-10)
    assert np.allclose(pair.mu_t, 2.0 * np.ones(nt), atol=1e-9)

    # swapping the roles flips the sign exactly
    flipped = build_mu(base, shifted)
    assert np.array_equal(pair.mu, -flipped.mu)
    assert np.array_equal(pair.mu_t, -flipped.mu_t)

    # identical observations produce a zero target
    null = build_mu(base, base)
    assert np.all(null.mu == 0.0) and np.all(null.mu_t == 0.0)


def test_build_mu_commutes_with_trace_extraction():
    # differencing the trace in time equals tracing the time derivative:
    # both are linear operators along different axes
    grid = canonical_grid(31, 61)
    rng = np.random.default_rng(3)
    u_a = rng.normal(size=(grid.nt, grid.nx))
    u_b = rng.normal(size=(grid.nt, grid.nx))
    z = np.zeros_like(u_a)
    obs_a = extract_observation(Trajectory(grid, u_a, z, z), "right")
    obs_b = extract_observation(Trajectory(grid, u_b, z, z), "right")
    pair = build_mu(obs_a, obs_b)

    v = time_difference(u_a - u_b, grid.dt, 1)
    direct = extract_observation(Trajectory(grid, v, z, z), "right").samples
    assert np.allclose(pair.mu, direct, atol=1e-10 * max(1.0, np.abs(direct).max()))


def test_build_mu_rejects_mismatched_series():
    a = ObservationData("right", np.zeros(9), 0.1)
    with pytest.raises(ValueError):
        build_mu(a, ObservationData("left", np.zeros(9), 0.1))
    with pytest.raises(ValueError):
        build_mu(a, ObservationData("right", np.zeros(8), 0.1))
    with pytest.raises(ValueError):
        build_mu(a, ObservationData("right", np.zeros(9), 0.2))


def test_build_mu_smoothing_reduces_noise_amplification():
    grid = canonical_grid()
    traj, _ = solved_manufactured(grid)
    clean = extract_observation(traj, "right")
    noisy = perturb_with_noise(clean, 0.02, np.random.default_rng(5))
    rough = build_mu(noisy, clean)
    smooth = build_mu(noisy, clean, smooth_window=9)
    # the true mismatch is pure noise; smoothing must shrink its derivative
    assert np.linalg.norm(smooth.mu) < 0.6 * np.linalg.norm(rough.mu)

    z = zero_mu("right", grid.nt, grid.dt)
    assert np.all(z.mu == 0.0) and z.mu.shape == (grid.nt,)


def test_odd_smooth_windows_keep_a_linear_series_and_even_ones_are_rejected():
    ramp = np.arange(40, dtype=float)
    for window in (0, 1, 3, 5, 9):
        half = window // 2
        inner = slice(half, ramp.size - half)
        assert np.allclose(_moving_average(ramp, window)[inner], ramp[inner],
                           rtol=0.0, atol=1e-12)
    # a centered average over an even window would lag the ramp by half a step
    zero = ObservationData("right", np.zeros(40), 0.1)
    series = ObservationData("right", ramp, 0.1)
    for window in (2, 4):
        with pytest.raises(ValueError, match="smooth_window"):
            build_mu(series, zero, smooth_window=window)


def test_hidden_regularity_finite_and_refinement_stable():
    ratios = []
    for nx, nt in ((51, 101), (101, 201)):
        grid = canonical_grid(nx, nt)
        coeffs = constant_coeffs(grid)
        data = InitialData(u0=np.zeros(grid.nx), u1=np.zeros(grid.nx),
                           u2=np.sin(np.pi * grid.x))
        traj = solve_forward(coeffs, data, None, grid)
        report = hidden_regularity_check(traj, data, None,
                                         [extract_observation(traj, "left"),
                                          extract_observation(traj, "right")])
        assert np.isfinite(report.ratio) and report.ratio > 0
        assert report.data_energy == pytest.approx(0.5, rel=1e-3)
        ratios.append(report.ratio)
    assert abs(ratios[1] - ratios[0]) <= 0.2 * abs(ratios[0])


def test_hidden_regularity_accepts_single_observation_and_adds():
    grid = canonical_grid(51, 101)
    traj, coeffs = solved_manufactured(grid)
    data = InitialData(u0=traj.u[0], u1=np.zeros(grid.nx), u2=np.zeros(grid.nx))
    left = hidden_regularity_check(traj, data, None, [extract_observation(traj, "left")])
    right = hidden_regularity_check(traj, data, None, [extract_observation(traj, "right")])
    both = hidden_regularity_check(traj, data, None, [extract_observation(traj, "left"),
                                                      extract_observation(traj, "right")])
    assert both.trace_energy == pytest.approx(left.trace_energy + right.trace_energy,
                                              rel=1e-12)
    assert left.data_energy == right.data_energy
    with pytest.raises(ValueError):
        hidden_regularity_check(traj, data, None, [])


@settings(max_examples=15, deadline=None)
@given(k=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2 ** 16))
def test_hidden_regularity_ratio_is_invariant_under_data_scaling(k, seed):
    # a norm divided by a squared norm would scale the ratio by 1/k
    grid = canonical_grid(21, 41)
    coeffs = constant_coeffs(grid)
    rng = np.random.default_rng(seed)
    modes = np.array([np.sin((m + 1) * np.pi * grid.x) for m in range(3)])
    u0, u1 = rng.normal(size=3) @ modes, rng.normal(size=3) @ modes
    u2 = rng.normal() + rng.normal(size=3) @ modes
    f = rng.normal(size=(grid.nt, grid.nx))

    def ratio(scale):
        data = InitialData(scale * u0, scale * u1, scale * u2)
        traj = solve_forward(coeffs, data, scale * f, grid)
        return hidden_regularity_check(traj, data, scale * f,
                                       [extract_observation(traj, "left"),
                                        extract_observation(traj, "right")]).ratio

    assert ratio(k) == pytest.approx(ratio(1.0), rel=1e-9)


def test_zero_trajectory_has_zero_trace_energy():
    grid = canonical_grid(31, 61)
    coeffs = constant_coeffs(grid)
    data = InitialData(np.zeros(grid.nx), np.zeros(grid.nx), np.zeros(grid.nx))
    traj = solve_forward(coeffs, data, None, grid)
    report = hidden_regularity_check(traj, data, None,
                                     [extract_observation(traj, "left"),
                                      extract_observation(traj, "right")])
    assert report.trace_energy == 0.0
    assert report.ratio == 0.0
