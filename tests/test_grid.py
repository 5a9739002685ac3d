import math

import numpy as np
import pytest
from scipy.integrate import quad

from mgt_inverse.carleman import CarlemanGeometry, CarlemanScales, carleman_lhs_rhs
from mgt_inverse.grid import (apply_laplacian, boundary_normal_derivative, build_grid,
                              discrete_norms, time_derivative_matrix_zero_start,
                              time_difference, zero_start_acceleration)
from mgt_inverse.observation import extract_observation, hidden_regularity_check
from mgt_inverse.solver import (InitialData, MGTCoefficients, Trajectory, solve_forward,
                                verify_energy_bound, verify_laplacian_bound)


def test_build_grid_spacings():
    g = build_grid(0.0, 1.0, 101, 1.25, 501)
    assert g.h == pytest.approx(0.01)
    assert g.dt == pytest.approx(0.0025)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0
    assert g.t[0] == 0.0 and g.t[-1] == 1.25


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(1.0, 0.0, 11, 1.0, 11)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 4, 1.0, 11)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 11, 1.0, 3)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 11, -1.0, 11)
    # every field is named; NaN and infinities are refused, not truncated
    for args, field in (((0.0, math.inf, 11, 1.0, 11), "x_right"),
                        ((-math.inf, 1.0, 11, 1.0, 11), "x_left"),
                        ((0.0, 1.0, 11, math.inf, 11), "t_final"),
                        ((0.0, 1.0, 11, math.nan, 11), "t_final"),
                        ((0.0, 1.0, 11.7, 1.0, 11), "nx"),
                        ((0.0, 1.0, math.nan, 1.0, 11), "nx"),
                        ((0.0, 1.0, 11, 1.0, math.inf), "nt")):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build_grid(*args)
    # integral sizes of any type keep working
    grid = build_grid(0.0, 1.0, np.int64(11), 1.0, 11.0)
    assert (grid.nx, grid.nt) == (11, 11)
    assert type(grid.nx) is int and type(grid.nt) is int
    for factor in (math.nan, math.inf, 0, 1.5):
        with pytest.raises(ValueError, match="^refinement factor"):
            grid.refined(factor)
    assert grid.refined(np.int64(2)).nx == grid.refined(2.0).nx == 21


def test_laplacian_exact_on_quadratic():
    g = build_grid(0.0, 1.0, 41, 1.0, 5)
    lap = apply_laplacian(g.x ** 2, g)
    assert lap[0] == 0.0 and lap[-1] == 0.0
    assert np.allclose(lap[1:-1], 2.0, atol=1e-11)


def test_laplacian_zero_on_constant_and_linear():
    g = build_grid(-1.0, 2.0, 31, 1.0, 5)
    assert np.allclose(apply_laplacian(np.ones(g.nx), g), 0.0, atol=1e-12)
    assert np.allclose(apply_laplacian(3.0 * g.x - 1.0, g), 0.0, atol=1e-10)


def test_laplacian_second_order_on_sine():
    errs = []
    for nx in (51, 101, 201):
        g = build_grid(0.0, 1.0, nx, 1.0, 5)
        got = apply_laplacian(np.sin(np.pi * g.x), g)[1:-1]
        want = -np.pi ** 2 * np.sin(np.pi * g.x[1:-1])
        errs.append(np.abs(got - want).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9


def test_laplacian_linearity():
    g = build_grid(0.0, 1.0, 21, 1.0, 5)
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(g.nx), rng.standard_normal(g.nx)
    left = apply_laplacian(2.5 * a - 0.3 * b, g)
    right = 2.5 * apply_laplacian(a, g) - 0.3 * apply_laplacian(b, g)
    assert np.allclose(left, right, atol=1e-10)


def test_normal_derivative_exact_on_linear_and_quadratic():
    g = build_grid(0.0, 1.0, 21, 1.0, 5)
    assert boundary_normal_derivative(g.x, g, "right") == pytest.approx(1.0)
    assert boundary_normal_derivative(g.x, g, "left") == pytest.approx(-1.0)
    assert boundary_normal_derivative(g.x ** 2, g, "right") == pytest.approx(2.0)
    assert boundary_normal_derivative(g.x ** 2, g, "left") == pytest.approx(0.0, abs=1e-12)
    # a space-time field gives the series over its levels, row by row the same
    levels = np.outer([1.0, -2.0, 0.5], g.x ** 2) + np.outer([0.0, 1.0, 3.0], g.x)
    assert boundary_normal_derivative(levels, g, "right") == pytest.approx([2.0, -3.0, 4.0])
    assert boundary_normal_derivative(levels, g, "left") == pytest.approx([0.0, -1.0, -3.0],
                                                                        abs=1e-12)
    for side in ("left", "right"):
        assert np.array_equal(boundary_normal_derivative(levels, g, side),
                              [boundary_normal_derivative(row, g, side) for row in levels])
    with pytest.raises(ValueError):
        boundary_normal_derivative(np.zeros((3, g.nx + 1)), g, "right")


def test_normal_derivative_sine_second_order():
    errs = []
    for nx in (51, 101):
        g = build_grid(0.0, 1.0, nx, 1.0, 5)
        got = boundary_normal_derivative(np.sin(np.pi * g.x), g, "right")
        errs.append(abs(got - (-np.pi)))
    assert errs[0] < 5e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_time_difference_exact_on_polynomials():
    g = build_grid(0.0, 1.0, 5, 2.0, 41)
    t = g.t
    assert np.allclose(time_difference(t ** 3, g.dt, 3), 6.0, atol=1e-8)
    assert np.allclose(time_difference(t ** 2, g.dt, 2), 2.0, atol=1e-9)
    assert np.allclose(time_difference(t ** 2, g.dt, 1), 2.0 * t, atol=1e-9)
    assert np.allclose(time_difference(t ** 3, g.dt, 2), 6.0 * t, atol=1e-8)


def test_time_difference_orders_on_sine():
    for order in (1, 2, 3):
        errs = []
        for nt in (101, 201, 401):
            g = build_grid(0.0, 1.0, 5, 1.0, nt)
            got = time_difference(np.sin(2.0 * g.t), g.dt, order)
            want = 2.0 ** order * np.sin(2.0 * g.t + order * np.pi / 2.0)
            errs.append(np.abs(got - want).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() > 1.9, f"order {order}: {orders}"


def test_time_difference_rejects_short_series():
    with pytest.raises(ValueError):
        time_difference(np.zeros(4), 0.1, 3)
    with pytest.raises(ValueError):
        time_difference(np.zeros(3), 0.1, 2)
    with pytest.raises(ValueError):
        time_difference(np.zeros(10), 0.1, 4)


def test_time_difference_rejects_a_non_positive_step():
    for dt in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="^dt must be positive"):
            time_difference(np.zeros(10), dt, 1)


def test_h1_trace_norm_of_linear_ramp():
    g = build_grid(0.0, 1.0, 5, 1.0, 501)
    sq = discrete_norms(g.t, g, "h1_trace") ** 2
    # independent quadrature: int t^2 + int 1 over (0,1)
    want = quad(lambda t: t ** 2 + 1.0, 0.0, 1.0)[0]
    assert sq == pytest.approx(want, abs=1e-4)
    assert want == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_l2_norms_simple_fields():
    g = build_grid(0.0, 1.0, 101, 2.0, 101)
    assert discrete_norms(np.ones(g.nx), g, "l2") == pytest.approx(1.0)
    assert discrete_norms(np.ones((g.nt, g.nx)), g, "l2_l2") == pytest.approx(np.sqrt(2.0))


def test_norm_homogeneity_and_triangle():
    g = build_grid(0.0, 1.0, 31, 1.0, 31)
    rng = np.random.default_rng(11)
    for which, shape in (("l2", (g.nx,)), ("l2_l2", (g.nt, g.nx)), ("h1_trace", (g.nt,))):
        for _ in range(100):
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape)
            lam = rng.standard_normal()
            na = discrete_norms(a, g, which)
            nb = discrete_norms(b, g, which)
            assert discrete_norms(lam * a, g, which) == pytest.approx(abs(lam) * na, rel=1e-10)
            assert discrete_norms(a + b, g, which) <= na + nb + 1e-10


def test_norms_reject_bad_usage():
    g = build_grid(0.0, 1.0, 11, 1.0, 21)
    with pytest.raises(ValueError):
        discrete_norms(np.ones(7), g, "l2")
    with pytest.raises(ValueError):
        discrete_norms(np.ones(g.nx), g, "h7_trace")
    with pytest.raises(ValueError):
        discrete_norms(np.ones((g.nx, g.nt)), g, "l2_l2")


def test_stencil_refinement_factor_near_four():
    # halving both spacings should shrink truncation errors by about four
    def lap_err(nx):
        g = build_grid(0.0, 1.0, nx, 1.0, 5)
        got = apply_laplacian(np.sin(np.pi * g.x), g)[1:-1]
        return np.abs(got + np.pi ** 2 * np.sin(np.pi * g.x[1:-1])).max()

    def dt_err(nt):
        g = build_grid(0.0, 1.0, 5, 1.0, nt)
        got = time_difference(np.exp(g.t), g.dt, 2)
        return np.abs(got - np.exp(g.t)).max()

    assert 3.5 <= lap_err(101) / lap_err(201) <= 4.5
    assert 3.5 <= dt_err(101) / dt_err(201) <= 4.5


def test_zero_start_acceleration_is_the_zero_start_stencil_at_level_zero():
    dt = 0.05
    t = dt * np.arange(9)
    series = np.outer(t ** 2 * (1.0 + t), [0.5, -2.0, 3.0])    # zero value and rate at t = 0
    d2 = time_derivative_matrix_zero_start(t.size, dt, 2)
    got = zero_start_acceleration(series[1], dt)
    assert np.allclose(got, (d2 @ series)[0], rtol=1e-14, atol=0.0)
    # 2 y(dt) / dt^2 = 2 (1 + dt) times each amplitude
    assert got == pytest.approx([1.0 + dt, -4.0 - 4.0 * dt, 6.0 + 6.0 * dt], rel=1e-14)


def test_every_empirical_constant_shares_the_zero_denominator_rule():
    # lhs / rhs reads 0 when both sides vanish and inf when rhs alone does
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    coeffs = MGTCoefficients(c=1.0, b=1.0, gamma=np.full(grid.nx, 0.5), box_bound=1.0)
    zero_field = np.zeros((grid.nt, grid.nx))
    estimate = carleman_lhs_rhs(zero_field, coeffs, CarlemanGeometry(-0.1, 0.9, 2.5),
                                CarlemanScales(1.0, 2.0), grid)
    assert (estimate.lhs, estimate.ratio) == (0.0, 0.0)

    zero = np.zeros(grid.nx)
    data = InitialData(zero, zero, zero)
    traj = solve_forward(coeffs, data, zero_field, grid)
    assert verify_energy_bound(traj, zero_field, coeffs.b).ratio == 0.0
    assert verify_laplacian_bound(traj, data, zero_field, coeffs.b).ratio == 0.0
    traces = [extract_observation(traj, side) for side in ("left", "right")]
    assert hidden_regularity_check(traj, data, None, traces).ratio == 0.0

    # a nonzero trace over zero data is unbounded, not 0
    moving = Trajectory(grid, np.outer(grid.t ** 2, np.sin(np.pi * grid.x)),
                        zero_field, zero_field)
    report = hidden_regularity_check(moving, data, None, [extract_observation(moving, "right")])
    assert report.data_energy == 0.0 and report.trace_energy > 0.0
    assert report.ratio == math.inf
