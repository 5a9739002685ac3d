import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import LinearOperator, lsmr

import mgt_inverse
from mgt_inverse import carleman, functional
from mgt_inverse.carleman import (CarlemanGeometry, CarlemanScales,
                                  CarlemanSetup)
from mgt_inverse.functional import (_BLOCK_SHIFT, CarlemanLeastSquares,
                                    MinimizationError, TrajectoryVariable,
                                    evaluate_J,
                                    initial_second_derivative, minimize_J,
                                    minimizer_difference_check, v_norm_sq,
                                    weighted_data_norms)
from mgt_inverse.grid import (boundary_normal_derivative, build_grid,
                              laplacian_matrix, time_derivative_matrix_zero_start,
                              trapezoid_weights)
from mgt_inverse.observation import MuPair
from mgt_inverse.solver import MGTCoefficients, apply_operator

GEO = CarlemanGeometry(x0=-0.1, beta=0.9, m0=2.5)


def make_problem(nx=41, nt=81, s=2.0, lam=1.0, gamma_amp=0.3):
    grid = build_grid(0.0, 1.0, nx, 1.25, nt)
    gamma = 0.4 + gamma_amp * np.sin(np.pi * grid.x)
    coeffs = MGTCoefficients(c=1.0, b=1.0, gamma=gamma, box_bound=1.0)
    setup = CarlemanSetup(GEO, CarlemanScales(lam, s))
    return grid, coeffs, setup


def random_variable(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return TrajectoryVariable(grid, scale * rng.normal(size=(grid.nt - 1, grid.nx - 2)))


def random_data(grid, seed=1):
    rng = np.random.default_rng(seed)
    mu = [MuPair("right", rng.normal(size=grid.nt), rng.normal(size=grid.nt), grid.dt)]
    g = rng.normal(size=(grid.nt, grid.nx))
    return mu, g


def test_trajectory_variable_roundtrip_and_validation():
    grid = build_grid(0.0, 1.0, 11, 1.25, 21)
    y = random_variable(grid, 3)
    field = y.full_field()
    assert np.all(field[0] == 0.0)
    assert np.all(field[:, 0] == 0.0) and np.all(field[:, -1] == 0.0)
    back = TrajectoryVariable.from_full_field(field, grid)
    assert np.array_equal(back.values, y.values)
    vec = y.to_vector()
    assert np.array_equal(TrajectoryVariable.from_vector(vec, grid).values, y.values)

    bad = field.copy()
    bad[0, 3] = 1.0
    with pytest.raises(ValueError):
        TrajectoryVariable.from_full_field(bad, grid)
    bad = field.copy()
    bad[5, 0] = 1.0
    with pytest.raises(ValueError):
        TrajectoryVariable.from_full_field(bad, grid)
    with pytest.raises(ValueError):
        TrajectoryVariable(grid, np.zeros((3, 3)))


def test_initial_second_derivative():
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    assert np.all(initial_second_derivative(TrajectoryVariable.zero(grid), grid.dt) == 0.0)

    # quadratic-in-time field a(x) t^2 / 2: the recovered acceleration is a(x)
    a = np.sin(2 * np.pi * grid.x) + 0.3
    field = 0.5 * a[None, :] * (grid.t ** 2)[:, None]
    field[:, 0] = field[:, -1] = 0.0
    y = TrajectoryVariable.from_full_field(field, grid)
    rec = initial_second_derivative(y, grid.dt)
    assert rec[0] == 0.0 and rec[-1] == 0.0
    assert np.allclose(rec[1:-1], a[1:-1], atol=1e-10)


def test_objective_zero_and_pure_data_values():
    grid, coeffs, setup = make_problem(21, 41, s=1.5, lam=0.5)
    zero = TrajectoryVariable.zero(grid)
    assert evaluate_J(zero, None, None, coeffs, setup, grid) == 0.0

    _, g = random_data(grid, 2)
    g_norm, _ = weighted_data_norms(None, g, setup, grid)
    value = evaluate_J(zero, None, g, coeffs, setup, grid)
    assert value == pytest.approx(g_norm / (2.0 * setup.scales.s), rel=1e-12)

    mu, _ = random_data(grid, 4)
    _, mu_norm = weighted_data_norms(mu, None, setup, grid)
    value = evaluate_J(zero, mu, None, coeffs, setup, grid)
    assert value == pytest.approx(0.5 * mu_norm, rel=1e-12)


def test_objective_equals_half_graph_norm_at_zero_data():
    grid, coeffs, setup = make_problem(21, 41, s=1.5, lam=0.5)
    for seed in range(5):
        y = random_variable(grid, seed)
        j0 = evaluate_J(y, None, None, coeffs, setup, grid)
        assert j0 == pytest.approx(0.5 * v_norm_sq(y, coeffs, setup, grid), rel=1e-12)


def unweighted_graph_norm_sq(y, coeffs, grid, s):
    # independent quadrature of the same residual and traces with weight one
    field = y.full_field()
    d1 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 1)
    d2 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 2)
    d3 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 3)
    lap = laplacian_matrix(grid)
    ly = (d3 @ field + (d2 @ field) * coeffs.alpha
          - coeffs.c ** 2 * (lap @ field.T).T - coeffs.b * (lap @ (d1 @ field).T).T)
    qt = trapezoid_weights(grid.nt, grid.dt)
    total = (1.0 / s) * float((qt[:, None] * grid.h * ly[:, 1:-1] ** 2).sum())
    trace = (-4.0 * field[:, -2] + field[:, -3]) / (2.0 * grid.h)
    total += float(qt @ (trace ** 2 + (d1 @ trace) ** 2))
    return total


def test_norm_equivalence_with_weight_extremes():
    grid, coeffs, setup = make_problem(21, 41, s=0.5, lam=0.5)
    from mgt_inverse.carleman import weight_statistics
    stats = weight_statistics(grid, GEO, setup.scales)
    spread = np.exp(stats.log_max - stats.log_min)
    for seed in range(5):
        y = random_variable(grid, seed)
        weighted = v_norm_sq(y, coeffs, setup, grid)
        plain = unweighted_graph_norm_sq(y, coeffs, grid, setup.scales.s)
        # normalized weights live in [1, exp(range)]
        assert plain <= weighted * (1 + 1e-12)
        assert weighted <= spread * plain * (1 + 1e-12)


def test_oracle_resampling_objective_decays_under_refinement():
    # sample a smooth exact trajectory, feed the exact operator image and
    # exact traces as data: the objective value is pure stencil error
    values = []
    for nx, nt in ((21, 41), (41, 81)):
        grid, coeffs, setup = make_problem(nx, nt, s=1.0, lam=0.5, gamma_amp=0.0)
        alpha = coeffs.alpha[0]
        k = np.pi
        field = np.sin(k * grid.x)[None, :] * (grid.t ** 3)[:, None]
        field[:, 0] = field[:, -1] = 0.0
        y = TrajectoryVariable.from_full_field(field, grid)
        g = np.sin(k * grid.x)[None, :] * (
            6.0 + 6.0 * alpha * grid.t + coeffs.c ** 2 * k ** 2 * grid.t ** 3
            + 3.0 * coeffs.b * k ** 2 * grid.t ** 2)[:, None]
        mu = [MuPair("right", -k * grid.t ** 3, -3.0 * k * grid.t ** 2, grid.dt)]
        values.append(evaluate_J(y, mu, g, coeffs, setup, grid))
    assert values[1] < values[0] / 8.0


def test_minimize_zero_data_returns_zero():
    grid, coeffs, setup = make_problem(21, 41)
    y, diag = minimize_J(None, None, coeffs, setup, grid)
    assert np.all(y.values == 0.0)
    assert diag.solver_iterations == 0
    assert diag.j_value == 0.0 and diag.el_residual == 0.0


def test_minimize_random_data_diagnostics():
    grid, coeffs, setup = make_problem(41, 81)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    rng = np.random.default_rng(11)
    for seed in (1, 2):
        mu, g = random_data(grid, seed)
        y, diag = engine.minimize(mu, g, 1e-8)
        assert diag.el_residual <= 1e-8
        assert diag.solver_iterations > 0
        # minimality against the zero competitor and local perturbations
        assert diag.j_value <= evaluate_J(TrajectoryVariable.zero(grid), mu, g,
                                          coeffs, setup, grid)
        for _ in range(10):
            delta = TrajectoryVariable(
                grid, 1e-3 * rng.normal(size=(grid.nt - 1, grid.nx - 2)))
            perturbed = TrajectoryVariable(grid, y.values + delta.values)
            assert evaluate_J(perturbed, mu, g, coeffs, setup, grid) >= diag.j_value
        # energy bound with its exact factor 4
        g_norm, mu_norm = weighted_data_norms(mu, g, setup, grid)
        bound_rhs = 4.0 / setup.scales.s * g_norm + 4.0 * mu_norm
        assert diag.bound_slack >= -1e-8 * bound_rhs
        assert diag.v_norm_sq <= bound_rhs


def test_optimality_system_residual_in_random_directions():
    grid, coeffs, setup = make_problem(31, 61)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    mu, g = random_data(grid, 7)
    tol = 1e-9
    y, diag = engine.minimize(mu, g, tol)
    # the normal equations M^T M y = M^T b, rescaled to a unit diagonal:
    # D M^T M D (y / D) = D M^T b
    mat = engine.operator
    normal = (mat.T @ mat).tocsr()
    scale = 1.0 / np.sqrt(normal.diagonal())
    normal_scaled = sp.diags(scale) @ normal @ sp.diags(scale)
    b_hat = scale * (mat.T @ engine.weighted_data(mu, g))
    r_hat = b_hat - normal_scaled @ (y.to_vector() / scale)
    bnorm = np.linalg.norm(b_hat)
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = rng.normal(size=r_hat.size)
        assert abs(v @ r_hat) <= tol * np.linalg.norm(v) * bnorm


def test_objective_is_convex_along_segments():
    grid, coeffs, setup = make_problem(21, 41, s=1.0, lam=0.5)
    mu, g = random_data(grid, 5)
    for seed in range(5):
        ya = random_variable(grid, 2 * seed)
        yb = random_variable(grid, 2 * seed + 1)
        mid = TrajectoryVariable(grid, 0.5 * (ya.values + yb.values))
        j_mid = evaluate_J(mid, mu, g, coeffs, setup, grid)
        j_avg = 0.5 * (evaluate_J(ya, mu, g, coeffs, setup, grid)
                       + evaluate_J(yb, mu, g, coeffs, setup, grid))
        assert j_mid <= j_avg * (1 + 1e-12)


def test_minimizer_invariant_under_weight_rescaling():
    # A constant multiplying every weight scales J but leaves the minimizer
    # unchanged.  Components that carry almost no weight are not pinned down
    # by the quadratic, so agreement is asserted in the metrics the problem
    # controls: the weighted graph norm of the difference and the J value.
    grid, coeffs, setup = make_problem(31, 61)
    mu, g = random_data(grid, 9)
    results = []
    for offset in (-3.0, 0.0, 3.0):
        engine = CarlemanLeastSquares(coeffs, setup, grid)
        # every weight times exp(offset): the square-root weights of M
        engine._root_weight = np.exp(0.5 * offset) * engine._root_weight
        engine._assemble(engine.coeffs)
        y, _ = engine.minimize(mu, g, 1e-10)
        results.append(y)
    base = results[1]
    base_norm = v_norm_sq(base, coeffs, setup, grid)
    base_j = evaluate_J(base, mu, g, coeffs, setup, grid)
    for other in (results[0], results[2]):
        gap = TrajectoryVariable(grid, other.values - base.values)
        assert v_norm_sq(gap, coeffs, setup, grid) <= 1e-10 * base_norm
        assert evaluate_J(other, mu, g, coeffs, setup, grid) == pytest.approx(
            base_j, rel=1e-12)


@functools.lru_cache(maxsize=None)
def rescaled_minimizer(k, offset):
    """Minimizer and diagnostics for data times k and every weight times e^offset."""
    grid, coeffs, setup = make_problem(31, 61)
    mu, g = random_data(grid, 9)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    engine._root_weight = np.exp(0.5 * offset) * engine._root_weight
    engine._assemble(engine.coeffs)
    mu = [MuPair(pair.side, k * pair.mu, k * pair.mu_t, grid.dt) for pair in mu]
    return engine.minimize(mu, k * g, 1e-10)


@settings(max_examples=10, deadline=None)
@given(k=st.floats(min_value=1e-3, max_value=1e3),
       offset=st.floats(min_value=-3.0, max_value=3.0))
def test_certificate_is_met_under_data_and_weight_rescaling(k, offset):
    # the backward error is invariant under both rescalings, so every solve
    # meets the tolerance and returns k times the unscaled minimizer
    grid, coeffs, setup = make_problem(31, 61)
    base, _ = rescaled_minimizer(1.0, 0.0)
    y, diag = rescaled_minimizer(k, offset)
    assert diag.el_residual <= 1e-10
    gap = TrajectoryVariable(grid, y.values - k * base.values)
    assert v_norm_sq(gap, coeffs, setup, grid) <= 1e-8 * k ** 2 * v_norm_sq(
        base, coeffs, setup, grid)


def test_update_gamma_matches_fresh_assembly():
    grid, coeffs, setup = make_problem(21, 41)
    mu, g = random_data(grid, 13)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    new_gamma = np.clip(coeffs.gamma + 0.2, 0.0, 1.0)
    engine.update_gamma(new_gamma)
    fresh = CarlemanLeastSquares(coeffs.with_gamma(new_gamma), setup, grid)
    got, want = engine.operator, fresh.operator
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(engine._block_factor, fresh._block_factor)
    assert np.array_equal(engine._block_factor_upper, fresh._block_factor_upper)
    y_updated, _ = engine.minimize(mu, g, 1e-10)
    y_fresh, _ = fresh.minimize(mu, g, 1e-10)
    assert np.array_equal(y_updated.values, y_fresh.values)


def test_difference_check_shared_target_and_random_targets():
    grid, coeffs, setup = make_problem(31, 61)
    mu, g = random_data(grid, 17)
    report = minimizer_difference_check(g, g, mu, coeffs, setup, grid,
                                        solver_tol=1e-8)
    assert report.bound == 0.0
    assert report.minimizer_gap == 0.0
    assert report.difference_energy == 0.0

    rng = np.random.default_rng(19)
    g2 = g + rng.normal(size=g.shape)
    report = minimizer_difference_check(g, g2, mu, coeffs, setup, grid,
                                        solver_tol=1e-8)
    assert report.bound > 0
    assert report.slack >= -1e-8 * report.bound
    assert report.curvature_constant >= 0.0
    assert np.isfinite(report.curvature_constant)


def test_difference_check_second_minimizer_is_a_cold_solve():
    # the second target is minimized exactly as a first minimize does
    grid, coeffs, setup = make_problem(31, 61)
    mu, g = random_data(grid, 23)
    g2 = g + np.random.default_rng(29).normal(size=g.shape)
    report = minimizer_difference_check(g, g2, mu, coeffs, setup, grid, solver_tol=1e-8)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    y1, diag1 = engine.minimize(mu, g, 1e-8)
    y2, diag2 = engine.minimize(mu, g2, 1e-8)
    assert report.diagnostics_first == diag1
    assert report.diagnostics_second == diag2
    assert report.minimizer_gap == np.abs(y1.values - y2.values).max()


@pytest.mark.parametrize("iterations", [1, 5, 40])
def test_lsmr_loop_follows_scipy_lsmr(iterations):
    # with tol = 0 the loop runs to its cap; scipy's LSMR, with its stop tests
    # off, takes the same iterates up to the order of the norms' sums
    grid, coeffs, setup = make_problem(21, 41, s=1.0)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    mu, g = random_data(grid, 37)
    b = engine.weighted_data(mu, g)
    y, count, _ = engine._lsmr(b, 0.0, iterations)
    assert count == iterations
    preconditioned = LinearOperator(
        engine.operator.shape, dtype=float,
        matvec=lambda z: engine._operator_g @ engine._right_solve(z, "T"),
        rmatvec=lambda r: engine._right_solve(engine._operator_t @ r, "N"))
    z = lsmr(preconditioned, b, atol=0.0, btol=0.0, conlim=0.0, maxiter=iterations)[0]
    reference = engine._right_solve(z, "T")
    # compared in M's image norm: y = R^-1 x carries the conditioning of the
    # factor, whose diagonal spans 15 decades here.  With the band changed by
    # one ulp at random, the two loops' y differed by 0.9e-9 to 5.7e-9
    # relative, their images by at most 9e-16.
    image = engine._operator_g
    assert (np.linalg.norm(image @ (y - reference))
            <= 1e-12 * np.linalg.norm(image @ reference))


def test_non_finite_data_are_rejected_before_lsmr_starts(monkeypatch):
    def no_lsmr(*args, **kwargs):
        raise AssertionError("LSMR ran on non-finite data")

    monkeypatch.setattr(CarlemanLeastSquares, "_lsmr", no_lsmr)
    grid, coeffs, setup = make_problem(21, 41, s=2.0)
    mu, g = random_data(grid, 43)
    for bad in (np.nan, np.inf):
        target = g.copy()
        target[grid.nt // 2, grid.nx // 2] = bad
        with pytest.raises(MinimizationError, match="nan"):
            minimize_J(mu, target, coeffs, setup, grid, solver_tol=1e-8)


def test_nan_data_fails_the_certificate():
    # a NaN backward error is not below the target: the solve must raise, not
    # return a NaN minimizer
    grid, coeffs, setup = make_problem(21, 41, s=2.0)
    mu, g = random_data(grid, 43)
    g[grid.nt // 2, grid.nx // 2] = np.nan
    with pytest.raises(MinimizationError, match="nan"):
        minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)


def test_two_observed_sides_rows_and_objective():
    grid = build_grid(0.0, 1.0, 13, 1.25, 25)
    coeffs = MGTCoefficients(c=1.0, b=1.0, gamma=0.4 + 0.3 * np.sin(np.pi * grid.x),
                             box_bound=1.0)
    setup = CarlemanSetup(CarlemanGeometry(-0.1, 0.9, 2.5, ("left", "right")),
                          CarlemanScales(1.0, 2.0))
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    assert engine.geometry.gamma0_sides == ("left", "right")
    y = random_variable(grid, 47)
    vec, field = y.to_vector(), y.full_field()
    nt, m = grid.nt, grid.nx - 2
    assert engine.operator.shape == (nt * m + 4 * nt, (nt - 1) * m)

    # after the operator rows, each side's trace and its rate, in side order
    unweighted = (engine.operator @ vec) / engine._root_weight
    d1 = time_derivative_matrix_zero_start(nt, grid.dt, 1)
    for k, side in enumerate(("left", "right")):
        trace = boundary_normal_derivative(field, grid, side)
        got = unweighted[nt * m + 2 * k * nt:].reshape(-1, nt)
        for row, want in zip(got, (trace, d1 @ trace)):
            assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)

    rng = np.random.default_rng(53)
    left = MuPair("left", rng.normal(size=nt), rng.normal(size=nt), grid.dt)
    right = MuPair("right", rng.normal(size=nt), rng.normal(size=nt), grid.dt)
    g = rng.normal(size=(nt, grid.nx))
    j_value = evaluate_J(y, [left, right], g, coeffs, setup, grid)
    assert evaluate_J(y, [right, left], g, coeffs, setup, grid) == j_value
    residual = engine.operator @ vec - engine.weighted_data([left, right], g)
    assert abs(0.5 * (residual @ residual) - j_value) <= 1e-12 * j_value


def test_data_validation_and_iteration_cap():
    grid, coeffs, setup = make_problem(21, 41)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    mu, g = random_data(grid, 21)
    [pair] = mu
    with pytest.raises(ValueError):
        engine.weighted_data([MuPair("left", pair.mu, pair.mu_t, grid.dt)], None)
    with pytest.raises(ValueError):
        engine.weighted_data([MuPair("right", pair.mu[:-1], pair.mu_t[:-1], grid.dt)], None)
    with pytest.raises(ValueError):
        engine.weighted_data(mu, g[:, :-1])
    with pytest.raises(MinimizationError):
        engine.solve_normal_equations(engine.weighted_data(mu, g), 1e-9,
                                      max_iterations=1)


def test_trace_targets_must_be_a_list_on_the_grid_time_step():
    grid, coeffs, setup = make_problem(21, 41)
    mu, g = random_data(grid, 21)
    [pair] = mu
    y = random_variable(grid, 3)
    evaluate_J(y, mu, g, coeffs, setup, grid)
    # the pair of another time step is rejected, with both steps named
    off_step = [MuPair(pair.side, pair.mu, pair.mu_t, 123.0)]
    with pytest.raises(ValueError, match=f"123.0 .* {grid.dt}"):
        evaluate_J(y, off_step, g, coeffs, setup, grid)
    with pytest.raises(ValueError, match="time step"):
        CarlemanLeastSquares(coeffs, setup, grid).weighted_data(off_step, g)
    # one form: None or a sequence of pairs, never a bare pair
    with pytest.raises(TypeError):
        evaluate_J(y, pair, g, coeffs, setup, grid)


def test_preconditioner_inverts_each_node_group_block():
    grid, coeffs, setup = make_problem(31, 61, s=1.0)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    nt1, m = grid.nt - 1, grid.nx - 2
    mat = (engine.operator.T @ engine.operator).tocsr()
    # unknowns couple at most four levels and two nodes apart
    coo = mat.tocoo()
    assert np.abs(coo.row // m - coo.col // m).max() == 4
    assert np.abs(coo.row % m - coo.col % m).max() == 2
    # m = 29: groups of 7, 7, 7, 7 and 1 nodes; first, middle and last group
    assert m == 29
    rng = np.random.default_rng(29)
    for first, last in ((0, 7), (14, 21), (28, 29)):
        in_group = np.zeros((nt1, m), dtype=bool)
        in_group[:, first:last] = True
        in_group = in_group.ravel()
        v = np.where(in_group, rng.normal(size=nt1 * m), 0.0)
        # the factored block R^T R is the group's part of the matrix with its
        # diagonal scaled by 1 + shift; R^-1 R^-T inverts it
        block_image = (np.where(in_group, mat @ v, 0.0)
                       + _BLOCK_SHIFT * mat.diagonal() * v)
        # the solves take and return vectors in group order
        plan = engine._plan
        solved = engine._right_solve(engine._right_solve(block_image[plan.group_order], "N"),
                                     "T")[plan.position]
        assert np.allclose(solved, v, rtol=0.0, atol=1e-10)


def test_preconditioner_solves_are_adjoint():
    # R^-1 uses the stored upper band and R^-T the lower one, so they are two
    # different solves; they must still be each other's adjoint
    grid, coeffs, setup = make_problem(31, 61, s=1.0)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    rng = np.random.default_rng(31)
    for _ in range(3):
        u, v = rng.normal(size=(2, engine._n_unknowns))
        left = engine._right_solve(u, "T") @ v
        right = u @ engine._right_solve(v, "N")
        assert abs(left - right) <= 1e-12 * abs(right)


def test_band_pieces_are_built_once_per_weight_table_and_read_only():
    functional._band_pieces.cache_clear()
    try:
        grid, coeffs, setup = make_problem(21, 41)
        first = CarlemanLeastSquares(coeffs, setup, grid)
        # another coefficient on the same key, then an update
        second = CarlemanLeastSquares(coeffs.with_gamma(np.zeros(grid.nx)), setup, grid)
        second.update_gamma(np.clip(coeffs.gamma + 0.2, 0.0, 1.0))
        info = functional._band_pieces.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        pieces = functional._band_pieces(grid, coeffs.c, coeffs.b,
                                         first.geometry.gamma0_sides, first._plan.group_nodes,
                                         first._root_weight.tobytes())
        for array in (pieces.fixed, pieces.mixed, pieces.mixed_t, pieces.alpha):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.ravel()[0] = 1.0
        # another (lambda, s) is another weight table
        CarlemanLeastSquares(coeffs, CarlemanSetup(GEO, CarlemanScales(0.5, 1.0)), grid)
        assert functional._band_pieces.cache_info().misses == 2
    finally:
        functional._band_pieces.cache_clear()


def test_minimizer_is_unchanged_after_another_weight_table():
    # key A, then key B, then key A again (rebuilt if B evicted it): the
    # second minimizer on A is the first, bit for bit
    grid, coeffs, setup = make_problem(21, 41)
    other = CarlemanSetup(GEO, CarlemanScales(0.5, 1.0))
    mu, g = random_data(grid, 61)
    functional._band_pieces.cache_clear()
    try:
        first, _ = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-10)
        minimize_J(mu, g, coeffs, other, grid, solver_tol=1e-10)
        again, _ = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-10)
        assert functional._band_pieces.cache_info().misses >= 2
        assert np.array_equal(first.values, again.values)
    finally:
        functional._band_pieces.cache_clear()


def test_overflowing_band_fails_its_check_without_a_warning():
    # weight span 696 decades at 51x401: 11 band entries overflow, 10 of them
    # on the diagonal; the band check reports it, not a NumPy warning (an
    # error under this suite's filterwarnings)
    grid = build_grid(0.0, 1.0, 51, 1.25, 401)
    coeffs = MGTCoefficients(c=1.0, b=1.0, gamma=np.zeros(grid.nx), box_bound=1.0)
    setup = CarlemanSetup(GEO, CarlemanScales(1.0, 9.2))
    with pytest.raises(MinimizationError, match="^normal matrix has non-finite or "
                                                "non-positive diagonal entries"):
        CarlemanLeastSquares(coeffs, setup, grid)


# LSMR to 1e-6 at s = 1 on this datum took 92 iterations with one-node blocks
# and 86 with seven-node groups; conjugate gradients on the normal equations,
# the solver these two tests were written for, took 4,039 with the diagonal
# alone and 616 with one-node blocks.
def _lsmr_iterations(monkeypatch, nodes):
    grid, coeffs, setup = make_problem(31, 61, s=1.0)
    mu, g = random_data(grid, 1)
    monkeypatch.setattr(functional, "_GROUP_NODES", nodes)
    _, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-6)
    assert diag.el_residual <= 1e-6
    return diag.solver_iterations


def test_block_preconditioner_at_least_halves_cg_iterations(monkeypatch):
    # a bound near LSMR's own 86, far below half the diagonal CG count
    assert _lsmr_iterations(monkeypatch, 7) <= 129


def test_group_preconditioner_halves_node_preconditioner_iterations(monkeypatch):
    # under LSMR the groups no longer halve the one-node count (86 against
    # 92 here; 3 against 94 on criterion 5 at s = 2), but must not raise it
    grouped = _lsmr_iterations(monkeypatch, 7)
    assert grouped <= _lsmr_iterations(monkeypatch, 1)
    assert grouped <= 616 // 2


def test_minimizer_diagnostics_match_the_standalone_objective():
    # J, |y*|_V^2 and the factor-4 slack read from the engine's M and b are
    # the values the standalone functions give at y*
    grid, coeffs, setup = make_problem(31, 61)
    mu, g = random_data(grid, 43)
    y, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    norm_sq = v_norm_sq(y, coeffs, setup, grid)
    g_norm, mu_norm = weighted_data_norms(mu, g, setup, grid)
    slack = 4.0 * (g_norm / setup.scales.s + mu_norm) - norm_sq
    assert diag.j_value == pytest.approx(evaluate_J(y, mu, g, coeffs, setup, grid),
                                         rel=1e-12)
    assert diag.v_norm_sq == pytest.approx(norm_sq, rel=1e-12)
    assert diag.bound_slack == pytest.approx(slack, rel=1e-12)


def test_unweighted_rows_are_built_once_per_key_and_read_only():
    # the rows are part of the pattern plan: one cache holds them
    functional._pattern_plan.cache_clear()
    try:
        grid, coeffs, setup = make_problem(21, 41)
        mu, g = random_data(grid, 47)
        y = random_variable(grid, 53)
        first = CarlemanLeastSquares(coeffs, setup, grid)
        second = CarlemanLeastSquares(coeffs, setup, grid)
        second.update_gamma(np.clip(coeffs.gamma + 0.2, 0.0, 1.0))
        for target in (None, g, 2.0 * g):
            evaluate_J(y, mu, target, coeffs, setup, grid)
        assert functional._pattern_plan.cache_info().misses == 1
        assert first._plan.fixed is second._plan.fixed

        for rows in (first._plan.fixed, first._plan.alpha_rows):
            for array in (rows.data, rows.indices, rows.indptr):
                with pytest.raises(ValueError):
                    array[0] = 1

        CarlemanLeastSquares(MGTCoefficients(2.0, 1.0, coeffs.gamma, 1.0), setup, grid)
        assert functional._pattern_plan.cache_info().misses == 2
        other_grid, other_coeffs, _ = make_problem(13, 25)
        v_norm_sq(random_variable(other_grid, 59), other_coeffs, setup, other_grid)
        assert functional._pattern_plan.cache_info().misses == 3
    finally:
        functional._pattern_plan.cache_clear()


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_assembly_matches_operator_stencil(s):
    # The solve, the objective and the diagnostics all use the rows of M; the
    # stencil, which the Carleman estimate applies, is the reference they must
    # match: the same operator, trace map and quadrature.
    grid, coeffs, setup = make_problem(13, 25, s=s)
    y = random_variable(grid, 31)
    mu, g = random_data(grid, 37)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    vec, field = y.to_vector(), y.full_field()

    def assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # M's rows divided by their square-root weights: L y at every level and
    # interior node, then the one observed side's trace and its rate
    nt, m = grid.nt, grid.nx - 2
    assert engine.operator.shape == (nt * m + 2 * nt, (nt - 1) * m)
    unweighted = (engine.operator @ vec) / engine._root_weight
    stencil = apply_operator(field, coeffs, grid, zero_start=True)
    assert_close(unweighted[:nt * m], stencil[:, 1:-1].ravel())

    d1 = time_derivative_matrix_zero_start(nt, grid.dt, 1)
    trace = boundary_normal_derivative(field, grid, "right")
    assert_close(unweighted[nt * m:nt * m + nt], trace)
    assert_close(unweighted[nt * m + nt:], d1 @ trace)
    residual = engine.operator @ vec - engine.weighted_data(mu, g)
    weighted_sq = residual @ residual
    j_value = evaluate_J(y, mu, g, coeffs, setup, grid)
    assert abs(0.5 * weighted_sq - j_value) <= 1e-12 * j_value


def test_weight_table_is_built_once_per_assembly_or_evaluation(monkeypatch):
    original = carleman.log_weight_table
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    # the package binds the function under several module names
    for name, module in list(sys.modules.items()):
        if name.startswith("mgt_inverse") and getattr(module, "log_weight_table",
                                                      None) is original:
            monkeypatch.setattr(module, "log_weight_table", counted)

    grid, coeffs, setup = make_problem(21, 41)
    mu, g = random_data(grid, 41)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    assert len(calls) == 1
    calls.clear()
    y_star, _ = engine.minimize(mu, g, 1e-8)
    assert len(calls) == 0
    evaluate_J(y_star, mu, g, coeffs, setup, grid)
    assert len(calls) == 1
    calls.clear()
    minimizer_difference_check(g, 2.0 * g, mu, coeffs, setup, grid, solver_tol=1e-8)
    assert len(calls) == 1


def test_pattern_plan_is_built_once_per_key_shared_and_read_only(monkeypatch):
    functional._pattern_plan.cache_clear()
    try:
        grid, coeffs, setup = make_problem(21, 41)
        first = CarlemanLeastSquares(coeffs, setup, grid)
        original = functional._unweighted_rows
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(functional, "_unweighted_rows", counted)
        # another coefficient and other weights on the same key
        other_setup = CarlemanSetup(GEO, CarlemanScales(0.5, 1.0))
        second = CarlemanLeastSquares(coeffs.with_gamma(np.zeros(grid.nx)), other_setup, grid)
        second.update_gamma(np.clip(coeffs.gamma + 0.2, 0.0, 1.0))
        assert calls == []
        assert functional._pattern_plan.cache_info().misses == 1
        assert second._plan is first._plan
        # the group-order view of M holds the engine's own entries
        assert np.shares_memory(second._operator_g.data, second.operator.data)
        assert not np.shares_memory(second.operator.data, first.operator.data)

        plan, arrays = first._plan, []
        for field in dataclasses.fields(plan):
            value = getattr(plan, field.name)
            if sp.issparse(value):
                arrays += [value.data, value.indices, value.indptr]
            elif isinstance(value, np.ndarray):
                arrays.append(value)
        assert len(arrays) == 17
        assert not any(array.flags.writeable for array in arrays)

        # the group width is part of the key
        monkeypatch.setattr(functional, "_GROUP_NODES", 1)
        CarlemanLeastSquares(coeffs, setup, grid)
        assert functional._pattern_plan.cache_info().misses == 2
        assert len(calls) == 1
    finally:
        functional._pattern_plan.cache_clear()


def test_fresh_assembly_matches_an_explicit_product_and_scatter():
    # M bit for bit against M formed entry by entry.  The band, before its
    # shift and factoring, to rounding against M^T M by one sparse product
    # and each group's band by indexing: the pieces sum each entry in another
    # order.  The factor is that band's, and the upper storage its transpose.
    grid, coeffs, setup = make_problem(21, 41, s=1.0)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    nt1, m = grid.nt - 1, grid.nx - 2
    n = nt1 * m
    fixed, alpha_rows = functional._unweighted_rows(grid, coeffs.c, coeffs.b,
                                                    engine.geometry.gamma0_sides)
    alpha = np.tile(coeffs.alpha[1:-1], nt1)[fixed.indices]
    data = (fixed.data + alpha_rows.data * alpha) * np.repeat(engine._root_weight,
                                                             np.diff(fixed.indptr))
    mat = sp.csr_matrix((data, fixed.indices, fixed.indptr), shape=fixed.shape)
    assert np.array_equal(engine.operator.data, mat.data)

    normal = (mat.T.tocsr() @ mat).tocoo()
    node, level = np.arange(n) % m, np.arange(n) // m
    start = node // 7 * 7
    width = np.minimum(start + 7, m) - start
    position = nt1 * start + level * width + node - start
    row, col = normal.row, normal.col
    keep = (col >= row) & (start[row] == start[col])
    kd = 4 * 7 + 2
    want = np.zeros((kd + 1, n))
    want[position[col[keep]] - position[row[keep]], position[row[keep]]] = normal.data[keep]

    plan = engine._plan
    pieces = functional._band_pieces(grid, coeffs.c, coeffs.b, engine.geometry.gamma0_sides,
                                     plan.group_nodes, engine._root_weight.tobytes())
    band = np.zeros((kd + 1, n), order="F")
    band.ravel(order="F")[plan.slots] = functional._band_values(pieces, plan,
                                                                coeffs.alpha[1:-1])
    # entry (offset, k) couples group-order unknowns k and k + offset
    diagonal = want[0]
    scale = np.ones_like(want)
    for offset in range(kd + 1):
        scale[offset, :n - offset] = np.sqrt(diagonal[:n - offset] * diagonal[offset:])
    assert np.max(np.abs(band - want) / scale) <= 1e-14

    band[0] *= 1.0 + _BLOCK_SHIFT
    factor, info = dpbtrf(band, lower=1)
    assert info == 0
    upper = np.zeros_like(factor)
    for offset in range(kd + 1):
        upper[kd - offset, offset:] = factor[offset, :n - offset]
    assert np.array_equal(engine._block_factor, factor)
    assert np.array_equal(engine._block_factor_upper, upper)


# criterion 2's datum at 51x201: M has 10,251 rows, above the 10,000 entries
# from which OpenBLAS runs a dot product on its threads
_THREADED_SOLVE = """
import hashlib
import numpy as np
from mgt_inverse.carleman import CarlemanGeometry, CarlemanScales, CarlemanSetup
from mgt_inverse.functional import minimize_J
from mgt_inverse.grid import build_grid
from mgt_inverse.observation import MuPair
from mgt_inverse.solver import MGTCoefficients
grid = build_grid(0.0, 1.0, 51, 1.25, 201)
coeffs = MGTCoefficients(1.0, 1.0, 0.4 + 0.3 * np.sin(np.pi * grid.x), 1.0)
setup = CarlemanSetup(CarlemanGeometry(-0.1, 0.9, 2.5), CarlemanScales(1.0, 2.0))
rng = np.random.default_rng(7)
g = rng.normal(size=(grid.nt, grid.nx))
envelope = (grid.t / grid.t_final) ** 2
mu = [MuPair("right", envelope * rng.normal(size=grid.nt),
             envelope * rng.normal(size=grid.nt), grid.dt)]
y, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-6)
print(hashlib.sha256(y.values.tobytes()).hexdigest(), diag.solver_iterations)
"""


def test_minimizer_does_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(mgt_inverse.__file__))
    outputs = [subprocess.run([sys.executable, "-c", _THREADED_SOLVE], capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src,
                                   "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1]
