import collections
import ctypes
import ctypes.util
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
                              time_derivative_matrix_zero_start, trapezoid_weights)
from mgt_inverse.observation import MuPair
from mgt_inverse.solver import MGTCoefficients
import test_acceptance as acceptance
from test_solver import apply_operator

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
    field = np.pad(y.values, ((1, 0), (1, 1)))
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
    # a NaN or an infinity made the scale of the vanishing checks NaN or
    # infinite, so that both passed
    for bad_value in (np.nan, np.inf, -np.inf):
        for index in ((0, 0), (0, 3), (5, 0), (5, 3)):
            bad = field.copy()
            bad[index] = bad_value
            with pytest.raises(ValueError, match="finite"):
                TrajectoryVariable.from_full_field(bad, grid)
    with pytest.raises(ValueError):
        TrajectoryVariable(grid, np.zeros((3, 3)))


def test_initial_second_derivative():
    grid = build_grid(0.0, 1.0, 21, 1.25, 41)
    zero = TrajectoryVariable(grid, np.zeros((grid.nt - 1, grid.nx - 2)))
    assert np.all(initial_second_derivative(zero, grid.dt) == 0.0)

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
    zero = TrajectoryVariable(grid, np.zeros((grid.nt - 1, grid.nx - 2)))
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
    field = np.pad(y.values, ((1, 0), (1, 1)))
    d1 = time_derivative_matrix_zero_start(grid.nt, grid.dt, 1)
    ly = apply_operator(field, coeffs, grid, zero_start=True)
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
        zero = TrajectoryVariable(grid, np.zeros((grid.nt - 1, grid.nx - 2)))
        assert diag.j_value <= evaluate_J(zero, mu, g, coeffs, setup, grid)
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
    engine = _fresh_shared_width_engine(coeffs, setup, grid)
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


class _CountedProducts:
    """A sparse matrix that counts its products with vectors in ``counts``."""

    def __init__(self, matrix, counts, key):
        self._matrix, self._counts, self._key = matrix, counts, key

    def __matmul__(self, vector):
        self._counts[self._key] += 1
        return self._matrix @ vector

    def __getattr__(self, name):
        return getattr(self._matrix, name)


def _counting_engine(monkeypatch, engine):
    """Count the engine's R^-1 solves and its products with M and M^T."""
    counts = collections.Counter()
    right_solve = engine._right_solve

    def counted_solve(v, trans):
        counts["R^-1" if trans == "T" else "R^-T"] += 1
        return right_solve(v, trans)

    monkeypatch.setattr(engine, "_right_solve", counted_solve)
    for name, key in (("operator", "M"), ("_operator_g", "M"), ("_operator_t", "M^T")):
        monkeypatch.setattr(engine, name, _CountedProducts(getattr(engine, name), counts, key))
    return counts


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_a_solve_makes_one_right_solve_per_iteration(monkeypatch, s):
    # LSMR carries its iterate as y = R^-1 x and updates it from the R^-1 v
    # each iteration solves for anyway, so a certificate makes no R^-1 solve
    grid, coeffs, setup = make_problem(21, 41, s=s)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    counts = _counting_engine(monkeypatch, engine)
    mu, g = random_data(grid, 37)
    b = engine.weighted_data(mu, g)
    for tol in (1e-6, 1e-10):
        counts.clear()
        iterations = engine.solve_normal_equations(b, tol)[1]
        assert iterations > 0 and counts["R^-1"] == iterations
    for cap in (0, 1, 7):
        counts.clear()
        assert engine._lsmr(b, 0.0, cap)[1] == cap
        assert counts["R^-1"] == cap
    # zero data: the certificate of y = 0, no iteration and no R^-1 solve
    counts.clear()
    assert engine.solve_normal_equations(np.zeros_like(b), 1e-8)[1] == 0
    assert counts["R^-1"] == 0


def test_minimize_reads_the_image_of_its_certificate(monkeypatch):
    # the diagnostics take M y from the solve's last certificate: a
    # minimization makes no product with M beyond those of its solve
    grid, coeffs, setup = make_problem(21, 41)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    counts = _counting_engine(monkeypatch, engine)
    for mu, g in (random_data(grid, 41), (None, None)):
        counts.clear()
        engine.solve_normal_equations(engine.weighted_data(mu, g), 1e-8)
        solve_counts = counts.copy()
        counts.clear()
        y, diag = engine.minimize(mu, g, 1e-8)
        assert counts == solve_counts
        image = engine.operator._matrix @ y.to_vector()
        assert diag.v_norm_sq == float(np.sum(image * image))


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
    vec, field = y.to_vector(), np.pad(y.values, ((1, 0), (1, 1)))
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
    # m = 29: groups of 1, 7, 7, 7 and 7 nodes, counted from the observed
    # right end.  The block at that end holds the steepest weights and the
    # trace rows: its forward error is 2e-8 at a residual of 1e-16, so it is
    # held to a small residual, as the whole-width block is, and every other
    # block to a forward error near rounding
    assert m == 29
    rng = np.random.default_rng(29)
    for first, last in ((0, 1), (1, 8), (8, 15), (15, 22), (22, 29)):
        in_group = np.zeros((nt1, m), dtype=bool)
        in_group[:, first:last] = True
        in_group = in_group.ravel()

        def block(w):
            # the factored block R^T R is the group's part of the matrix with
            # its diagonal scaled by 1 + shift; R^-1 R^-T inverts it
            return np.where(in_group, mat @ w, 0.0) + _BLOCK_SHIFT * mat.diagonal() * w

        v = np.where(in_group, rng.normal(size=nt1 * m), 0.0)
        block_image = block(v)
        # the solves take and return vectors in group order
        plan = engine._plan
        solved = engine._right_solve(engine._right_solve(block_image[plan.group_order], "N"),
                                     "T")[plan.position]
        if last < m:
            assert np.allclose(solved, v, rtol=0.0, atol=1e-10)
        else:
            assert (np.linalg.norm(block(solved) - block_image)
                    <= 1e-12 * np.linalg.norm(block_image))


@pytest.mark.parametrize("x0, widths", [
    # right end observed: the full groups at x = 1, the one-node group at x0's end
    (-0.1, [1, 7, 7, 7, 7]),
    # the mirrored geometry: left end observed
    (1.1, [7, 7, 7, 7, 1])])
def test_node_groups_are_counted_from_the_observed_end(x0, widths):
    grid, coeffs, _ = make_problem(31, 61)
    setup = CarlemanSetup(CarlemanGeometry(x0, 0.9, 2.5), CarlemanScales(1.0, 2.0))
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    assert engine.geometry.gamma0_sides == (("right",) if x0 < 0.0 else ("left",))
    assert list(np.diff(engine._plan.bounds) // (grid.nt - 1)) == widths
    # group order lists each group's nodes in turn, time-major within it
    first = engine._plan.group_order[:widths[0] * 2] % (grid.nx - 2)
    assert list(first) == list(range(widths[0])) * 2


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
                                         first._plan.from_right, first._root_weight.tobytes())
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
    # key A, then key B, then key A again on a rebuilt engine, whose pieces
    # are rebuilt because B's replaced them: the second minimizer on A is the
    # first, bit for bit
    grid, coeffs, setup = make_problem(21, 41)
    other = CarlemanSetup(GEO, CarlemanScales(0.5, 1.0))
    mu, g = random_data(grid, 61)
    # an engine memoized by an earlier test would build no pieces below
    functional._shared_engine.cache_clear()
    functional._band_pieces.cache_clear()
    try:
        first, _ = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-10)
        minimize_J(mu, g, coeffs, other, grid, solver_tol=1e-10)
        # the memo keeps both engines; emptied, it builds A's again
        functional._shared_engine.cache_clear()
        again, _ = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-10)
        assert functional._band_pieces.cache_info().misses == 3
        assert np.array_equal(first.values, again.values)
    finally:
        functional._band_pieces.cache_clear()


def _fresh_shared_width_engine(coeffs, setup, grid):
    """A fresh engine on the memoized engine's group width."""
    return CarlemanLeastSquares(coeffs, setup, grid,
                                group_nodes=functional._SHARED_GROUP_NODES)


def _counted_engine_builds(monkeypatch):
    """Empty the engine memo, then record every engine built."""
    functional._shared_engine.cache_clear()
    original = CarlemanLeastSquares.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CarlemanLeastSquares, "__init__", counted)
    return built


def test_minimizations_of_one_problem_share_one_engine(monkeypatch):
    grid, coeffs, setup = make_problem(31, 61)
    mu, g = random_data(grid, 67)
    g2 = g + np.random.default_rng(71).normal(size=g.shape)
    fresh = _fresh_shared_width_engine(coeffs, setup, grid)
    want, want_diag = fresh.minimize(mu, g, 1e-8)
    want2, want_diag2 = fresh.minimize(mu, g2, 1e-8)

    built = _counted_engine_builds(monkeypatch)
    first = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    # equal values in another array are the same problem
    same = MGTCoefficients(coeffs.c, coeffs.b, coeffs.gamma.copy(), coeffs.box_bound)
    second = minimize_J(mu, g, same, setup, grid, solver_tol=1e-8)
    report = minimizer_difference_check(g, g2, mu, coeffs, setup, grid, solver_tol=1e-8)
    assert len(built) == 1
    info = functional._shared_engine.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for y, diag in (first, second):
        assert np.array_equal(y.values, want.values)
        assert diag == want_diag
    assert report.diagnostics_first == want_diag
    assert report.diagnostics_second == want_diag2
    assert report.minimizer_gap == np.abs(want.values - want2.values).max()


def test_another_coefficient_weight_or_grid_builds_another_engine(monkeypatch):
    grid, coeffs, setup = make_problem(21, 41)
    mu, g = random_data(grid, 73)
    shifted = coeffs.with_gamma(np.clip(coeffs.gamma + 0.2, 0.0, 1.0))
    want, _ = _fresh_shared_width_engine(shifted, setup, grid).minimize(mu, g, 1e-8)
    other_grid, other_coeffs, _ = make_problem(13, 25)
    other_mu, other_g = random_data(other_grid, 79)

    built = _counted_engine_builds(monkeypatch)
    minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    y, _ = minimize_J(mu, g, shifted, setup, grid, solver_tol=1e-8)
    assert len(built) == 2
    assert np.array_equal(y.values, want.values)
    minimize_J(mu, g, shifted, CarlemanSetup(GEO, CarlemanScales(0.5, 1.0)), grid,
               solver_tol=1e-8)
    assert len(built) == 3
    minimize_J(other_mu, other_g, other_coeffs, setup, other_grid, solver_tol=1e-8)
    assert len(built) == 4


def test_gamma_edited_in_place_builds_the_new_coefficient_s_engine(monkeypatch):
    grid, coeffs, setup = make_problem(21, 41)
    mu, g = random_data(grid, 83)
    edited = np.clip(coeffs.gamma + 0.2, 0.0, 1.0)
    want, want_diag = _fresh_shared_width_engine(coeffs.with_gamma(edited.copy()), setup,
                                                 grid).minimize(mu, g, 1e-8)

    built = _counted_engine_builds(monkeypatch)
    before, _ = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    coeffs.gamma[:] = edited       # the caller's array, inside the box
    after, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    assert len(built) == 2
    assert np.array_equal(after.values, want.values) and diag == want_diag
    assert not np.array_equal(before.values, after.values)


def test_memoized_engine_is_a_fresh_engine_on_sixteen_node_groups():
    grid, coeffs, setup = make_problem(51, 101)
    mu, g = random_data(grid, 89)
    functional._shared_engine.cache_clear()
    y, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    engine = functional._engine(coeffs, setup, grid)
    # m = 49: groups of 1, 16, 16 and 16 nodes, L stored once (kd = 66)
    assert list(engine._plan.bounds // (grid.nt - 1)) == [0, 1, 17, 33, 49]
    assert engine._block_factor.shape == (67, engine._n_unknowns)
    assert engine._block_factor_upper is None
    fresh = _fresh_shared_width_engine(coeffs, setup, grid)
    assert np.array_equal(engine.operator.data, fresh.operator.data)
    assert np.array_equal(engine._block_factor, fresh._block_factor)
    want, want_diag = fresh.minimize(mu, g, 1e-8)
    assert np.array_equal(y.values, want.values) and diag == want_diag


def test_alternating_between_two_problems_builds_two_engines(monkeypatch):
    # the memo keeps two entries, so a caller that alternates between two
    # coefficients does not assemble and factor on every call
    grid, coeffs, setup = make_problem(21, 41)
    shifted = coeffs.with_gamma(np.clip(coeffs.gamma + 0.2, 0.0, 1.0))
    y = random_variable(grid, 97)
    mu, g = random_data(grid, 101)
    built = _counted_engine_builds(monkeypatch)
    values = [evaluate_J(y, mu, g, (coeffs, shifted)[k % 2], setup, grid)
              for k in range(20)]
    assert len(built) == 2
    assert values[0::2] == [values[0]] * 10 and values[1::2] == [values[1]] * 10
    assert values[0] != values[1]


def test_criterion_2_minimizations_take_few_lsmr_iterations():
    # criterion 2's 20 minimizations at 51x201 on its own data, in its draw
    # order: 26 LSMR iterations in all on the memoized engine's sixteen-node
    # groups counted from the observed end, against 132 on seven-node groups
    # counted from x = 0
    grid = build_grid(0.0, 1.0, 51, 1.25, 201)
    setup = CarlemanSetup(acceptance.GEO, CarlemanScales(1.0, 2.0))
    coeffs = acceptance.canonical_coeffs(grid)
    rng = np.random.default_rng(7)
    for _ in range(20):
        acceptance.random_variable(rng, grid)
    iterations = 0
    for _ in range(20):
        g = rng.normal(size=(grid.nt, grid.nx))
        mu = acceptance.random_mu(rng, grid)
        _, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-6)
        iterations += diag.solver_iterations
    assert iterations <= 26


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


# LSMR to 1e-6 at s = 1 on this datum takes 41 iterations with one-node blocks
# and 37 with seven-node groups; conjugate gradients on the normal equations,
# the solver these two tests were written for, took 4,039 with the diagonal
# alone and 616 with one-node blocks.
def _lsmr_iterations(monkeypatch, nodes):
    grid, coeffs, setup = make_problem(31, 61, s=1.0)
    mu, g = random_data(grid, 1)
    monkeypatch.setattr(functional, "_GROUP_NODES", nodes)
    # a fresh engine: the memoized one of minimize_J is keyed on the problem,
    # not on the group width
    _, diag = CarlemanLeastSquares(coeffs, setup, grid).minimize(mu, g, 1e-6)
    assert diag.el_residual <= 1e-6
    return diag.solver_iterations


def test_block_preconditioner_at_least_halves_cg_iterations(monkeypatch):
    # LSMR takes 37; the bound is far below half the diagonal CG count
    assert _lsmr_iterations(monkeypatch, 7) <= 129


def test_group_preconditioner_halves_node_preconditioner_iterations(monkeypatch):
    # under LSMR the groups no longer halve the one-node count (37 against
    # 41 here; 3 against 94 on criterion 5 at s = 2), but must lower it
    grouped = _lsmr_iterations(monkeypatch, 7)
    single = _lsmr_iterations(monkeypatch, 1)
    assert grouped < single
    assert grouped <= 616 // 2


def test_minimizer_diagnostics_match_the_standalone_objective():
    # J and |y*|_V^2 read from the engine's M and b are the values the
    # standalone functions give at y*, bit for bit: both evaluate the one
    # memoized engine.  The factor-4 slack is approximate, because
    # weighted_data_norms weights the data at s = 1 on its own table.
    for nx, nt in ((31, 61), (51, 201)):
        grid, coeffs, setup = make_problem(nx, nt)
        mu, g = random_data(grid, 43)
        y, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
        norm_sq = v_norm_sq(y, coeffs, setup, grid)
        g_norm, mu_norm = weighted_data_norms(mu, g, setup, grid)
        slack = 4.0 * (g_norm / setup.scales.s + mu_norm) - norm_sq
        assert diag.j_value == evaluate_J(y, mu, g, coeffs, setup, grid)
        assert diag.v_norm_sq == norm_sq
        assert diag.bound_slack == pytest.approx(slack, rel=1e-12)


def test_a_tolerance_that_is_not_positive_and_finite_is_refused():
    # an infinite one would certify y = 0 after no LSMR iteration
    grid, coeffs, setup = make_problem(21, 41)
    mu, g = random_data(grid, 61)
    for tol in (np.inf, np.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="tolerance"):
            minimize_J(mu, g, coeffs, setup, grid, solver_tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            minimizer_difference_check(g, 2.0 * g, mu, coeffs, setup, grid, solver_tol=tol)


def test_unweighted_rows_are_built_once_per_key_and_read_only():
    # one cache per (grid, c, b, sides), whatever the group width; a plan
    # cached by an earlier test would read its rows without a miss
    functional._unweighted_rows.cache_clear()
    functional._pattern_plan.cache_clear()
    functional._shared_engine.cache_clear()
    try:
        grid, coeffs, setup = make_problem(21, 41)
        mu, g = random_data(grid, 47)
        y = random_variable(grid, 53)
        first = CarlemanLeastSquares(coeffs, setup, grid)
        second = CarlemanLeastSquares(coeffs, setup, grid)
        second.update_gamma(np.clip(coeffs.gamma + 0.2, 0.0, 1.0))
        assert functional._unweighted_rows.cache_info().misses == 1
        assert first._plan.fixed is second._plan.fixed
        # the memoized engine's wider groups are another plan on the same rows
        for target in (None, g, 2.0 * g):
            evaluate_J(y, mu, target, coeffs, setup, grid)
        assert functional._unweighted_rows.cache_info().misses == 1

        for rows in (first._plan.fixed, first._plan.alpha_rows):
            for array in (rows.data, rows.indices, rows.indptr):
                with pytest.raises(ValueError):
                    array[0] = 1

        CarlemanLeastSquares(MGTCoefficients(2.0, 1.0, coeffs.gamma, 1.0), setup, grid)
        assert functional._unweighted_rows.cache_info().misses == 2
        other_grid, other_coeffs, _ = make_problem(13, 25)
        v_norm_sq(random_variable(other_grid, 59), other_coeffs, setup, other_grid)
        assert functional._unweighted_rows.cache_info().misses == 3
    finally:
        functional._unweighted_rows.cache_clear()
        functional._pattern_plan.cache_clear()


def test_engines_of_every_group_width_share_one_copy_of_the_unweighted_rows():
    # a seven-node engine, the same engine widened to one group and the
    # memoized sixteen-node engine: three plans, one build of M's rows
    functional._unweighted_rows.cache_clear()
    functional._pattern_plan.cache_clear()
    functional._shared_engine.cache_clear()
    try:
        grid, coeffs, setup, mu, g = _long_solve_problem()
        seven_plan = CarlemanLeastSquares(coeffs, setup, grid)._plan
        widened = CarlemanLeastSquares(coeffs, setup, grid)
        widened.minimize(mu, g, 1e-8)
        widened.update_gamma(np.clip(coeffs.gamma + 0.1, 0.0, 1.0))
        memoized = functional._engine(coeffs, setup, grid)
        plans = (seven_plan, widened._plan, memoized._plan)
        assert [plan.group_nodes for plan in plans] == [7, grid.nx - 2, 16]
        assert functional._pattern_plan.cache_info().misses == 3
        assert functional._unweighted_rows.cache_info().misses == 1
        for plan in plans[1:]:
            assert plan.fixed is seven_plan.fixed and plan.alpha_rows is seven_plan.alpha_rows
    finally:
        functional._unweighted_rows.cache_clear()
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
    vec, field = y.to_vector(), np.pad(y.values, ((1, 0), (1, 1)))

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
    # an engine memoized by an earlier test would build no table below
    functional._shared_engine.cache_clear()
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    assert len(calls) == 1
    calls.clear()
    y_star, _ = engine.minimize(mu, g, 1e-8)
    assert len(calls) == 0
    # the first evaluation of a problem builds its memoized engine and table;
    # evaluations and minimizations of that problem build none
    evaluate_J(y_star, mu, g, coeffs, setup, grid)
    assert len(calls) == 1
    calls.clear()
    v_norm_sq(y_star, coeffs, setup, grid)
    evaluate_J(y_star, None, 2.0 * g, coeffs, setup, grid)
    minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    minimizer_difference_check(g, 2.0 * g, mu, coeffs, setup, grid, solver_tol=1e-8)
    assert len(calls) == 0
    assert functional._shared_engine.cache_info().misses == 1
    # weighted_data_norms takes no coefficients, so it has no engine
    weighted_data_norms(mu, g, setup, grid)
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
    # m = 19: groups of 5, 7 and 7 nodes, counted from the observed right end
    assert m == 19
    end = (node + 2) // 7 * 7 + 5
    start = np.maximum(end - 7, 0)
    width = end - start
    position = nt1 * start + level * width + node - start
    row, col = normal.row, normal.col
    keep = (col >= row) & (start[row] == start[col])
    kd = 4 * 7 + 2
    want = np.zeros((kd + 1, n))
    want[position[col[keep]] - position[row[keep]], position[row[keep]]] = normal.data[keep]

    plan = engine._plan
    pieces = functional._band_pieces(grid, coeffs.c, coeffs.b, engine.geometry.gamma0_sides,
                                     plan.group_nodes, plan.from_right,
                                     engine._root_weight.tobytes())
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


def _outputs_under_one_and_two_blas_threads(script):
    """The script's stdout under OPENBLAS_NUM_THREADS 1 and 2, then with no
    thread variable set, where OpenBLAS takes the machine's core count."""
    src = os.path.dirname(os.path.dirname(mgt_inverse.__file__))
    unset = {name: value for name, value in os.environ.items()
             if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    return [subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True, timeout=120,
                           env={**unset, "PYTHONPATH": src, **threads}).stdout
            for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {})]


def test_minimizer_does_not_depend_on_the_blas_thread_count():
    outputs = _outputs_under_one_and_two_blas_threads(_THREADED_SOLVE)
    assert outputs[0] == outputs[1] == outputs[2]


# criterion 5's datum at s = 1, four outer iterations: the third solve takes
# more than the widening threshold, so the fourth runs on one group over all
# 49 interior nodes (kd = 198).  LAPACK's blocked dpbtrf, left to the BLAS
# threads, factored that band differently under one and two OpenBLAS threads;
# the engine runs it pinned to one.  At 31x61 (kd = 118) dpbtrf did not run
# its blocked update on threads, so a smaller grid would not tell.
_WIDENED_RUN = """
import hashlib
import numpy as np
from mgt_inverse.carleman import CarlemanGeometry, CarlemanScales, CarlemanSetup
from mgt_inverse.grid import build_grid
from mgt_inverse.reconstruct import ReconstructionConfig, run_reconstruction
from mgt_inverse.solver import InitialData
grid = build_grid(0.0, 1.0, 51, 1.25, 101)
init = InitialData(np.zeros(51), np.zeros(51), np.ones(51), eta=1.0)
setup = CarlemanSetup(CarlemanGeometry(-0.1, 0.9, 2.5), CarlemanScales(1.0, 1.0))
config = ReconstructionConfig(grid, 1.0, 1.0, 1.0, init, setup, max_iterations=4,
                              data_refinement=2, solver_tol=1e-6)
report = run_reconstruction(config, 0.4 + 0.3 * np.sin(np.pi * grid.x))
gammas = np.array([record.gamma for record in report.history])
print(hashlib.sha256(gammas.tobytes()).hexdigest(),
      *[record.diagnostics.solver_iterations for record in report.history[1:]])
"""


def test_widened_reconstruction_does_not_depend_on_the_blas_thread_count():
    outputs = _outputs_under_one_and_two_blas_threads(_WIDENED_RUN)
    assert outputs[0] == outputs[1] == outputs[2]
    iterations = [int(word) for word in outputs[0].split()[1:]]
    assert len(iterations) == 4
    threshold = functional._widen_threshold(build_grid(0.0, 1.0, 51, 1.25, 101))
    assert max(iterations[:2]) <= threshold < iterations[2]
    assert iterations[3] <= 10


# The same run to its first whole-width factor: the band (kd = 198) as the
# engine factors it, and LAPACK's dpbtrf of a copy, called with no pin.
_WIDE_FACTOR = """
import hashlib
import numpy as np
from scipy.linalg.lapack import dpbtrf
from mgt_inverse import functional
from mgt_inverse.carleman import CarlemanGeometry, CarlemanScales, CarlemanSetup
from mgt_inverse.grid import build_grid
from mgt_inverse.reconstruct import ReconstructionConfig, run_reconstruction
from mgt_inverse.solver import InitialData
factors = []
def factor(band):
    if not factors and band.shape[0] == 199:
        copy = band.copy(order="F")
        info = engine_factor(band)
        factors.extend([band.copy(), dpbtrf(copy, lower=1)[0]])
        return info
    return engine_factor(band)
engine_factor, functional._band_cholesky = functional._band_cholesky, factor
grid = build_grid(0.0, 1.0, 51, 1.25, 101)
init = InitialData(np.zeros(51), np.zeros(51), np.ones(51), eta=1.0)
setup = CarlemanSetup(CarlemanGeometry(-0.1, 0.9, 2.5), CarlemanScales(1.0, 1.0))
config = ReconstructionConfig(grid, 1.0, 1.0, 1.0, init, setup, max_iterations=4,
                              data_refinement=2, solver_tol=1e-6)
run_reconstruction(config, 0.4 + 0.3 * np.sin(np.pi * grid.x))
print(*[hashlib.sha256(f.tobytes()).hexdigest() for f in factors])
"""


def test_whole_width_factor_does_not_depend_on_the_blas_thread_count():
    outputs = [output.split() for output in
               _outputs_under_one_and_two_blas_threads(_WIDE_FACTOR)]
    assert all(len(output) == 2 for output in outputs)
    # the engine's factor under 1, 2 and the machine's threads; unpinned
    # dpbtrf on one thread gives the same bits
    assert outputs[0][0] == outputs[1][0] == outputs[2][0] == outputs[0][1]


def _long_solve_problem():
    """21x41 at s = 0.5: the first solve to 1e-8 takes 117 LSMR iterations
    on seven-node groups and 75 on sixteen-node ones, both above the
    widening threshold."""
    grid, coeffs, setup = make_problem(21, 41, s=0.5)
    mu, g = random_data(grid, 1)
    return grid, coeffs, setup, mu, g


def test_engine_widens_after_a_long_solve_to_a_fresh_whole_width_engine_s_bits(monkeypatch):
    grid, coeffs, setup, mu, g = _long_solve_problem()
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    _, diag = engine.minimize(mu, g, 1e-8)
    assert diag.solver_iterations > functional._widen_threshold(grid)
    assert engine._plan.group_nodes == 7
    gamma = np.clip(coeffs.gamma + 0.1, 0.0, 1.0)
    engine.update_gamma(gamma)
    # one group over every interior node, its factor stored once
    assert engine._plan.bounds.size == 2
    assert engine._block_factor.shape == (4 * (grid.nx - 2) + 3, engine._n_unknowns)
    assert engine._block_factor_upper is None
    y, diag = engine.minimize(mu, g, 1e-8)
    assert diag.solver_iterations <= 5

    monkeypatch.setattr(functional, "_GROUP_NODES", grid.nx - 2)
    fresh = CarlemanLeastSquares(coeffs.with_gamma(gamma), setup, grid)
    assert np.array_equal(engine.operator.data, fresh.operator.data)
    assert np.array_equal(engine._block_factor, fresh._block_factor)
    want, want_diag = fresh.minimize(mu, g, 1e-8)
    assert np.array_equal(y.values, want.values) and diag == want_diag
    # the engine keeps its width after a short solve
    engine.update_gamma(coeffs.gamma)
    assert engine._plan.bounds.size == 2


# 64 wherever the whole-width band fits, None where it does not
@pytest.mark.parametrize("nx, nt, threshold", [
    (21, 41, 64), (51, 101, 64), (51, 201, 64), (71, 101, 64),
    # one seven-node group is already whole
    (9, 17, None),
    # whole-width bands of 3.9e6, 7.9e6 and 6.4e7 values, above the cap
    (101, 101, None), (101, 201, None), (201, 401, None)])
def test_widening_threshold_grows_with_the_band_and_stops_at_the_cap(nx, nt, threshold):
    assert functional._widen_threshold(build_grid(0.0, 1.0, nx, 1.25, nt)) == threshold


def test_engine_over_the_band_cap_keeps_seven_node_groups(monkeypatch):
    grid, coeffs, setup, mu, g = _long_solve_problem()
    whole = (4 * (grid.nx - 2) + 3) * (grid.nt - 1) * (grid.nx - 2)
    monkeypatch.setattr(functional, "_WIDE_BAND_VALUES", whole - 1)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    _, diag = engine.minimize(mu, g, 1e-8)
    assert diag.solver_iterations > 64
    gamma = np.clip(coeffs.gamma + 0.1, 0.0, 1.0)
    engine.update_gamma(gamma)
    assert engine._plan.group_nodes == 7 and engine._block_factor_upper is not None
    fresh = CarlemanLeastSquares(coeffs.with_gamma(gamma), setup, grid)
    assert np.array_equal(engine._block_factor, fresh._block_factor)
    assert np.array_equal(engine._block_factor_upper, fresh._block_factor_upper)


def test_one_group_engine_keeps_both_factor_storages():
    # seven interior nodes: the seven-node plan is one group, not a widened one
    grid, coeffs, setup = make_problem(9, 17, s=0.5)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    assert engine._plan.bounds.size == 2 and engine._block_factor_upper is not None


def test_thread_setter_lookup_refuses_a_library_without_it():
    with pytest.raises(ImportError, match="openblas_set_num_threads_local"):
        functional._blas_thread_setter(ctypes.util.find_library("c"))


def _small_band(first_diagonal=4.0):
    """A lower band with kd = 3, diagonally dominant unless its first
    diagonal entry is made negative."""
    band = np.zeros((4, 12), order="F")
    band[0], band[1:] = 4.0, -0.5
    band[0, 0] = first_diagonal
    return band


@pytest.mark.parametrize("band, outcome", [
    (_small_band(), 0),
    # dpbtrf stops at column 1
    (_small_band(-4.0), 1),
    (np.ascontiguousarray(_small_band()), ValueError)])
def test_band_cholesky_restores_the_blas_thread_setting(band, outcome):
    # 3 is neither the pin's 1 nor a 2-core machine's default
    previous = functional._set_blas_threads(3)
    try:
        if outcome is ValueError:
            with pytest.raises(ValueError, match="Fortran-ordered"):
                functional._band_cholesky(band)
        else:
            want, want_info = dpbtrf(band, lower=1)
            assert functional._band_cholesky(band) == want_info == outcome
            if outcome == 0:
                assert np.array_equal(band, want)
    finally:
        assert functional._set_blas_threads(previous) == 3


def test_memoized_engine_keeps_its_sixteen_node_groups_after_a_long_solve():
    grid, coeffs, setup, mu, g = _long_solve_problem()
    functional._shared_engine.cache_clear()
    first, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    assert diag.solver_iterations > functional._widen_threshold(grid)
    again, again_diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-8)
    engine = functional._engine(coeffs, setup, grid)
    assert functional._shared_engine.cache_info().misses == 1
    # m = 19: groups of 3 and 16 nodes, the full one at the observed end
    assert engine._plan.group_nodes == 16
    assert list(engine._plan.bounds // (grid.nt - 1)) == [0, 3, 19]
    assert np.array_equal(again.values, first.values) and again_diag == diag


def test_whole_width_preconditioner_inverts_the_shifted_normal_matrix(monkeypatch):
    # one group: R^T R is all of M^T M with its diagonal scaled by 1 + shift,
    # R^-1 the transposed solve with the one stored L.  That matrix is too
    # ill-conditioned for a forward error near rounding, so the solve is held
    # to a small residual.
    grid, coeffs, setup = make_problem(21, 41, s=1.0)
    monkeypatch.setattr(functional, "_GROUP_NODES", grid.nx - 2)
    engine = CarlemanLeastSquares(coeffs, setup, grid)
    assert engine._block_factor_upper is None
    mat = (engine.operator.T @ engine.operator).tocsr()
    plan = engine._plan
    rng = np.random.default_rng(37)
    v = rng.normal(size=engine._n_unknowns)
    shifted = mat + sp.diags(_BLOCK_SHIFT * mat.diagonal())
    image = shifted @ v
    solved = engine._right_solve(engine._right_solve(image[plan.group_order], "N"),
                                 "T")[plan.position]
    assert (np.linalg.norm(shifted @ solved - image)
            <= 1e-12 * np.linalg.norm(image))
    u, w = rng.normal(size=(2, engine._n_unknowns))
    left, right = engine._right_solve(u, "T") @ w, u @ engine._right_solve(w, "N")
    assert abs(left - right) <= 1e-12 * abs(right)
