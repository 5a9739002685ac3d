import functools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from mgt_inverse import functional
from mgt_inverse.carleman import (CarlemanGeometry, CarlemanScales,
                                  CarlemanSetup, admissible_geometry)
from mgt_inverse.functional import CarlemanLeastSquares, MinimizationError
from mgt_inverse.grid import build_grid, time_difference, trapezoid_weights
from mgt_inverse.observation import build_mu, extract_observation
from mgt_inverse.reconstruct import (IterateRecord, ReconstructionConfig,
                                     ReconstructionError, contraction_ratios,
                                     project_to_box,
                                     reconstruction_step, run_reconstruction,
                                     run_scale_sweep, synthetic_observations,
                                     weighted_coefficient_error)
from mgt_inverse.solver import InitialData, solve_forward

GEO = CarlemanGeometry(-0.1, 0.9, 2.5)


def make_config(nx, nt, s=2.0, lam=0.5, **kwargs):
    grid = build_grid(0.0, 1.0, nx, 1.25, nt)
    geometry = admissible_geometry(GEO, grid)
    setup = CarlemanSetup(geometry, CarlemanScales(lam, s))
    init = InitialData(np.zeros(nx), np.zeros(nx), np.ones(nx), eta=1.0)
    return ReconstructionConfig(grid, 1.0, 1.0, 1.0, init, setup, **kwargs)


def canonical_gamma(grid):
    return 0.4 + 0.3 * np.sin(np.pi * grid.x)


def least_squares_backward_error(engine, mu, g, y):
    """Normwise backward error ||M^T r|| / (||M||_F ||r||) of y as a least-squares
    solution, M being the engine's stacked weighted operator."""
    r = engine.weighted_data(mu, g) - engine.operator @ y
    return float(np.linalg.norm(engine.operator.T @ r)
                 / (spla.norm(engine.operator, "fro") * np.linalg.norm(r)))


def test_project_to_box_reference_values():
    out = project_to_box(np.array([1.7, -0.2, 0.3]), 1.0)
    assert np.array_equal(out, [1.0, 0.0, 0.3])
    inside = np.array([0.0, 0.25, 1.0])
    assert np.array_equal(project_to_box(inside, 1.0), inside)
    with pytest.raises(ValueError):
        project_to_box(inside, 0.0)


def test_projection_is_nonexpansive_nodewise():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(scale=2.0, size=40)
        b = rng.normal(scale=2.0, size=40)
        gap = np.abs(project_to_box(a, 1.0) - project_to_box(b, 1.0))
        assert np.all(gap <= np.abs(a - b) + 1e-15)


def test_config_validation():
    nx = 31
    good = make_config(nx, 61)
    assert good.sides == ("right",)
    bad_init = InitialData(np.zeros(nx), np.zeros(nx), np.ones(nx))
    with pytest.raises(ValueError, match="eta"):
        make_config_with_init(bad_init)
    with pytest.raises(ValueError, match="max_iterations"):
        make_config(nx, 61, max_iterations=0)
    with pytest.raises(ValueError, match="refinement"):
        make_config(nx, 61, data_refinement=0)
    with pytest.raises(ValueError, match="^inadmissible observation geometry: .*beta"):
        grid = build_grid(0.0, 1.0, nx, 1.25, 61)
        setup = CarlemanSetup(CarlemanGeometry(-0.1, 0.5, 2.5, ("right",)),
                              CarlemanScales(0.5, 2.0))
        init = InitialData(np.zeros(nx), np.zeros(nx), np.ones(nx), eta=1.0)
        ReconstructionConfig(grid, 1.0, 1.0, 1.0, init, setup)


def make_config_with_init(init):
    nx = init.u0.shape[0]
    grid = build_grid(0.0, 1.0, nx, 1.25, 61)
    geometry = admissible_geometry(GEO, grid)
    setup = CarlemanSetup(geometry, CarlemanScales(0.5, 2.0))
    return ReconstructionConfig(grid, 1.0, 1.0, 1.0, init, setup)


def test_weighted_error_properties():
    config = make_config(41, 81)
    grid = config.grid
    gamma = canonical_gamma(grid)
    assert weighted_coefficient_error(gamma, gamma, config.carleman, grid) == 0.0
    e = weighted_coefficient_error(gamma, np.zeros(grid.nx), config.carleman, grid)
    assert e > 0.0
    # boundary nodes carry no weight: changing them leaves the error alone
    bumped = gamma.copy()
    bumped[0] += 5.0
    bumped[-1] -= 5.0
    e_bumped = weighted_coefficient_error(bumped, np.zeros(grid.nx), config.carleman, grid)
    assert e_bumped == pytest.approx(e, rel=1e-14)


def test_synthetic_data_same_grid_is_exact_and_noise_is_seeded():
    config = make_config(31, 61, data_refinement=1)
    gamma = canonical_gamma(config.grid)
    plain = synthetic_observations(config, gamma)
    assert [obs.side for obs in plain] == ["right"]
    assert plain[0].samples.shape == (config.grid.nt,)

    noisy_config = make_config(31, 61, data_refinement=1, noise_level=0.01, noise_seed=7)
    first = synthetic_observations(noisy_config, gamma)
    second = synthetic_observations(noisy_config, gamma)
    assert np.array_equal(first[0].samples, second[0].samples)
    assert not np.array_equal(first[0].samples, plain[0].samples)


def test_refined_data_differs_from_same_grid_data():
    coarse = make_config(31, 61, data_refinement=1)
    refined = make_config(31, 61, data_refinement=2)
    gamma = canonical_gamma(coarse.grid)
    obs1 = synthetic_observations(coarse, gamma)[0]
    obs2 = synthetic_observations(refined, gamma)[0]
    assert obs1.samples.shape == obs2.samples.shape
    gap = np.abs(obs1.samples - obs2.samples).max()
    assert 0.0 < gap < 0.1 * np.abs(obs1.samples).max()


def test_fixed_point_with_same_grid_data():
    config = make_config(31, 61, data_refinement=1)
    gamma_true = canonical_gamma(config.grid)
    data = synthetic_observations(config, gamma_true)
    gamma_next, diagnostics = reconstruction_step(gamma_true, data, config)
    assert np.abs(gamma_next - gamma_true).max() <= 1e-8
    assert diagnostics.solver_iterations == 0


def test_run_stops_immediately_on_zero_coefficient():
    config = make_config(31, 61, data_refinement=1)
    report = run_reconstruction(config, np.zeros(config.grid.nx))
    assert report.stop_reason == "converged"
    assert report.iterations == 1
    assert np.array_equal(report.gamma, np.zeros(config.grid.nx))
    assert report.history[0].weighted_error_sq == 0.0


def oracle_reconstruction_step(gamma_k: np.ndarray, gamma_true,
                               config: ReconstructionConfig) -> np.ndarray:
    """Coefficient update with the minimizer replaced by the exact difference
    trajectory.

    v = d/dt (u(gamma_k) - u(gamma_true)) solves the gamma_k operator equation
    with source (gamma_true - gamma_k) * d/dt u_tt(gamma_true) and initial
    triple (0, 0, (gamma_true - gamma_k) u2), so its initial acceleration is
    (gamma_true - gamma_k) u2 and a single update lands on gamma_true up to
    the discretization error of the forward scheme.  The acceleration is read
    from the computed velocity states with the one-sided closure, which keeps
    the extraction second-order in the time step.
    """
    grid = config.grid
    gamma_true = np.asarray(gamma_true, dtype=float)
    gamma_k = np.asarray(gamma_k, dtype=float)
    delta = gamma_true - gamma_k
    true_traj = solve_forward(config.coefficients(gamma_true), config.init, None, grid)
    source = delta[None, :] * time_difference(true_traj.utt, grid.dt, 1)
    zero = np.zeros(grid.nx)
    v_init = InitialData(zero, zero, delta * config.init.u2)
    v_traj = solve_forward(config.coefficients(gamma_k), v_init, source, grid)
    vtt0 = time_difference(v_traj.ut, grid.dt, 1)[0]
    return project_to_box(gamma_k + vtt0 / config.init.u2, config.box_bound)


def test_oracle_step_recovers_coefficient_at_two_grids():
    for nx, nt in ((51, 201), (101, 401)):
        config = make_config(nx, nt)
        grid = config.grid
        gamma_true = 0.5 * np.sin(np.pi * grid.x)
        recovered = oracle_reconstruction_step(np.zeros(nx), gamma_true, config)
        qx = trapezoid_weights(nx, grid.h)
        err = np.sqrt(float(qx @ (recovered - gamma_true) ** 2))
        scale = np.sqrt(float(qx @ gamma_true ** 2))
        assert err <= 5.0 * (grid.h ** 2 + grid.dt ** 2) * scale


def test_oracle_step_from_truth_is_second_order_small():
    config = make_config(51, 201)
    gamma_true = 0.5 * np.sin(np.pi * config.grid.x)
    recovered = oracle_reconstruction_step(gamma_true, gamma_true, config)
    assert np.abs(recovered - gamma_true).max() <= 1e-12


@functools.lru_cache(maxsize=1)
def short_run():
    config = make_config(51, 61, s=2.0, lam=0.3, data_refinement=1,
                         max_iterations=6, solver_tol=1e-6, solver_cap=300000)
    gamma_true = canonical_gamma(config.grid)
    return config, gamma_true, run_reconstruction(config, gamma_true)


def test_each_coefficient_is_assembled_once(monkeypatch):
    counts = {"assemble": 0, "solve": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for attr, name in (("__init__", "assemble"), ("update_gamma", "assemble"),
                       ("solve_normal_equations", "solve")):
        monkeypatch.setattr(CarlemanLeastSquares, attr,
                            counted(name, getattr(CarlemanLeastSquares, attr)))
    config = make_config(31, 61, lam=0.3, data_refinement=1, max_iterations=3,
                         solver_cap=300000)
    report = run_reconstruction(config, canonical_gamma(config.grid))
    assert report.iterations == 3
    # one solve per outer step, one assembly per coefficient solved with
    assert counts == {"assemble": 3, "solve": 3}


def test_first_step_reduces_weighted_error():
    _, _, report = short_run()
    errors = [rec.weighted_error_sq for rec in report.history]
    assert errors[1] < errors[0]


def test_iterates_stay_in_box_and_history_is_consistent():
    config, gamma_true, report = short_run()
    assert report.history[0].step_change is None
    assert report.history[0].diagnostics is None
    for rec in report.history:
        assert rec.gamma.min() >= 0.0
        assert rec.gamma.max() <= config.box_bound
    for k, rec in enumerate(report.history):
        assert rec.iteration == k
        recomputed = weighted_coefficient_error(rec.gamma, gamma_true,
                                                config.carleman, config.grid)
        assert rec.weighted_error_sq == pytest.approx(recomputed, rel=1e-12)
    for rec in report.history[1:]:
        assert rec.step_change >= 0.0
        assert rec.diagnostics.solver_iterations > 0


def test_ratios_match_recorded_errors():
    _, _, report = short_run()
    errors = [rec.weighted_error_sq for rec in report.history]
    expected = [b / a for a, b in zip(errors, errors[1:])]
    assert report.ratios == pytest.approx(expected, rel=1e-15)
    assert contraction_ratios(report.history) == pytest.approx(expected, rel=1e-15)


def scaled_reconstruction(scale):
    config = make_config(21, 41, max_iterations=4)
    nx = config.grid.nx
    init = InitialData(np.zeros(nx), np.zeros(nx), np.full(nx, scale), eta=scale)
    return run_reconstruction(replace(config, init=init), canonical_gamma(config.grid))


@functools.lru_cache(maxsize=1)
def unscaled_reconstruction():
    return scaled_reconstruction(1.0)


@settings(max_examples=6, deadline=None)
@given(j=st.integers(min_value=-20, max_value=20))
def test_reconstruction_is_invariant_under_power_of_two_data_scaling(j):
    # the data are linear in (u2, eta) and the update divides by u2; a power
    # of two scales every trace, minimizer and norm exactly, so nothing moves
    # (a factor of 3.7 moves the iterates by about 4e-13)
    report = scaled_reconstruction(2.0 ** j)
    reference = unscaled_reconstruction()
    assert report.iterations == reference.iterations == 4
    for record, expected in zip(report.history, reference.history):
        assert np.array_equal(record.gamma, expected.gamma)
    assert report.ratios == reference.ratios


def test_contraction_ratios_reference_cases():
    assert contraction_ratios([2.0, 2.0, 2.0]) == pytest.approx([1.0, 1.0])
    geometric = [8.0 * 0.5 ** k for k in range(5)]
    assert contraction_ratios(geometric) == pytest.approx([0.5] * 4)
    guarded = contraction_ratios([0.0, 1.0])
    assert len(guarded) == 1 and np.isnan(guarded[0])
    records = [IterateRecord(0, np.zeros(3), None, None, None)]
    with pytest.raises(ValueError, match="gamma_true"):
        contraction_ratios(records)


def test_reconstruction_error_preserves_partial_history():
    config = make_config(31, 61, data_refinement=1, solver_cap=3)
    gamma_true = canonical_gamma(config.grid)
    with pytest.raises(ReconstructionError, match="iteration 1") as excinfo:
        run_reconstruction(config, gamma_true)
    history = excinfo.value.history
    assert len(history) == 1
    assert history[0].iteration == 0


def test_failed_first_assembly_raises_reconstruction_error_with_the_start_record():
    # weight span 696 decades, under the overflow guard, yet too wide for the
    # 51x401 normal matrix
    config = make_config(51, 401, s=9.2, lam=1.0, data_refinement=1)
    gamma_true = canonical_gamma(config.grid)
    with pytest.raises(ReconstructionError, match="^iteration 1: normal matrix") as excinfo:
        run_reconstruction(config, gamma_true)
    assert isinstance(excinfo.value.__cause__, MinimizationError)
    history = excinfo.value.history
    assert len(history) == 1
    assert history[0].iteration == 0 and not history[0].gamma.any()
    assert history[0].weighted_error_sq == weighted_coefficient_error(
        np.zeros(config.grid.nx), gamma_true, config.carleman, config.grid)


@pytest.mark.parametrize("field, value", [("solver_cap", 0), ("solver_cap", 2.5),
                                          ("solver_cap", -5), ("smooth_window", -4),
                                          ("smooth_window", 1.5), ("smooth_window", 2)])
def test_config_rejects_bad_solver_cap_and_smooth_window(field, value):
    # rejected before any forward solve, as the config schema rejects them
    with pytest.raises(ValueError, match=field):
        make_config(31, 61, **{field: value})


def test_missing_side_and_data_requirements():
    config = make_config(31, 61, data_refinement=1)
    gamma_true = canonical_gamma(config.grid)
    with pytest.raises(ValueError, match="right"):
        reconstruction_step(np.zeros(config.grid.nx), [], config)
    with pytest.raises(ValueError, match="gamma_true"):
        run_reconstruction(config)


def test_scale_sweep_shares_data_and_reports_means():
    config = make_config(41, 61, lam=0.3, data_refinement=1, max_iterations=2,
                         solver_tol=1e-5, solver_cap=300000)
    gamma_true = canonical_gamma(config.grid)
    entries = run_scale_sweep(config, gamma_true, s_values=(2.0, 4.0))
    assert [entry.s for entry in entries] == [2.0, 4.0]
    for entry in entries:
        assert entry.report.iterations >= 1
    with pytest.raises(ValueError, match="no s values"):
        run_scale_sweep(config, gamma_true, s_values=())


def first_criterion_5_solve(s):
    """Criterion 5's datum at scale s and the engine, trace targets and
    interior target of its first outer step, which solves from gamma = 0."""
    config = make_config(51, 101, s=s, lam=1.0, data_refinement=2, solver_tol=1e-6)
    grid = config.grid
    data = synthetic_observations(config, canonical_gamma(grid))
    coeffs = config.coefficients(np.zeros(grid.nx))
    traj = solve_forward(coeffs, config.init, None, grid)
    mu = [build_mu(extract_observation(traj, obs.side), obs) for obs in data]
    g = np.zeros((grid.nt, grid.nx))
    return config, CarlemanLeastSquares(coeffs, config.carleman, grid), mu, g


@pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
def test_first_criterion_5_solve_has_small_backward_error(s):
    config, engine, mu, g = first_criterion_5_solve(s)
    y, _, rel = engine.solve_normal_equations(engine.weighted_data(mu, g), config.solver_tol)
    assert rel <= config.solver_tol
    # node-by-node blocks left 2.3e-8 to 2.5e-8 at s = 2 and 4
    assert least_squares_backward_error(engine, mu, g, y) <= 1e-8


def test_group_blocks_halve_node_block_lsmr_iterations(monkeypatch):
    # criterion 5's first solve at s = 2, LSMR preconditioned once by one
    # block per node and once by the seven-node groups
    config = make_config(51, 101, s=2.0, lam=1.0, data_refinement=2, solver_tol=1e-6)
    grid = config.grid
    data = synthetic_observations(config, canonical_gamma(grid))
    coeffs = config.coefficients(np.zeros(grid.nx))
    traj = solve_forward(coeffs, config.init, None, grid)
    mu = [build_mu(extract_observation(traj, obs.side), obs) for obs in data]
    iterations = {}
    for nodes in (1, 7):
        monkeypatch.setattr(functional, "_GROUP_NODES", nodes)
        engine = CarlemanLeastSquares(coeffs, config.carleman, grid)
        _, iterations[nodes], rel = engine.solve_normal_equations(
            engine.weighted_data(mu, np.zeros((grid.nt, grid.nx))), config.solver_tol)
        assert rel <= config.solver_tol
    assert iterations[7] <= iterations[1] // 2, iterations


@pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
def test_solve_returns_its_first_certified_iterate(s):
    config, engine, mu, g = first_criterion_5_solve(s)
    b = engine.weighted_data(mu, g)
    _, iterations, rel = engine.solve_normal_equations(b, config.solver_tol)
    assert rel <= config.solver_tol
    # one iteration fewer does not meet the certificate
    with pytest.raises(MinimizationError, match="backward error"):
        engine.solve_normal_equations(b, config.solver_tol, max_iterations=iterations - 1)
    if s == 1.0:
        # half the 149 iterations LSMR's own stop tests took on this solve
        assert iterations <= 74


def test_every_error_map_column_is_certified():
    # criterion 5's datum on its own grid, so gamma_true is an exact fixed
    # point; each column of the update's Jacobian perturbs one interior node.
    # LSMR's compatible-system test stopped the columns j = 21...41 after 3-4
    # iterations at backward errors of 6e-3 to 1.3e-2.
    config = make_config(51, 101, s=2.0, lam=1.0, data_refinement=1, solver_tol=1e-6)
    gamma_true = canonical_gamma(config.grid)
    data = synthetic_observations(config, gamma_true)
    engine = CarlemanLeastSquares(config.coefficients(gamma_true), config.carleman,
                                  config.grid)
    for j in range(1, config.grid.nx - 1):
        gamma = gamma_true.copy()
        gamma[j] += 1e-4
        _, diagnostics = reconstruction_step(gamma, data, config, engine=engine)
        assert diagnostics.el_residual <= config.solver_tol, j
