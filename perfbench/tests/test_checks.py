"""Each correctness check passes on a right result and fails on a wrong one."""

import numpy as np

import checks
from mgt_inverse.carleman import CarlemanGeometry, CarlemanScales, CarlemanSetup
from mgt_inverse.experiments import steep_weight_preset, weight_ratio_report
from mgt_inverse.grid import build_grid
from mgt_inverse.reconstruct import weighted_coefficient_error

GRID = build_grid(0.0, 1.0, 51, 1.25, 101)
SETUP = CarlemanSetup(CarlemanGeometry(-0.1, 0.9, 2.5), CarlemanScales(1.0, 2.0))
TRUTH = 0.4 + 0.3 * np.sin(np.pi * GRID.x)


def errors_towards(limit, steps=6):
    """Weighted errors of iterates halving their distance to ``limit``."""
    return [weighted_coefficient_error((1.0 - 0.5 ** k) * limit, TRUTH, SETUP, GRID)
            for k in range(steps + 1)]


def test_contraction_accepts_iterates_reaching_the_truth():
    assert checks.contraction(errors_towards(TRUTH), "run") == []


def test_contraction_rejects_iterates_settling_off_the_truth():
    assert checks.contraction(errors_towards(TRUTH + 0.2), "run")


def test_contraction_rejects_a_rise_before_the_target():
    errors = [1.0, 0.5, 0.6, 1e-3]
    assert checks.contraction(errors, "run")
    assert checks.contraction([1.0, 0.5, 0.1, 1e-3, 5e-3], "run") == []


def test_residuals_within_rejects_a_solve_above_tolerance():
    assert checks.residuals_within([9.9e-7, 1e-6], 1e-6, "run") == []
    assert checks.residuals_within([9.9e-7, 1.1e-6], 1e-6, "run")
    assert checks.residuals_within([None], 1e-6, "run")


def test_same_bytes_rejects_a_changed_report():
    reference = {}
    assert checks.same_bytes({"report.json": b"1"}, reference, "run") == []
    assert checks.same_bytes({"report.json": b"1"}, reference, "run") == []
    assert checks.same_bytes({"report.json": b"2"}, reference, "run")
    assert checks.same_bytes({"other.json": b"1"}, reference, "run")


def test_zero_data_identity_rejects_an_error_above_1e_12():
    assert checks.zero_data_identity(1.0 + 1e-13, 1.0) == []
    assert checks.zero_data_identity(1.0 + 1e-10, 1.0)


def test_slack_and_minimizer_checks_reject_wrong_signs():
    assert checks.nonnegative(0.0, "slack") == []
    assert checks.nonnegative(-1e-9, "slack")
    assert checks.no_lower_neighbour(1.0, [1.0, 2.0]) == []
    assert checks.no_lower_neighbour(1.0, [2.0, 0.999])


def test_weight_rows_match_the_program_and_reject_a_shifted_row():
    grid, geometry, scales, m0_values = steep_weight_preset()
    rows = [{"m0": r.m0, "log10_ratio": r.log10_ratio}
            for r in weight_ratio_report(grid, geometry, scales, m0_values)]
    assert checks.weight_rows(rows) == []
    assert abs(checks.steep_weight_log10_ratio(0.625) - 340.44) < 0.01
    rows[5] = dict(rows[5], log10_ratio=rows[5]["log10_ratio"] + 1e-3)
    assert checks.weight_rows(rows)
    assert checks.weight_rows(rows[:-1])


def test_manufactured_peak_rejects_a_value_off_t_cubed():
    h, dt = 1.0 / 200, 1.25 / 400
    assert checks.manufactured_peak(1.953149, 1.25, h, dt) == []
    assert checks.manufactured_peak(1.9535, 1.25, h, dt)
    assert checks.manufactured_peak(None, 1.25, h, dt)


def test_positive_finite_rejects_null_zero_and_infinite_ratios():
    assert checks.positive_finite([0.5, 3.0], "ratios") == []
    for bad in ([0.5, None], [0.0], [float("inf")], [-1.0], []):
        assert checks.positive_finite(bad, "ratios")
