import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgt_inverse import experiments
from mgt_inverse.carleman import (CarlemanGeometry, CarlemanScales, WeightOverflowError,
                                  carleman_lhs_rhs, weight_statistics)
from mgt_inverse.experiments import (STABILITY_BATCH, PairStability, StabilityReport,
                                     carleman_constant_sweep,
                                     draw_coefficient_sample, draw_field_sample,
                                     stability_two_sided, steep_weight_preset,
                                     weight_ratio_report)
from mgt_inverse.grid import build_grid, time_difference, trapezoid_weights
from mgt_inverse.observation import extract_observation
from mgt_inverse.solver import (ForwardSolveError, InitialData, MGTCoefficients,
                                forward_traces, solve_forward)

GEO = CarlemanGeometry(-0.1, 0.9, 2.5)


def stability_setup(nx=41, nt=81, t_final=0.9):
    grid = build_grid(0.0, 1.0, nx, t_final, nt)
    init = InitialData(np.zeros(nx), np.zeros(nx), np.ones(nx), eta=1.0)
    return grid, init


def test_coefficient_samples_stay_in_box_and_transfer_across_grids():
    rng = np.random.default_rng(2)
    grid = build_grid(0.0, 1.0, 41, 0.9, 81)
    fine = grid.refined(2)
    for _ in range(10):
        sample = draw_coefficient_sample(rng, 1.0)
        coarse_vals = sample.values(grid)
        assert coarse_vals.min() > 0.0 and coarse_vals.max() < 1.0
        assert np.allclose(sample.values(fine)[::2], coarse_vals, atol=1e-13)


def test_field_samples_satisfy_constraints():
    rng = np.random.default_rng(3)
    grid = build_grid(0.0, 1.0, 41, 1.25, 81)
    for _ in range(5):
        sample = draw_field_sample(rng)
        field = sample.values(grid)
        assert field.shape == (grid.nt, grid.nx)
        assert np.all(field[0] == 0.0)
        assert np.all(field[:, 0] == 0.0) and np.all(field[:, -1] == 0.0)
        assert np.abs(field).max() > 0.0
        time, space = sample.factors(grid)
        assert np.array_equal(field, np.outer(time, space))


def test_identical_pair_is_degenerate_and_excluded():
    grid, init = stability_setup()
    gamma = 0.4 + 0.3 * np.sin(np.pi * grid.x)
    other = 0.5 * np.ones(grid.nx)
    report = stability_two_sided([(gamma, gamma), (gamma, other)], init, grid)
    same, diff = report.pairs
    assert same.coeff_norm_sq == 0.0
    assert same.trace_norm_sq == 0.0
    assert math.isnan(same.ratio)
    assert sum(math.isnan(p.ratio) for p in report.pairs) == 1
    assert report.ratio_min == report.ratio_max == diff.ratio
    assert report.c_empirical == max(diff.ratio, 1.0 / diff.ratio)


def test_stability_is_symmetric_in_the_pair():
    grid, init = stability_setup()
    a = 0.3 + 0.2 * np.sin(np.pi * grid.x)
    b = 0.6 * np.ones(grid.nx)
    fwd = stability_two_sided([(a, b)], init, grid).pairs[0]
    rev = stability_two_sided([(b, a)], init, grid).pairs[0]
    assert fwd == rev


def test_quotient_is_locally_linear_in_the_perturbation():
    grid, init = stability_setup()
    base = 0.5 * np.ones(grid.nx)
    delta = 0.2 * np.sin(np.pi * grid.x)
    full = stability_two_sided([(base, base + delta)], init, grid).pairs[0]
    half = stability_two_sided([(base, base + 0.5 * delta)], init, grid).pairs[0]
    assert half.coeff_norm_sq == pytest.approx(0.25 * full.coeff_norm_sq, rel=1e-12)
    assert half.ratio == pytest.approx(full.ratio, rel=0.2)


@settings(max_examples=10, deadline=None)
@given(j=st.integers(min_value=-10, max_value=10), seed=st.integers(0, 2 ** 16))
def test_quotient_scales_with_the_square_of_the_data(j, seed):
    # the traces are linear in the initial data, the coefficients are not; a
    # power of two scales every trace exactly, so the quotient moves by
    # exactly 4^j (a factor of 131.875 moves it by 1.1e-12 relative: the two
    # traces nearly cancel in their difference, which keeps their rounding)
    k = 2.0 ** j
    grid = build_grid(0.0, 1.0, 21, 0.9, 41)
    rng = np.random.default_rng(seed)
    modes = np.array([np.sin((m + 1) * np.pi * grid.x) for m in range(3)])
    u0, u1 = rng.normal(size=3) @ modes, rng.normal(size=3) @ modes
    u2 = 1.0 + rng.normal(scale=0.3, size=3) @ modes
    pairs = [(draw_coefficient_sample(rng, 1.0).values(grid),
              draw_coefficient_sample(rng, 1.0).values(grid)) for _ in range(2)]

    def ratios(scale):
        init = InitialData(scale * u0, scale * u1, scale * u2)
        return np.array([p.ratio for p in stability_two_sided(pairs, init, grid).pairs])

    assert np.array_equal(ratios(k), k ** 2 * ratios(1.0))


def test_aggregate_constant_settles_under_refinement():
    rng = np.random.default_rng(11)
    samples = [(draw_coefficient_sample(rng, 1.0), draw_coefficient_sample(rng, 1.0))
               for _ in range(6)]
    values = []
    for nx, nt in ((41, 81), (81, 161)):
        grid, init = stability_setup(nx, nt)
        pairs = [(sa.values(grid), sb.values(grid)) for sa, sb in samples]
        report = stability_two_sided(pairs, init, grid)
        assert report.ratio_min > 0.0
        assert math.isfinite(report.ratio_max)
        values.append(report.c_empirical)
    assert abs(values[1] - values[0]) <= 0.3 * values[0]


def test_inadmissible_pair_is_rejected_with_its_index():
    grid, init = stability_setup()
    good = 0.5 * np.ones(grid.nx)
    bad = 1.5 * np.ones(grid.nx)
    with pytest.raises(ValueError, match="pair 1"):
        stability_two_sided([(good, good), (good, bad)], init, grid)


def per_pair_stability(gamma_pairs, init, grid, sides=("right",), c=1.0, b=1.0,
                       box_bound=1.0):
    """The campaign as two full solves per pair, each observed by
    extract_observation: the reference the batched campaign is held to."""
    qx = trapezoid_weights(grid.nx, grid.h)
    qt = trapezoid_weights(grid.nt, grid.dt)
    records = []
    quotients = []
    for gamma_a, gamma_b in gamma_pairs:
        ca = MGTCoefficients(c, b, np.asarray(gamma_a, dtype=float), box_bound)
        cb = MGTCoefficients(c, b, np.asarray(gamma_b, dtype=float), box_bound)
        traj_a = solve_forward(ca, init, None, grid)
        traj_b = solve_forward(cb, init, None, grid)
        coeff_sq = float(qx @ (ca.gamma - cb.gamma) ** 2)
        trace_sq = 0.0
        for side in sides:
            d = (extract_observation(traj_a, side).samples
                 - extract_observation(traj_b, side).samples)
            d1 = time_difference(d, grid.dt, 1)
            d2 = time_difference(d, grid.dt, 2)
            trace_sq += float(qt @ (d ** 2 + d1 ** 2 + d2 ** 2))
        if coeff_sq > 0.0:
            quotient = trace_sq / coeff_sq
            quotients.append(quotient)
        else:
            quotient = math.nan
        records.append(PairStability(coeff_sq, trace_sq, quotient))
    if quotients:
        ratio_min = min(quotients)
        ratio_max = max(quotients)
        c_emp = max(ratio_max, 1.0 / ratio_min) if ratio_min > 0 else math.inf
    else:
        ratio_min = ratio_max = c_emp = math.nan
    return StabilityReport(tuple(records), ratio_min, ratio_max, c_emp)


@pytest.mark.parametrize("corner", [True, False])
@pytest.mark.parametrize("sides", [("right",), ("left", "right")])
def test_batched_campaign_equals_the_per_pair_solves(monkeypatch, corner, sides):
    # three pairs more than a batch holds, one of them identical
    grid = build_grid(0.0, 1.0, 41, 0.9, 81)
    u2 = np.ones(grid.nx) if corner else np.sin(np.pi * grid.x)
    init = InitialData(np.zeros(grid.nx), 0.3 * np.sin(2.0 * np.pi * grid.x), u2)
    rng = np.random.default_rng(4)
    pairs = [(draw_coefficient_sample(rng, 1.0).values(grid),
              draw_coefficient_sample(rng, 1.0).values(grid))
             for _ in range(STABILITY_BATCH // 2 + 3)]
    pairs[3] = (pairs[3][0], pairs[3][0])
    sizes = []

    def counted(c, b, box_bound, gammas, *args):
        sizes.append(len(gammas))
        return forward_traces(c, b, box_bound, gammas, *args)

    monkeypatch.setattr(experiments, "forward_traces", counted)
    report = stability_two_sided(pairs, init, grid, sides=sides, c=1.2, b=0.8)
    want = per_pair_stability(pairs, init, grid, sides=sides, c=1.2, b=0.8)
    # repr writes each float's shortest exact form, NaN and -0.0 included
    assert repr(report) == repr(want)
    assert math.isnan(report.pairs[3].ratio)
    assert sizes == [STABILITY_BATCH, 6]


def test_every_pair_is_validated_before_any_solve(monkeypatch):
    grid, init = stability_setup()
    good = 0.5 * np.ones(grid.nx)

    def refuse(*args):
        raise AssertionError("solved before every pair was validated")

    monkeypatch.setattr(experiments, "solve_forward", refuse)
    monkeypatch.setattr(experiments, "forward_traces", refuse)
    with pytest.raises(ValueError, match="^pair 6: gamma must lie in"):
        stability_two_sided([(good, good)] * 6 + [(good, 3.0 * good)], init, grid)


def test_campaign_refuses_batched_traces_that_differ_from_solve_forward(monkeypatch):
    # one ulp on the last sample of the first member is enough
    grid, init = stability_setup()
    gamma = 0.4 + 0.3 * np.sin(np.pi * grid.x)

    def shifted(*args):
        traces = forward_traces(*args)
        traces[0, 0, -1] = np.nextafter(traces[0, 0, -1], np.inf)
        return traces

    monkeypatch.setattr(experiments, "forward_traces", shifted)
    with pytest.raises(ForwardSolveError, match="differ from solve_forward's"):
        stability_two_sided([(gamma, 0.5 * np.ones(grid.nx))], init, grid)


def test_campaign_memory_does_not_grow_with_its_pairs():
    # 201x401 with the corner part cached.  A batch of STABILITY_BATCH
    # members keeps less than one member's full trajectory; the campaign's
    # largest allocation is the one full solve that checks its first member,
    # and twice the pairs do not raise it.  Solving each pair in full held
    # two trajectories at once.
    grid, init = stability_setup(201, 401, 1.25)
    rng = np.random.default_rng(8)
    pairs = [(draw_coefficient_sample(rng, 1.0).values(grid),
              draw_coefficient_sample(rng, 1.0).values(grid)) for _ in range(20)]
    stability_two_sided(pairs[:1], init, grid)      # the corner part and time stencils

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    trajectory = 3 * grid.nt * grid.nx * 8
    members = [gamma for pair in pairs[:STABILITY_BATCH // 2] for gamma in pair]
    assert peak(lambda: forward_traces(1.0, 1.0, 1.0, members, init, grid, ("right",))) \
        < trajectory
    one_solve = peak(lambda: extract_observation(
        solve_forward(MGTCoefficients(1.0, 1.0, pairs[0][0], 1.0), init, None, grid),
        "right"))
    campaign = peak(lambda: stability_two_sided(pairs[:10], init, grid))
    assert campaign < one_solve + trajectory / 8
    assert peak(lambda: stability_two_sided(pairs, init, grid)) < campaign + trajectory / 64


def sweep_inputs(nx=41, nt=81):
    grid = build_grid(0.0, 1.0, nx, 1.25, nt)
    coeffs = MGTCoefficients(1.0, 1.0, 0.4 + 0.3 * np.sin(np.pi * grid.x), 1.0)
    return grid, coeffs


def test_sweep_with_no_samples_is_empty():
    grid, coeffs = sweep_inputs()
    report = carleman_constant_sweep(0, [CarlemanScales(0.5, 1.0)], grid, GEO, coeffs)
    assert report.entries == ()
    assert report.sample_count == 0
    for bad in (-1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="sample_count"):
            carleman_constant_sweep(bad, [], grid, GEO, coeffs)
    assert len(carleman_constant_sweep(2.0, [CarlemanScales(0.5, 1.0)], grid, GEO,
                                       coeffs).entries[0].ratios) == 2
    # no samples still checks the geometry
    with pytest.raises(ValueError, match="^inadmissible observation geometry"):
        carleman_constant_sweep(0, [], grid, CarlemanGeometry(0.5, 0.9, 2.5), coeffs)
    # and every scale pair's weight range, as a sweep with samples does
    for count in (0, 1):
        with pytest.raises(WeightOverflowError, match="log_weight max"):
            carleman_constant_sweep(count, [CarlemanScales(0.5, 1.0), CarlemanScales(3.0, 400.0)],
                                    grid, GEO, coeffs)
    assert carleman_constant_sweep(0, [CarlemanScales(0.5, 1.0), CarlemanScales(0.5, 4.0)],
                                   grid, GEO, coeffs).entries == ()


def test_sweep_refuses_weights_whose_exponents_overflow():
    # lambda = 1000 overflows every exponent to inf, so the span of the
    # exponents is inf - inf = nan, which must fail the range guard
    grid, coeffs = sweep_inputs(21, 41)
    with pytest.raises(WeightOverflowError, match="log_weight max inf"):
        carleman_constant_sweep(2, [CarlemanScales(1000.0, 1.0)], grid, GEO, coeffs)


def test_sweep_ratios_are_finite_and_rhs_is_coercive():
    grid, coeffs = sweep_inputs()
    scales = [CarlemanScales(0.5, s) for s in (1.0, 2.0)]
    report = carleman_constant_sweep(5, scales, grid, GEO, coeffs, seed=5)
    assert len(report.entries) == 2
    for entry in report.entries:
        assert len(entry.ratios) == 5
        assert all(math.isfinite(r) and r > 0.0 for r in entry.ratios)
        assert entry.max_ratio == max(entry.ratios)
        # nonzero constrained fields cannot annihilate the right-hand side
        assert all(rhs > 0.0 for rhs in entry.rhs_values)


@pytest.mark.parametrize("nx, nt, samples", [(41, 81, 8), (201, 401, 3)])
@pytest.mark.parametrize("geometry", [GEO, CarlemanGeometry(1.1, 0.9, 2.5),
                                      CarlemanGeometry(-0.1, 0.9, 2.5, ("left", "right"))],
                         ids=["right", "left", "both"])
def test_sweep_factor_form_is_the_full_field_estimate(nx, nt, samples, geometry):
    # sweep_inputs' gamma is not constant, so the alpha b product counts
    grid, coeffs = sweep_inputs(nx, nt)
    scales = [CarlemanScales(0.5, 1.0), CarlemanScales(0.5, 2.0), CarlemanScales(0.5, 4.0),
              CarlemanScales(1.0, 2.0)]
    report = carleman_constant_sweep(samples, scales, grid, geometry, coeffs, seed=6)
    rng = np.random.default_rng(6)
    fields = [draw_field_sample(rng).values(grid) for _ in range(samples)]
    for entry in report.entries:
        for field, ratio, rhs in zip(fields, entry.ratios, entry.rhs_values, strict=True):
            full = carleman_lhs_rhs(field, coeffs, geometry, entry.scales, grid)
            assert ratio == pytest.approx(full.ratio, rel=1e-10, abs=0.0)
            assert rhs == pytest.approx(full.rhs_interior + full.rhs_boundary, rel=1e-10, abs=0.0)


def test_sweep_is_deterministic_in_the_seed():
    grid, coeffs = sweep_inputs()
    scales = [CarlemanScales(0.5, 2.0)]
    first = carleman_constant_sweep(4, scales, grid, GEO, coeffs, seed=9)
    second = carleman_constant_sweep(4, scales, grid, GEO, coeffs, seed=9)
    third = carleman_constant_sweep(4, scales, grid, GEO, coeffs, seed=10)
    assert first.entries[0].ratios == second.entries[0].ratios
    assert first.entries[0].ratios != third.entries[0].ratios


def test_sweep_overflow_guard_trips_per_scale():
    grid, coeffs = sweep_inputs()
    with pytest.raises(WeightOverflowError):
        carleman_constant_sweep(2, [CarlemanScales(2.0, 50.0)], grid, GEO, coeffs)


def test_weight_report_reference_row():
    grid = build_grid(0.0, 1.0, 51, 1.25, 101)
    rows = weight_ratio_report(grid, GEO, CarlemanScales(1.0, 1.0), [2.5])
    assert rows == (weight_statistics(grid, GEO, CarlemanScales(1.0, 1.0)),)
    assert rows[0].log10_ratio == pytest.approx(32.86597645933857, abs=1e-10)
    assert rows[0].m0 == 2.5
    assert rows[0].log_max > rows[0].log_min


def test_steep_preset_table():
    grid, geometry, scales, m0_values = steep_weight_preset()
    rows = weight_ratio_report(grid, geometry, scales, m0_values)
    assert len(rows) == 17
    assert all(row.log10_ratio > 40.0 for row in rows)
    by_m0 = {row.m0: row for row in rows}
    assert by_m0[0.625].log10_ratio == pytest.approx(340.4421, abs=0.05)
    assert by_m0[0.0].log10_ratio == pytest.approx(52.2085, abs=0.05)
    assert by_m0[2.0].log10_ratio == pytest.approx(21062.41, abs=0.5)
    # the exponent is linear in s, so doubling s doubles every row exactly
    doubled = weight_ratio_report(grid, geometry, CarlemanScales(scales.lam, 2 * scales.s),
                                  m0_values)
    for row, drow in zip(rows, doubled):
        assert drow.log10_ratio == pytest.approx(2.0 * row.log10_ratio, rel=1e-12)


def test_sweep_trend_matrix_at_moderate_steepness():
    grid, coeffs = sweep_inputs()
    scales = [CarlemanScales(0.5, s) for s in (1.0, 2.0, 4.0)]
    report = carleman_constant_sweep(20, scales, grid, GEO, coeffs, seed=0)
    maxima = [entry.max_ratio for entry in report.entries]
    for a, b in zip(maxima, maxima[1:]):
        assert b <= 1.2 * a
