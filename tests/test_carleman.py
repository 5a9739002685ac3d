import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgt_inverse import carleman
from mgt_inverse.carleman import (CarlemanGeometry, CarlemanScales,
                                  WeightOverflowError, admissible_geometry,
                                  carleman_lhs_rhs,
                                  log_weight, log_weight_table,
                                  normalized_weight_table, phi, separable_lhs_rhs,
                                  weight_statistics)
from mgt_inverse.grid import build_grid, interior_weights, trapezoid_weights
from mgt_inverse.solver import MGTCoefficients
from test_solver import apply_operator

# reference geometry used throughout: domain (0, 1), observation point just
# left of it, T = 1.25
GEO = CarlemanGeometry(x0=-0.1, beta=0.9, m0=2.5)


def canonical_grid(nx=51, nt=101):
    return build_grid(0.0, 1.0, nx, 1.25, nt)


def test_phi_point_values():
    assert phi(1.0, 0.0, GEO) == pytest.approx(3.71, abs=1e-14)
    assert phi(0.9, 1.25, GEO) == pytest.approx(2.09375, abs=1e-14)
    # global minimum over [0,1] x [0,T]: nearest point, latest time
    assert phi(0.0, 1.25, GEO) == pytest.approx(1.10375, abs=1e-14)


def test_admissibility_accepts_reference_geometry():
    geo = admissible_geometry(GEO, canonical_grid())
    assert geo == CarlemanGeometry(GEO.x0, GEO.beta, GEO.m0, gamma0_sides=("right",))


def test_admissibility_rejections():
    grid = canonical_grid()
    for geometry, violation in (
            # beta*T = 1.0 < sup distance 1.1
            (CarlemanGeometry(-0.1, 0.8, 2.5), r"beta\*T"),
            # observation point inside the domain
            (CarlemanGeometry(0.5, 0.9, 2.5), "strictly outside"),
            # offset below the floor beta*T^2 + 1 = 2.40625
            (CarlemanGeometry(-0.1, 0.9, 2.0), "M0"),
            # declared observation boundary misses the required side
            (CarlemanGeometry(-0.1, 0.9, 2.5, gamma0_sides=("left",)), r"\['right'\]")):
        with pytest.raises(ValueError, match="^inadmissible observation geometry: .*" + violation):
            admissible_geometry(geometry, grid)

    # time horizon shorter than the distance to the far endpoint
    with pytest.raises(ValueError, match=r"need T > sup \|x - x0\| = 1.1, got T = 1.0"):
        admissible_geometry(GEO, build_grid(0.0, 1.0, 51, 1.0, 101))


def test_required_side_flips_with_observation_point():
    grid = build_grid(0.0, 1.0, 51, 1.6, 129)
    geo = admissible_geometry(CarlemanGeometry(1.2, 0.9, 3.4), grid)
    assert geo.gamma0_sides == ("left",)


def test_log_weight_values_and_limits():
    scales = CarlemanScales(lam=1.0, s=1.0)
    assert log_weight(1.0, 0.0, GEO, scales) == pytest.approx(2.0 * math.exp(3.71), rel=1e-14)
    # both scales are strictly positive; NaN is refused too
    for lam, s in ((1.0, 0.0), (0.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="positive"):
            CarlemanScales(lam, s)
    # and finite: an infinite scale makes every weight exponent inf
    for lam, s in ((math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive and finite"):
            CarlemanScales(lam, s)
    # lambda -> 0 turns exp(lambda phi) into 1, leaving 2 s
    assert log_weight(0.4, 0.7, GEO, CarlemanScales(1e-12, 3.0)) == pytest.approx(6.0, rel=1e-9)
    with pytest.raises(ValueError):
        CarlemanScales(-1.0, 1.0)
    with pytest.raises(ValueError):
        CarlemanScales(1.0, -0.5)


def test_log_weight_monotone_in_time_and_distance():
    grid = canonical_grid()
    table = log_weight_table(grid, GEO, CarlemanScales(1.0, 2.0))
    assert table.shape == (grid.nt, grid.nx)
    # strictly decreasing in t for every x (beta > 0, t >= 0)
    assert np.all(np.diff(table, axis=0) < 0)
    # strictly increasing with distance from x0, which here means in x
    assert np.all(np.diff(table, axis=1) > 0)


def test_weight_statistics_reference_value():
    stats = weight_statistics(canonical_grid(), GEO, CarlemanScales(1.0, 1.0))
    assert stats.log_max == pytest.approx(2.0 * math.exp(3.71), rel=1e-12)
    assert stats.log_min == pytest.approx(2.0 * math.exp(1.10375), rel=1e-12)
    assert stats.log10_ratio == pytest.approx(32.866, abs=5e-3)
    # a steeper configuration spans tens to thousands of decades; the table
    # statistics stay exact because nothing is ever exponentiated
    tight = build_grid(0.0, 1.0, 41, 1.0, 81)
    sweep = [weight_statistics(tight, CarlemanGeometry(0.0, 1.0, m0), CarlemanScales(3.0, 3.0))
             for m0 in np.linspace(0.0, 2.0, 9)]
    assert all(s.log10_ratio > 40.0 for s in sweep)
    assert sweep[0].log10_ratio == pytest.approx(52.2085, abs=5e-3)
    assert sweep[-1].log10_ratio == pytest.approx(21062.41, abs=0.5)


def test_weight_range_doubles_exactly_with_s():
    grid = canonical_grid()
    for lam in (0.5, 1.0, 3.0):
        base = weight_statistics(grid, GEO, CarlemanScales(lam, 1.7))
        doubled = weight_statistics(grid, GEO, CarlemanScales(lam, 3.4))
        assert doubled.log10_ratio == pytest.approx(2.0 * base.log10_ratio, rel=1e-12)


def test_overflow_guard():
    grid = canonical_grid()
    # span at lam = 1 is 75.68 * s; s = 10 crosses the exp() limit
    normalized_weight_table(grid, GEO, CarlemanScales(1.0, 9.0))
    with pytest.raises(WeightOverflowError) as err:
        normalized_weight_table(grid, GEO, CarlemanScales(1.0, 10.0))
    assert "log_weight max" in str(err.value)

    table = normalized_weight_table(grid, GEO, CarlemanScales(1.0, 2.0))
    assert table.min() == pytest.approx(1.0, abs=0.0)
    assert np.all(np.isfinite(table))


def constant_coeffs(grid, gamma=0.25):
    return MGTCoefficients(c=1.0, b=1.0, gamma=np.full(grid.nx, gamma), box_bound=1.0)


def smooth_field(grid):
    # vanishes on the boundary columns and at t = 0 with zero velocity
    xs = (grid.x - grid.x_left) / (grid.x_right - grid.x_left)
    return np.sin(np.pi * xs)[None, :] * (grid.t ** 2)[:, None]


def test_estimate_evaluation_basic_properties():
    grid = canonical_grid(41, 81)
    coeffs = constant_coeffs(grid)
    scales = CarlemanScales(1.0, 1.0)
    y = smooth_field(grid)

    out = carleman_lhs_rhs(y, coeffs, GEO, scales, grid)
    assert out.lhs > 0
    assert out.rhs_interior > 0
    assert out.rhs_boundary > 0
    assert np.isfinite(out.ratio) and out.ratio > 0

    # quadratic homogeneity on both sides leaves the ratio invariant
    scaled = carleman_lhs_rhs(2.0 * y, coeffs, GEO, scales, grid)
    assert scaled.lhs == pytest.approx(4.0 * out.lhs, rel=1e-12)
    assert scaled.ratio == pytest.approx(out.ratio, rel=1e-12)

    zero = carleman_lhs_rhs(np.zeros((grid.nt, grid.nx)), coeffs, GEO, scales, grid)
    assert zero.lhs == 0.0 and zero.ratio == 0.0


def test_estimate_evaluation_input_validation():
    grid = canonical_grid(21, 41)
    coeffs = constant_coeffs(grid, 0.0)
    scales = CarlemanScales(1.0, 1.0)
    y = smooth_field(grid)

    with pytest.raises(ValueError):
        carleman_lhs_rhs(y[:, :-1], coeffs, GEO, scales, grid)
    bad = y.copy()
    bad[:, 0] = 1.0
    with pytest.raises(ValueError):
        carleman_lhs_rhs(bad, coeffs, GEO, scales, grid)
    bad = y.copy()
    bad[0] = 0.3
    with pytest.raises(ValueError):
        carleman_lhs_rhs(bad, coeffs, GEO, scales, grid)
    with pytest.raises(ValueError):
        carleman_lhs_rhs(y, coeffs, GEO, CarlemanScales(1.0, 0.0), grid)
    # a NaN at level 0 would pass the vanishing check, whose comparisons are all false
    for value in (math.nan, math.inf, -math.inf):
        for entry in ((grid.nt // 2, grid.nx // 2), (0, grid.nx // 2)):
            bad = y.copy()
            bad[entry] = value
            with pytest.raises(ValueError, match="^field must be finite$"):
                carleman_lhs_rhs(bad, coeffs, GEO, scales, grid)


def test_separable_evaluation_input_validation_and_zero_field():
    grid = canonical_grid(21, 41)
    coeffs = constant_coeffs(grid)
    scales = [CarlemanScales(1.0, 1.0)]
    a = grid.t ** 2
    b = np.sin(np.pi * grid.x)
    b[[0, -1]] = 0.0

    def evaluate(*factors):
        return separable_lhs_rhs(factors, coeffs, GEO, scales, grid)

    (zero,), = evaluate((np.zeros(grid.nt), np.zeros(grid.nx)))
    assert zero.lhs == 0.0 and zero.ratio == 0.0
    with pytest.raises(ValueError, match="shapes"):
        evaluate()
    with pytest.raises(ValueError, match="shapes"):
        evaluate((a[1:], b))
    for bad_a, bad_b in ((a + 0.1, b), (a, b + 0.1)):
        with pytest.raises(ValueError, match="must vanish"):
            evaluate((a, b), (bad_a, bad_b))
    for value in (math.nan, math.inf):
        for bad_a, bad_b in ((np.where(grid.t == grid.t[0], value, a), b),
                             (a, np.where(grid.x == grid.x[3], value, b))):
            with pytest.raises(ValueError, match="^factors must be finite$"):
                evaluate((bad_a, bad_b))


def test_estimate_ratio_stable_under_refinement():
    # lambda = 0.5 keeps the weight layer wider than the mesh, so the
    # quadrature converges; steeper weights need far finer grids
    scales = CarlemanScales(0.5, 2.0)
    ratios = []
    for nx, nt in ((41, 81), (81, 161)):
        grid = canonical_grid(nx, nt)
        coeffs = constant_coeffs(grid)
        ratios.append(carleman_lhs_rhs(smooth_field(grid), coeffs, GEO, scales, grid).ratio)
    assert abs(ratios[1] - ratios[0]) <= 0.2 * abs(ratios[0])


def test_estimate_ratio_does_not_grow_with_s():
    grid = canonical_grid(41, 81)
    coeffs = constant_coeffs(grid)
    y = smooth_field(grid)
    ratios = [carleman_lhs_rhs(y, coeffs, GEO, CarlemanScales(0.5, s), grid).ratio
              for s in (1.0, 2.0, 4.0)]
    for a, b in zip(ratios, ratios[1:]):
        assert b <= 1.2 * a


def test_estimate_residual_is_the_operator_stencil_squared():
    # the estimate forms L y from its own y_t and y_tt; it must equal the
    # reference stencil bit for bit, with alpha, c and b all in play
    grid = canonical_grid(21, 41)
    coeffs = MGTCoefficients(c=1.3, b=0.7, gamma=0.4 + 0.3 * np.sin(np.pi * grid.x),
                             box_bound=1.0)
    y = np.random.default_rng(5).normal(size=(grid.nt, grid.nx))
    y[0] = y[:, 0] = y[:, -1] = 0.0
    scales = CarlemanScales(1.0, 2.0)
    weight = normalized_weight_table(grid, admissible_geometry(GEO, grid), scales)
    residual = apply_operator(y, coeffs, grid, zero_start=True) ** 2
    expected = float(trapezoid_weights(grid.nt, grid.dt)
                     @ ((weight * residual) @ interior_weights(grid.nx, grid.h)))
    assert carleman_lhs_rhs(y, coeffs, GEO, scales, grid).rhs_interior == expected


@settings(max_examples=15, deadline=None)
@given(k=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2 ** 16))
def test_estimate_ratio_is_invariant_under_field_scaling(k, seed):
    # both sides are quadratic in y, so lhs / rhs must not see k
    grid = canonical_grid(21, 41)
    coeffs = constant_coeffs(grid)
    scales = CarlemanScales(1.0, 2.0)
    rng = np.random.default_rng(seed)
    modes = np.array([np.sin((m + 1) * np.pi * grid.x) for m in range(3)])
    powers = np.array([grid.t ** (p + 2) for p in range(3)])   # y = y_t = 0 at t = 0
    y = powers.T @ rng.normal(size=(3, 3)) @ modes

    def ratio(scale):
        return carleman_lhs_rhs(scale * y, coeffs, GEO, scales, grid).ratio

    assert ratio(k) == pytest.approx(ratio(1.0), rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(offset=st.floats(min_value=-3.0, max_value=3.0), seed=st.integers(0, 2 ** 16))
def test_estimate_ratio_is_invariant_under_weight_offset(offset, seed):
    # a weight table times e^offset scales both sides alike
    grid = canonical_grid(21, 41)
    coeffs = constant_coeffs(grid)
    scales = CarlemanScales(1.0, 2.0)
    rng = np.random.default_rng(seed)
    modes = np.array([np.sin((m + 1) * np.pi * grid.x) for m in range(3)])
    powers = np.array([grid.t ** (p + 2) for p in range(3)])   # y = y_t = 0 at t = 0
    y = powers.T @ rng.normal(size=(3, 3)) @ modes
    base = carleman_lhs_rhs(y, coeffs, GEO, scales, grid)
    # hypothesis refuses function-scoped fixtures, so no monkeypatch argument
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(carleman, "normalized_weight_table",
                      lambda *args: normalized_weight_table(*args) * np.exp(offset))
        shifted = carleman_lhs_rhs(y, coeffs, GEO, scales, grid)
    assert shifted.lhs == pytest.approx(base.lhs * np.exp(offset), rel=1e-12)
    assert shifted.ratio == pytest.approx(base.ratio, rel=1e-12)
