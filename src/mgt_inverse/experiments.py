"""Sampling campaigns for the inequality-type checks.

Three campaigns live here.  ``stability_two_sided`` measures, over a list of
coefficient pairs, the quotient between the squared H2-in-time trace mismatch
on the observed boundary and the squared L2 coefficient mismatch; the largest
and smallest quotients bound the empirical two-sided stability constant.
``carleman_constant_sweep`` draws random constrained fields, each a time
series times a space profile, and evaluates the two sides of the weighted
estimate from those factors across a list of scale pairs.
``weight_ratio_report`` tabulates the dynamic range of the weight across an
offset sweep.  All randomness flows through explicit seeds so every reported
constant is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from .carleman import (CarlemanGeometry, CarlemanScales, WeightStatistics,
                       admissible_geometry, normalized_weight_table, separable_lhs_rhs,
                       weight_statistics)
from .grid import (SpaceTimeGrid, build_grid, sine_sum, time_difference,
                   trapezoid_weights)
from .observation import extract_observation
from .solver import (ForwardSolveError, InitialData, MGTCoefficients, forward_traces,
                     solve_forward)


# ---------------------------------------------------------------------------
# seeded, grid-transferable samples
# ---------------------------------------------------------------------------

# Fourier modes per sample: coefficient sines, field sines in x and cosines in t
COEFFICIENT_MODES = 4
FIELD_X_MODES = 3
FIELD_T_MODES = 3


@dataclass(frozen=True)
class CoefficientSample:
    """Smooth random coefficient described by Fourier data, not grid values.

    values() squashes the raw sine sum through tanh so the result stays
    strictly inside (0, box_bound) on every grid; evaluating the same sample
    on a refined grid samples the same underlying function.
    """

    offset: float
    amplitudes: Tuple[float, ...]
    box_bound: float

    def values(self, grid: SpaceTimeGrid) -> np.ndarray:
        raw = sine_sum(grid, self.amplitudes, self.offset)
        return self.box_bound * 0.5 * (1.0 + np.tanh(raw))


def draw_coefficient_sample(rng: np.random.Generator, box_bound: float) -> CoefficientSample:
    amplitudes = tuple(rng.normal(scale=0.8 / m) for m in range(1, COEFFICIENT_MODES + 1))
    return CoefficientSample(float(rng.normal(scale=0.7)), amplitudes, float(box_bound))


@dataclass(frozen=True)
class FieldSample:
    """Random constrained space-time field, separable by construction: the
    time series a(t) = (t/T)^2 (1 + sum_j t_j cos(j pi t / T)) times the
    sine sum b(x) = sum_m x_m sin(m pi xhat), from ``t_amplitudes`` and
    ``x_amplitudes``.

    ``factors`` gives the pair (a, b) on a grid, with a's level zero and b's
    two ends set to zero: the t^2 factor enforces the zero start value and
    velocity, the sine sum the zero boundary columns.  ``values`` is their
    outer product.
    """

    x_amplitudes: Tuple[float, ...]
    t_amplitudes: Tuple[float, ...]

    def factors(self, grid: SpaceTimeGrid) -> Tuple[np.ndarray, np.ndarray]:
        tau = grid.t / grid.t_final
        profile = np.ones(grid.nt)
        for j, b in enumerate(self.t_amplitudes, start=1):
            profile += b * np.cos(j * np.pi * tau)
        time = tau ** 2 * profile
        space = sine_sum(grid, self.x_amplitudes)
        time[0] = 0.0
        space[[0, -1]] = 0.0
        return time, space

    def values(self, grid: SpaceTimeGrid) -> np.ndarray:
        return np.outer(*self.factors(grid))


def draw_field_sample(rng: np.random.Generator) -> FieldSample:
    xs = tuple(rng.normal(scale=1.0 / m) for m in range(1, FIELD_X_MODES + 1))
    ts = tuple(rng.normal(scale=0.3 / j) for j in range(1, FIELD_T_MODES + 1))
    return FieldSample(xs, ts)


# ---------------------------------------------------------------------------
# two-sided stability sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairStability:
    coeff_norm_sq: float
    trace_norm_sq: float
    # tested against both sides of the two-sided bound, as
    # 1/C <= ratio <= C; nan for a pair of equal coefficients
    ratio: float


@dataclass(frozen=True)
class StabilityReport:
    pairs: Tuple[PairStability, ...]
    ratio_min: float
    ratio_max: float
    c_empirical: float


# members per forward_traces call: ten pairs, so a campaign's memory does not
# grow with its pair count.  Twenty members at 201x401 took 29 ms in one
# batch, 34 ms in batches of 10 and 45 ms in batches of 6 (medians of 15
# interleaved runs on a shared 2-core Xeon).
STABILITY_BATCH = 20


def _trace_h2_mismatch_sq(traces_a: np.ndarray, traces_b: np.ndarray,
                          grid: SpaceTimeGrid) -> float:
    """Squared H2(0, T) mismatch of two members' traces, one row per observed
    side, summed over the sides."""
    qt = trapezoid_weights(grid.nt, grid.dt)
    total = 0.0
    for d in traces_a - traces_b:
        d1 = time_difference(d, grid.dt, 1)
        d2 = time_difference(d, grid.dt, 2)
        total += float(qt @ (d ** 2 + d1 ** 2 + d2 ** 2))
    return total


def stability_two_sided(gamma_pairs, init: InitialData, grid: SpaceTimeGrid,
                        sides: Sequence[str] = ("right",), c: float = 1.0,
                        b: float = 1.0, box_bound: float = 1.0) -> StabilityReport:
    """Trace-versus-coefficient quotients for a list of coefficient pairs.

    For each pair the two source-free forward problems share ``init``; the
    mismatch of the observed normal derivative is measured in the squared
    H2(0, T) norm (value plus first and second time differences) summed over
    ``sides``, and divided by the squared L2 mismatch of the coefficients.
    A pair with identical coefficients produces a NaN ratio and is excluded
    from the aggregate.  The aggregate c_empirical covers both inequality
    directions: max(largest quotient, 1 / smallest quotient).

    Every pair is validated before any solve.  The solves run through
    :func:`forward_traces`, STABILITY_BATCH members at a time, which keeps
    the traces alone.  Those are solve_forward's numbers bit for bit, and
    the first member of each campaign is also solved by solve_forward to
    check it: a mismatch raises ForwardSolveError instead of reporting other
    numbers.

    Keep the window below one transit of the fast front: a nonzero initial
    acceleration at a Dirichlet endpoint launches a front moving at speed
    sqrt(b), and once it crosses the domain and reaches the observed side the
    second time-difference of the trace acquires a non-integrable signature,
    so the quotient grows without bound under refinement instead of settling.
    """
    pairs = []
    for k, (gamma_a, gamma_b) in enumerate(gamma_pairs):
        try:
            pairs.append((MGTCoefficients(c, b, np.asarray(gamma_a, dtype=float), box_bound),
                          MGTCoefficients(c, b, np.asarray(gamma_b, dtype=float), box_bound)))
        except ValueError as exc:
            raise ValueError(f"pair {k}: {exc}") from exc
    if pairs:
        full = solve_forward(pairs[0][0], init, None, grid)
        check = np.array([extract_observation(full, side).samples for side in sides])
        del full

    qx = trapezoid_weights(grid.nx, grid.h)
    records = []
    quotients = []
    per_batch = STABILITY_BATCH // 2
    for start in range(0, len(pairs), per_batch):
        batch = pairs[start:start + per_batch]
        traces = forward_traces(c, b, box_bound, [co.gamma for pair in batch for co in pair],
                                init, grid, sides)
        if start == 0 and not np.array_equal(traces[0], check):
            raise ForwardSolveError("batched traces of pair 0 differ from solve_forward's")
        for (ca, cb), traces_a, traces_b in zip(batch, traces[0::2], traces[1::2]):
            coeff_sq = float(qx @ (ca.gamma - cb.gamma) ** 2)
            trace_sq = _trace_h2_mismatch_sq(traces_a, traces_b, grid)
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


# ---------------------------------------------------------------------------
# weighted-estimate constant sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleEntry:
    scales: CarlemanScales
    ratios: Tuple[float, ...]
    rhs_values: Tuple[float, ...]
    max_ratio: float


@dataclass(frozen=True)
class CarlemanSweepReport:
    seed: int
    sample_count: int
    entries: Tuple[ScaleEntry, ...]


def carleman_constant_sweep(sample_count: int, scales_list, grid: SpaceTimeGrid,
                            geometry: CarlemanGeometry, coeffs: MGTCoefficients,
                            seed: int = 0) -> CarlemanSweepReport:
    """Empirical estimate constants over random constrained fields.

    The same ``sample_count`` fields (drawn once from ``seed``) are evaluated
    at every scale pair, so entries are comparable across scales; rerunning
    with the same seed on a refined grid evaluates the same underlying
    functions.  Every field is a :class:`FieldSample`, a time series times a
    space profile, so all of them are evaluated at once from their factors
    by :func:`carleman.separable_lhs_rhs`, which builds each scale pair's
    weight table once, guarding its range before any exponentiation, and
    e^(lambda phi) with its cube once per lambda.  The numbers are
    ``carleman_lhs_rhs``'s on each sample's ``values`` up to rounding.
    """
    # written so that NaN and infinities fail before anything converts them
    if not (sample_count >= 0 and float(sample_count).is_integer()):
        raise ValueError(f"sample_count must be a nonnegative integer, got {sample_count}")
    geometry = admissible_geometry(geometry, grid)
    rng = np.random.default_rng(seed)
    samples = [draw_field_sample(rng) for _ in range(int(sample_count))]
    scales_list = list(scales_list)
    if not samples:
        # no field to weigh, but every scale pair's weight range is guarded
        # as it is for a sweep with samples
        for scales in scales_list:
            normalized_weight_table(grid, geometry, scales)
        return CarlemanSweepReport(seed, 0, ())
    evals = separable_lhs_rhs([sample.factors(grid) for sample in samples], coeffs,
                              geometry, scales_list, grid)
    entries = []
    for scales, row in zip(scales_list, evals):
        ratios = tuple(ev.ratio for ev in row)
        rhs_values = tuple(ev.rhs_interior + ev.rhs_boundary for ev in row)
        entries.append(ScaleEntry(scales, ratios, rhs_values, max(ratios)))
    return CarlemanSweepReport(seed, sample_count, tuple(entries))


# ---------------------------------------------------------------------------
# weight dynamic-range tabulation
# ---------------------------------------------------------------------------

def weight_ratio_report(grid: SpaceTimeGrid, geometry: CarlemanGeometry,
                        scales: CarlemanScales, m0_values) -> Tuple[WeightStatistics, ...]:
    """Weight dynamic range, in decades, across an offset sweep: one
    :func:`carleman.weight_statistics` per value of m0, in input order.

    The additive constant m0 only shifts phi, yet the double exponential
    turns that shift into hundreds of decades of weight range, so the table
    sweeps it rather than fixing one value.  Everything is computed in the
    log domain; ranges far beyond floating-point overflow are still exact.
    """
    return tuple(weight_statistics(grid, replace(geometry, m0=float(m0)), scales)
                 for m0 in m0_values)


def steep_weight_preset():
    """Steep configuration for the dynamic-range table: s = lambda = 3 on the
    unit space-time box with the vertex at the left endpoint.

    Near m0 = 0.625 the weight spread is of order 10^340; the sweep over
    m0 in [0, 2] shows the figure moving from tens to tens of thousands of
    decades, which is why any quoted single number for this family is
    meaningless without the offset pinned.
    """
    grid = build_grid(0.0, 1.0, 101, 1.0, 101)
    geometry = CarlemanGeometry(0.0, 1.0, 0.0)
    scales = CarlemanScales(3.0, 3.0)
    m0_values = tuple(0.125 * k for k in range(17))
    return grid, geometry, scales, m0_values
