"""Correctness checks on the program's outputs.

Each check returns a list of problems, empty when the output passes.  None
compares against a saved copy of earlier output: each either recomputes the
expected value in closed form here, or tests a property the method must
have.  The module imports nothing from the package, so the checks stay
independent of the code they judge.
"""

from __future__ import annotations

import math

# criterion 5 reads the contraction only until e_k/e_0 first drops below this
TARGET_DROP = 1e-2


def contraction(errors, label):
    """e_k/e_0 falls below TARGET_DROP within the run, and every ratio
    e_{k+1}/e_k up to that iterate is below 1."""
    if not errors or not errors[0] > 0.0:
        return [f"{label}: no positive initial weighted error in {errors!r}"]
    target = next((k for k, e in enumerate(errors) if e < TARGET_DROP * errors[0]), None)
    if target is None:
        low = min(errors) / errors[0]
        return [f"{label}: e_k/e_0 never below {TARGET_DROP:g} (lowest {low:.3e})"]
    ratios = [after / before for before, after in zip(errors[:target], errors[1:target + 1])]
    rising = [f"{r:.4f}" for r in ratios if not r < 1.0]
    if rising:
        return [f"{label}: ratios before e_{target} not all below 1: {rising}"]
    return []


def residuals_within(residuals, tol, label):
    """Every least-squares solve stopped at or below the requested residual."""
    bad = [r for r in residuals if r is None or not r <= tol]
    return [f"{label}: el_residual above {tol:g}: {bad}"] if bad else []


def same_bytes(files, reference, label):
    """Report files equal, byte for byte, those of the first repetition.

    ``reference`` is filled from ``files`` on the first call."""
    if not reference:
        reference.update(files)
        return []
    if set(files) != set(reference):
        return [f"{label}: files {sorted(files)} differ from {sorted(reference)}"]
    changed = sorted(name for name in files if files[name] != reference[name])
    return [f"{label}: report bytes changed on repetition: {changed}"] if changed else []


def zero_data_identity(j_zero, half_norm_sq, tol=1e-12):
    """J(y; 0, 0) equals half the squared weighted graph norm of y."""
    rel = abs(j_zero - half_norm_sq) / half_norm_sq if half_norm_sq > 0 else math.inf
    return [] if rel <= tol else [f"zero-data identity off by {rel:.3e} > {tol:g}"]


def nonnegative(value, label):
    return [] if value >= 0.0 else [f"{label} is negative: {value:.6e}"]


def no_lower_neighbour(j_star, j_shifted):
    """No perturbed point has a lower objective than the minimizer."""
    lower = [j for j in j_shifted if not j >= j_star]
    if lower:
        return [f"perturbation lowers J: {min(lower):.17g} < {j_star:.17g}"]
    return []


def steep_weight_log10_ratio(m0):
    """Weight range of the steep preset in decades, in closed form.

    The preset is x, t in [0, 1], vertex x0 = 0, beta = 1, lambda = s = 3.
    phi = |x - x0|^2 - beta t^2 + m0 is largest at (x, t) = (1, 0) and
    smallest at (0, 1); the log weight 2 s exp(lambda phi) grows with phi.
    """
    lam = s = 3.0
    log_max = 2.0 * s * math.exp(lam * (1.0 + m0))
    log_min = 2.0 * s * math.exp(lam * (m0 - 1.0))
    return (log_max - log_min) / math.log(10.0)


STEEP_M0 = tuple(0.125 * k for k in range(17))


def weight_rows(rows, rel_tol=1e-9):
    """The weights suite's rows match the closed-form ranges, one per offset."""
    got = [row["m0"] for row in rows]
    if got != list(STEEP_M0):
        return [f"weights rows cover m0 {got}, expected {list(STEEP_M0)}"]
    problems = []
    for row in rows:
        expected = steep_weight_log10_ratio(row["m0"])
        value = row["log10_ratio"]
        if value is None or not abs(value - expected) <= rel_tol * expected:
            problems.append(f"weights row m0={row['m0']}: log10 ratio {value} "
                            f"against closed form {expected:.12g}")
    return problems


def manufactured_peak(max_abs_u, t_final, h, dt, factor=2.0):
    """max |u| of u = sin(pi x) t^3 is t_final^3, within factor * (h^2 + dt^2)."""
    exact = t_final ** 3
    bound = factor * (h ** 2 + dt ** 2)
    if max_abs_u is None or not abs(max_abs_u - exact) <= bound:
        return [f"max_abs_u {max_abs_u} is not within {bound:.3e} of T^3 = {exact}"]
    return []


def positive_finite(values, label):
    bad = [v for v in values
           if not isinstance(v, (int, float)) or not math.isfinite(v) or not v > 0.0]
    return [f"{label}: ratios not positive and finite: {bad}"] if bad or not values else []
