"""The benchmark's four workloads, built from a seed through the package's
public functions and its CLI entry point ``mgt_inverse.cli.main``.

``build(name, seed, workdir)`` is the set-up: it writes and validates the
workload's configs and draws its seeded inputs.  It returns a function that
starts a round and returns the round's operations.  An operation returns the
problems its correctness checks found (an empty list when the output is
right) and raises when the program fails.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil

import numpy as np

from mgt_inverse import cli, functional, reconstruct
from mgt_inverse.carleman import CarlemanGeometry, CarlemanScales, CarlemanSetup
from mgt_inverse.grid import build_grid
from mgt_inverse.observation import MuPair
from mgt_inverse.solver import InitialData, MGTCoefficients

import checks

COEFFICIENTS = {"c": 1.0, "b": 1.0, "box_bound": 1.0}
GEOMETRY = {"x0": -0.1, "beta": 0.9, "m0": 2.5}
GAMMA = {"kind": "sin_sum", "offset": 0.4, "amplitudes": [0.3]}
ZERO = {"kind": "constant", "value": 0.0}
UNIT_ACCELERATION = {"u0": ZERO, "u1": ZERO,
                     "u2": {"kind": "constant", "value": 1.0}, "eta": 1.0}

# criterion 5's datum: 51x101, u2 = 1, gamma = 0.4 + 0.3 sin(pi x), lambda 1, s 2,
# data from the 2x grid, 10 iterations, CG to 1e-6
CRITERION_5 = {
    "grid": {"x_left": 0.0, "x_right": 1.0, "nx": 51, "t_final": 1.25, "nt": 101},
    "coefficients": COEFFICIENTS,
    "weight": dict(GEOMETRY, lam=1.0, s=2.0),
    "initial_data": UNIT_ACCELERATION,
    "gamma": GAMMA,
    "reconstruction": {"max_iterations": 10, "stop_tol": 1e-6, "data_refinement": 2,
                       "solver_tol": 1e-6, "solver_cap": 300000},
}
# s = 0.5 alone takes about 70 s; s = 1 keeps the badly conditioned end of
# the sweep within a run's length
SWEEP_S = (1.0, 2.0, 4.0)

# criterion 2's batch: 51x201 (9,800 unknowns), lambda 1, s 2
CRITERION_2 = dict(CRITERION_5, grid=dict(CRITERION_5["grid"], nt=201))
del CRITERION_2["reconstruction"]
BATCH = 20
CRITERION_2_SEED = 7
PERTURBATIONS = 2
SOLVER_TOL = 1e-6

# the README config refined to 201x401
README_FINE = {
    "grid": {"x_left": 0.0, "x_right": 1.0, "nx": 201, "t_final": 1.25, "nt": 401},
    "coefficients": COEFFICIENTS,
    "weight": dict(GEOMETRY, lam=0.5, s=2.0),
    "initial_data": UNIT_ACCELERATION,
    "gamma": GAMMA,
}
MANUFACTURED = dict(README_FINE, source="manufactured_cubic",
                    initial_data={"u0": ZERO, "u1": ZERO, "u2": ZERO, "eta": 0.0})
SUITES = ("carleman", "stability", "energy", "weights")


class OperationFailed(RuntimeError):
    """The program did not produce its output."""


def write_config(workdir, name, doc):
    """Write ``doc`` and validate it the way every CLI command does."""
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    cli.load_config(path)
    return path


def read_reports(out_dir):
    """Report files of one CLI run; metadata.json carries a timestamp."""
    reports = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "metadata.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                reports[name] = fh.read()
    return reports


def run_cli(args):
    code = cli.main([str(a) for a in args])
    if code == 1:
        raise OperationFailed(f"mgt-inverse {' '.join(map(str, args))} exited with 1")
    return code


def profile_values(profile, grid):
    if profile["kind"] == "constant":
        return np.full(grid.nx, float(profile["value"]))
    xi = (grid.x - grid.x_left) / (grid.x_right - grid.x_left)
    values = np.full(grid.nx, float(profile.get("offset", 0.0)))
    for m, a in enumerate(profile["amplitudes"], start=1):
        values += a * np.sin(m * np.pi * xi)
    return values


def config_grid(doc):
    g = doc["grid"]
    return build_grid(g["x_left"], g["x_right"], g["nx"], g["t_final"], g["nt"])


def config_setup(doc):
    w = doc["weight"]
    return CarlemanSetup(CarlemanGeometry(w["x0"], w["beta"], w["m0"]),
                         CarlemanScales(w["lam"], w["s"]))


# ---------------------------------------------------------------------------
# reconstruct: the CLI reconstruction, back to back
# ---------------------------------------------------------------------------

def errors_and_residuals(history):
    errors = [item["weighted_error_sq"] for item in history]
    residuals = [item["el_residual"] for item in history[1:]]
    return errors, residuals


def build_reconstruct(seed, workdir):
    config = write_config(workdir, "reconstruct.json", CRITERION_5)
    tol = CRITERION_5["reconstruction"]["solver_tol"]
    reference = {}
    count = itertools.count()

    def reconstruction():
        out = os.path.join(workdir, f"reconstruct-{next(count)}")
        # exit 2 (iteration cap) and 3 (rising-error guard) still write the report
        run_cli(["reconstruct", "--config", config, "--out", out, "--seed", seed])
        reports = read_reports(out)
        shutil.rmtree(out)
        errors, residuals = errors_and_residuals(json.loads(reports["report.json"])["history"])
        return (checks.contraction(errors, "reconstruct")
                + checks.residuals_within(residuals, tol, "reconstruct")
                + checks.same_bytes(reports, reference, "reconstruct"))

    return lambda: [reconstruction]


# ---------------------------------------------------------------------------
# scale-sweep: run_scale_sweep on the same datum
# ---------------------------------------------------------------------------

def reconstruction_config(doc, seed):
    grid = config_grid(doc)
    data = doc["initial_data"]
    init = InitialData(*(profile_values(data[k], grid) for k in ("u0", "u1", "u2")),
                       eta=data["eta"])
    c = doc["coefficients"]
    rec = doc["reconstruction"]
    return reconstruct.ReconstructionConfig(
        grid, c["c"], c["b"], c["box_bound"], init, config_setup(doc),
        max_iterations=rec["max_iterations"], stop_tol=rec["stop_tol"],
        data_refinement=rec["data_refinement"], noise_seed=seed,
        solver_tol=rec["solver_tol"], solver_cap=rec["solver_cap"])


def build_scale_sweep(seed, workdir):
    path = write_config(workdir, "sweep.json", CRITERION_5)

    def sweep():
        doc = cli.load_config(path)
        config = reconstruction_config(doc, seed)
        gamma_true = profile_values(doc["gamma"], config.grid)
        problems = []
        for entry in reconstruct.run_scale_sweep(config, gamma_true, s_values=SWEEP_S):
            label = f"scale-sweep s={entry.s:g}"
            history = entry.report.history
            problems += checks.contraction([r.weighted_error_sq for r in history], label)
            problems += checks.residuals_within(
                [r.diagnostics.el_residual for r in history[1:]], config.solver_tol, label)
        return problems

    return lambda: [sweep]


# ---------------------------------------------------------------------------
# minimize-batch: criterion 2's identities, minimizers and difference checks
# ---------------------------------------------------------------------------

def random_variable(rng, grid):
    """Trajectory unknown with the constrained rows and columns zeroed."""
    field = rng.normal(size=(grid.nt, grid.nx))
    field[0] = 0.0
    field[:, 0] = 0.0
    field[:, -1] = 0.0
    return functional.TrajectoryVariable.from_full_field(field, grid)


def random_mu(rng, grid):
    envelope = (grid.t / grid.t_final) ** 2
    return [MuPair("right", envelope * rng.normal(size=grid.nt),
                   envelope * rng.normal(size=grid.nt), grid.dt)]


def batch_problem(doc):
    grid = config_grid(doc)
    c = doc["coefficients"]
    coeffs = MGTCoefficients(c["c"], c["b"], profile_values(doc["gamma"], grid),
                             c["box_bound"])
    return grid, config_setup(doc), coeffs


def build_minimize_batch(seed, workdir):
    path = write_config(workdir, "batch.json", CRITERION_2)
    grid, _, _ = batch_problem(cli.load_config(path))
    shape = (grid.nt, grid.nx)
    # The least-squares targets are criterion 2's own, drawn in its order from
    # its seed.  CG's iteration count is heavy-tailed in the target (about 1.2k
    # for most, 3k-6.4k for about one in six): seeded targets took 110.8k to
    # 142.3k iterations per batch over seeds 1-3.  The seed draws the fields of
    # the identity evaluations and the perturbations of the minimizers.
    fixed = np.random.default_rng(CRITERION_2_SEED)
    for _ in range(BATCH):
        random_variable(fixed, grid)        # criterion 2 draws its identity fields first
    targets = [(fixed.normal(size=shape), random_mu(fixed, grid)) for _ in range(BATCH)]
    pairs = [(fixed.normal(size=shape), fixed.normal(size=shape), random_mu(fixed, grid))
             for _ in range(BATCH)]
    rng = np.random.default_rng(seed)
    fields = [random_variable(rng, grid) for _ in range(BATCH)]
    targets = [(g, mu, [random_variable(rng, grid) for _ in range(PERTURBATIONS)])
               for g, mu in targets]

    def operations():
        grid, setup, coeffs = batch_problem(cli.load_config(path))

        def identity(y):
            j_zero = functional.evaluate_J(y, None, None, coeffs, setup, grid)
            half = 0.5 * functional.v_norm_sq(y, coeffs, setup, grid)
            return checks.zero_data_identity(j_zero, half)

        def minimize(g, mu, deltas):
            y_star, diag = functional.minimize_J(mu, g, coeffs, setup, grid,
                                                 solver_tol=SOLVER_TOL)
            shifted = [functional.evaluate_J(
                functional.TrajectoryVariable(grid, y_star.values + 1e-3 * d.values),
                mu, g, coeffs, setup, grid) for d in deltas]
            return (checks.nonnegative(diag.bound_slack, "energy bound slack")
                    + checks.no_lower_neighbour(diag.j_value, shifted))

        def difference(g1, g2, mu):
            report = functional.minimizer_difference_check(
                g1, g2, mu, coeffs, setup, grid, solver_tol=SOLVER_TOL)
            return checks.nonnegative(report.slack, "difference bound slack")

        return ([lambda y=y: identity(y) for y in fields]
                + [lambda args=args: minimize(*args) for args in targets]
                + [lambda args=args: difference(*args) for args in pairs])

    return operations


# ---------------------------------------------------------------------------
# verify: four CLI suites at 201x401 and one manufactured forward run
# ---------------------------------------------------------------------------

def suite_checks(suite, reports):
    if suite == "weights":
        return checks.weight_rows(json.loads(reports["weights_report.json"])["rows"])
    if suite == "stability":
        pairs = json.loads(reports["stability_report.json"])["pairs"]
        return checks.positive_finite(
            [p[k] for p in pairs for k in ("lower_ratio", "upper_ratio")], "stability")
    if suite == "carleman":
        entries = json.loads(reports["carleman_report.json"])["entries"]
        return checks.positive_finite([r for e in entries for r in e["ratios"]],
                                      "carleman")
    return []


def build_verify(seed, workdir):
    config = write_config(workdir, "verify.json", README_FINE)
    forward_config = write_config(workdir, "forward.json", MANUFACTURED)
    g = MANUFACTURED["grid"]
    h = (g["x_right"] - g["x_left"]) / (g["nx"] - 1)
    dt = g["t_final"] / (g["nt"] - 1)
    count = itertools.count()

    def run(args, label, reference, check):
        out = os.path.join(workdir, f"{label}-{next(count)}")
        code = run_cli(args + ["--out", out, "--seed", seed])
        reports = read_reports(out)
        shutil.rmtree(out)
        if code != 0:
            raise OperationFailed(f"{label} exited with {code}")
        return check(reports) + checks.same_bytes(reports, reference, label)

    def suite(name, reference):
        return run(["verify", "--config", config, "--suite", name], f"verify-{name}",
                   reference, lambda reports: suite_checks(name, reports))

    def forward(reference):
        def peak(reports):
            summary = json.loads(reports["summary.json"])
            return checks.manufactured_peak(summary["max_abs_u"], g["t_final"], h, dt)
        return run(["forward", "--config", forward_config], "forward", reference, peak)

    references = {name: {} for name in SUITES + ("forward",)}
    operations = ([lambda name=name: suite(name, references[name]) for name in SUITES]
                  + [lambda: forward(references["forward"])])
    return lambda: operations


BUILDERS = {
    "reconstruct": build_reconstruct,
    "scale-sweep": build_scale_sweep,
    "minimize-batch": build_minimize_batch,
    "verify": build_verify,
}


def build(name, seed, workdir):
    return BUILDERS[name](seed, workdir)
