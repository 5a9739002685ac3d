"""Command-line surface: forward runs, reconstruction runs, verification suites.

Commands share one JSON configuration document, validated against the schema
shipped with the package before any computation starts; the non-finite
constants NaN, Infinity and -Infinity, which ``json`` accepts, and number
literals beyond the double range (1e400), which it reads as inf, are
rejected while it is parsed.  Reports are written as JSON plus CSV with all floats at
17 significant digits; a run with the same configuration and seed produces
byte-identical report files, and the wall-clock timestamp goes to a separate
metadata file so it cannot break that guarantee.  NaN and infinite values in
the results appear as null in JSON and as nan/inf text in CSV.

Exit codes: 0 success (for reconstruct: stopped by the step-size test with
a small unclamped update), 1 configuration or computation error,
2 reconstruction hit the iteration cap, 3 reconstruction stopped on the
rising-error guard, which also trips on runs stalled at the data's error
floor (three rises there are noise), 4 only the box clamp held the
reconstruction's iterate still ("stalled_at_box").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources

import jsonschema
import numpy as np

from .carleman import (CarlemanGeometry, CarlemanScales, CarlemanSetup,
                       WeightOverflowError, admissible_geometry, required_sides)
from .experiments import (carleman_constant_sweep, draw_coefficient_sample,
                          stability_two_sided, steep_weight_preset,
                          weight_ratio_report)
from .grid import build_grid, sine_sum, time_difference, trapezoid_weights
from .observation import extract_observation, hidden_regularity_check
from .reconstruct import (ReconstructionConfig, ReconstructionError,
                          run_reconstruction)
from .solver import (ForwardSolveError, InitialData, MGTCoefficients,
                     energy_series, manufactured_solution, solve_forward,
                     verify_energy_bound, verify_laplacian_bound)


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _json_atom(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return f"{x:.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {emit_json(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{pad}  {emit_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, np.ndarray):
        return emit_json(value.tolist(), indent)
    return _json_atom(value)


def _csv_atom(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        fh.write(emit_json(payload) + "\n")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_atom(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def load_schema() -> dict:
    text = resources.files("mgt_inverse").joinpath("config_schema.json").read_text()
    return json.loads(text)


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite constant {name}")


def _finite_float(literal: str) -> float:
    """A number literal as json reads it, refused when it overflows (1e400)."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the number {literal}, which overflows to {value}")
    return value


def _float_sized_int(literal: str) -> int:
    """An integer literal as json reads it, refused when a float cannot hold it."""
    _finite_float(literal)
    return int(literal)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float,
                            parse_int=_float_sized_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(load_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors[:10]:
            where = ".".join(str(p) for p in err.absolute_path) or "<root>"
            lines.append(f"{where}: {err.message}")
        raise ConfigError("configuration rejected:\n  " + "\n  ".join(lines))
    return doc


def _config_grid(doc):
    g = doc["grid"]
    return build_grid(g["x_left"], g["x_right"], g["nx"], g["t_final"], g["nt"])


def _profile_values(profile: dict, grid) -> np.ndarray:
    if profile["kind"] == "constant":
        return np.full(grid.nx, float(profile["value"]))
    return sine_sum(grid, profile["amplitudes"], profile.get("offset", 0.0))


def _config_geometry(doc) -> CarlemanGeometry:
    w = doc["weight"]
    return CarlemanGeometry(w["x0"], w["beta"], w["m0"])


def _config_scales(doc) -> CarlemanScales:
    w = doc["weight"]
    return CarlemanScales(w["lam"], w["s"])


def _config_init(doc, grid) -> InitialData:
    d = doc["initial_data"]
    return InitialData(_profile_values(d["u0"], grid),
                       _profile_values(d["u1"], grid),
                       _profile_values(d["u2"], grid),
                       eta=float(d.get("eta", 0.0)))


def _config_gamma(doc, grid) -> np.ndarray:
    if "gamma" not in doc:
        raise ConfigError("gamma: a coefficient profile is required for this command")
    return _profile_values(doc["gamma"], grid)


def _config_coeffs(doc, grid) -> MGTCoefficients:
    c = doc["coefficients"]
    return MGTCoefficients(c["c"], c["b"], _config_gamma(doc, grid), c["box_bound"])


def _config_source(doc, grid, coeffs):
    kind = doc.get("source", "none")
    if kind == "none":
        return None
    _, f = manufactured_solution(grid, coeffs)
    return f


def _forward_run(doc):
    """The config's forward run: (grid, coefficients, initial data, source or
    None, observed sides of its admissible geometry, trajectory).  An
    inadmissible geometry raises ValueError before the solve."""
    grid = _config_grid(doc)
    coeffs = _config_coeffs(doc, grid)
    init = _config_init(doc, grid)
    f = _config_source(doc, grid, coeffs)
    sides = admissible_geometry(_config_geometry(doc), grid).gamma0_sides
    return grid, coeffs, init, f, sides, solve_forward(coeffs, init, f, grid)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def command_forward(doc: dict, out_dir: str) -> int:
    grid, coeffs, _, _, sides, traj = _forward_run(doc)

    trace_files = {}
    for side in sides:
        obs = extract_observation(traj, side)
        dudtn = time_difference(obs.samples, grid.dt, 1)
        name = f"trace_{side}.csv"
        write_csv(os.path.join(out_dir, name), ("t", "dudn", "dudtn"),
                  zip(grid.t, obs.samples, dudtn))
        qt = trapezoid_weights(grid.nt, grid.dt)
        trace_files[side] = {"file": name,
                             "l2_norm": float(np.sqrt(qt @ obs.samples ** 2))}

    level_e, level_total = energy_series(traj, coeffs.b)
    write_csv(os.path.join(out_dir, "energy.csv"), ("t", "E_e", "E_total"),
              zip(grid.t, level_e, level_total))

    summary = {
        "grid": dict(doc["grid"]),
        "coefficients": {"c": coeffs.c, "b": coeffs.b, "box_bound": coeffs.box_bound},
        "source": doc.get("source", "none"),
        "observed_sides": list(sides),
        "max_abs_u": float(np.abs(traj.u).max()),
        "final_total_energy": float(level_total[-1]),
        "traces": trace_files,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def command_reconstruct(doc: dict, out_dir: str, seed) -> int:
    grid = _config_grid(doc)
    gamma_true = _config_gamma(doc, grid)
    c = doc["coefficients"]
    rec = doc.get("reconstruction", {})
    noise_seed = int(seed if seed is not None else rec.get("noise_seed", 0))
    setup = CarlemanSetup(_config_geometry(doc), _config_scales(doc))
    # the schema's reconstruction keys are the config's own fields
    config = ReconstructionConfig(
        grid, c["c"], c["b"], c["box_bound"], _config_init(doc, grid), setup,
        **dict(rec, noise_seed=noise_seed))
    report = run_reconstruction(config, gamma_true)

    history = []
    for rec_item in report.history:
        diag = rec_item.diagnostics
        history.append({
            "iteration": rec_item.iteration,
            "weighted_error_sq": rec_item.weighted_error_sq,
            "step_change": rec_item.step_change,
            "j_value": None if diag is None else diag.j_value,
            "v_norm_sq": None if diag is None else diag.v_norm_sq,
            "el_residual": None if diag is None else diag.el_residual,
            "solver_iterations": None if diag is None else diag.solver_iterations,
        })
    payload = {
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
        "noise_seed": noise_seed,
        "ratios": list(report.ratios),
        "history": history,
    }
    write_json(os.path.join(out_dir, "report.json"), payload)

    header = ["x"] + [f"gamma_{rec_item.iteration:03d}" for rec_item in report.history]
    columns = [grid.x] + [rec_item.gamma for rec_item in report.history]
    write_csv(os.path.join(out_dir, "gamma_iterates.csv"), header, zip(*columns))

    return {"converged": 0, "max_iterations": 2, "diverged": 3,
            "stalled_at_box": 4}[report.stop_reason]


def _verify_carleman(doc, out_dir, seed):
    grid = _config_grid(doc)
    ver = doc.get("verify", {})
    coeffs = _config_coeffs(doc, grid)
    scales_list = [CarlemanScales(lam, s)
                   for lam, s in ver.get("scales", [[0.5, 1.0], [0.5, 2.0], [0.5, 4.0]])]
    report = carleman_constant_sweep(ver.get("samples", 20), scales_list, grid,
                                     _config_geometry(doc), coeffs, seed=seed)
    entries = [{"lam": e.scales.lam, "s": e.scales.s, "max_ratio": e.max_ratio,
                "ratios": list(e.ratios), "rhs_values": list(e.rhs_values)}
               for e in report.entries]
    write_json(os.path.join(out_dir, "carleman_report.json"),
               {"seed": report.seed, "sample_count": report.sample_count,
                "entries": entries})
    write_csv(os.path.join(out_dir, "carleman_report.csv"),
              ("lam", "s", "max_ratio"),
              [(e.scales.lam, e.scales.s, e.max_ratio) for e in report.entries])
    return 0


def _verify_stability(doc, out_dir, seed):
    grid = _config_grid(doc)
    ver = doc.get("verify", {})
    c = doc["coefficients"]
    init = _config_init(doc, grid)
    # the observed sides alone, without the admissibility check: this suite
    # also runs at horizons shorter than the weighted estimate needs
    # (perfbench/tests/test_tracing.py's SMALL_STABILITY runs it at t_final 0.9)
    sides = required_sides(_config_geometry(doc), grid)
    rng = np.random.default_rng(seed)
    pairs = [(draw_coefficient_sample(rng, c["box_bound"]).values(grid),
              draw_coefficient_sample(rng, c["box_bound"]).values(grid))
             for _ in range(int(ver.get("pairs", 10)))]
    report = stability_two_sided(pairs, init, grid, sides=sides, c=c["c"],
                                 b=c["b"], box_bound=c["box_bound"])
    # one quotient, written under both sides of the two-sided bound
    write_json(os.path.join(out_dir, "stability_report.json"), {
        "seed": seed,
        "pair_count": len(report.pairs),
        "ratio_min": report.ratio_min,
        "ratio_max": report.ratio_max,
        "c_empirical": report.c_empirical,
        "pairs": [{"coeff_norm_sq": p.coeff_norm_sq,
                   "trace_norm_sq": p.trace_norm_sq,
                   "lower_ratio": p.ratio,
                   "upper_ratio": p.ratio} for p in report.pairs],
    })
    write_csv(os.path.join(out_dir, "stability_report.csv"),
              ("pair", "coeff_norm_sq", "trace_norm_sq", "lower_ratio", "upper_ratio"),
              [(k, p.coeff_norm_sq, p.trace_norm_sq, p.ratio, p.ratio)
               for k, p in enumerate(report.pairs)])
    return 0


def _verify_weights(doc, out_dir, seed):
    grid, geometry, scales, m0_values = steep_weight_preset()
    label = "steep"
    rows = weight_ratio_report(grid, geometry, scales, m0_values)
    write_json(os.path.join(out_dir, "weights_report.json"), {
        "label": label,
        "s": scales.s,
        "lam": scales.lam,
        "rows": [{"m0": r.m0, "log_min": r.log_min, "log_max": r.log_max,
                  "log10_ratio": r.log10_ratio} for r in rows],
    })
    write_csv(os.path.join(out_dir, "weights_report.csv"),
              ("label", "m0", "s", "lam", "log_min", "log_max", "log10_ratio"),
              [(label, r.m0, scales.s, scales.lam, r.log_min, r.log_max, r.log10_ratio)
               for r in rows])
    return 0


def _verify_energy(doc, out_dir, seed):
    grid, coeffs, init, f, sides, traj = _forward_run(doc)
    f_arr = np.zeros((grid.nt, grid.nx)) if f is None else f
    energy_report = verify_energy_bound(traj, f_arr, coeffs.b)
    laplacian_report = verify_laplacian_bound(traj, init, f_arr, coeffs.b)
    observations = [extract_observation(traj, side) for side in sides]
    hidden = hidden_regularity_check(traj, init, f, observations)
    write_json(os.path.join(out_dir, "energy_report.json"), {
        "energy_bound": {"max_energy": energy_report.max_energy,
                         "initial_energy": energy_report.initial_energy,
                         "source_norm_sq": energy_report.source_norm_sq,
                         "ratio": energy_report.ratio,
                         "growth_flag": energy_report.growth_flag},
        "laplacian_bound": {"max_laplacian_sq": laplacian_report.max_laplacian_sq,
                            "bound": laplacian_report.bound,
                            "ratio": laplacian_report.ratio},
        "hidden_regularity": {"trace_energy": hidden.trace_energy,
                              "data_energy": hidden.data_energy,
                              "ratio": hidden.ratio},
        "observed_sides": list(sides),
    })
    write_csv(os.path.join(out_dir, "energy_report.csv"), ("t", "E_e", "E_total"),
              zip(grid.t, energy_report.level_e, energy_report.level_total))
    return 0


VERIFY_SUITES = {"carleman": _verify_carleman, "stability": _verify_stability,
                 "weights": _verify_weights, "energy": _verify_energy}


def command_verify(doc: dict, out_dir: str, seed, suite) -> int:
    if suite not in VERIFY_SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}: choose one of {', '.join(VERIFY_SUITES)}")
    ver = doc.get("verify", {})
    effective_seed = int(seed if seed is not None else ver.get("seed", 0))
    return VERIFY_SUITES[suite](doc, out_dir, effective_seed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_metadata(out_dir, args) -> None:
    try:
        from importlib.metadata import version
        pkg_version = version("mgt-inverse")
    except Exception:
        pkg_version = "unknown"
    write_json(os.path.join(out_dir, "metadata.json"), {
        "command": args.command,
        "config": os.path.abspath(args.config),
        "suite": args.suite,
        "seed": args.seed,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "package_version": pkg_version,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mgt-inverse",
        description="forward runs, coefficient reconstruction, verification suites")
    parser.add_argument("command", choices=["forward", "reconstruct", "verify"])
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed, a nonnegative integer, of noisy or sampled runs")
    parser.add_argument("--suite", default=None,
                        help="verification suite: " + ", ".join(VERIFY_SUITES))
    args = parser.parse_args(argv)

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
        doc = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        _write_metadata(args.out, args)
        if args.command == "forward":
            return command_forward(doc, args.out)
        if args.command == "reconstruct":
            return command_reconstruct(doc, args.out, args.seed)
        return command_verify(doc, args.out, args.seed, args.suite)
    except (ConfigError, ReconstructionError, ForwardSolveError,
            WeightOverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
