import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mgt_inverse
from mgt_inverse.cli import ConfigError, load_config, load_schema, main
from mgt_inverse.reconstruct import ReconstructionConfig

BASE = {
    "grid": {"x_left": 0.0, "x_right": 1.0, "nx": 41, "t_final": 1.25, "nt": 81},
    "coefficients": {"c": 1.0, "b": 1.0, "box_bound": 1.0},
    "weight": {"x0": -0.1, "beta": 0.9, "m0": 2.5, "lam": 0.5, "s": 2.0},
    "initial_data": {"u0": {"kind": "constant", "value": 0.0},
                     "u1": {"kind": "constant", "value": 0.0},
                     "u2": {"kind": "constant", "value": 1.0},
                     "eta": 1.0},
    "gamma": {"kind": "sin_sum", "offset": 0.4, "amplitudes": [0.3]},
}


def make_config(tmp_path, name="config.json", **overrides):
    doc = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        elif (isinstance(value, dict) and isinstance(doc.get(key), dict)
                and "kind" not in value):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(args):
    return main([str(a) for a in args])


def test_missing_required_field_names_it(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    del doc["grid"]["nx"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["forward", "--config", path, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "grid" in err and "nx" in err


def test_grid_too_coarse_for_the_stencils_is_rejected_before_any_output(tmp_path, capsys):
    path = make_config(tmp_path, grid={"nx": 4})
    out = tmp_path / "o"
    assert run(["forward", "--config", path, "--out", out]) == 1
    assert "nx" in capsys.readouterr().err
    assert not out.exists()


def test_even_smooth_window_is_rejected_before_any_output(tmp_path, capsys):
    assert load_config(make_config(tmp_path, "odd.json",
                                   reconstruction={"smooth_window": 3}))
    path = make_config(tmp_path, reconstruction={"smooth_window": 2})
    with pytest.raises(ConfigError, match="smooth_window"):
        load_config(path)
    out = tmp_path / "o"
    assert run(["reconstruct", "--config", path, "--out", out]) == 1
    assert "smooth_window" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_rejected_before_any_output(tmp_path, capsys):
    path = make_config(tmp_path)
    for command in (["reconstruct"], ["verify", "--suite", "stability"]):
        out = tmp_path / command[0]
        assert run(command + ["--config", path, "--out", out, "--seed", -1]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed") and err.count("\n") == 1
        assert not out.exists()


def test_unknown_keys_are_rejected(tmp_path, capsys):
    path = make_config(tmp_path, mystery_knob=1.0)
    assert run(["forward", "--config", path, "--out", tmp_path / "o"]) == 1
    assert "mystery_knob" in capsys.readouterr().err
    # the removed weights-suite inputs are unknown keys too
    for key, overrides in (("label", {"label": "steep"}),
                           ("m0_values", {"verify": {"m0_values": [2.5]}})):
        path = make_config(tmp_path, **overrides)
        out = tmp_path / key
        assert run(["verify", "--config", path, "--suite", "weights", "--out", out]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("overrides, constant", [
    ({"reconstruction": {"stop_tol": math.nan}}, "NaN"),
    ({"reconstruction": {"noise_level": math.nan}}, "NaN"),
    ({"weight": {"s": math.nan}}, "NaN"),
    ({"coefficients": {"b": math.nan}}, "NaN"),
    ({"grid": {"t_final": math.inf}}, "Infinity"),
], ids=["stop_tol", "noise_level", "s", "b", "t_final"])
def test_non_finite_constants_are_rejected_before_any_output(tmp_path, capsys, overrides,
                                                             constant):
    # json.dumps writes NaN and Infinity, as json.load would read them
    path = make_config(tmp_path, **overrides)
    assert constant in path.read_text()
    out = tmp_path / "o"
    assert run(["reconstruct", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and constant in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, command, literal", [
    ({"verify": {"scales": [[0.5, "LITERAL"]]}}, ["verify", "--suite", "carleman"], "1e400"),
    ({"weight": {"m0": "LITERAL"}}, ["forward"], "1e400"),
    ({"reconstruction": {"noise_level": "LITERAL"}}, ["reconstruct"], "1e400"),
    ({"verify": {"scales": [[0.5, "LITERAL"]]}}, ["verify", "--suite", "carleman"],
     "1" + "0" * 400),
    ({"weight": {"m0": "LITERAL"}}, ["forward"], "1" + "0" * 400),
], ids=["verify.scales", "m0", "noise_level", "verify.scales-integer", "m0-integer"])
def test_overflowing_number_literals_are_rejected_before_any_output(tmp_path, capsys,
                                                                     overrides, command, literal):
    # 1e400 is no constant json refuses: it parses to inf, and a 401-digit
    # integer to an int no float holds, unless the loader checks every
    # number it reads
    path = make_config(tmp_path, **overrides)
    path.write_text(path.read_text().replace('"LITERAL"', literal))
    assert literal in path.read_text()
    out = tmp_path / "o"
    assert run([*command, "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and literal in err
    assert not out.exists()


@pytest.mark.parametrize("verify", [
    {"scales": [[1000.0, 1.0]]},             # every exponent overflows: the span is nan
    {"samples": 0, "scales": [[3.0, 400.0]]},
], ids=["overflowing-exponents", "no-samples"])
def test_verify_carleman_refuses_a_weight_range_that_overflows(tmp_path, capsys, verify):
    path = make_config(tmp_path, grid={"nx": 21, "nt": 41}, verify=verify)
    out = tmp_path / "o"
    assert run(["verify", "--config", path, "--suite", "carleman", "--out", out]) == 1
    assert "log_weight max" in capsys.readouterr().err
    assert not (out / "carleman_report.json").exists()


def test_verify_scales_must_be_positive_before_any_output(tmp_path, capsys):
    path = make_config(tmp_path, verify={"scales": [[0.0, 2.0]]})
    out = tmp_path / "o"
    assert run(["verify", "--config", path, "--suite", "carleman", "--out", out]) == 1
    assert "verify.scales" in capsys.readouterr().err
    assert not out.exists()


def test_forward_zero_data_gives_zero_traces(tmp_path):
    path = make_config(tmp_path, initial_data={"u2": {"kind": "constant", "value": 0.0},
                                               "eta": 0.0})
    out = tmp_path / "fwd"
    assert run(["forward", "--config", path, "--out", out]) == 0
    trace = np.loadtxt(out / "trace_right.csv", delimiter=",", skiprows=1)
    assert trace.shape == (81, 3)
    assert np.all(trace[:, 1:] == 0.0)
    energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    assert energy.shape == (81, 3)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["observed_sides"] == ["right"]
    assert summary["max_abs_u"] == 0.0


def test_forward_manufactured_trace_matches_closed_form(tmp_path):
    path = make_config(tmp_path, source="manufactured_cubic",
                       initial_data={"u2": {"kind": "constant", "value": 0.0},
                                     "eta": 0.0})
    out = tmp_path / "fwd"
    assert run(["forward", "--config", path, "--out", out]) == 0
    trace = np.loadtxt(out / "trace_right.csv", delimiter=",", skiprows=1)
    assert np.abs(trace[:, 1] + np.pi * trace[:, 0] ** 3).max() < 0.02
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "forward"
    assert "timestamp_utc" in meta


def reconstruct_config(tmp_path, **rec):
    settings = {"max_iterations": 3, "data_refinement": 1, "solver_tol": 1e-5,
                "solver_cap": 300000}
    settings.update(rec)
    return make_config(tmp_path, name="rec.json",
                       grid={"nx": 31, "nt": 61},
                       weight={"lam": 0.3},
                       gamma={"kind": "constant", "value": 0.0},
                       reconstruction=settings)


def test_reconstruct_zero_coefficient_exits_zero_after_one_iteration(tmp_path):
    path = reconstruct_config(tmp_path)
    out = tmp_path / "rec"
    assert run(["reconstruct", "--config", path, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == "converged"
    assert report["iterations"] == 1
    assert report["ratios"] == [None]
    with open(out / "gamma_iterates.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["x", "gamma_000", "gamma_001"]


def test_reconstruct_iteration_cap_exits_two(tmp_path):
    path = make_config(tmp_path, name="cap.json",
                       grid={"nx": 31, "nt": 61},
                       weight={"lam": 0.3},
                       reconstruction={"max_iterations": 1, "data_refinement": 1,
                                       "solver_tol": 1e-5, "solver_cap": 300000})
    out = tmp_path / "cap"
    assert run(["reconstruct", "--config", path, "--out", out]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == "max_iterations"
    assert report["history"][1]["solver_iterations"] > 0


def test_reconstruct_stalled_at_the_box_exits_four(tmp_path):
    # criterion 5's datum with noise 1e-4: the first update pins every
    # interior node to 0 or 1, and the iterate then repeats while the update
    # before the projection stays large, so the run has not converged
    path = make_config(tmp_path, name="stall.json", grid={"nx": 51, "nt": 101},
                       weight={"lam": 1.0},
                       reconstruction={"max_iterations": 10, "stop_tol": 1e-6,
                                       "data_refinement": 2, "solver_tol": 1e-6,
                                       "solver_cap": 300000, "noise_level": 1e-4})
    out = tmp_path / "stall"
    assert run(["reconstruct", "--config", path, "--out", out, "--seed", 0]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == "stalled_at_box"
    assert report["history"][-1]["step_change"] == 0.0
    final = np.genfromtxt(out / "gamma_iterates.csv", delimiter=",", skip_header=1)[1:-1, -1]
    assert np.all((final == 0.0) | (final == 1.0))


def test_reconstruct_weight_overflow_exits_one_with_diagnostic(tmp_path, capsys):
    path = make_config(tmp_path, name="ovf.json",
                       grid={"nx": 31, "nt": 61},
                       weight={"s": 1e6},
                       gamma={"kind": "constant", "value": 0.0},
                       reconstruction={"data_refinement": 1})
    assert run(["reconstruct", "--config", path, "--out", tmp_path / "o"]) == 1
    assert "log_weight max" in capsys.readouterr().err


def test_reconstruct_failed_first_assembly_exits_one_without_a_traceback(tmp_path):
    # weight span 696 decades, under the overflow guard, yet too wide for the
    # 51x401 normal matrix: the first assembly fails
    path = make_config(tmp_path, name="span.json", grid={"nx": 51, "nt": 401},
                       weight={"lam": 1.0, "s": 9.2},
                       reconstruction={"max_iterations": 10, "data_refinement": 1})
    out = tmp_path / "o"
    src = os.path.dirname(os.path.dirname(mgt_inverse.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "mgt_inverse.cli", "reconstruct", "--config", str(path),
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 1
    assert result.stderr.splitlines()[0].startswith("error: iteration 1: ")
    assert "Traceback" not in result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]


def test_unwritable_out_directory_is_one_error_line(tmp_path, capsys):
    path = make_config(tmp_path)
    (tmp_path / "afile").write_text("")
    assert run(["forward", "--config", path, "--out", tmp_path / "afile" / "sub"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "afile" in err


def test_reconstruction_section_is_passed_as_config_fields(tmp_path, capsys):
    # every key the schema accepts is a ReconstructionConfig field, whose
    # default applies where the key is absent
    keys = load_schema()["properties"]["reconstruction"]["properties"]
    assert set(keys) <= {field.name for field in dataclasses.fields(ReconstructionConfig)}
    path = make_config(tmp_path, name="inside.json", weight={"x0": 0.5},
                       reconstruction={"max_iterations": 1})
    for command in (["reconstruct"], ["forward"], ["verify", "--suite", "energy"]):
        out = tmp_path / command[-1]
        assert run(command + ["--config", path, "--out", out]) == 1
        assert "inadmissible observation geometry: x0 = 0.5" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]


def test_reconstruct_outputs_are_deterministic(tmp_path):
    path = reconstruct_config(tmp_path, noise_level=0.02, noise_seed=3)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    # noise keeps the step size above the stopping test, so the cap is hit
    assert run(["reconstruct", "--config", path, "--out", out1]) == 2
    assert run(["reconstruct", "--config", path, "--out", out2]) == 2
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "gamma_iterates.csv").read_bytes() == (out2 / "gamma_iterates.csv").read_bytes()


def test_unknown_suite_is_an_error(tmp_path, capsys):
    path = make_config(tmp_path)
    assert run(["verify", "--config", path, "--suite", "bogus",
                "--out", tmp_path / "o"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_weights_default_preset_contains_steep_row(tmp_path):
    path = make_config(tmp_path)
    out = tmp_path / "w"
    assert run(["verify", "--config", path, "--suite", "weights", "--out", out]) == 0
    report = json.loads((out / "weights_report.json").read_text())
    assert len(report["rows"]) == 17
    near = [row for row in report["rows"] if abs(row["m0"] - 0.625) < 1e-12]
    assert near and near[0]["log10_ratio"] == pytest.approx(340.4421, abs=0.05)
    table = np.genfromtxt(out / "weights_report.csv", delimiter=",",
                          skip_header=1, usecols=(1, 6))
    assert np.all(table[:, 1] > 40.0)


def test_verify_carleman_determinism_and_seed_override(tmp_path):
    path = make_config(tmp_path, verify={"samples": 3, "scales": [[0.5, 2.0]]})
    out1, out2, out3 = tmp_path / "c1", tmp_path / "c2", tmp_path / "c3"
    assert run(["verify", "--config", path, "--suite", "carleman", "--out", out1]) == 0
    assert run(["verify", "--config", path, "--suite", "carleman", "--out", out2]) == 0
    assert (out1 / "carleman_report.json").read_bytes() == \
        (out2 / "carleman_report.json").read_bytes()
    assert run(["verify", "--config", path, "--suite", "carleman", "--out", out3,
                "--seed", 42]) == 0
    assert (out1 / "carleman_report.json").read_bytes() != \
        (out3 / "carleman_report.json").read_bytes()
    report = json.loads((out1 / "carleman_report.json").read_text())
    assert report["entries"][0]["max_ratio"] > 0.0


def test_verify_carleman_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at 201x401 OpenBLAS runs the sweep's kernel-times-profiles products on
    # two threads; each entry stays one dot product over x, so the report
    # must be the same bytes under one and two threads
    path = make_config(tmp_path, grid={"nx": 201, "nt": 401})
    src = os.path.dirname(os.path.dirname(mgt_inverse.__file__))
    unset = {name: value for name, value in os.environ.items()
             if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "mgt_inverse.cli", "verify", "--config", str(path),
                        "--suite", "carleman", "--out", str(out), "--seed", "1"],
                       capture_output=True, check=True, timeout=120,
                       env={**unset, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        reports.append({name: (out / name).read_bytes()
                        for name in ("carleman_report.json", "carleman_report.csv")})
    assert reports[0] == reports[1]


def test_verify_stability_report_has_both_ratio_columns(tmp_path):
    path = make_config(tmp_path, grid={"t_final": 0.9},
                       verify={"pairs": 2, "seed": 4})
    out = tmp_path / "s"
    assert run(["verify", "--config", path, "--suite", "stability", "--out", out]) == 0
    with open(out / "stability_report.csv") as fh:
        header = fh.readline().strip().split(",")
    assert "lower_ratio" in header and "upper_ratio" in header
    report = json.loads((out / "stability_report.json").read_text())
    assert report["pair_count"] == 2
    assert report["c_empirical"] > 0.0


# the stability suite runs below one transit of the fast front, the weighted
# estimate needs the longer horizon
@pytest.mark.parametrize("suite, verify, t_final", [("stability", {"pairs": 2}, 0.9),
                                                    ("carleman", {"samples": 3}, 1.25)])
def test_an_integral_count_written_as_a_float_runs_like_the_integer(tmp_path, suite, verify,
                                                                    t_final):
    # the schema's "integer" admits 2.0
    reports = []
    for k, value in enumerate((verify, {key: float(v) for key, v in verify.items()})):
        path = make_config(tmp_path, name=f"{k}.json", grid={"t_final": t_final},
                           verify=value)
        out = tmp_path / str(k)
        assert run(["verify", "--config", path, "--suite", suite, "--out", out]) == 0
        reports.append((out / f"{suite}_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_verify_energy_reports_bounded_ratios(tmp_path):
    path = make_config(tmp_path)
    out = tmp_path / "e"
    assert run(["verify", "--config", path, "--suite", "energy", "--out", out]) == 0
    report = json.loads((out / "energy_report.json").read_text())
    assert report["energy_bound"]["growth_flag"] is False
    assert report["energy_bound"]["ratio"] > 0.0
    assert report["hidden_regularity"]["ratio"] > 0.0
    assert report["laplacian_bound"]["ratio"] > 0.0


def test_importing_the_cli_leaves_scipy_interpolate_unloaded(tmp_path):
    # the resampling of refined data writes out SciPy's cubic spline, so
    # neither the import nor a reconstruction on 2x data loads
    # scipy.interpolate (about 19 MB and 0.25 s per process)
    src = os.path.dirname(os.path.dirname(mgt_inverse.__file__))
    path = make_config(tmp_path, reconstruction={"data_refinement": 2, "max_iterations": 2})
    code = ("import sys, mgt_inverse.cli\n"
            "print('scipy.interpolate' in sys.modules)\n"
            f"code = mgt_inverse.cli.main(['reconstruct', '--config', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "print(code, 'scipy.interpolate' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.split() == ["False", "2", "False"]
    assert (tmp_path / "out" / "report.json").exists()
