import json

import numpy as np
import pytest

from mgt_inverse.cli import ConfigError, load_config, main

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


def test_unknown_keys_are_rejected(tmp_path, capsys):
    path = make_config(tmp_path, mystery_knob=1.0)
    assert run(["forward", "--config", path, "--out", tmp_path / "o"]) == 1
    assert "mystery_knob" in capsys.readouterr().err


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


def test_reconstruct_weight_overflow_exits_one_with_diagnostic(tmp_path, capsys):
    path = make_config(tmp_path, name="ovf.json",
                       grid={"nx": 31, "nt": 61},
                       weight={"s": 1e6},
                       gamma={"kind": "constant", "value": 0.0},
                       reconstruction={"data_refinement": 1})
    assert run(["reconstruct", "--config", path, "--out", tmp_path / "o"]) == 1
    assert "log_weight max" in capsys.readouterr().err


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


def test_verify_energy_reports_bounded_ratios(tmp_path):
    path = make_config(tmp_path)
    out = tmp_path / "e"
    assert run(["verify", "--config", path, "--suite", "energy", "--out", out]) == 0
    report = json.loads((out / "energy_report.json").read_text())
    assert report["energy_bound"]["growth_flag"] is False
    assert report["energy_bound"]["ratio"] > 0.0
    assert report["hidden_regularity"]["ratio"] > 0.0
    assert report["laplacian_bound"]["ratio"] > 0.0
