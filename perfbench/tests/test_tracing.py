"""The tracing wrappers record spans and change no result."""

import json

import pytest

import tracing
import workloads
from mgt_inverse import carleman, cli, experiments, grid, observation, reconstruct, solver
from mgt_inverse.functional import CarlemanLeastSquares

SMALL_STABILITY = dict(workloads.README_FINE,
                       grid={"x_left": 0.0, "x_right": 1.0, "nx": 41, "t_final": 0.9,
                             "nt": 81},
                       verify={"pairs": 2})


def reports_of(directory, name, doc, args):
    directory.mkdir()
    config = directory / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = directory / name
    code = cli.main(args + ["--config", str(config), "--out", str(out), "--seed", "5"])
    assert code in (0, 2, 3)
    return workloads.read_reports(out)


@pytest.mark.parametrize("name, doc, args", [
    ("reconstruct", workloads.CRITERION_5, ["reconstruct"]),
    ("forward", workloads.MANUFACTURED, ["forward"]),
    ("stability", SMALL_STABILITY, ["verify", "--suite", "stability"]),
])
def test_traced_run_writes_the_same_bytes(tmp_path, name, doc, args):
    plain = reports_of(tmp_path / "plain", name, doc, args)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = reports_of(tmp_path / "traced", name, doc, args)
    assert traced == plain
    assert tracer.calls("cli.write") == len(plain) + 1     # and metadata.json
    assert tracer.calls("solver.solve_forward") > 0


def test_every_binding_is_wrapped_and_restored():
    originals = {
        "solve_forward": (solver.solve_forward, (reconstruct, cli, experiments)),
        "extract_observation": (observation.extract_observation,
                                (reconstruct, cli, experiments)),
        "boundary_normal_derivative": (grid.boundary_normal_derivative,
                                       (solver, observation, carleman)),
    }
    solve = CarlemanLeastSquares.solve_normal_equations
    with tracing.installed(tracing.Tracer()):
        for name, (original, modules) in originals.items():
            for module in modules:
                assert getattr(module, name) is not original, (module.__name__, name)
        assert CarlemanLeastSquares.solve_normal_equations is not solve
    for name, (original, modules) in originals.items():
        for module in modules:
            assert getattr(module, name) is original
    assert CarlemanLeastSquares.solve_normal_equations is solve


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["solver.solve_forward", 0.0, 10.0, None],
                    ["solver.corner_part", 2.0, 5.0, 0],
                    ["solver.solve_forward", 20.0, 21.0, None]]
    assert tracer.self_time("solver.solve_forward") == pytest.approx(8.0)
    assert tracer.covered("solver.solve_forward") == pytest.approx(11.0)
    metrics = tracer.layer_metrics(rounds=2)
    assert metrics["solver.solve_forward.self_s"]["value"] == pytest.approx(4.0)
    assert metrics["solver.corner_part.s"]["value"] == pytest.approx(1.5)
    assert metrics["solver.solve_forward.calls"]["value"] == pytest.approx(1.0)
    assert [name for name, _ in tracing.PER_LAYER] == list(metrics)
