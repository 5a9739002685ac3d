"""Per-layer spans and counts, recorded around the package's functions from outside.

The package binds names with ``from .x import y``, so one function is
reachable under several module attributes (``solve_forward`` lives in
``solver`` and is bound again in ``reconstruct``, ``cli`` and
``experiments``).  ``installed`` therefore replaces every module attribute
that *is* the original function, and puts the originals back on exit.
Methods of ``CarlemanLeastSquares`` are wrapped on the class.

Spans are kept in memory as [name, start, end, parent index] and turned into
metrics, or written out, once the run ends.
"""

from __future__ import annotations

import collections
import functools
import time
from contextlib import contextmanager

from mgt_inverse import (carleman, cli, experiments, functional, grid,
                         observation, reconstruct, solver)

MODULES = (grid, solver, observation, carleman, functional, reconstruct,
           experiments, cli)

# (span name, defining module, function name); several functions may share a span
TIMED = (
    ("solver.solve_forward", solver, "solve_forward"),
    ("solver.corner_part", solver, "corner_part"),
    ("observation.extract_observation", observation, "extract_observation"),
    ("observation.build_mu", observation, "build_mu"),
    ("carleman.carleman_lhs_rhs", carleman, "carleman_lhs_rhs"),
    ("functional.diagnostics", functional, "evaluate_J"),
    ("functional.diagnostics", functional, "v_norm_sq"),
    ("functional.diagnostics", functional, "weighted_data_norms"),
    ("reconstruct.reconstruction_step", reconstruct, "reconstruction_step"),
    ("reconstruct.synthetic_observations", reconstruct, "synthetic_observations"),
    ("experiments.stability_two_sided", experiments, "stability_two_sided"),
    ("experiments.carleman_constant_sweep", experiments, "carleman_constant_sweep"),
    ("cli.load_config", cli, "load_config"),
    ("cli.write", cli, "write_json"),
    ("cli.write", cli, "write_csv"),
)

# called once per time level or per weight evaluation: counted, not spanned
COUNTED = (
    ("grid.boundary_normal_derivative", grid, "boundary_normal_derivative"),
    ("carleman.log_weight_table", carleman, "log_weight_table"),
)

TIMED_METHODS = (
    ("functional.assemble", functional.CarlemanLeastSquares, "__init__"),
    ("functional.assemble", functional.CarlemanLeastSquares, "update_gamma"),
    ("functional.solve", functional.CarlemanLeastSquares, "solve_normal_equations"),
)

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("functional.solve.s", "s"),
    ("functional.solve.calls", "count"),
    ("functional.solve.iterations", "count"),
    ("functional.solve.residual_max", "1"),
    ("functional.assemble.s", "s"),
    ("functional.assemble.calls", "count"),
    ("functional.diagnostics.s", "s"),
    ("carleman.log_weight_table.calls", "count"),
    ("carleman.carleman_lhs_rhs.s", "s"),
    ("solver.solve_forward.s", "s"),
    ("solver.solve_forward.calls", "count"),
    ("solver.corner_part.s", "s"),
    ("solver.solve_forward.self_s", "s"),
    ("observation.extract_observation.s", "s"),
    ("observation.build_mu.s", "s"),
    ("grid.boundary_normal_derivative.calls", "count"),
    ("reconstruct.outer_iterations", "count"),
    ("reconstruct.reconstruction_step.s", "s"),
    ("reconstruct.synthetic_observations.s", "s"),
    ("experiments.stability_two_sided.s", "s"),
    ("experiments.carleman_constant_sweep.s", "s"),
    ("cli.load_config.s", "s"),
    ("cli.write.s", "s"),
)


class Tracer:
    """In-memory spans, call counts and the least-squares solver's returns."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.solve_iterations = 0
        self.solve_residual_max = 0.0
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def record_solve(self, result):
        _, iterations, residual = result
        self.solve_iterations += int(iterations)
        self.solve_residual_max = max(self.solve_residual_max, float(residual))

    def covered(self, name):
        """Seconds inside spans called ``name``; no wrapped function calls
        another one of the same span name, so the spans do not nest."""
        return sum(record[2] - record[1] for record in self.spans if record[0] == name)

    def calls(self, name):
        return sum(1 for record in self.spans if record[0] == name) + self.counts[name]

    def self_time(self, name):
        """Seconds inside spans called ``name`` minus the time their child
        spans cover."""
        children = collections.defaultdict(float)
        for record in self.spans:
            if record[3] is not None:
                children[record[3]] += record[2] - record[1]
        return sum(record[2] - record[1] - children[index]
                   for index, record in enumerate(self.spans) if record[0] == name)

    def layer_metrics(self, rounds):
        """Every per-layer metric as a total per round of the workload."""
        per_round = {
            "functional.solve.iterations": self.solve_iterations,
            "solver.solve_forward.self_s": self.self_time("solver.solve_forward"),
            "reconstruct.outer_iterations": self.calls("reconstruct.reconstruction_step"),
        }
        values = {}
        for metric, unit in PER_LAYER:
            layer, kind = metric.rsplit(".", 1)
            if metric == "functional.solve.residual_max":
                value = self.solve_residual_max
            elif metric in per_round:
                value = per_round[metric] / rounds
            elif kind == "s":
                value = self.covered(layer) / rounds
            else:
                value = self.calls(layer) / rounds
            values[metric] = {"value": value, "unit": unit}
        return values

    def dump(self):
        return {"spans": [list(record) for record in self.spans],
                "counts": dict(self.counts)}


def _timed(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


def _counted(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def installed(tracer):
    """Route the package's calls through ``tracer`` while the block runs."""
    replaced = []

    def rebind(original, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, attr, original))
                    setattr(module, attr, wrapper)

    try:
        for name, module, attr in TIMED:
            original = getattr(module, attr)
            rebind(original, _timed(tracer, name, original))
        for name, module, attr in COUNTED:
            original = getattr(module, attr)
            rebind(original, _counted(tracer, name, original))
        for name, cls, attr in TIMED_METHODS:
            original = cls.__dict__[attr]
            on_result = tracer.record_solve if name == "functional.solve" else None
            replaced.append((cls, attr, original))
            setattr(cls, attr, _timed(tracer, name, original, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
