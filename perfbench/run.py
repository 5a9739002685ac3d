"""Benchmark harness for mgt-inverse.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  One run of a workload:

1. times the set-up (imports, config validation, seeded inputs) in several
   fresh interpreters and keeps the median as ``setup_s``;
2. sets the workload up in this process and repeats whole rounds of its
   operations within ``--seconds`` (at least one), checking every output;
3. prints, as its last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, or
   the per-layer metrics of a traced run with ``--trace 1``.  A traced run
   also writes its spans to ``perfbench/out/trace-<workload>-<seed>.json``.

``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("reconstruct", "scale-sweep", "minimize-batch", "verify")
SETUP_PROBES = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads():
    """Give native thread pools no more threads than this process has cores."""
    cores = str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = cores


def import_package():
    if not os.path.isdir(os.path.join(SRC, "mgt_inverse")):
        raise SystemExit(f"error: no package source at {SRC}; run from a checkout")
    sys.path[:0] = [SRC, HERE]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args):
    """Set the workload up in this fresh interpreter, then report ready."""
    import_package()
    import workloads
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workloads.build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    return 0


def time_setup(args):
    """Seconds from starting a fresh interpreter to a workload ready to run."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up of {args.workload} failed (exit {code})")
    return elapsed


def run_rounds(next_round, seconds):
    """Whole rounds of operations within ``seconds``: at least one, and
    another only while a round as long as the last one still fits."""
    round_times, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        for operation in next_round():
            attempted += 1
            try:
                found = operation()
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            if found:
                failed += 1
                problems += found
        round_times.append(time.perf_counter() - begin)
        if time.perf_counter() - start + round_times[-1] > seconds:
            return round_times, attempted, failed, problems


def run_workload(args):
    import_package()
    setup_times = [] if args.trace else [time_setup(args) for _ in range(SETUP_PROBES)]
    import tracing
    import workloads
    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        next_round = workloads.build(args.workload, args.seed, workdir)
        with tracing.installed(tracer) if tracer else nullcontext():
            round_times, attempted, failed, problems = run_rounds(next_round, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    wall_s = statistics.median(round_times)
    if tracer is None:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        metrics = tracer.layer_metrics(len(round_times))
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": len(round_times), "wall_s": wall_s,
                       "metrics": metrics, **tracer.dump()}, fh)
        print(f"traced wall_s {wall_s:.4f} over {len(round_times)} rounds; spans in {path}",
              file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in a fresh process; the last line sums their counts."""
    status, attempted, failed, correct = 0, 0, 0, True
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, value in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {value['value']:.6g} {value['unit']}")
        print(f"{name:15s} attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    return status


def main(argv=None):
    args = parse_args(argv)
    limit_threads()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
