#!/usr/bin/env python3
"""Benchmark of the paper's pipeline and of the abstraction reductions.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 45 --trace 0

The program is imported from ``src/`` of the checkout; nothing is
installed or built.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured without any
instrumentation; with ``--trace 1`` they are the per-layer ones, from
rounds run with the layer spans of ``layers.py`` in place.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from calibration import CALIBRATION_REFERENCE_S, calibration_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up is repeated in this many fresh processes; its median is setup_s.
SETUP_REPEATS = 7
#: A fresh set-up process times the calibration loop this many times,
#: before and after set-up.
CALIBRATION_SAMPLES = 15

#: Per-layer figures of the bare rounds, with their units: route times
#: from the operations' times, counts from the rounds' outputs.
ROUND_FIGURES = {
    "symbolic_s": "s", "convert_s": "s", "classical_s": "s", "csdf_s": "s",
    "hsdf_actors": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "abstraction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's sources first on the path and import them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported {repro.__file__}, not the checkout's")


def set_up(args):
    """Imports, the first numpy-kernel call and input generation."""
    import workloads

    workloads.warm_up()
    return workloads.build(args.workload, args.seed, args.tiny)


def setup_seconds(argv) -> float:
    """Median time from process start to ready-to-measure, in normalised
    seconds.

    Each fresh process times the calibration loop as soon as it starts
    and again right after it reports ready.  Its set-up time, less the
    first calibration, is normalised by the mean of the two.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready = child.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            before, after, calibrating = map(float, child.stdout.readline().split()
                                             or ["nan"] * 3)
            child.stdout.read()
        finally:
            child.stdout.close()
            returncode = child.wait(timeout=120)
        if returncode != 0 or not ready or not before + after > 0:
            raise SystemExit("error: set-up failed in a fresh process")
        samples.append((elapsed - calibrating) * 2 * CALIBRATION_REFERENCE_S
                       / (before + after))
    return statistics.median(samples)


def measure(workload, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed.

    Without tracing every round is timed bare.  With tracing, bare and
    traced rounds alternate, starting bare (so every lazily imported
    module is loaded before the entry points are wrapped), with at least
    one of each.  The first round is checked as soon as it ends, and peak
    memory is read right after, so neither depends on how many rounds
    the run finds time for.
    """
    from layers import LayerClock, instrumented

    bare, traced, clocks = [], [], []
    start = time.perf_counter()
    while not bare or time.perf_counter() - start < seconds or (trace and not traced):
        # Every round starts from a collected heap, so no round pays for
        # garbage an earlier one left behind.
        gc.collect()
        if trace and len(traced) < len(bare):
            clock = LayerClock()
            with instrumented(clock, [SRC, HERE]):
                r = workload.round()
            traced.append(r)
            clocks.append(clock.snapshot())
        else:
            r = workload.round()
            bare.append(r)
        if r is bare[0]:
            problems = workload.check(r.outputs)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        r.outputs = None
    for index, r in enumerate(bare[1:] + traced, 1):
        if r.answers != bare[0].answers:
            problems.append(f"round {index} answered differently from the first")
    return bare, traced, clocks, problems, peak_mb


def round_seconds(r, normalised=False) -> float:
    return sum((r.normalised if normalised else r.ops).values())


def route_seconds(rounds) -> dict:
    """Median over ``rounds`` of each route's time in a round."""
    per_round = []
    for r in rounds:
        routes = defaultdict(float)
        for (route, _), seconds in r.ops.items():
            routes[route] += seconds
        per_round.append(routes)
    return {route: statistics.median(routes[route] for routes in per_round)
            for route in per_round[0]}


def summarise(workload, bare, traced, clocks, problems, setup, peak_mb, trace):
    bare_s = statistics.median(round_seconds(r, True) for r in bare)
    if trace:
        metrics = {name: (statistics.median(c[name] for c in clocks), "s"
                          if name.endswith("_s") else "count")
                   for name in clocks[0]}
        figures = {name: statistics.median(r.figures.get(name, 0) for r in bare)
                   for name in ROUND_FIGURES}
        figures.update(workload.route_figures(route_seconds(bare)))
        metrics.update({name: (figures[name], unit)
                        for name, unit in ROUND_FIGURES.items()})
        metrics["pass_wall_s"] = (statistics.median(map(round_seconds, bare)), "s")
        metrics["calibration_s"] = (
            statistics.median(c for r in bare for c in r.calibrations), "s")
        metrics["tracing_overhead"] = (
            statistics.median(round_seconds(r, True) for r in traced) / bare_s - 1,
            "ratio")
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "pass_norm_s": (bare_s, "s"),
        }
    rounds = bare + traced
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.setup_only:
        start = time.perf_counter()
        before = calibration_median(CALIBRATION_SAMPLES)
        calibrating = time.perf_counter() - start
        load_program()
        set_up(args)
        print("ready", flush=True)
        after = calibration_median(CALIBRATION_SAMPLES)
        print(before, after, calibrating, flush=True)
        return 0
    load_program()
    setup = setup_seconds(argv) if not args.trace else 0.0
    workload = set_up(args)
    bare, traced, clocks, problems, peak_mb = measure(
        workload, args.seconds, bool(args.trace))
    result = summarise(workload, bare, traced, clocks, problems, setup, peak_mb, args.trace)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
