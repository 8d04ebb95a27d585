"""Benchmark command: one workload per process, every time drift-calibrated.

    python3 perfbench/run.py --workload velocity-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` at
``jobs=1`` with its environment (BLAS threads included) left as users have it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, each in its own process.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("codebook-build", "velocity-sweep", "power-sweep")
SETUP_REPEATS = 15
# A package is imported once per process, so import time is taken in fresh
# interpreters; numpy and the calibration module are already loaded there, as
# they are in the benchmark. Each probe times the reference kernel just before
# and after the import and scales the import by its own kernel time.
IMPORT_PROBE = (
    "import statistics, sys, time, numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from calib import NOMINAL_REF_S, reference_kernel\n"
    "def kernel_s():\n"
    "    start = time.perf_counter()\n"
    "    reference_kernel()\n"
    "    return time.perf_counter() - start\n"
    "[kernel_s() for _ in range(3)]\n"
    "before = [kernel_s() for _ in range(5)]\n"
    "start = time.perf_counter()\n"
    "import thztrack, thztrack.exports\n"
    "spent = time.perf_counter() - start\n"
    "after = [kernel_s() for _ in range(5)]\n"
    "print(spent * NOMINAL_REF_S / statistics.median(before + after))\n"
)


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(result.stderr)
        lines = result.stdout.splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        status = status or result.returncode
    return status


def _import_seconds() -> float:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return float(probe.stdout)


def _timed(clock, fn):
    start = clock.read()
    value = fn()
    return clock.read() - start, value


def measure(args) -> dict:
    """Set up, run whole rounds for ``args.seconds``, check, and report."""
    from calib import DriftClock

    with DriftClock() as clock, tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        from spans import Tracer
        from workloads import WORKLOADS

        imported = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))

        tracer = Tracer(clock) if args.trace else None
        if tracer:
            tracer.install()
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        prepared = [_timed(clock, workload.prepare)[0].wall for _ in range(SETUP_REPEATS)]
        built, _ = _timed(clock, workload.build)
        setup_s = imported + statistics.median(prepared) + built.wall
        if tracer:
            tracer.uninstall()

        # Only the first round's output is kept, so memory does not grow with
        # the number of rounds; later rounds must reproduce it.
        rounds, first, repeatable = [], None, True
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            spent, output = _timed(clock, workload.run_round)
            rounds.append(spent)
            if first is None:
                first = output
            repeatable = repeatable and workload.same(first, output)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_rounds = len(rounds)

        if tracer:
            tracer.install()
            traced, output = _timed(clock, workload.run_round)
            tracer.uninstall()
            n_rounds += 1
            repeatable = repeatable and workload.same(first, output)

        failed_per_round, problems = workload.check(first)
        if not repeatable:
            problems.append("rounds gave different results")

    items = workload.items_per_round * len(rounds)
    wall = sum(r.wall for r in rounds)
    if tracer:
        metrics = tracer.metrics()
        metrics["bench.ref_kernel_s"] = (clock.ref_median(), "s")
        metrics["bench.trace_overhead_s"] = (traced.wall - wall / len(rounds), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (items / wall, "1/s"),
            "cpu_per_item_ms": (1000.0 * sum(r.cpu for r in rounds) / items, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"set-up: import {imported:.4f} s, inputs {statistics.median(prepared):.4f} s "
          f"(median of {SETUP_REPEATS}), build {built.wall:.4f} s")
    print(f"uncalibrated: {items / sum(r.raw for r in rounds):.6g} items/s over {len(rounds)} rounds, "
          f"reference kernel median {clock.ref_median() * 1e3:.4f} ms")
    return {
        "correct": not problems,
        "attempted": workload.operations_per_round * n_rounds,
        "failed": failed_per_round * n_rounds,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    args = _parse_args()
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "thztrack").is_dir() or not (ROOT / "configs" / "table1.ini").is_file():
        print(f"no thztrack source tree under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (HERE / "out").mkdir(exist_ok=True)
    result = measure(args)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
