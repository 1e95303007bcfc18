"""Benchmark of the exact solvers: time to a QRE, checked independently.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0

It imports ``maxent_marl`` from the checkout's ``src``, builds the
workload's inputs from the seed, and runs whole passes over the
workload's operations until ``--seconds`` have gone by. Each operation's
outputs are checked outside the timed region. Times are reported at the
reference speed of :mod:`calibration`, whose reference work is
interleaved with the operations. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of :mod:`tracing` with ``--trace 1``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported (also by the
# import-timing children, which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
FAMILIES = ("haspi", "mehaml", "oracle")

IMPORT_TIMER = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "t = time.perf_counter()\n"
    "import maxent_marl\n"
    "print(time.perf_counter() - t)\n"
)


def import_package():
    """Import maxent_marl from this checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import maxent_marl

    if Path(maxent_marl.__file__).resolve().parent != SRC / "maxent_marl":
        sys.exit(f"maxent_marl was imported from {maxent_marl.__file__}, not from {SRC}")
    return maxent_marl


def time_import(calibrator):
    """Median time to import maxent_marl (numpy included) in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=CHECKOUT,
                               capture_output=True, text=True, timeout=120, check=True)
        times.append(float(child.stdout.strip().splitlines()[-1]))
        calibrator.follow(times[-1])
    return statistics.median(times)


def run_pass(pkg, ops, reset, calibrator):
    """One pass over every operation; returns per-family times, failed and wrong counts.

    The times are at the reference speed of :mod:`calibration`.
    """
    if reset is not None:
        reset()
    times = dict.fromkeys(FAMILIES + ("other",), 0.0)
    failed = wrong = 0
    for op in ops:
        started = time.perf_counter()
        try:
            result = op.run(pkg)
            error = None
        except Exception as exc:  # the program failed this operation
            error = exc
        elapsed = time.perf_counter() - started
        times[op.family] += elapsed
        calibrator.follow(elapsed)
        if error is not None:
            print(f"{op.label}: {type(error).__name__}: {error}", file=sys.stderr)
            failed += 1
            continue
        try:
            outcome = op.check(result)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
            print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            outcome = workloads.WRONG
        if outcome != workloads.OK:
            failed += 1
            wrong += outcome == workloads.WRONG
            print(f"{op.label}: {outcome}", file=sys.stderr)
    scale = calibrator.close()
    return {family: t * scale for family, t in times.items()}, failed, wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / args.workload

    calibrator = calibration.Calibrator()
    import_s = time_import(calibrator)
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        reset, ops = build(pkg, args.seed, workdir)
        builds.append(time.perf_counter() - started)
        calibrator.follow(builds[-1])
    setup_s = (import_s + statistics.median(builds)) * calibrator.close()

    # Whole passes only, so that the failed share is the same in every run.
    # A traced run spends the first half untraced, to measure its overhead.
    passes = {False: [], True: []}
    attempted = failed = wrong = 0
    tracer = tracing.Tracer() if args.trace else None
    started = time.perf_counter()
    traced = False
    while True:
        times, pass_failed, pass_wrong = run_pass(pkg, ops, reset, calibrator)
        passes[traced].append(times)
        attempted += len(ops)
        failed += pass_failed
        wrong += pass_wrong
        elapsed = time.perf_counter() - started
        if tracer is not None and not traced and elapsed >= args.seconds / 2:
            tracer.install()
            traced = True
        elif elapsed >= args.seconds and (tracer is None or traced):
            break
    if tracer is not None:
        tracer.uninstall()

    def run_s(pass_times):
        return statistics.median(sum(t.values()) for t in pass_times)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s(passes[False]), "s"),
            **{f"{family}_s": (statistics.median(t[family] for t in passes[False]), "s")
               for family in FAMILIES},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = tracer.summary(len(passes[True]))
        overhead = run_s(passes[True]) / run_s(passes[False]) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        metrics["calibration.unit_s"] = (statistics.median(calibrator.unit_times[1:]), "s")
    print(f"calibration: median unit {statistics.median(calibrator.unit_times[1:]):.3e} s, "
          f"reference {calibration.REFERENCE_UNIT_S:.3e} s", file=sys.stderr)

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
