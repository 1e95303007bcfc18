"""Time what the trace costs the suite's HASPI and MEHAML solves.

Solves the 100 games of ``perfbench``'s ``suite`` workload with the
workload's options (``random_order(k)``, tolerance 1e-10, caps of 5,000
HASPI and 2,000 MEHAML sweeps, KL drift with beta 1 and the full
neighborhood), once with ``record_trace`` on and once with it off per
round, the two alternating in one process with one BLAS thread. It prints
per solver the median pass time with its quartiles for each setting, and
the median and quartiles of the rounds' ratios traced / untraced. Run from
the root of a checkout:

    python tools/trace_cost.py --rounds 10

The games are relabelled as at the workload's seed 0. ``--games N``
solves the first N games only, and ``--src DIR`` imports ``maxent_marl``
from another checkout's ``src`` directory, to measure two versions with
the same script. The last line of output is one JSON object with the same
numbers.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported, as in perfbench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def suite_solves(pkg, workloads, n_games: int):
    """Per solver, a function of ``record_trace`` that runs its pass over the games."""
    inputs = []
    for k, _n_agents, n_states, counts, gamma, alpha in workloads.suite_params(n_games):
        game = workloads.draw_game(1000 + k, counts, n_states, gamma)
        start = workloads.draw_start(5000 + k, game)
        if k != workloads.NEVER_RELABELLED:
            game, start = workloads.relabel(game, start, workloads.relabel_rng(0, 1, k))
        pstart = pkg.joint_policy_from_rows([rows.copy() for rows in start])
        inputs.append((k, workloads.program_game(pkg, game), pstart, alpha))

    def options(k, alpha, cap, record_trace):
        return pkg.HaspiOptions(alpha=alpha, tol_policy=workloads.POLICY_TOL, max_outer_iters=cap,
                                permutation_rule=pkg.random_order(k), record_trace=record_trace)

    def haspi(record_trace):
        for k, game, start, alpha in inputs:
            pkg.haspi_solve(game, start, options(k, alpha, workloads.HASPI_MAX_ITERS, record_trace))

    def mehaml(record_trace):
        drift, neighborhood = pkg.kl_drift(workloads.KL_BETA), pkg.full_neighborhood()
        for k, game, start, alpha in inputs:
            cap = workloads.MEHAML_MAX_ITERS
            pkg.mehaml_solve(game, start, alpha, drift, neighborhood,
                             options=options(k, alpha, cap, record_trace))

    return {"haspi": haspi, "mehaml": mehaml}


def measure(solves, rounds: int) -> dict:
    """Each solver's pass time per setting, the settings alternating, and
    which one goes first swapping each round."""
    times = {name: {True: [], False: []} for name in solves}
    for r in range(rounds):
        for name, solve in solves.items():
            for record_trace in ((True, False) if r % 2 == 0 else (False, True)):
                gc.collect()
                start = time.perf_counter()
                solve(record_trace)
                times[name][record_trace].append(time.perf_counter() - start)
    report = {}
    for name, by_setting in times.items():
        traced, untraced = by_setting[True], by_setting[False]
        report[name] = {
            "traced_s": quartiles(traced),
            "untraced_s": quartiles(untraced),
            # Per round: its two passes ran back to back, under the same drift
            # of a shared host.
            "ratio": quartiles([t / u for t, u in zip(traced, untraced)]),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10, help="alternations per setting (10)")
    parser.add_argument("--games", type=int, default=100, help="the first N suite games (100)")
    parser.add_argument("--src", type=Path, default=CHECKOUT / "src",
                        help="the src directory to import maxent_marl from")
    args = parser.parse_args(argv)
    if args.rounds < 1 or not 1 <= args.games <= 100:
        parser.error("--rounds must be at least 1 and --games between 1 and 100")
    sys.path[:0] = [str(args.src.resolve()), str(CHECKOUT / "perfbench")]
    import maxent_marl
    import workloads

    report = measure(suite_solves(maxent_marl, workloads, args.games), args.rounds)
    print(f"{args.games} suite games, {args.rounds} rounds, "
          f"maxent_marl from {Path(maxent_marl.__file__).parent}")
    for name, row in report.items():
        for setting in ("traced_s", "untraced_s"):
            q1, median, q3 = row[setting]
            print(f"{name:7} {setting[:-2]:9} median {median:.4f} s  quartiles {q1:.4f}-{q3:.4f} s")
        q1, median, q3 = row["ratio"]
        print(f"{name:7} traced/untraced median {median:.3f}  quartiles {q1:.3f}-{q3:.3f}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
