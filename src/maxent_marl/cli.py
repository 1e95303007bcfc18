"""Command-line front end.

Subcommands:
    solve <spec>             run the spec's solver (any of the six)
    qre <spec>               run the damped logit oracle on the spec's game
    baseline <spec>          run an expected-update baseline spec
    replicate-appendix-b     recompute the reference temperature table for
                             the bundled matrix game and verify every cell
    sweep-alpha <spec>       one run per temperature in the spec's list
    validate <game-file>     parse a game file and report violations

Global flags (valid after the subcommand): --seed, --tol, --max-iters,
--out, --quiet. The default output directory is $MAXENT_MARL_OUT, then
the current directory. Exit codes: 0 success or converged, 1 invalid
input or a solver error, 2 the solver (or its iterative evaluation) hit
its iteration cap, or the oracle stopped at a cycle, 3 replication
mismatch. ``sweep-alpha`` exits with the worst code of its branches; a
branch whose iterative evaluation hit its cap has status
``eval_max_iters`` (exit 2), and one that failed otherwise ``error``
(exit 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace as dc_replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import BaselineOptions, baseline_run
from .common import IterationRecord, SolveTrace
from .game_core import CooperativeMarkovGame, JointPolicy, joint_policy_from_rows
from .haspi import (
    HaspiOptions,
    boltzmann_local_update,
    cyclic_order,
    fixed_order,
    haspi_solve_many,
    masac_solve_many,
    random_order,
)
from .mehaml import DRIFTS, NEIGHBORHOODS, mehaml_solve
from .qre_oracle import qre_fixed_point, qre_residual
from .soft_dp import EvaluationNotConverged, evaluate_policy_exact, maxent_return
from .specs import (
    ExperimentSpec,
    GameValidationError,
    ResultRecord,
    bundled_game_path,
    initial_policy_for,
    load_experiment,
    load_game,
    resolve_game,
    trace_csv_header,
    write_summary_json,
    write_trace_csv,
    atomic_write_text,
    _seed,
)

__all__ = [
    "run_experiment",
    "replicate_appendix_b",
    "sweep_alpha",
    "main",
    "console_main",
]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2
EXIT_REPLICATION_MISMATCH = 3

REPLICATION_ALPHAS = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
REPLICATION_TOL = 5e-4
_REPLICATION_START = (0.6, 0.2, 0.2)

# Reference table for the bundled matrix game: agent 1's row after the
# first sweep, and the per-agent row both agents share at convergence,
# for each temperature. Four published decimals per cell.
REFERENCE_TABLE: dict[float, tuple[tuple[float, ...], tuple[float, ...]]] = {
    1.0: ((0.9990, 0.0001, 0.0009), (1.0000, 0.0000, 0.0000)),
    2.0: ((0.9603, 0.0107, 0.0290), (1.0000, 0.0000, 0.0000)),
    5.0: ((0.7083, 0.1171, 0.1747), (0.9849, 0.0075, 0.0076)),
    10.0: ((0.5254, 0.2136, 0.2609), (0.0221, 0.0224, 0.9555)),
    15.0: ((0.4596, 0.2522, 0.2882), (0.1278, 0.1354, 0.7368)),
    20.0: ((0.4269, 0.2722, 0.3009), (0.2514, 0.2790, 0.4697)),
}


def _default_out_dir(explicit: Optional[str]) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("MAXENT_MARL_OUT")
    return Path(env) if env else Path.cwd()


def _permutation_rule(spec: ExperimentSpec):
    if spec.permutation is None or spec.permutation == "random":
        return random_order(spec.seed)
    if spec.permutation == "cyclic":
        return cyclic_order()
    return fixed_order(spec.permutation)


def _haspi_options(spec: ExperimentSpec) -> HaspiOptions:
    """The solve-loop options of a haspi, masac or mehaml spec."""
    return HaspiOptions(
        spec.alpha,
        permutation_rule=_permutation_rule(spec),
        record_trace=spec.record_trace,
        **_given(
            tol_policy=spec.tol_policy,
            tol_eval=spec.tol_eval,
            eval_method=spec.eval_method,
            max_outer_iters=spec.max_iters,
        ),
    )


def _given(**fields: object) -> dict[str, object]:
    """The fields a spec sets. The solver takes the others from its own
    defaults, and rejects a set value it cannot run, such as a falsy one."""
    return {key: value for key, value in fields.items() if value is not None}


def _final_stats(
    game: CooperativeMarkovGame, policy: JointPolicy, alpha: float
) -> tuple[float, float]:
    """The final return and QRE residual of a soft run that has no record of them."""
    return maxent_return(game, policy, alpha), qre_residual(game, policy, alpha)


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    write: bool = True,
) -> ResultRecord:
    """Dispatch a spec to its solver and persist trace and summary.

    Deterministic per (spec, seed) apart from the wall-clock field in the
    summary. Results land in ``out_dir`` (or the spec's ``out``, the
    MAXENT_MARL_OUT environment variable, or the working directory).
    A spec that gives the soft solvers ``alphas`` but no ``alpha`` is
    rejected: the list is read by :func:`sweep_alpha`.
    """
    if spec.alpha is None and spec.alphas is not None:
        raise ValueError(
            f"one run of solver {spec.solver!r} needs 'alpha'; 'alphas' is read by sweep-alpha"
        )
    game = resolve_game(spec)
    return _finished(spec, game, _solved(game, [spec])[0], out_dir, write)[0]


# A solved spec: its final policy, its trace, the trace's record that
# describes the policy (None if none does) and the solve's wall time.
Solved = tuple[JointPolicy, SolveTrace, Optional[IterationRecord], float]


def _solved(game: CooperativeMarkovGame, specs: Sequence[ExperimentSpec]) -> list[Solved]:
    """Each spec's solve, for specs that share a solver and a start.

    Specs of haspi or masac are solved together, in one
    :func:`haspi_solve_many` or :func:`masac_solve_many`, each with the
    bits of its own solve (a batch of one runs that solve's own loop), and
    share the call's wall time. The other solvers run one spec at a time.
    """
    initial = initial_policy_for(game, specs[0].initial_policy)
    solver = specs[0].solver
    if solver in ("haspi", "masac"):
        solve_many = haspi_solve_many if solver == "haspi" else masac_solve_many
        start = time.perf_counter()
        results = solve_many(game, [initial] * len(specs), [_haspi_options(s) for s in specs])
        seconds = time.perf_counter() - start
        solved = [(policy, trace, seconds) for policy, _q, trace in results]
    else:
        solved = [_solved_alone(game, initial, spec) for spec in specs]
    return [
        (policy, trace, _record(spec, trace), seconds)
        for spec, (policy, trace, seconds) in zip(specs, solved)
    ]


def _solved_alone(
    game: CooperativeMarkovGame, initial: JointPolicy, spec: ExperimentSpec
) -> tuple[JointPolicy, SolveTrace, float]:
    """A mehaml, oracle or baseline spec's final policy, trace and wall time."""
    start = time.perf_counter()
    if spec.solver == "mehaml":
        drift_cfg = dict(spec.drift or {"name": "trivial"})
        drift = DRIFTS[drift_cfg.pop("name")](**drift_cfg)
        hood_cfg = dict(spec.neighborhood or {"name": "full"})
        hood = NEIGHBORHOODS[hood_cfg.pop("name")](**hood_cfg)
        policy, trace = mehaml_solve(
            game, initial, spec.alpha, drift, hood, options=_haspi_options(spec),
            **_given(mode=spec.mode),
        )
    elif spec.solver == "qre-oracle":
        solution = qre_fixed_point(
            game,
            spec.alpha,
            initial_joint_policy=initial,
            record_trace=spec.record_trace,
            **_given(damping=spec.damping, tol=spec.tol_policy, max_iters=spec.max_iters),
        )
        policy = solution.joint_policy
        trace = solution.trace or SolveTrace(
            iterations=[], status=solution.status, sweeps=max(0, solution.iterations - 1)
        )
    else:  # mappo / happo
        options = BaselineOptions(
            spec.solver,
            permutation=spec.permutation,
            **_given(
                update_mode=spec.update_mode, step_size=spec.step_size, iterations=spec.iterations
            ),
        )
        trace = baseline_run(game, initial, options)
        policy = joint_policy_from_rows(list(trace.iterations[-1].policies))
    return policy, trace, time.perf_counter() - start


def _record(spec: ExperimentSpec, trace: SolveTrace) -> Optional[IterationRecord]:
    """The trace's record of the returned policy, if it has one.

    That is the oracle's best iterate, the first with the smallest
    residual. For the other solvers it is the last record of a traced run
    that evaluates exactly: a soft solve's holds the policy's exact
    evaluation, and a baseline's its plain J, with no residual.
    """
    if not trace.iterations or spec.eval_method == "iterative":
        return None
    if spec.solver == "qre-oracle":
        return min(trace.iterations, key=lambda r: r.qre_residual)
    return trace.iterations[-1]


def _finished(
    spec: ExperimentSpec,
    game: CooperativeMarkovGame,
    solved: Solved,
    out_dir: str | Path | None,
    write: bool,
) -> tuple[ResultRecord, list[str]]:
    """The record of a solved spec, and its trace CSV lines, written with
    the summary when ``write`` (none otherwise). The final statistics come
    from the solve's record when it has one; their time is added to the
    solve's wall time.
    """
    start = time.perf_counter()
    policy, trace, final_record, seconds = solved
    if final_record is None:  # an untraced or iteratively evaluated soft run
        final_return, final_residual = _final_stats(game, policy, spec.alpha)
    else:
        final_return, final_residual = final_record.maxent_return, final_record.qre_residual
    record = ResultRecord(
        name=spec.name,
        solver=spec.solver,
        alpha=spec.alpha,
        seed=spec.seed,
        status=trace.status,
        iterations=trace.sweeps,
        final_return=final_return,
        final_qre_residual=final_residual,
        final_policy=tuple(a.table.copy() for a in policy.agents),
        trace=trace,
        wall_clock_seconds=seconds + (time.perf_counter() - start),
    )
    lines: list[str] = []
    if write:
        target = _default_out_dir(str(out_dir) if out_dir else spec.out)
        trace_path = target / f"{spec.name}_trace.csv"
        summary_path = target / f"{spec.name}_summary.json"
        lines = write_trace_csv(trace_path, trace, game)
        record.trace_path = str(trace_path)
        record.summary_path = str(summary_path)
        write_summary_json(summary_path, record)
    return record, lines


def replicate_appendix_b(
    out_dir: str | Path | None = None,
) -> tuple[list[dict[str, object]], list[str]]:
    """Recompute the matrix-game temperature table and verify every cell.

    For each temperature: the first-sweep row of agent 1 and the
    per-agent convergent row of the full sequential solve (the six solves
    run together, in one :func:`haspi_solve_many`), each compared
    against the reference values within 5e-4 (the references carry four
    decimals; the extra slack covers iterative convergence). Returns the
    table rows and a list of out-of-tolerance cell descriptions.
    """
    game = load_game(bundled_game_path())
    start_rows = [np.array([_REPLICATION_START]), np.array([_REPLICATION_START])]
    initial = joint_policy_from_rows(start_rows)
    rows: list[dict[str, object]] = []
    mismatches: list[str] = []
    options = [
        HaspiOptions(
            alpha=alpha, tol_policy=1e-12, permutation_rule=fixed_order((0, 1)), record_trace=False
        )
        for alpha in REPLICATION_ALPHAS
    ]
    solved = haspi_solve_many(game, [initial] * len(options), options)
    for alpha, (policy, _q, _trace) in zip(REPLICATION_ALPHAS, solved):
        q = evaluate_policy_exact(game, initial, alpha)
        first = boltzmann_local_update(game, q, initial, [], 0, alpha).table[0]
        convergent = [agent.table[0] for agent in policy.agents]
        ref_first, ref_conv = REFERENCE_TABLE[alpha]
        for j, (got, want) in enumerate(zip(first, ref_first)):
            if abs(got - want) > REPLICATION_TOL:
                mismatches.append(
                    f"alpha={alpha:g} first-update p{j + 1}: got {got:.6f}, want {want:.4f}"
                )
        for agent_idx, table in enumerate(convergent):
            for j, (got, want) in enumerate(zip(table, ref_conv)):
                if abs(got - want) > REPLICATION_TOL:
                    mismatches.append(
                        f"alpha={alpha:g} convergent agent {agent_idx + 1} p{j + 1}: "
                        f"got {got:.6f}, want {want:.4f}"
                    )
        rows.append(
            {
                "alpha": alpha,
                "first_update": tuple(float(x) for x in first),
                "convergent": tuple(float(x) for x in convergent[0]),
                "convergent_agent2": tuple(float(x) for x in convergent[1]),
            }
        )
    if out_dir is not None:
        lines = ["alpha,p1_first,p2_first,p3_first,p1_conv,p2_conv,p3_conv"]
        for row in rows:
            cells = [f"{row['alpha']:g}"]
            cells += [repr(x) for x in row["first_update"]]
            cells += [repr(x) for x in row["convergent"]]
            lines.append(",".join(cells))
        atomic_write_text(Path(out_dir) / "replication_table.csv", "\r\n".join(lines) + "\r\n")
    return rows, mismatches


def sweep_alpha(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    write: bool = True,
) -> list[ResultRecord]:
    """One run per temperature with a shared start; branch seeds derived.

    Branch k runs with a seed spawned as SeedSequence(seed, spawn_key=(k,))
    so the branches are independent yet reproducible from the single
    spec-level seed. Branch k is named ``<name>_alpha{alphas[k]:g}``; two
    temperatures that give one name raise a ValueError before any solve.
    Per-branch failures are isolated: the failing branch
    is marked in its record, the rest of the sweep proceeds. Its status is
    "eval_max_iters" when its iterative evaluation hit the cap and
    "error" for any other failure.

    The branches are solved as :func:`run_experiment` solves a spec, but
    all in one step: those of a haspi or masac spec in one
    :func:`haspi_solve_many` or :func:`masac_solve_many`, with the bits
    of their own solves. If that step raises, every branch is solved on
    its own, with its failure isolated as above. A batched branch's
    ``wall_clock_seconds`` is the wall time of the whole batched solve,
    which its branches share, plus that of its own final statistics.
    """
    if not spec.alphas:
        raise ValueError("sweep requires a non-empty 'alphas' list")
    target = _default_out_dir(str(out_dir) if out_dir else spec.out)
    records: list[ResultRecord] = []
    game = resolve_game(spec)
    branches = [
        dc_replace(
            spec,
            alpha=alpha,
            alphas=None,
            seed=int(np.random.SeedSequence(spec.seed, spawn_key=(k,)).generate_state(1)[0]),
            name=f"{spec.name}_alpha{alpha:g}",
        )
        for k, alpha in enumerate(spec.alphas)
    ]
    # A branch's files are named after it, so a shared name would overwrite.
    named: dict[str, int] = {}
    for k, branch in enumerate(branches):
        j = named.setdefault(branch.name, k)
        if j != k:
            raise ValueError(
                f"alphas[{j}]={spec.alphas[j]!r} and alphas[{k}]={spec.alphas[k]!r} "
                f"share the branch name {branch.name!r}"
            )
    try:
        together = _solved(game, branches)
    except Exception:  # then each branch's own solve reports its failure
        together = [None] * len(branches)
    # Each branch's trace CSV with an alpha column in front.
    combined = ["alpha," + trace_csv_header(game)]
    for branch, solved in zip(branches, together):
        lines: list[str] = []
        try:
            solved = solved or _solved(game, [branch])[0]
            record, lines = _finished(branch, game, solved, target, write)
        except Exception as exc:  # isolate per-branch failures
            status = "eval_max_iters" if isinstance(exc, EvaluationNotConverged) else "error"
            record = ResultRecord(
                name=branch.name,
                solver=spec.solver,
                alpha=branch.alpha,
                seed=branch.seed,
                status=status,
                iterations=0,
                final_return=float("nan"),
                final_qre_residual=float("nan"),
                final_policy=(),
                trace=SolveTrace(iterations=[], status=status, sweeps=0),
                error=str(exc),
            )
        records.append(record)
        combined.extend(f"{float(branch.alpha)!r},{line}" for line in lines[1:])
    if write:
        atomic_write_text(
            target / f"{spec.name}_sweep.csv", "\r\n".join(combined) + "\r\n"
        )
        summary = {
            "name": spec.name,
            "alphas": list(spec.alphas),
            "statuses": {f"{r.alpha:g}": r.status for r in records},
        }
        atomic_write_text(
            target / f"{spec.name}_sweep_summary.json",
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
        )
    return records


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    seed = None if args.seed is None else _seed(args.seed)
    updates = _given(seed=seed, tol_policy=args.tol, max_iters=args.max_iters)
    return dc_replace(spec, **updates)


def _print_record(record: ResultRecord, quiet: bool) -> None:
    if quiet:
        return
    parts = [
        f"{record.name}: solver={record.solver}",
        f"status={record.status}",
        f"iterations={record.iterations}",
        f"J={record.final_return:.6g}",
    ]
    if not math.isnan(record.final_qre_residual):
        parts.append(f"qre_residual={record.final_qre_residual:.6g}")
    if record.error:
        parts.append(f"error={record.error}")
    print("  ".join(parts))
    for i, table in enumerate(record.final_policy):
        for s in range(table.shape[0]):
            row = ", ".join(f"{x:.6g}" for x in table[s])
            print(f"  agent {i} state {s}: [{row}]")


def _status_exit_code(status: str) -> int:
    """0 for "converged", 1 for "error"; 2 for "max_iters", "cycle" and
    "eval_max_iters", the ways a run stops without converging."""
    if status in ("converged",):
        return EXIT_OK
    if status == "error":
        return EXIT_INVALID
    return EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the spec seed")
    common.add_argument("--tol", type=float, default=None, help="override the policy tolerance")
    common.add_argument("--max-iters", type=int, default=None, help="override the iteration cap")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--quiet", action="store_true", help="suppress console output")

    parser = argparse.ArgumentParser(
        prog="maxent-marl",
        description="Exact tabular solvers for entropy-regularized cooperative Markov games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="run an experiment spec")
    p.add_argument("spec", help="experiment JSON file")

    p = sub.add_parser("qre", parents=[common], help="run the damped logit oracle")
    p.add_argument("spec", help="experiment JSON file (solver qre-oracle)")

    p = sub.add_parser("baseline", parents=[common], help="run a baseline spec")
    p.add_argument("spec", help="experiment JSON file (solver mappo or happo)")

    sub.add_parser(
        "replicate-appendix-b",
        parents=[common],
        help="recompute and verify the reference temperature table",
    )

    p = sub.add_parser("sweep-alpha", parents=[common], help="one run per temperature")
    p.add_argument("spec", help="experiment JSON file with an 'alphas' list")

    p = sub.add_parser("validate", parents=[common], help="check a game file")
    p.add_argument("game_file", help="game JSON file")
    return parser


# The parser of main, built on its first call and kept for the process:
# building it takes about 0.7 ms, and at import it would slow every import.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    quiet = bool(getattr(args, "quiet", False))
    try:
        if args.command == "validate":
            try:
                load_game(args.game_file)
            except GameValidationError as exc:
                for violation in exc.violations:
                    print(f"violation: {violation}", file=sys.stderr)
                return EXIT_INVALID
            if not quiet:
                print(f"{args.game_file}: ok")
            return EXIT_OK

        if args.command == "replicate-appendix-b":
            out = args.out or os.environ.get("MAXENT_MARL_OUT")
            rows, mismatches = replicate_appendix_b(out_dir=out)
            if not quiet:
                for row in rows:
                    first = ", ".join(f"{x:.4f}" for x in row["first_update"])
                    conv = ", ".join(f"{x:.4f}" for x in row["convergent"])
                    print(f"alpha={row['alpha']:<4g} first=[{first}]  convergent=[{conv}]")
            if mismatches:
                for line in mismatches:
                    print(f"mismatch: {line}", file=sys.stderr)
                return EXIT_REPLICATION_MISMATCH
            if not quiet:
                print("all 36 cells within tolerance 5e-4")
            return EXIT_OK

        spec = _apply_overrides(load_experiment(args.spec), args)
        if args.command == "qre" and spec.solver != "qre-oracle":
            raise ValueError(f"'qre' expects solver 'qre-oracle', spec has {spec.solver!r}")
        if args.command == "baseline" and spec.solver not in ("mappo", "happo"):
            raise ValueError(
                f"'baseline' expects solver 'mappo' or 'happo', spec has {spec.solver!r}"
            )

        if args.command == "sweep-alpha":
            records = sweep_alpha(spec, out_dir=args.out)
            worst = EXIT_OK
            for record in records:
                _print_record(record, quiet)
                worst = max(worst, _status_exit_code(record.status))
            return worst

        record = run_experiment(spec, out_dir=args.out)
        _print_record(record, quiet)
        return _status_exit_code(record.status)
    except EvaluationNotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
