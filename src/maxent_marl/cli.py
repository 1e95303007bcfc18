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
mismatch.
"""

from __future__ import annotations

import argparse
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
from .game_core import (
    CooperativeMarkovGame,
    JointPolicy,
    joint_action_table,
    joint_policy_from_rows,
)
from .haspi import (
    HaspiOptions,
    IterationRecord,
    SolveTrace,
    boltzmann_local_update,
    cyclic_order,
    fixed_order,
    haspi_solve,
    masac_solve,
    random_order,
)
from .mehaml import DRIFTS, NEIGHBORHOODS, mehaml_solve
from .qre_oracle import qre_fixed_point, qre_residual
from .soft_dp import EvaluationNotConverged, evaluate_policy_exact, soft_value
from .specs import (
    ExperimentSpec,
    GameValidationError,
    ResultRecord,
    bundled_game_path,
    initial_policy_for,
    load_experiment,
    load_game,
    parse_game,
    resolve_game,
    trace_csv_header,
    write_summary_json,
    write_trace_csv,
    atomic_write_text,
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


def _haspi_options(spec: ExperimentSpec, alpha: float) -> HaspiOptions:
    return HaspiOptions(
        alpha=alpha,
        tol_policy=spec.tol_policy if spec.tol_policy is not None else 1e-10,
        tol_eval=spec.tol_eval if spec.tol_eval is not None else 1e-12,
        eval_method=spec.eval_method or "exact",
        max_outer_iters=spec.max_iters if spec.max_iters is not None else 10_000,
        permutation_rule=_permutation_rule(spec),
        record_trace=spec.record_trace,
    )


def _exact_final_record(
    options: HaspiOptions, trace: SolveTrace
) -> Optional[IterationRecord]:
    """The trace record of the returned policy, if it holds what
    :func:`_final_stats` would compute: the same exact evaluation."""
    if options.record_trace and options.eval_method == "exact":
        return trace.iterations[-1]
    return None


def _final_stats(
    game: CooperativeMarkovGame, policy: JointPolicy, alpha: Optional[float]
) -> tuple[float, float]:
    if alpha is None:
        # baselines: plain expected reward, no residual defined
        value = float(
            game.initial_dist
            @ np.einsum("sa,sa->s", joint_action_table(policy), game.reward)
        )
        return value, float("nan")
    q = evaluate_policy_exact(game, policy, alpha)
    v = soft_value(game, policy, q, alpha)
    return float(game.initial_dist @ v.values), qre_residual(game, policy, alpha, q=q)


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    write: bool = True,
) -> ResultRecord:
    """Dispatch a spec to its solver and persist trace and summary.

    Deterministic per (spec, seed) apart from the wall-clock field in the
    summary. Results land in ``out_dir`` (or the spec's ``out``, the
    MAXENT_MARL_OUT environment variable, or the working directory).
    """
    record, _lines = _run_on_game(spec, resolve_game(spec), out_dir, write)
    return record


def _run_on_game(
    spec: ExperimentSpec,
    game: CooperativeMarkovGame,
    out_dir: str | Path | None,
    write: bool,
) -> tuple[ResultRecord, list[str]]:
    """:func:`run_experiment` on a resolved game; also returns the written
    trace CSV lines (none when ``write`` is false)."""
    initial = initial_policy_for(game, spec.initial_policy)
    alpha = spec.alpha
    start = time.perf_counter()

    if spec.solver in ("haspi", "masac"):
        options = _haspi_options(spec, alpha)
        solve = haspi_solve if spec.solver == "haspi" else masac_solve
        policy, _q, trace = solve(game, initial, options)
        status = trace.status
        final_record = _exact_final_record(options, trace)
    elif spec.solver == "mehaml":
        drift_cfg = dict(spec.drift or {"name": "trivial"})
        drift = DRIFTS[drift_cfg.pop("name")](**drift_cfg)
        hood_cfg = dict(spec.neighborhood or {"name": "full"})
        neighborhood = NEIGHBORHOODS[hood_cfg.pop("name")](**hood_cfg)
        options = _haspi_options(spec, alpha)
        policy, trace = mehaml_solve(
            game,
            initial,
            alpha,
            drift,
            neighborhood,
            options=options,
            mode=spec.mode or "closed_form",
        )
        status = trace.status
        final_record = _exact_final_record(options, trace)
    elif spec.solver == "qre-oracle":
        solution = qre_fixed_point(
            game,
            alpha,
            damping=spec.damping if spec.damping is not None else 0.5,
            tol=spec.tol_policy if spec.tol_policy is not None else 1e-10,
            max_iters=spec.max_iters if spec.max_iters is not None else 10_000,
            initial_joint_policy=initial,
            record_trace=spec.record_trace,
        )
        policy = solution.joint_policy
        trace = solution.trace or SolveTrace(
            iterations=[], status="", sweeps=max(0, solution.iterations - 1)
        )
        status = solution.status
        # The best iterate is the first one with the smallest residual.
        final_record = next(
            (r for r in trace.iterations if r.qre_residual == solution.residual), None
        )
    else:  # mappo / happo
        options = BaselineOptions(
            algorithm=spec.solver,
            update_mode=spec.update_mode or "mirror",
            step_size=spec.step_size if spec.step_size is not None else 0.1,
            iterations=spec.iterations if spec.iterations is not None else 200,
            permutation=spec.permutation,
        )
        trace = baseline_run(game, initial, options)
        policy = None
        status = trace.status
        final_record = None

    if policy is None:
        policy = joint_policy_from_rows(list(trace.iterations[-1].policies))
    if final_record is not None:
        final_return, final_residual = final_record.maxent_return, final_record.qre_residual
    else:
        final_return, final_residual = _final_stats(
            game, policy, None if spec.solver in ("mappo", "happo") else alpha
        )
    record = ResultRecord(
        name=spec.name,
        solver=spec.solver,
        alpha=alpha,
        seed=spec.seed,
        status=status,
        iterations=trace.sweeps,
        final_return=final_return,
        final_qre_residual=final_residual,
        final_policy=tuple(a.table.copy() for a in policy.agents),
        trace=trace,
        wall_clock_seconds=time.perf_counter() - start,
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
    per-agent convergent row of the full sequential solve, each compared
    against the reference values within 5e-4 (the references carry four
    decimals; the extra slack covers iterative convergence). Returns the
    table rows and a list of out-of-tolerance cell descriptions.
    """
    game = load_game(bundled_game_path())
    start_rows = [np.array([_REPLICATION_START]), np.array([_REPLICATION_START])]
    initial = joint_policy_from_rows(start_rows)
    rows: list[dict[str, object]] = []
    mismatches: list[str] = []
    for alpha in REPLICATION_ALPHAS:
        q = evaluate_policy_exact(game, initial, alpha)
        first = boltzmann_local_update(game, q, initial, [], 0, alpha).table[0]
        options = HaspiOptions(
            alpha=alpha,
            tol_policy=1e-12,
            permutation_rule=fixed_order((0, 1)),
            record_trace=False,
        )
        policy, _q, _trace = haspi_solve(game, initial, options)
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
    spec-level seed. Per-branch failures are isolated: the failing branch
    is marked in its record, the rest of the sweep proceeds.
    """
    if not spec.alphas:
        raise ValueError("sweep requires a non-empty 'alphas' list")
    target = _default_out_dir(str(out_dir) if out_dir else spec.out)
    records: list[ResultRecord] = []
    game = resolve_game(spec)
    # Each branch's trace CSV with an alpha column in front.
    combined = ["alpha," + trace_csv_header(game)]
    for k, alpha in enumerate(spec.alphas):
        branch_seed = int(np.random.SeedSequence(spec.seed, spawn_key=(k,)).generate_state(1)[0])
        branch = dc_replace(
            spec,
            alpha=alpha,
            alphas=None,
            seed=branch_seed,
            name=f"{spec.name}_alpha{alpha:g}",
        )
        lines: list[str] = []
        try:
            record, lines = _run_on_game(branch, game, target, write)
        except Exception as exc:  # isolate per-branch failures
            record = ResultRecord(
                name=branch.name,
                solver=spec.solver,
                alpha=alpha,
                seed=branch_seed,
                status="error",
                iterations=0,
                final_return=float("nan"),
                final_qre_residual=float("nan"),
                final_policy=(),
                trace=SolveTrace(iterations=[], status="error", sweeps=0),
                error=str(exc),
            )
        records.append(record)
        combined.extend(f"{float(alpha)!r},{line}" for line in lines[1:])
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
    updates: dict[str, object] = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.tol is not None:
        updates["tol_policy"] = args.tol
    if args.max_iters is not None:
        updates["max_iters"] = args.max_iters
    return dc_replace(spec, **updates) if updates else spec


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
