"""Inputs, operations and output checks of the three workloads.

Every game is a fixed draw, and the workload seed relabels its states and
each agent's actions (seed 0 keeps the labels), together with the start
policy. A relabelled game is a different input to the program but the
same problem, so every seed asks for the same amount of work and the
same operations converge. Fresh draws per seed do not: on seeds 1-10 of
the suite the damped oracle 2-cycles on extra games at some seeds and
MEHAML reaches its cap on one, so the failed share would depend on the
seed. Suite game 39 is never relabelled: its oracle run is the one
operation that fails, on every seed.

An operation is one solve or one CLI command. ``run`` is timed; ``check``
is not, and compares the outputs with the reference evaluator in
:mod:`refeval` or with properties the method must have. It returns OK,
FAILED (the program raised or reported no convergence) or WRONG (the
program reported success but its output does not hold up).
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import refeval

OK, FAILED, WRONG = "ok", "failed", "wrong"

RESIDUAL_TOL = 1e-8
RETURN_TOL = 1e-9
POLICY_TOL = 1e-10
HASPI_MAX_ITERS = 5000
MEHAML_MAX_ITERS = 2000
# The oracle's cap: suite game 39 2-cycles at damping 0.5 and spends all of
# it; every other game converges in a few hundred iterations at most.
ORACLE_MAX_ITERS = 2000
ORACLE_DAMPING = 0.5
KL_BETA = 1.0
NEVER_RELABELLED = 39

APPENDIX_B = np.array([[5.0, -20.0, -20.0], [-20.0, 10.0, -20.0], [-20.0, -20.0, 20.0]])
REPLICATION_START = np.array([[0.6, 0.2, 0.2]])
REPLICATION_TOL = 5e-4
# The published Appendix B table: agent 1's row after the first sweep and
# the row both agents share at convergence, four decimals per cell.
PUBLISHED_TABLE = {
    1.0: ((0.9990, 0.0001, 0.0009), (1.0000, 0.0000, 0.0000)),
    2.0: ((0.9603, 0.0107, 0.0290), (1.0000, 0.0000, 0.0000)),
    5.0: ((0.7083, 0.1171, 0.1747), (0.9849, 0.0075, 0.0076)),
    10.0: ((0.5254, 0.2136, 0.2609), (0.0221, 0.0224, 0.9555)),
    15.0: ((0.4596, 0.2522, 0.2882), (0.1278, 0.1354, 0.7368)),
    20.0: ((0.4269, 0.2722, 0.3009), (0.2514, 0.2790, 0.4697)),
}

# large-joint: (agents, actions per agent, states, draw seed); gamma 0.9, alpha 1.
LARGE_SHAPES = ((5, 5, 20, 7005), (6, 5, 8, 7006), (4, 4, 10, 7004))
CLI_GAME = (3, 3, 4, 4242)  # agents, actions per agent, states, draw seed; gamma 0.9
CLI_ALPHAS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


@dataclass
class Game:
    """The benchmark's own copy of a game's tensors."""

    counts: tuple[int, ...]
    reward: np.ndarray  # (S, prod A_i)
    transition: np.ndarray  # (S, prod A_i, S)
    gamma: float
    initial: np.ndarray

    def residual(self, policies, alpha):
        return refeval.qre_residual(self.reward, self.transition, self.gamma, policies, alpha)

    def ret(self, policies, alpha):
        return refeval.regularized_return(
            self.reward, self.transition, self.gamma, self.initial, policies, alpha)


APPENDIX_B_GAME = Game((3, 3), APPENDIX_B.reshape(1, -1), np.ones((1, 9, 1)), 0.0, np.ones(1))


@dataclass
class Op:
    family: str  # "haspi", "mehaml", "oracle" or "other"
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str]


def draw_game(seed, counts, n_states, gamma):
    """The recipe of ``maxent_marl.random_game`` with rewards in [-1, 1]."""
    rng = np.random.default_rng(seed)
    n_joint = math.prod(counts)
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_joint))
    transition = rng.uniform(size=(n_states, n_joint, n_states))
    transition /= transition.sum(axis=2, keepdims=True)
    return Game(tuple(counts), reward, transition, gamma, np.full(n_states, 1.0 / n_states))


def draw_start(seed, game):
    rng = np.random.default_rng(seed)
    n_states = game.reward.shape[0]
    return [rng.dirichlet(np.ones(c), size=n_states) for c in game.counts]


def relabel(game, start, rng):
    """Permute states and each agent's actions; ``rng`` None keeps the labels."""
    if rng is None:
        return game, start
    n_states = game.reward.shape[0]
    s = rng.permutation(n_states)
    acts = [rng.permutation(c) for c in game.counts]
    reward = game.reward.reshape(n_states, *game.counts)[np.ix_(s, *acts)]
    transition = game.transition.reshape(n_states, *game.counts, n_states)[np.ix_(s, *acts, s)]
    relabelled = Game(
        game.counts,
        np.ascontiguousarray(reward.reshape(n_states, -1)),
        np.ascontiguousarray(transition.reshape(n_states, -1, n_states)),
        game.gamma,
        game.initial[s],
    )
    return relabelled, [rows[np.ix_(s, a)] for rows, a in zip(start, acts)]


def relabel_rng(seed, workload, k):
    return None if seed == 0 else np.random.default_rng([seed, workload, k])


def suite_params(n_games=100):
    """The seeded suite of ``tests/conftest.py::suite_params``."""
    gammas = (0.5, 0.9)
    alphas = (0.1, 1.0, 5.0)
    for k in range(n_games):
        n_agents = 2 + k % 2
        n_states = 1 + k % 5
        counts = tuple(2 + (k + j) % 3 for j in range(n_agents))
        yield k, n_agents, n_states, counts, gammas[k % 2], alphas[k % 3]


# ---------------------------------------------------------------- solves


def program_game(pkg, game):
    return pkg.CooperativeMarkovGame(
        n_agents=len(game.counts),
        n_states=game.reward.shape[0],
        action_counts=game.counts,
        reward=game.reward.copy(),
        transition=game.transition.copy(),
        gamma=game.gamma,
        initial_dist=game.initial.copy(),
    )


def tables(joint_policy):
    return [agent.table for agent in joint_policy.agents]


def check_iterates(game, alpha, status, policies, records):
    """Converged, a QRE at the limit, and J recomputed and monotone per iterate."""
    if status != "converged":
        return FAILED
    if game.residual(policies, alpha) > RESIDUAL_TOL:
        return WRONG
    previous = -math.inf
    for record in records:
        j = game.ret(list(record.policies), alpha)
        if abs(j - record.maxent_return) > RETURN_TOL or j < previous - RETURN_TOL:
            return WRONG
        previous = j
    return OK


def solve_ops(pkg, label, game, start, alpha, perm_seed):
    """One HASPI, one MEHAML (KL drift) and one oracle solve of a game."""
    pgame = program_game(pkg, game)
    pstart = pkg.joint_policy_from_rows([rows.copy() for rows in start])

    def options(max_iters):
        return pkg.HaspiOptions(alpha=alpha, tol_policy=POLICY_TOL, max_outer_iters=max_iters,
                                permutation_rule=pkg.random_order(perm_seed))

    def haspi(p):
        return p.haspi_solve(pgame, pstart, options(HASPI_MAX_ITERS))

    def check_haspi(result):
        policy, _q, trace = result
        return check_iterates(game, alpha, trace.status, tables(policy), trace.iterations)

    def mehaml(p):
        return p.mehaml_solve(pgame, pstart, alpha, p.kl_drift(KL_BETA), p.full_neighborhood(),
                              options=options(MEHAML_MAX_ITERS))

    def check_mehaml(result):
        policy, trace = result
        return check_iterates(game, alpha, trace.status, tables(policy), trace.iterations)

    def oracle(p):
        return p.qre_fixed_point(pgame, alpha, damping=ORACLE_DAMPING, tol=POLICY_TOL,
                                 max_iters=ORACLE_MAX_ITERS, initial_joint_policy=pstart)

    def check_oracle(solution):
        if not solution.converged:
            return FAILED
        return OK if game.residual(tables(solution.joint_policy), alpha) <= RESIDUAL_TOL else WRONG

    return [
        Op("haspi", f"{label} haspi", haspi, check_haspi),
        Op("mehaml", f"{label} mehaml", mehaml, check_mehaml),
        Op("oracle", f"{label} oracle", oracle, check_oracle),
    ]


def build_suite(pkg, seed, workdir):
    ops = []
    for k, _n_agents, n_states, counts, gamma, alpha in suite_params():
        game = draw_game(1000 + k, counts, n_states, gamma)
        start = draw_start(5000 + k, game)
        if k != NEVER_RELABELLED:
            game, start = relabel(game, start, relabel_rng(seed, 1, k))
        ops += solve_ops(pkg, f"game {k}", game, start, alpha, k)
    return None, ops


def build_large_joint(pkg, seed, workdir):
    ops = []
    for k, (n_agents, n_actions, n_states, draw_seed) in enumerate(LARGE_SHAPES):
        game = draw_game(draw_seed, (n_actions,) * n_agents, n_states, 0.9)
        start = draw_start(draw_seed + 1000, game)
        game, start = relabel(game, start, relabel_rng(seed, 2, k))
        ops += solve_ops(pkg, f"{n_agents}x{n_actions}x{n_states}", game, start, 1.0, k)
    return None, ops


# ---------------------------------------------------------------- CLI files


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def check_trace_csv(path, iterations, monotone):
    rows = read_csv(path)
    if len(rows) != iterations + 2:  # header plus one row per iterate
        return False
    j = [float(row[rows[0].index("J")]) for row in rows[1:]]
    return not monotone or all(b >= a - RETURN_TOL for a, b in zip(j, j[1:]))


def check_summary(game, summary, alpha):
    """Converged, a QRE by the evaluator, and the reported J is the evaluator's."""
    if summary["status"] != "converged":
        return FAILED
    policies = [np.asarray(t) for t in summary["final_policy"]]
    if game.residual(policies, alpha) > RESIDUAL_TOL:
        return WRONG
    return OK if abs(game.ret(policies, alpha) - summary["final_return"]) <= RETURN_TOL else WRONG


def build_cli_files(pkg, seed, workdir):
    n_agents, n_actions, n_states, draw_seed = CLI_GAME
    game = draw_game(draw_seed, (n_actions,) * n_agents, n_states, 0.9)
    game, _start = relabel(game, draw_start(draw_seed + 1000, game), relabel_rng(seed, 3, 0))
    inputs, out = workdir / "inputs", workdir / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs.mkdir(parents=True)
    out.mkdir()
    write_json(inputs / "game.json", {
        "n_agents": n_agents,
        "states": n_states,
        "action_counts": list(game.counts),
        "gamma": game.gamma,
        "initial_dist": game.initial.tolist(),
        "reward": game.reward.reshape(n_states, *game.counts).tolist(),
        "transition": game.transition.reshape(n_states, *game.counts, n_states).tolist(),
    })
    write_json(inputs / "sweep.json", {
        "solver": "haspi", "game": "game.json", "alphas": list(CLI_ALPHAS)})
    write_json(inputs / "mehaml.json", {
        "solver": "mehaml", "game": "game.json", "alpha": 1.0,
        "drift": {"name": "kl", "beta": KL_BETA},
        "neighborhood": {"name": "kl_ball", "radius": 0.1}, "mode": "line_search"})
    write_json(inputs / "qre.json", {
        "solver": "qre-oracle", "game": "game.json", "alpha": 1.0, "damping": ORACLE_DAMPING})
    start = REPLICATION_START[0].tolist()
    write_json(inputs / "happo.json", {
        "solver": "happo", "game": {"matrix": APPENDIX_B.tolist()},
        "initial_policy": [start, start], "update_mode": "mirror",
        "step_size": 0.1, "iterations": 200})

    def command(*argv):
        return lambda p: p.cli.main([*argv, "--out", str(out), "--quiet"])

    def summary(name):
        return json.loads((out / f"{name}_summary.json").read_text())

    def check_replication(code):
        if code != 0:
            return FAILED
        rows = read_csv(out / "replication_table.csv")
        if len(rows) != 1 + len(PUBLISHED_TABLE):
            return WRONG
        matrix = APPENDIX_B_GAME
        start = [REPLICATION_START] * 2
        for row, (alpha, (_first, published)) in zip(rows[1:], PUBLISHED_TABLE.items()):
            values = [float(x) for x in row]
            first, conv = np.array(values[1:4]), np.array([values[4:7]])
            _v, q = refeval.evaluate(matrix.reward, matrix.transition, matrix.gamma, start, alpha)
            closed_form = refeval.logit_responses(q, start, alpha)[0][0]
            if (values[0] != alpha
                    or np.abs(first - closed_form).max() > RETURN_TOL
                    or matrix.residual([conv, conv], alpha) > RESIDUAL_TOL
                    or np.abs(conv[0] - published).max() > REPLICATION_TOL):
                return WRONG
        return OK

    def check_run(name, code, monotone):
        """A solver run's summary and trace CSV."""
        if code != 0:
            return FAILED
        record = summary(name)
        outcome = check_summary(game, record, record["alpha"])
        if outcome == OK and not check_trace_csv(out / f"{name}_trace.csv", record["iterations"], monotone):
            outcome = WRONG
        return outcome

    def check_sweep(code):
        expected = []
        for alpha in CLI_ALPHAS:
            name = f"sweep_alpha{alpha:g}"
            outcome = check_run(name, code, True)
            if outcome != OK:
                return outcome
            branch = read_csv(out / f"{name}_trace.csv")
            if not expected:
                expected.append(["alpha"] + branch[0])
            expected += [[repr(alpha)] + row for row in branch[1:]]
        return OK if read_csv(out / "sweep_sweep.csv") == expected else WRONG

    def check_happo(code):
        if code != 0:
            return FAILED
        record = summary("happo")
        policies = [np.asarray(t) for t in record["final_policy"]]
        plain = APPENDIX_B_GAME.ret(policies, 0.0)
        at_a = all(int(np.argmax(t[0])) == 0 for t in policies)
        ok = (at_a and abs(record["final_return"] - plain) <= RETURN_TOL
              and abs(plain - 5.0) <= 1e-2
              and check_trace_csv(out / "happo_trace.csv", record["iterations"], False))
        return OK if ok else WRONG

    def check_validate(code):
        return OK if code == 0 else FAILED

    def reset():
        shutil.rmtree(out)
        out.mkdir()

    return reset, [
        Op("haspi", "replicate-appendix-b", command("replicate-appendix-b"), check_replication),
        Op("haspi", "sweep-alpha", command("sweep-alpha", str(inputs / "sweep.json")), check_sweep),
        Op("mehaml", "solve", command("solve", str(inputs / "mehaml.json")),
           lambda code: check_run("mehaml", code, True)),
        Op("oracle", "qre", command("qre", str(inputs / "qre.json")),
           lambda code: check_run("qre", code, False)),
        Op("other", "baseline", command("baseline", str(inputs / "happo.json")), check_happo),
        Op("other", "validate", command("validate", str(inputs / "game.json")), check_validate),
    ]


WORKLOADS = {
    "suite": build_suite,
    "large-joint": build_large_joint,
    "cli-files": build_cli_files,
}
