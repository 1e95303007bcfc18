"""Independent equilibrium machinery: logit responses and checks.

A joint policy is a quantal response (logit) equilibrium at temperature
alpha when every agent's row is the Boltzmann distribution over its
expected soft Q against the other agents:

    pi^i(a|s) = exp(E_{a^-i ~ pi^-i}[Q_pi(s, a, a^-i)] / alpha) / Z(s).

This module provides the logit response itself, a residual measuring
distance from that fixed point, a damped simultaneous iteration that
serves as a solver algorithmically independent of the sequential policy
iteration in :mod:`maxent_marl.haspi`, pure Nash enumeration for
single-state games, the joint Kullback-Leibler objective against the
Boltzmann density of a frozen Q-table, and a brute-force unilateral
deviation check on a simplex grid.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .common import (
    IterationRecord,
    SolveTrace,
    _agent_id,
    _check_argument,
    _check_index,
    _logit_responses,
    boltzmann_rows,
)
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    _kl_rows,
    _log_and_entropy,
    _policy_arrays,
    _sup_distance,
    _table_logs,
    joint_action_table,
    joint_policy_from_rows,
    uniform_joint_policy,
)
from .soft_dp import (
    SoftQTable,
    _agent_coefficients,
    _check_evaluated,
    _check_prefix,
    _contract,
    _evaluate_tables,
    _policy_value,
    _start,
    maxent_return,
)

__all__ = [
    "QreSolution",
    "logit_response",
    "qre_residual",
    "qre_fixed_point",
    "enumerate_pure_nash",
    "joint_kl_objective",
    "unilateral_deviation_gain",
    "deviation_grid_slack",
    "boltzmann_rows",
]

_MAX_GRID_ACTIONS = 4

# The damped iteration stops as a cycle of period p when, on CYCLE_REPEATS * p
# consecutive iterations that set no new best residual, each iterate returns
# to the one p steps back relative to its own step:
# ||pi_k - pi_{k-p}|| <= CYCLE_RTOL * ||pi_k - pi_{k-1}||. A run nearing its
# fixed point repeats at every lag only about as closely as it steps (the
# ratio stays of order one), so the test is relative, not a multiple of tol.
CYCLE_PERIODS = (2, 3, 4)
CYCLE_RTOL = 1e-6
CYCLE_REPEATS = 3


def logit_response(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    agent: int,
    alpha: float,
    q: Optional[SoftQTable] = None,
) -> AgentPolicy:
    """Boltzmann best response of one agent to the others' current policies.

    The coefficients are E_{a^-i ~ pi^-i}[Q(s, a^i, a^-i)] under the soft
    Q-table of the current joint policy (evaluated exactly unless a table
    is supplied).
    """
    coef = _logit_coefficients(game, joint_policy, _agent_id(agent, "agent"), alpha, q)[1][0]
    return AgentPolicy(agent, boltzmann_rows(coef, alpha))


def qre_residual(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    q: Optional[SoftQTable] = None,
) -> float:
    """Sup-norm gap between the policy and its logit response; 0 at a QRE."""
    tables, coefficients = _logit_coefficients(game, joint_policy, None, alpha, q)
    return float(_logit_responses(tables, coefficients, alpha)[1])


def _logit_coefficients(game, joint_policy, agent, alpha, q):
    """The policy's tables, and the logit coefficients of ``agent`` alone or,
    given None, of every agent, under ``q`` or, when none is supplied, under
    the policy's exact soft Q.

    The evaluation checks the policy at its start; a supplied table is
    checked here against the game and the policy.
    """
    _check_argument("temperature", alpha, "alpha")
    prefix = None if agent is None else _check_prefix(game, (agent,))
    if q is None:
        (tables, _logs, _entropies), q_values = _start(game, joint_policy, alpha)[:2]
    else:
        _check_evaluated(game, joint_policy, q, alpha)
        tables, q_values = _policy_arrays(joint_policy)[0], q.values
    if prefix is None:
        return tables, _agent_coefficients(game, tables, q_values)
    return tables, [_contract(game, tables, q_values, prefix)]


@dataclass(frozen=True, eq=False)
class QreSolution:
    """Result of the damped logit iteration.

    ``status`` says why it stopped: "converged" (residual below the
    tolerance), "cycle" (an exact cycle of period 2-4) or "max_iters".
    """

    joint_policy: JointPolicy
    residual: float
    iterations: int
    damping: float
    status: str
    trace: Optional[object] = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def qre_fixed_point(
    game: CooperativeMarkovGame,
    alpha: float,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iters: int = 10_000,
    initial_joint_policy: Optional[JointPolicy] = None,
    record_trace: bool = False,
) -> QreSolution:
    """Damped simultaneous logit iteration.

    Every sweep re-evaluates the soft Q-table of the current policy,
    computes all agents' logit responses at once and relaxes

        pi <- (1 - damping) * pi + damping * response.

    Returns the best iterate seen (smallest residual). The run stops when
    the residual drops below ``tol`` (status "converged"), when the
    iterates repeat with a period in ``CYCLE_PERIODS`` (status "cycle",
    see ``CYCLE_RTOL``), or after ``max_iters`` iterations; ``converged``
    is False in the last two cases, and the caller decides what to do with
    the reported residual.
    """
    _check_argument("temperature", alpha, "alpha")
    _check_argument("damping", damping, "damping")
    _check_argument("tolerance", tol, "tol")
    _check_argument("iteration cap", max_iters, "max_iters")
    jp = initial_joint_policy if initial_joint_policy is not None else uniform_joint_policy(game)
    (tables, _logs, entropies), q, joint, bonus, _ = _start(game, jp, alpha)
    best = tables
    eye = np.eye(game.n_states)
    best_residual = np.inf
    records = [] if record_trace else None
    iterations = 0
    status = "max_iters"
    recent = deque(maxlen=CYCLE_PERIODS[-1] + 1)  # the tables of pi_{k-4}, ..., pi_k
    no_streaks = (0,) * len(CYCLE_PERIODS)  # consecutive repeats per period
    streaks = no_streaks
    step = np.inf  # ||pi_k - pi_{k-1}|| = damping * previous residual
    for k in range(max_iters):
        if k:
            q, joint, bonus, _ = _evaluate_tables(game, tables, entropies, alpha, eye)
        responses, gap = _logit_responses(tables, _agent_coefficients(game, tables, q), alpha)
        residual = float(gap)
        if math.isnan(residual):  # unreachable with a finite Q
            raise RuntimeError("logit response produced a non-finite row")
        if records is not None:
            values = _policy_value(joint, q, bonus, alpha)
            values.flags.writeable = False
            change = float("nan") if k == 0 else damping * residual
            ret = float(game.initial_dist @ values)
            records.append(IterationRecord(k, None, change, ret, values, residual, tuple(tables)))
        iterations = k + 1
        recent.append(tables)
        if residual < best_residual:
            best, best_residual = tables, residual
            streaks = no_streaks
        else:
            # Only a run that has stopped improving can be cycling.
            streaks = tuple(
                n + 1
                if p < len(recent) and _sup_distance(tables, recent[-1 - p]) <= CYCLE_RTOL * step
                else 0
                for p, n in zip(CYCLE_PERIODS, streaks)
            )
            if any(n >= CYCLE_REPEATS * p for p, n in zip(CYCLE_PERIODS, streaks)):
                status = "cycle"
                break
        if residual < tol:
            status = "converged"
            break
        step = damping * residual
        # Finite rows (the residual above is finite), stochastic by construction.
        tables = [(1.0 - damping) * t + damping * rows for t, rows in zip(tables, responses)]
        entropies = [_table_logs(t)[1] for t in tables]
    trace = None
    if records is not None:
        trace = SolveTrace(iterations=records, status=status, sweeps=max(0, iterations - 1))
    return QreSolution(
        joint_policy=joint_policy_from_rows(best),
        residual=best_residual,
        iterations=iterations,
        damping=damping,
        status=status,
        trace=trace,
    )


def enumerate_pure_nash(game: CooperativeMarkovGame) -> set[tuple[int, ...]]:
    """All pure Nash joint actions of a single-state game (standard reward).

    A joint action is a pure NE when no agent can strictly increase the
    shared reward by switching its own action: its reward is the largest
    along every agent's axis. A reward entry that is not finite is named
    and rejected.
    """
    if game.n_states != 1:
        raise ValueError("pure Nash enumeration is defined for single-state games")
    reward = game.reward[0].reshape(game.action_counts)
    if not np.isfinite(reward).all():
        joint = tuple(map(int, np.argwhere(~np.isfinite(reward))[0]))
        raise ValueError(f"reward entry {joint} is not finite")
    best = [reward == reward.max(axis=i, keepdims=True) for i in range(reward.ndim)]
    return {tuple(map(int, joint)) for joint in np.argwhere(np.logical_and.reduce(best))}


def joint_kl_objective(
    game: CooperativeMarkovGame,
    q_old: SoftQTable,
    candidate_joint_policy: JointPolicy,
    alpha: float,
    s: int,
) -> float:
    """KL(candidate product policy || Boltzmann density of q_old / alpha) at state s.

    The Boltzmann density lives on joint actions; the candidate's joint
    distribution is its per-agent product, enumerated exactly.
    """
    _check_evaluated(game, candidate_joint_policy, q_old, alpha)
    s = _check_index("state", s, game.n_states, "s")
    target = boltzmann_rows(q_old.values[s], alpha)
    p = joint_action_table(candidate_joint_policy)[s]
    return float(_kl_rows(p, _log_and_entropy(target)[0]))


def _simplex_grid(n_actions: int, resolution: float) -> np.ndarray:
    """All distributions over n_actions with entries on a 1/m grid."""
    m = round(1.0 / resolution)
    return np.array(list(_compositions(m, n_actions)), dtype=np.float64) / m


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def unilateral_deviation_gain(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    grid_resolution: float = 0.01,
) -> float:
    """Best entropy-regularized return gain from a gridded one-agent deviation.

    For each agent and state, every grid row replaces that single state's
    row while the rest of the joint policy stays fixed, and the return is
    recomputed exactly. If no single-state row change helps, no unilateral
    deviation helps (local policy improvement would otherwise find one),
    so at a QRE the gain is bounded by the grid-induced slack.
    """
    _check_argument("grid resolution", grid_resolution, "grid_resolution")
    for count in game.action_counts:
        if count > _MAX_GRID_ACTIONS:
            raise ValueError(
                f"grid search supports at most {_MAX_GRID_ACTIONS} actions per agent; "
                f"an agent has {count}. Use qre_residual for larger games."
            )
    base = maxent_return(game, joint_policy, alpha)
    gain = 0.0
    for i, count in enumerate(game.action_counts):
        grid = _simplex_grid(count, grid_resolution)
        for s in range(game.n_states):
            table = joint_policy.agents[i].table
            for row in grid:
                trial_table = table.copy()
                trial_table[s] = row
                trial = joint_policy.replace(AgentPolicy(i, trial_table))
                gain = max(gain, maxent_return(game, trial, alpha) - base)
    return gain


def deviation_grid_slack(
    game: CooperativeMarkovGame, alpha: float, resolution: float
) -> float:
    """Lipschitz-style bound on the return change across one grid cell.

    The true best response sits at most ``resolution`` (per entry) away
    from some grid row; the return is Lipschitz in that row with constant
    of the order of the soft Q range, estimated here from the reward span.
    """
    _check_argument("grid resolution", resolution, "resolution")
    q_range = float(np.abs(game.reward).max()) / max(1.0 - game.gamma, 1e-12)
    return (q_range + alpha) * resolution * max(game.action_counts)
