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

from .common import IterationRecord, SolveTrace, _logit_responses, boltzmann_rows
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    _kl_rows,
    _log_and_entropy,
    joint_action_table,
    sup_policy_distance,
    uniform_joint_policy,
)
from .soft_dp import (
    SoftQTable,
    _agent_coefficients,
    _check_conditional,
    _check_shapes,
    _contract,
    _policy_value,
    evaluate_policy_exact,
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
    if alpha <= 0:
        raise ValueError(f"temperature must be positive, got {alpha}")
    if q is None:
        q = evaluate_policy_exact(game, joint_policy, alpha)
    prefix = _check_conditional(game, joint_policy, q, (agent,))
    coef = _contract(game, joint_policy, q.values, prefix)
    return AgentPolicy(agent, boltzmann_rows(coef, alpha))


def _tables(joint_policy: JointPolicy) -> list[np.ndarray]:
    return [agent.table for agent in joint_policy.agents]


def qre_residual(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    q: Optional[SoftQTable] = None,
) -> float:
    """Sup-norm gap between the policy and its logit response; 0 at a QRE."""
    if alpha <= 0:
        raise ValueError(f"temperature must be positive, got {alpha}")
    if q is None:
        q = evaluate_policy_exact(game, joint_policy, alpha)
    _check_conditional(game, joint_policy, q, ())  # covers every (i,) prefix
    coefficients = _agent_coefficients(game, joint_policy, q.values)
    return float(_logit_responses(_tables(joint_policy), coefficients, alpha)[1])


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
    if alpha <= 0:
        raise ValueError(f"temperature must be positive, got {alpha}")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    jp = initial_joint_policy if initial_joint_policy is not None else uniform_joint_policy(game)
    best_jp = jp
    best_residual = np.inf
    records = [] if record_trace else None
    iterations = 0
    status = "max_iters"
    recent = deque(maxlen=CYCLE_PERIODS[-1] + 1)  # pi_{k-4}, ..., pi_k
    no_streaks = (0,) * len(CYCLE_PERIODS)  # consecutive repeats per period
    streaks = no_streaks
    step = np.inf  # ||pi_k - pi_{k-1}|| = damping * previous residual
    for k in range(max_iters):
        q = evaluate_policy_exact(game, jp, alpha)  # checks the policy
        if k == 0:
            _check_shapes(game, q)  # every iterate's table has this shape
        tables = _tables(jp)
        responses, gap = _logit_responses(tables, _agent_coefficients(game, jp, q.values), alpha)
        residual = float(gap)
        if math.isnan(residual):  # unreachable with a finite Q
            raise RuntimeError("logit response produced a non-finite row")
        if records is not None:
            values = _policy_value(joint_action_table(jp), q.values, jp.entropy_bonus, alpha)
            values.flags.writeable = False
            records.append(
                IterationRecord(
                    iteration=k,
                    permutation=None,
                    policy_change=float("nan") if k == 0 else damping * residual,
                    maxent_return=float(game.initial_dist @ values),
                    values=values,
                    qre_residual=residual,
                    policies=tuple(tables),
                )
            )
        iterations = k + 1
        recent.append(jp)
        if residual < best_residual:
            best_jp, best_residual = jp, residual
            streaks = no_streaks
        else:
            # Only a run that has stopped improving can be cycling.
            streaks = tuple(
                n + 1
                if p < len(recent) and sup_policy_distance(jp, recent[-1 - p]) <= CYCLE_RTOL * step
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
        mixed = [
            AgentPolicy._unchecked(i, (1.0 - damping) * table + damping * rows)
            for i, (table, rows) in enumerate(zip(tables, responses))
        ]
        jp = JointPolicy._unchecked(tuple(mixed))
    trace = None
    if records is not None:
        trace = SolveTrace(iterations=records, status=status, sweeps=max(0, iterations - 1))
    return QreSolution(
        joint_policy=best_jp,
        residual=best_residual,
        iterations=iterations,
        damping=damping,
        status=status,
        trace=trace,
    )


def enumerate_pure_nash(game: CooperativeMarkovGame) -> set[tuple[int, ...]]:
    """All pure Nash joint actions of a single-state game (standard reward).

    A joint action is a pure NE when no agent can strictly increase the
    shared reward by switching its own action.
    """
    if game.n_states != 1:
        raise ValueError("pure Nash enumeration is defined for single-state games")
    reward = game.reward[0].reshape(game.action_counts)
    equilibria: set[tuple[int, ...]] = set()
    for joint in np.ndindex(*game.action_counts):
        value = reward[joint]
        beaten = False
        for i, count in enumerate(game.action_counts):
            for b in range(count):
                if b == joint[i]:
                    continue
                alt = joint[:i] + (b,) + joint[i + 1 :]
                if reward[alt] > value:
                    beaten = True
                    break
            if beaten:
                break
        if not beaten:
            equilibria.add(tuple(int(x) for x in joint))
    return equilibria


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
    if q_old.values.shape != (game.n_states, game.n_joint_actions):
        raise ValueError("soft Q shape does not match game")
    target = boltzmann_rows(q_old.values[s], alpha)
    p = joint_action_table(candidate_joint_policy)[s]
    return float(_kl_rows(p, _log_and_entropy(target)[0]))


def _simplex_grid(n_actions: int, resolution: float) -> np.ndarray:
    """All distributions over n_actions with entries on a 1/m grid."""
    m = max(1, round(1.0 / resolution))
    rows = [
        np.array(c, dtype=np.float64) / m
        for c in _compositions(m, n_actions)
    ]
    return np.asarray(rows)


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
    q_range = float(np.abs(game.reward).max()) / max(1.0 - game.gamma, 1e-12)
    return (q_range + alpha) * resolution * max(game.action_counts)
