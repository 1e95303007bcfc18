"""Soft dynamic programming for entropy-regularized joint policies.

Everything here operates on exact tables. The central objects are

    V(s)      = E_{a~pi}[Q(s, a)] + alpha * sum_i H(pi^i(.|s))
    (G Q)(s,a) = r(s, a) + gamma * E_{s'~P}[V(s')]

where H is Shannon entropy in nats. The entropy bonus enters through V,
so Q(s, a) excludes the entropy at (s, a) itself and accrues it from the
next state onward. Repeated application of G from any bounded start
contracts to the unique soft Q-table of the policy (gamma < 1); the same
fixed point also satisfies a linear system in V, which
:func:`evaluate_policy_exact` solves directly.

Ordered-subset conditionals Q^{i_1..i_m}(s, a^{i_1..i_m}) average the
joint table over the remaining agents' policies and add their entropy;
the full-subset case is the joint table reindexed, the empty-subset case
is V. Differences of two such tables give the soft advantage.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .game_core import (
    CooperativeMarkovGame,
    JointPolicy,
    joint_action_table,
    policy_entropy_rows,
)

__all__ = [
    "SoftQTable",
    "SoftValueTable",
    "MultiAgentSoftQ",
    "EvaluationNotConverged",
    "zero_soft_q",
    "soft_bellman_backup",
    "soft_value",
    "evaluate_policy_iterative",
    "evaluate_policy_exact",
    "multiagent_soft_q",
    "multiagent_soft_advantage",
    "maxent_return",
]

_AXIS_LETTERS = "abcdefghijk"

_EXACT_RESIDUAL_TOL = 1e-9

# Joint actions per state from which conditionals contract in pairwise
# steps instead of one einsum over every operand (see _conditional_plan).
# The one-shot einsum visits every index of every operand per tensor entry,
# which is cheapest while the tensor is small; a chain of two-operand
# einsums shrinks the tensor at each step, which wins once it is large.
# Averaged over the prefixes a sequential sweep conditions on, the pairwise
# chain took 1.02-1.73x the one-shot time at 5 states on every shape up to
# 216 joint actions and 0.32-0.96x from 243 on; at 10 states it lost up to
# 81 (1.04-1.46x) and won from 125 on (0.27-0.97x). So the crossover lies
# between 216 and 243; the threshold sits a little above it, at 4^4, since
# at 243 (3^5) the chain won by only 4 % at 5 states.
_PAIRWISE_MIN_JOINT_ACTIONS = 256


class EvaluationNotConverged(RuntimeError):
    """Iterative evaluation hit its iteration cap before reaching tol."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"evaluation did not converge in {iterations} iterations "
            f"(last residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True, eq=False)
class SoftQTable:
    """Entropy-regularized action values, shape (|S|, prod|A^i|)."""

    alpha: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2:
            raise ValueError(f"soft Q table must be 2-d, got shape {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "alpha", float(self.alpha))

    @classmethod
    def _unchecked(cls, alpha: float, values: np.ndarray) -> "SoftQTable":
        """A table the evaluation computed: a fresh 2-d float64 C array."""
        values.flags.writeable = False
        table = object.__new__(cls)
        table.__dict__.update(alpha=float(alpha), values=values)
        return table


@dataclass(frozen=True, eq=False)
class SoftValueTable:
    """Entropy-regularized state values, shape (|S|,)."""

    alpha: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1:
            raise ValueError(f"value table must be 1-d, got shape {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True, eq=False)
class MultiAgentSoftQ:
    """Ordered-subset conditional soft Q.

    ``values`` has shape (|S|, |A^{i_1}|, ..., |A^{i_m}|) with axes in
    ``prefix`` order. An empty prefix leaves shape (|S|,) and equals the
    soft value table; the full prefix equals the joint table reindexed.
    """

    alpha: float
    prefix: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "prefix", tuple(int(i) for i in self.prefix))
        object.__setattr__(self, "alpha", float(self.alpha))


def zero_soft_q(game: CooperativeMarkovGame, alpha: float) -> SoftQTable:
    return SoftQTable(alpha, np.zeros((game.n_states, game.n_joint_actions)))


def _check_shapes(game: CooperativeMarkovGame, q: SoftQTable) -> None:
    expected = (game.n_states, game.n_joint_actions)
    if q.values.shape != expected:
        raise ValueError(f"soft Q shape {q.values.shape} does not match game {expected}")


def _check_policy(game: CooperativeMarkovGame, joint_policy: JointPolicy) -> None:
    if joint_policy.n_agents != game.n_agents:
        raise ValueError(
            f"policy has {joint_policy.n_agents} agents, game has {game.n_agents}"
        )
    if joint_policy.n_states != game.n_states:
        raise ValueError(
            f"policy has {joint_policy.n_states} states, game has {game.n_states}"
        )
    for agent, count in zip(joint_policy.agents, game.action_counts):
        if agent.n_actions != count:
            raise ValueError(
                f"agent {agent.agent_id} has {agent.n_actions} actions, game expects {count}"
            )


def _policy_value(
    joint: np.ndarray, q_values: np.ndarray, bonus: np.ndarray, alpha: float
) -> np.ndarray:
    """V(s) from the joint table, the soft Q values and the entropy bonus.

    The average over the joint table is a batched matmul. For a finite Q,
    such as an evaluation's, it cannot warn; :func:`soft_value` silences
    it for a Q the caller supplied, as in :func:`_policy_averages`.
    """
    average = (joint[:, None, :] @ q_values[:, :, None])[:, 0, 0]
    return average + alpha * bonus


def _policy_averages(
    game: CooperativeMarkovGame, joint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """rbar(s) = sum_a pi(a|s) r(s, a) and M(s, s') = sum_a pi(a|s) P(s'|s, a).

    Both are batched matmuls, one (1 x A) @ (A x k) product per state, so
    they run in BLAS. An infinite or NaN entry at an action of probability
    zero gives 0 * inf = NaN there. matmul warns about that, and about an
    overflowing sum, where einsum was silent; for a game without finite
    row sums the warnings are silenced, and the NaN or inf fails the
    bound of :func:`evaluate_policy_exact`. A game with them cannot warn
    and runs the bare matmuls.
    """
    rows = joint[:, None, :]
    quiet = nullcontext() if game._finite_rows else np.errstate(invalid="ignore", over="ignore")
    with quiet:
        rbar = (rows @ game.reward[:, :, None])[:, 0, 0]
        m = (rows @ game.transition)[:, 0, :]
    return rbar, m


def _backup(game: CooperativeMarkovGame, v: np.ndarray) -> np.ndarray:
    """r(s, a) + gamma * E_{s'~P}[V(s')]."""
    return game.reward + game.gamma * (game.transition @ v)


def soft_value(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    alpha: float,
) -> SoftValueTable:
    """V(s) = E_{a~pi}[Q(s,a)] + alpha * sum_i H(pi^i(.|s))."""
    _check_shapes(game, q)
    _check_policy(game, joint_policy)
    with np.errstate(invalid="ignore", over="ignore"):
        values = _policy_value(
            joint_action_table(joint_policy), q.values, joint_policy.entropy_bonus, alpha
        )
    return SoftValueTable(alpha, values)


def soft_bellman_backup(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    alpha: float,
) -> SoftQTable:
    """One application of the entropy-regularized Bellman operator.

    Q'(s, a) = r(s, a) + gamma * sum_{s'} P(s'|s,a) V(s') with V computed
    from the given table and policy.
    """
    v = soft_value(game, joint_policy, q, alpha)
    return SoftQTable(alpha, _backup(game, v.values))


def evaluate_policy_iterative(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> tuple[SoftQTable, int]:
    """Fixed-point iteration of the backup operator from Q = 0.

    Stops once the sup-norm change of successive tables drops below a
    threshold scaled by the contraction factor, min(tol, tol*(1-g)/g),
    which guarantees the returned table is within ``tol`` of the fixed
    point (a raw change below c leaves at most c*g/(1-g) to go). A single
    backup is already exact for gamma = 0. Raises
    :class:`EvaluationNotConverged` if ``max_iters`` is exhausted first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if game.gamma >= 1.0:
        raise ValueError("iterative evaluation requires gamma < 1")
    q = zero_soft_q(game, alpha)
    if game.gamma == 0.0:
        return soft_bellman_backup(game, joint_policy, q, alpha), 1
    threshold = tol * min(1.0, (1.0 - game.gamma) / game.gamma)
    residual = np.inf
    for k in range(1, max_iters + 1):
        q_next = soft_bellman_backup(game, joint_policy, q, alpha)
        residual = float(np.abs(q_next.values - q.values).max())
        q = q_next
        if residual < threshold:
            return q, k
    raise EvaluationNotConverged(max_iters, residual)


def evaluate_policy_exact(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
) -> SoftQTable:
    """Soft Q of a policy by direct linear solve.

    The value vector satisfies (I - gamma M) v = rbar + alpha * h with
    M(s, s') = sum_a pi(a|s) P(s'|s,a), rbar the policy-averaged reward
    and h the per-state entropy bonus; Q = r + gamma P v then follows from
    one backup. The system is solved by dense LU factorization with
    partial pivoting.

    The result is checked against the backup operator G to 1e-9 without
    applying G again. With the solve's residual e = (I - gamma M) v -
    (rbar + alpha * h), the value of Q under the policy is
    rbar + alpha * h + gamma M v = v - e, so G(Q) - Q = -gamma P e
    exactly, and

        max |G(Q) - Q| <= gamma * ||P||_inf * max |e|,

    where ||P||_inf is the largest absolute row sum of P
    (:attr:`~maxent_marl.game_core.CooperativeMarkovGame.transition_norm`).
    The identity uses no property of P, so the bound holds for any kernel,
    stochastic or not, and a NaN in the reward or the kernel makes the
    bound NaN, which fails the check.
    """
    if game.gamma >= 1.0:
        raise ValueError("exact evaluation requires gamma < 1")
    _check_policy(game, joint_policy)
    rbar, m = _policy_averages(game, joint_action_table(joint_policy))
    lhs = np.eye(game.n_states) - game.gamma * m
    rhs = rbar + alpha * joint_policy.entropy_bonus
    try:
        v = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for gamma < 1
        raise RuntimeError(f"evaluation system is singular: {exc}") from exc
    system_residual = float(np.abs(lhs @ v - rhs).max())
    bound = game.gamma * game.transition_norm * system_residual
    # Written so that a NaN bound fails the test too.
    if not bound <= _EXACT_RESIDUAL_TOL:
        raise RuntimeError(
            f"exact evaluation residual {bound:.3e} exceeds {_EXACT_RESIDUAL_TOL}"
        )
    return SoftQTable._unchecked(alpha, _backup(game, v))


def _check_conditional(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    prefix: Sequence[int],
) -> tuple[int, ...]:
    """Validate the arguments of a conditional; returns the prefix as a tuple."""
    _check_shapes(game, q)
    _check_policy(game, joint_policy)
    prefix = tuple(int(i) for i in prefix)
    if len(set(prefix)) != len(prefix):
        raise ValueError(f"prefix {prefix} contains a duplicate agent")
    if any(i < 0 or i >= game.n_agents for i in prefix):
        raise ValueError(f"prefix {prefix} is out of range for {game.n_agents} agents")
    return prefix


@lru_cache(maxsize=4096)
def _conditional_plan(
    action_counts: tuple[int, ...], prefix: tuple[int, ...]
) -> tuple[tuple[tuple[str, tuple[int, ...]], ...], tuple[int, ...]]:
    """How :func:`_conditional_q` contracts one prefix of one game shape.

    Returns the steps and the complement agents. Each step
    ``(subscripts, agents)`` contracts the running tensor, which starts as
    the Q tensor, with the policy tables of ``agents`` in one ``np.einsum``.

    Below ``_PAIRWISE_MIN_JOINT_ACTIONS`` joint actions, and whenever
    fewer than two agents are averaged out, there is a single step over
    every complement table. From that size on there is one two-operand
    step per complement agent, the largest action set first (ties in
    agent order), so that each table shrinks the tensor as much as it can
    before the next one is applied. That is the order the greedy search
    of ``np.einsum_path`` picks for these operands. The plan depends on
    the shape alone and is built once per (action counts, prefix); a game
    of more agents than there are axis letters has none.
    """
    n_agents = len(action_counts)
    if n_agents > len(_AXIS_LETTERS):
        raise ValueError("dense conditionals support at most 11 agents")
    complement = tuple(i for i in range(n_agents) if i not in prefix)
    running = "s" + _AXIS_LETTERS[:n_agents]
    out = "s" + "".join(_AXIS_LETTERS[i] for i in prefix)
    if math.prod(action_counts) < _PAIRWISE_MIN_JOINT_ACTIONS or len(complement) < 2:
        terms = [running] + ["s" + _AXIS_LETTERS[i] for i in complement]
        return ((",".join(terms) + "->" + out, complement),), complement
    order = sorted(complement, key=lambda i: -action_counts[i])
    steps = []
    for i in order:
        letter = _AXIS_LETTERS[i]
        result = out if i == order[-1] else running.replace(letter, "")
        steps.append((f"{running},s{letter}->{result}", (i,)))
        running = result
    return tuple(steps), complement


def _contract(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q_values: np.ndarray,
    prefix: tuple[int, ...],
) -> np.ndarray:
    """E_{a^rest ~ pi}[Q(s, a)] over the agents outside a checked prefix:
    the conditional of :func:`multiagent_soft_q` without their entropy."""
    steps, _complement = _conditional_plan(game.action_counts, prefix)
    values = q_values.reshape(game.n_states, *game.action_counts)
    for subscripts, agents in steps:
        values = np.einsum(subscripts, values, *(joint_policy.agents[i].table for i in agents))
    return values


def _with_entropy(
    joint_policy: JointPolicy, values: np.ndarray, prefix: tuple[int, ...], alpha: float
) -> np.ndarray:
    """Add alpha * sum_{i not in prefix} H(pi^i(.|s)) to a contraction.

    ``values`` has a state axis first; the bonus is constant along the
    others, which may be fewer than the prefix has agents.
    """
    complement = [i for i in range(joint_policy.n_agents) if i not in prefix]
    if complement:
        bonus = np.zeros(joint_policy.n_states)
        for i in complement:
            bonus += policy_entropy_rows(joint_policy.agents[i])
        values = values + alpha * bonus.reshape((-1,) + (1,) * (values.ndim - 1))
    # With the full prefix the einsum result is a transposed view. Callers
    # average over its axes, and in that memory order the sums would round
    # differently, so hand back the C layout.
    return np.ascontiguousarray(values)


def _conditional_q(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q_values: np.ndarray,
    prefix: tuple[int, ...],
    alpha: float,
) -> np.ndarray:
    """The values of :func:`multiagent_soft_q` for checked arguments."""
    values = _contract(game, joint_policy, q_values, prefix)
    return _with_entropy(joint_policy, values, prefix, alpha)


def _agent_coefficients(
    game: CooperativeMarkovGame, joint_policy: JointPolicy, q_values: np.ndarray
) -> list[np.ndarray]:
    """The logit coefficients E_{a^-i ~ pi^-i}[Q(s, a^i, a^-i)] of every agent i.

    Checked arguments. The others' entropy, constant in a^i, is left out;
    :func:`_with_entropy` adds it back bit for bit where it is needed.
    """
    return [_contract(game, joint_policy, q_values, (i,)) for i in range(game.n_agents)]


def multiagent_soft_q(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    prefix: Sequence[int],
    alpha: float,
) -> MultiAgentSoftQ:
    """Condition the joint table on an ordered agent subset.

    Q^{i_1..i_m}(s, a^{i_1..i_m}) =
        E_{a^rest ~ pi}[Q(s, a)] + alpha * sum_{i in rest} H(pi^i(.|s)).

    The expectation runs over the complement agents under the given
    policy; their entropy enters as a state-dependent constant.
    """
    prefix = _check_conditional(game, joint_policy, q, prefix)
    return MultiAgentSoftQ(
        alpha, prefix, _conditional_q(game, joint_policy, q.values, prefix, alpha)
    )


def multiagent_soft_advantage(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    cond_subset: Sequence[int],
    subset: Sequence[int],
    alpha: float,
) -> np.ndarray:
    """Soft advantage of ``subset`` acting after ``cond_subset``.

    A^{subset}(s, a^{cond}, a^{subset}) = Q^{cond+subset} - Q^{cond},
    returned with shape (|S|, |A^{cond...}|..., |A^{subset...}|...).
    """
    cond = tuple(int(i) for i in cond_subset)
    sub = tuple(int(i) for i in subset)
    if set(cond) & set(sub):
        raise ValueError(f"subsets {cond} and {sub} overlap")
    q_both = multiagent_soft_q(game, joint_policy, q, cond + sub, alpha)
    q_cond = multiagent_soft_q(game, joint_policy, q, cond, alpha)
    expand = q_cond.values.reshape(q_cond.values.shape + (1,) * len(sub))
    return q_both.values - expand


def maxent_return(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
) -> float:
    """Entropy-regularized return J = sum_s d(s) V(s), V from the exact solve."""
    q = evaluate_policy_exact(game, joint_policy, alpha)
    v = soft_value(game, joint_policy, q, alpha)
    return float(game.initial_dist @ v.values)
