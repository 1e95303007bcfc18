"""Finite cooperative Markov games and product joint policies.

A game couples a shared reward tensor r(s, a^1..a^n) with a transition
kernel P(s' | s, a^1..a^n), a discount factor gamma and an initial state
distribution d. All agents receive the same reward. Joint actions are
stored flattened in row-major agent order, so the reward is a dense
(|S|, prod|A^i|) matrix and the kernel a (|S|, prod|A^i|, |S|) tensor;
games here are desk-scale, so clarity beats sparsity.

Construction only enforces structural coherence (shapes, finite gamma).
Probabilistic invariants (stochastic rows, valid initial distribution,
finite rewards, gamma in [0, 1)) are checked by :func:`validate_game`,
which reports violations instead of raising, so that deliberately broken
games can be inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .common import (
    _agent_id, _agent_ids, _check_argument, _check_index, _is_integer, _is_real, _sup_norm,
)

__all__ = [
    "CooperativeMarkovGame",
    "AgentPolicy",
    "JointPolicy",
    "Permutation",
    "new_matrix_game",
    "random_game",
    "validate_game",
    "policy_entropy",
    "policy_entropy_rows",
    "joint_action_prob",
    "joint_action_table",
    "uniform_joint_policy",
    "joint_policy_from_rows",
    "sup_policy_distance",
]

_ROW_SUM_TOL = 1e-12

# Joint actions per state from which the dense joint tensor takes the
# kernels of large tables: the joint table's products come from
# ``np.einsum`` (:func:`_joint_table`), and conditionals contract in
# pairwise batched matmuls instead of one einsum over every operand
# (see soft_dp._conditional_plan). The one-shot einsum visits every index
# of every operand per tensor entry, which is cheapest while the tensor is
# small; a chain of two-operand steps shrinks the tensor at each step,
# which wins once it is large. Averaged over the prefixes a sequential
# sweep conditions on, a chain of two-operand einsums took 1.02-1.73x the
# one-shot time at 5 states on every shape up to 216 joint actions and
# 0.32-0.96x from 243 on; at 10 states it lost up to 81 (1.04-1.46x) and
# won from 125 on (0.27-0.97x). So the crossover lies between 216 and 243;
# the threshold sits a little above it, at 4^4, since at 243 (3^5) the
# chain won by only 4 % at 5 states. The batched matmuls that replaced the
# chain's einsums were measured on the large-joint shapes above it, not at
# the crossover.
_PAIRWISE_MIN_JOINT_ACTIONS = 256


@dataclass(frozen=True, eq=False)
class CooperativeMarkovGame:
    """A finite cooperative Markov game.

    Attributes:
        n_agents: number of agents n >= 1.
        n_states: number of states |S| >= 1.
        action_counts: per-agent action-set sizes (|A^1|, ..., |A^n|).
        reward: shared reward, shape (|S|, prod|A^i|), joint actions
            flattened in row-major agent order.
        transition: kernel P(s' | s, a), shape (|S|, prod|A^i|, |S|).
        gamma: discount factor (validated to [0, 1) by validate_game).
        initial_dist: initial state distribution, shape (|S|,).
        n_joint_actions: prod|A^i|, set at construction.
        transition_norm: max_{s,a} sum_{s'} |P(s'|s,a)|, cached on first use.

    Construction takes a reward, kernel or initial distribution that is
    already a C-ordered float64 array as it is, without a copy, and makes
    it read-only; any other input is converted into a new array first. A
    caller that goes on writing to its own array passes a copy: copying
    the kernel at every construction would double the memory a large game
    takes while it is built.
    """

    n_agents: int
    n_states: int
    action_counts: tuple[int, ...]
    reward: np.ndarray
    transition: np.ndarray
    gamma: float
    initial_dist: np.ndarray
    n_joint_actions: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_agents, n_states, counts = _counts(self.n_agents, self.n_states, self.action_counts)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "n_agents", n_agents)
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "gamma", float(self.gamma))
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        n_joint = math.prod(counts)
        object.__setattr__(self, "n_joint_actions", n_joint)
        reward = np.ascontiguousarray(np.asarray(self.reward, dtype=np.float64))
        transition = np.ascontiguousarray(np.asarray(self.transition, dtype=np.float64))
        initial = np.ascontiguousarray(np.asarray(self.initial_dist, dtype=np.float64))
        if reward.shape != (self.n_states, n_joint):
            raise ValueError(
                f"reward shape {reward.shape} != {(self.n_states, n_joint)}"
            )
        if transition.shape != (self.n_states, n_joint, self.n_states):
            raise ValueError(
                f"transition shape {transition.shape} != "
                f"{(self.n_states, n_joint, self.n_states)}"
            )
        if initial.shape != (self.n_states,):
            raise ValueError(
                f"initial_dist shape {initial.shape} != {(self.n_states,)}"
            )
        for arr in (reward, transition, initial):
            arr.flags.writeable = False
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "initial_dist", initial)

    @cached_property
    def transition_norm(self) -> float:
        """The induced sup-norm of P: its largest absolute row sum over (s, a).

        NaN if any entry is NaN. Computed on first use and cached; the
        kernel is read-only, so it cannot go stale.
        """
        return float(np.abs(self.transition).sum(axis=2).max())

    @cached_property
    def _finite_rows(self) -> bool:
        """Whether the reward and the kernel have finite absolute row sums.

        Then every entry is finite, and an average of either under a policy
        makes no NaN and does not overflow. Computed on first use and
        cached, like :attr:`transition_norm`.
        """
        with np.errstate(over="ignore"):
            reward_norm = float(np.abs(self.reward).sum(axis=1).max())
        return math.isfinite(self.transition_norm) and math.isfinite(reward_norm)

    def joint_actions(self) -> Iterator[tuple[int, ...]]:
        """Iterate over all joint actions in flat-index order."""
        return iter(np.ndindex(*self.action_counts))


def _counts(n_agents, n_states, action_counts) -> tuple[int, int, tuple[int, ...]]:
    """A game's counts as ints. A ValueError names a count that is no
    integer (a bool is none, and nothing is truncated) or is not positive,
    and action counts that are not one per agent; numpy's integers pass."""
    counts = tuple(action_counts)
    named = [("n_agents", n_agents), ("n_states", n_states)]
    named += [(f"action_counts[{i}]", c) for i, c in enumerate(counts)]
    for name, value in named:
        if not _is_integer(value):
            raise ValueError(f"a game's counts must be integers, got {name}={value!r}")
    if n_agents < 1:
        raise ValueError("a game needs at least one agent")
    if n_states < 1:
        raise ValueError("a game needs at least one state")
    if len(counts) != n_agents:
        raise ValueError(f"action_counts has {len(counts)} entries for {n_agents} agents")
    if any(c < 1 for c in counts):
        raise ValueError(f"action counts must be positive, got {counts}")
    return int(n_agents), int(n_states), tuple(int(c) for c in counts)


@dataclass(frozen=True, eq=False)
class AgentPolicy:
    """One agent's stochastic action table, one row per state.

    Rows must be probability distributions (sum to 1 within 1e-12, so a
    row holding NaN or an infinity is rejected) and every entry must be at
    least ``floor``. The floor is a declared lower bound, finite and
    non-negative, default 0, and ``agent_id`` an integer, not a bool;
    deterministic rows are legitimate at floor 0, while Boltzmann-produced
    rows are strictly positive analytically without needing a positive
    floor. Construction makes the table a read-only copy of the input, so
    the logs and row entropies cached on first use cannot go stale. The
    solvers and the baselines iterate on plain tables and build policies,
    with :func:`joint_policy_from_rows`, only for their results.
    """

    agent_id: int
    table: np.ndarray
    floor: float = 0.0

    def __post_init__(self) -> None:
        table = np.array(self.table, dtype=np.float64, order="C")
        if table.ndim != 2:
            raise ValueError(f"policy table must be 2-d, got shape {table.shape}")
        if not (_is_real(self.floor) and 0 <= self.floor < math.inf):
            raise ValueError(f"policy floor must be finite and non-negative, got floor={self.floor}")
        sums = table.sum(axis=1)
        # Written so that a NaN sum fails the test too.
        if not abs(sums - 1.0).max(initial=0.0) <= _ROW_SUM_TOL:
            s = int(np.argmin(abs(sums - 1.0) <= _ROW_SUM_TOL))
            raise ValueError(
                f"agent {self.agent_id} policy row at state {s} sums to {sums[s]!r}"
            )
        if table.min(initial=np.inf) < self.floor - _ROW_SUM_TOL:
            raise ValueError(
                f"agent {self.agent_id} policy has entries below floor {self.floor}"
            )
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "agent_id", _agent_id(self.agent_id, "agent_id"))

    @property
    def n_states(self) -> int:
        return self.table.shape[0]

    @property
    def n_actions(self) -> int:
        return self.table.shape[1]

    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        """log pi, -inf where pi is not positive, and the row entropies.

        Computed together once, without a warning; both read-only.
        """
        return _table_logs(self.table)


@dataclass(frozen=True, eq=False)
class JointPolicy:
    """An ordered tuple of per-agent policies forming a product policy.

    The joint probability of a joint action is the product of per-agent
    probabilities. The dense joint table and the summed entropy bonus are
    derived on first use and cached; the agents' tables are read-only, so
    neither can go stale.
    """

    agents: tuple[AgentPolicy, ...]

    def __post_init__(self) -> None:
        agents = tuple(self.agents)
        object.__setattr__(self, "agents", agents)
        if not agents:
            raise ValueError("a joint policy needs at least one agent")
        for i, pol in enumerate(agents):
            if pol.agent_id != i:
                raise ValueError(
                    f"agent at position {i} has agent_id {pol.agent_id}"
                )
            if pol.n_states != agents[0].n_states:
                raise ValueError("all agents must share the same state count")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_states(self) -> int:
        return self.agents[0].n_states

    @cached_property
    def _action_table(self) -> np.ndarray:
        table = _joint_table([agent.table for agent in self.agents])
        table.flags.writeable = False
        return table

    @cached_property
    def entropy_bonus(self) -> np.ndarray:
        """sum_i H(pi^i(.|s)) for every state, shape (|S|,), read-only."""
        total = _entropy_bonus([policy_entropy_rows(agent) for agent in self.agents])
        total.flags.writeable = False
        return total

    def replace(self, policy: AgentPolicy) -> "JointPolicy":
        """A copy with one agent's policy swapped out."""
        agents = list(self.agents)
        agents[policy.agent_id] = policy
        return JointPolicy(tuple(agents))


@dataclass(frozen=True)
class Permutation:
    """An ordering of the agents 0..n-1; each index appears exactly once,
    as an integer, not a bool."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = _agent_ids(self.order, "order")
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"{order} is not a permutation of 0..{len(order) - 1}")


def new_matrix_game(reward_matrix: np.ndarray) -> CooperativeMarkovGame:
    """Single-state two-agent game from a reward matrix, gamma = 0.

    With a single self-looping state and gamma = 0 the soft Q-table of
    any policy equals the reward matrix, so one-shot matrix reasoning
    carries over exactly.
    """
    matrix = np.asarray(reward_matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"reward matrix must be 2-d, got shape {matrix.shape}")
    if matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError("reward matrix needs at least one row and one column")
    if not np.isfinite(matrix).all():
        i, j = map(int, np.argwhere(~np.isfinite(matrix))[0])
        raise ValueError(f"reward matrix entry ({i}, {j}) is not finite")
    n_joint = matrix.size
    return CooperativeMarkovGame(
        n_agents=2,
        n_states=1,
        action_counts=matrix.shape,
        reward=matrix.reshape(1, n_joint),
        transition=np.ones((1, n_joint, 1)),
        gamma=0.0,
        initial_dist=np.array([1.0]),
    )


def random_game(
    seed: int,
    n_agents: int,
    n_states: int,
    action_counts: Sequence[int],
    reward_low: float,
    reward_high: float,
    gamma: float,
) -> CooperativeMarkovGame:
    """Seeded random game; identical arguments give identical tensors.

    Rewards are uniform in [reward_low, reward_high]; transition rows are
    drawn uniform and normalized; the initial distribution is uniform.
    """
    _check_argument("seed", seed, "seed")
    n_agents, n_states, counts = _counts(n_agents, n_states, action_counts)
    if not (math.isfinite(reward_low) and math.isfinite(reward_high)):
        raise ValueError("reward bounds must be finite")
    if reward_low > reward_high:
        raise ValueError("reward_low must not exceed reward_high")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    rng = np.random.default_rng(seed)
    n_joint = math.prod(counts)
    reward = rng.uniform(reward_low, reward_high, size=(n_states, n_joint))
    transition = rng.uniform(size=(n_states, n_joint, n_states))
    transition /= transition.sum(axis=2, keepdims=True)
    return CooperativeMarkovGame(
        n_agents=n_agents,
        n_states=n_states,
        action_counts=counts,
        reward=reward,
        transition=transition,
        gamma=gamma,
        initial_dist=np.full(n_states, 1.0 / n_states),
    )


def validate_game(game: CooperativeMarkovGame) -> list[str]:
    """Check all game invariants; return a list of violations (never raises).

    Empty list means the game is well formed. Each violation names the
    offending field and index.
    """
    violations: list[str] = []

    def cell(s: int, a: int) -> str:
        joint = np.unravel_index(int(a), game.action_counts)
        return f"s={int(s)}, a={tuple(int(x) for x in joint)}"

    if not 0.0 <= game.gamma < 1.0:
        violations.append(f"gamma = {game.gamma} is outside [0, 1)")
    for s, a in np.argwhere(~np.isfinite(game.reward)):
        violations.append(f"reward[{cell(s, a)}] is not finite")
    finite = np.isfinite(game.transition)
    for s, a, t in np.argwhere(~finite):
        violations.append(f"transition[{cell(s, a)}] to s'={int(t)} is not finite")
    row_sums = game.transition.sum(axis=2)
    off = finite.all(axis=2) & (np.abs(row_sums - 1.0) > _ROW_SUM_TOL)
    for s, a in np.argwhere(off):
        violations.append(f"transition[{cell(s, a)}] sums to {row_sums[s, a]!r}")
    for s, a in np.argwhere((game.transition < 0).any(axis=2)):
        violations.append(f"transition[{cell(s, a)}] has negative entries")
    initial = game.initial_dist
    initial_finite = np.isfinite(initial)
    for (s,) in np.argwhere(~initial_finite):
        violations.append(f"initial_dist[{int(s)}] is not finite")
    total = initial.sum()
    if initial_finite.all() and abs(total - 1.0) > _ROW_SUM_TOL:
        violations.append(f"initial_dist sums to {total!r}")
    if (initial < 0).any():
        s = int(np.flatnonzero(initial < 0)[0])
        violations.append(f"initial_dist[{s}] is negative")
    return violations


def policy_entropy(policy: AgentPolicy, s: int) -> float:
    """Shannon entropy in nats of the policy row at state s; 0*log 0 = 0."""
    s = _check_index("state", s, policy.n_states, "s")
    return float(_log_and_entropy(policy.table[s])[1])


def policy_entropy_rows(policy: AgentPolicy) -> np.ndarray:
    """Entropy of every state's row at once, shape (|S|,), read-only.

    Computed on the policy's first call and cached on it.
    """
    return policy._logs[1]


def _log_and_entropy(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p, -inf where p is not positive, and the entropy of every row.

    The entropy -sum_a p(a) log p(a) runs over the last axis, with
    0 log 0 = 0; no warning. The one entropy formula of the package.
    """
    # NaN fails the test too; an empty table takes the first branch.
    if np.minimum.reduce(table, axis=None, initial=np.inf) > 0.0:
        log = np.log(table)
        terms = table * log
    else:
        positive = table > 0.0
        log = np.log(table, out=np.full(table.shape, -np.inf), where=positive)
        # 0 * log 0 = 0: entries that are not positive add a zero term.
        terms = np.multiply(table, log, out=np.zeros(table.shape), where=positive)
    return log, -np.add.reduce(terms, axis=-1)


def _table_logs(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A policy table's log and entropy rows; the table and both made read-only.

    Computed once per table: by :class:`AgentPolicy` on first use, and by
    the solvers when they make a table, which they then hold next to it.
    """
    log, rows = _log_and_entropy(table)
    for array in (table, log, rows):
        array.flags.writeable = False
    return log, rows


def _policy_arrays(joint_policy: JointPolicy) -> tuple[list, list, list]:
    """Every agent's table, log table and entropy rows: a solver's state."""
    agents = joint_policy.agents
    return [a.table for a in agents], [a._logs[0] for a in agents], [a._logs[1] for a in agents]


def _joint_table(tables: Sequence[np.ndarray]) -> np.ndarray:
    """The product distribution over flattened joint actions, (|S|, prod|A^i|).

    Each entry is one product of two factors, so both kernels give the same
    bits: a broadcast multiply for small products, and from
    ``_PAIRWISE_MIN_JOINT_ACTIONS`` entries per state ``np.einsum``, whose
    loop runs about 1.6x faster there (6 agents x 5 actions x 8 states,
    one thread of a shared 2-vCPU x86-64 VM: 220 against 350 us).
    """
    table = tables[0]
    for other in tables[1:]:
        if table.shape[1] * other.shape[1] < _PAIRWISE_MIN_JOINT_ACTIONS:
            table = table[:, :, None] * other[:, None, :]
        else:
            table = np.einsum("sa,sb->sab", table, other)
        table = table.reshape(table.shape[0], -1)
    return table


def _entropy_bonus(entropies: Sequence[np.ndarray]) -> np.ndarray:
    """The sum of agents' entropy rows, in agent order, from zero."""
    total = 0.0 + entropies[0]
    for rows in entropies[1:]:
        total += rows
    return total


def _kl_rows(p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """KL(p || q) of every row over the last axis, from p and log q.

    0 log 0 = 0, and an entry with p > 0 where log q = -inf makes the row
    infinite; no warning. The one KL formula of the package.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - log_q), 0.0)
    return np.add.reduce(terms, axis=-1)


def joint_action_prob(
    joint_policy: JointPolicy, s: int, joint_action: Sequence[int]
) -> float:
    """Probability of a joint action: product of per-agent entries.

    The state and each agent's action must be in range, and the joint
    action must hold one action per agent; else a ValueError names them.
    """
    s = _check_index("state", s, joint_policy.n_states, "s")
    if len(joint_action) != joint_policy.n_agents:
        raise ValueError(f"joint action {tuple(joint_action)} is not one action per agent")
    prob = 1.0
    for i, (agent, a) in enumerate(zip(joint_policy.agents, joint_action)):
        a = _check_index("action", a, agent.n_actions, f"joint_action[{i}]")
        prob *= float(agent.table[s, a])
    return prob


def joint_action_table(joint_policy: JointPolicy) -> np.ndarray:
    """Dense product distribution over flattened joint actions, (|S|, prod|A^i|).

    Read-only; computed on the joint policy's first call and cached on it.
    """
    return joint_policy._action_table


def uniform_joint_policy(game: CooperativeMarkovGame) -> JointPolicy:
    agents = tuple(
        AgentPolicy(i, np.full((game.n_states, c), 1.0 / c))
        for i, c in enumerate(game.action_counts)
    )
    return JointPolicy(agents)


def joint_policy_from_rows(rows: Sequence[np.ndarray]) -> JointPolicy:
    """Build a joint policy from one (|S|, |A^i|) table per agent."""
    agents = tuple(AgentPolicy(i, t) for i, t in enumerate(rows))
    return JointPolicy(agents)


def sup_policy_distance(a: JointPolicy, b: JointPolicy) -> float:
    """Max over agents, states and actions of |pi_a - pi_b|."""
    return _sup_distance([p.table for p in a.agents], [p.table for p in b.agents])


def _sup_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """:func:`sup_policy_distance` of two lists of tables."""
    return max(float(_sup_norm(ta - tb)) for ta, tb in zip(a, b))
