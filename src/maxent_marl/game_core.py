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
        counts = tuple(int(c) for c in self.action_counts)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "n_agents", int(self.n_agents))
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.n_agents < 1:
            raise ValueError("a game needs at least one agent")
        if self.n_states < 1:
            raise ValueError("a game needs at least one state")
        if len(counts) != self.n_agents:
            raise ValueError(
                f"action_counts has {len(counts)} entries for {self.n_agents} agents"
            )
        if any(c < 1 for c in counts):
            raise ValueError(f"action counts must be positive, got {counts}")
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

    def joint_index(self, joint_action: Sequence[int]) -> int:
        """Flat index of a joint action tuple (row-major agent order)."""
        return int(np.ravel_multi_index(tuple(joint_action), self.action_counts))

    def joint_actions(self) -> Iterator[tuple[int, ...]]:
        """Iterate over all joint actions in flat-index order."""
        return iter(np.ndindex(*self.action_counts))


@dataclass(frozen=True, eq=False)
class AgentPolicy:
    """One agent's stochastic action table, one row per state.

    Rows must be probability distributions (sum to 1 within 1e-12, so a
    row holding NaN or an infinity is rejected) and every entry must be at
    least ``floor``. The floor is a declared lower bound, default 0;
    deterministic rows are legitimate at floor 0, while Boltzmann-produced
    rows are strictly positive analytically without needing a positive
    floor. Public construction makes the table a read-only copy of the
    input, so the logs and row entropies cached on first use cannot go
    stale. The solvers build the rows they normalize themselves through
    :meth:`_unchecked`, which skips the copy and the checks.
    """

    agent_id: int
    table: np.ndarray
    floor: float = 0.0

    def __post_init__(self) -> None:
        table = np.array(self.table, dtype=np.float64, order="C")
        if table.ndim != 2:
            raise ValueError(f"policy table must be 2-d, got shape {table.shape}")
        if self.floor < 0:
            raise ValueError("policy floor must be non-negative")
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
        object.__setattr__(self, "agent_id", int(self.agent_id))

    @classmethod
    def _unchecked(cls, agent_id: int, table: np.ndarray) -> "AgentPolicy":
        """A policy over rows its solver made stochastic and checked finite.

        No copy and no reductions: ``table`` is a fresh float64 array the
        caller owns, and it is made read-only here.
        """
        table.flags.writeable = False
        policy = object.__new__(cls)
        policy.__dict__.update(agent_id=agent_id, table=table, floor=0.0)
        return policy

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
        log, rows = _log_and_entropy(self.table)
        log.flags.writeable = False
        rows.flags.writeable = False
        return log, rows

    @property
    def _log_table(self) -> np.ndarray:
        return self._logs[0]

    @property
    def _entropy_rows(self) -> np.ndarray:
        return self._logs[1]


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
        table = self.agents[0].table
        for agent in self.agents[1:]:
            table = table[:, :, None] * agent.table[:, None, :]
            table = table.reshape(table.shape[0], -1)
        table.flags.writeable = False
        return table

    @cached_property
    def entropy_bonus(self) -> np.ndarray:
        """sum_i H(pi^i(.|s)) for every state, shape (|S|,), read-only."""
        total = np.zeros(self.n_states)
        for agent in self.agents:
            total += policy_entropy_rows(agent)
        total.flags.writeable = False
        return total

    @classmethod
    def _unchecked(cls, agents: tuple[AgentPolicy, ...]) -> "JointPolicy":
        """A joint policy over agents a solver placed in id order itself."""
        joint = object.__new__(cls)
        joint.__dict__["agents"] = agents
        return joint

    def replace(self, policy: AgentPolicy) -> "JointPolicy":
        """A copy with one agent's policy swapped out."""
        agents = list(self.agents)
        agents[policy.agent_id] = policy
        return JointPolicy(tuple(agents))


@dataclass(frozen=True)
class Permutation:
    """An ordering of the agents 0..n-1; each index appears exactly once."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(int(i) for i in self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"{order} is not a permutation of 0..{len(order) - 1}")

    @classmethod
    def _unchecked(cls, order: tuple[int, ...]) -> "Permutation":
        """A permutation a sampler drew as Python ints."""
        perm = object.__new__(cls)
        perm.__dict__["order"] = order
        return perm

    def __len__(self) -> int:
        return len(self.order)


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
    counts = tuple(int(c) for c in action_counts)
    if n_states < 1 or any(c < 1 for c in counts):
        raise ValueError("state and action counts must be positive")
    if len(counts) != n_agents:
        raise ValueError(f"expected {n_agents} action counts, got {len(counts)}")
    if not (math.isfinite(reward_low) and math.isfinite(reward_high)):
        raise ValueError("reward bounds must be finite")
    if reward_low > reward_high:
        raise ValueError("reward_low must not exceed reward_high")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    rng = np.random.default_rng(seed)
    n_joint = int(np.prod(counts))
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
    return float(_log_and_entropy(policy.table[s])[1])


def policy_entropy_rows(policy: AgentPolicy) -> np.ndarray:
    """Entropy of every state's row at once, shape (|S|,), read-only.

    Computed on the policy's first call and cached on it.
    """
    return policy._entropy_rows


def _log_and_entropy(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p, -inf where p is not positive, and the entropy of every row.

    The entropy -sum_a p(a) log p(a) runs over the last axis, with
    0 log 0 = 0; no warning. The one entropy formula of the package.
    """
    positive = table > 0.0
    if positive.all():
        log = np.log(table)
        terms = table * log
    else:
        log = np.log(table, out=np.full(table.shape, -np.inf), where=positive)
        # 0 * log 0 = 0: entries that are not positive add a zero term.
        terms = np.multiply(table, log, out=np.zeros(table.shape), where=positive)
    return log, -terms.sum(axis=-1)


def _kl_rows(p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """KL(p || q) of every row over the last axis, from p and log q.

    0 log 0 = 0, and an entry with p > 0 where log q = -inf makes the row
    infinite; no warning. The one KL formula of the package.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - log_q), 0.0)
    return terms.sum(axis=-1)


def joint_action_prob(
    joint_policy: JointPolicy, s: int, joint_action: Sequence[int]
) -> float:
    """Probability of a joint action: product of per-agent entries."""
    prob = 1.0
    for agent, a in zip(joint_policy.agents, joint_action):
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
    return max(
        float(np.abs(pa.table - pb.table).max())
        for pa, pb in zip(a.agents, b.agents)
    )
