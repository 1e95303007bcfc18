"""Tabular expected-update baselines on single-state matrix games.

These reproduce, in expectation, what ratio-based surrogate maximizers do
on a one-shot cooperative matrix game: each agent's surrogate is linear
in its own row with coefficients given by opponent-averaged advantages,
so the unconstrained argmax is a simplex vertex. Two update modes are
provided because the linear surrogate argument fixes the endpoint while
training narratives describe a trajectory: ``argmax`` jumps straight to
the best vertex (ties break toward the lowest action index), ``mirror``
takes multiplicative-weights steps p <- p * exp(step * c) whose limit is
the same vertex.

The simultaneous variant updates every agent from the same old
coefficients; the sequential variant reweights later agents'
expectations by the probability ratios of teammates already updated in
the sweep. Advantages are computed at temperature zero throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .common import IterationRecord, SolveTrace
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    joint_action_table,
    sup_policy_distance,
)
from .soft_dp import _contract

__all__ = [
    "BaselineOptions",
    "surrogate_coefficients",
    "baseline_step",
    "baseline_run",
]

_ALGORITHMS = ("mappo", "happo")
_UPDATE_MODES = ("argmax", "mirror")


@dataclass(frozen=True)
class BaselineOptions:
    """Configuration for a baseline run.

    ``permutation`` fixes the sequential update order (identity when
    omitted); it is ignored by the simultaneous algorithm.
    """

    algorithm: str
    update_mode: str = "mirror"
    step_size: float = 0.1
    iterations: int = 200
    permutation: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown baseline algorithm {self.algorithm!r}")
        if self.update_mode not in _UPDATE_MODES:
            raise ValueError(f"unknown update mode {self.update_mode!r}")
        if self.update_mode == "mirror" and self.step_size <= 0:
            raise ValueError("mirror mode needs a positive step size")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.permutation is not None:
            object.__setattr__(
                self, "permutation", tuple(int(i) for i in self.permutation)
            )


def _check_matrix_scope(game: CooperativeMarkovGame) -> None:
    if game.n_states != 1 or game.gamma != 0.0:
        raise ValueError(
            "baselines are scoped to single-state games with gamma = 0"
        )


def surrogate_coefficients(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    agent: int,
    ratio_policies: Optional[Sequence[AgentPolicy]] = None,
) -> np.ndarray:
    """Linear surrogate coefficients for one agent's row, shape (|A^agent|,).

    c(a) = E over the other agents of the temperature-zero advantage
    A(s, a, a^-i) = r(s, a, a^-i) - E_pi[r]. Agents listed in
    ``ratio_policies`` contribute their *new* rows to the expectation
    (the importance ratio against the old policy cancels the old row),
    everyone else stays at the old policy.
    """
    _check_matrix_scope(game)
    joint = joint_action_table(joint_policy)[0]
    value = float(joint @ game.reward[0])
    advantage = game.reward - value
    updated = {p.agent_id: p for p in ratio_policies or ()}
    if agent in updated:
        raise ValueError(f"agent {agent} cannot appear in ratio_policies")
    mixed = tuple(updated.get(j, p) for j, p in enumerate(joint_policy.agents))
    return _contract(game, JointPolicy._unchecked(mixed), advantage, (agent,))[0]


def _argmax_row(coefficients: np.ndarray) -> np.ndarray:
    row = np.zeros_like(coefficients)
    row[int(np.argmax(coefficients))] = 1.0  # ties break to the lowest index
    return row


def _mirror_row(row: np.ndarray, coefficients: np.ndarray, step_size: float) -> np.ndarray:
    weights = row * np.exp(step_size * (coefficients - coefficients.max()))
    return weights / weights.sum()


def baseline_step(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    options: BaselineOptions,
) -> JointPolicy:
    """One expected surrogate update of every agent.

    The simultaneous algorithm computes all coefficients from the old
    policy before moving anyone; the sequential one updates agents in
    ``options.permutation`` order, feeding each later agent the rows of
    the already-updated teammates.
    """
    _check_matrix_scope(game)

    def updated_row(agent: int, ratio: Sequence[AgentPolicy]) -> AgentPolicy:
        coef = surrogate_coefficients(game, joint_policy, agent, ratio)
        if options.update_mode == "argmax":
            row = _argmax_row(coef)
        else:
            row = _mirror_row(joint_policy.agents[agent].table[0], coef, options.step_size)
        return AgentPolicy(agent, row.reshape(1, -1))

    if options.algorithm == "mappo":
        agents = tuple(updated_row(i, ()) for i in range(game.n_agents))
        return JointPolicy(agents)

    order = options.permutation or tuple(range(game.n_agents))
    if sorted(order) != list(range(game.n_agents)):
        raise ValueError(f"{order} is not a permutation of the agents")
    agents = list(joint_policy.agents)
    done: list[AgentPolicy] = []
    for agent in order:
        policy = updated_row(agent, done)
        done.append(policy)
        agents[agent] = policy
    return JointPolicy(tuple(agents))


def baseline_run(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    options: BaselineOptions,
) -> SolveTrace:
    """Iterate the baseline for a fixed budget, recording the plain return.

    The recorded return is the temperature-zero expected reward of the
    product policy, enumerated exactly. Status is "converged" once the
    final sweep moved the policy by less than 1e-9 (argmax absorbs at a
    vertex after at most two sweeps and stays there).
    """
    _check_matrix_scope(game)
    jp = initial_joint_policy

    def record(k: int, change: float) -> IterationRecord:
        joint = joint_action_table(jp)[0]
        value = float(joint @ game.reward[0])
        return IterationRecord(
            iteration=k,
            permutation=options.permutation if options.algorithm == "happo" else None,
            policy_change=change,
            maxent_return=value,
            values=np.array([value]),
            qre_residual=float("nan"),
            policies=tuple(a.table.copy() for a in jp.agents),
        )

    records = [record(0, 0.0)]
    change = np.inf
    for k in range(1, options.iterations + 1):
        jp_new = baseline_step(game, jp, options)
        change = sup_policy_distance(jp_new, jp)
        jp = jp_new
        records.append(record(k, change))
    status = "converged" if change < 1e-9 else "max_iters"
    return SolveTrace(iterations=records, status=status, sweeps=options.iterations)
