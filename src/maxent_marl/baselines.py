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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .common import IterationRecord, SolveTrace, _agent_id, _agent_ids, _check_argument, _is_real
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    _joint_table,
    _sup_distance,
    joint_policy_from_rows,
)
from .soft_dp import _check_policy, _check_prefix, _contract

__all__ = ["BaselineOptions", "surrogate_coefficients", "baseline_step", "baseline_run"]

_ALGORITHMS = ("mappo", "happo")
_UPDATE_MODES = ("argmax", "mirror")


@dataclass(frozen=True)
class BaselineOptions:
    """Configuration for a baseline run.

    ``permutation`` fixes the sequential update order (identity when
    omitted); it is ignored by the simultaneous algorithm. Its entries
    must be integers, not bools, and ``step_size`` a real number.
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
        # Written so that NaN fails the test too.
        step = self.step_size
        if self.update_mode == "mirror" and not (_is_real(step) and 0 < step < math.inf):
            raise ValueError(f"mirror mode needs a finite positive step size: {step}")
        _check_argument("iteration cap", self.iterations, "iterations")
        if self.permutation is not None:
            object.__setattr__(self, "permutation", _agent_ids(self.permutation, "permutation"))


def _checked_tables(game: CooperativeMarkovGame, joint_policy: JointPolicy) -> list[np.ndarray]:
    """The policy's read-only tables, once the game is in the baselines'
    scope and the policy fits it."""
    if game.n_states != 1 or game.gamma != 0.0:
        raise ValueError("baselines are scoped to single-state games with gamma = 0")
    _check_policy(game, joint_policy)
    return [p.table for p in joint_policy.agents]


def _plain_value(game: CooperativeMarkovGame, tables: Sequence[np.ndarray]) -> float:
    """The temperature-zero expected reward of the product of ``tables``."""
    return float(_joint_table(tables)[0] @ game.reward[0])


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
    tables = _checked_tables(game, joint_policy)
    (agent,) = _check_prefix(game, (_agent_id(agent, "agent"),))
    updated = {p.agent_id: p.table for p in ratio_policies or ()}
    if agent in updated:
        raise ValueError(f"agent {agent} cannot appear in ratio_policies")
    mixed = [updated.get(j, t) for j, t in enumerate(tables)]
    return _contract(game, mixed, game.reward - _plain_value(game, tables), (agent,))[0]


def _order(game: CooperativeMarkovGame, options: BaselineOptions) -> Optional[tuple[int, ...]]:
    """The sequential update order, checked; None for the simultaneous algorithm."""
    if options.algorithm == "mappo":
        return None
    order = tuple(range(game.n_agents)) if options.permutation is None else options.permutation
    if sorted(order) != list(range(game.n_agents)):
        raise ValueError(f"{order} is not a permutation of the agents")
    return order


def _sweep(
    game: CooperativeMarkovGame, tables: list[np.ndarray], value: float,
    order: Optional[tuple[int, ...]], options: BaselineOptions,
) -> list[np.ndarray]:
    """One expected surrogate update of every agent: the new read-only
    tables, one row per agent, from the old ones and their plain ``value``.

    With no ``order`` (mappo) every agent's advantage is contracted against
    the old tables; along an ``order`` (happo) against the sweep's tables so
    far, the updated agents' new rows and the old rows of the rest.
    """
    advantage = game.reward - value
    new = list(tables)
    mixed = tables if order is None else new
    for agent in range(game.n_agents) if order is None else order:
        coefficients = _contract(game, mixed, advantage, (agent,))  # shape (1, |A^agent|)
        if options.update_mode == "argmax":
            table = np.zeros_like(coefficients)
            table[0, int(np.argmax(coefficients))] = 1.0  # ties break to the lowest index
        else:
            # Multiplicative weights, max-shifted: p <- p * exp(step * c), normalized.
            table = tables[agent] * np.exp(options.step_size * (coefficients - coefficients.max()))
            table /= table.sum()
        # Unreachable with a finite reward.
        if not np.logical_and.reduce(np.isfinite(table), axis=None):
            raise RuntimeError("baseline update produced a non-finite row")
        table.flags.writeable = False
        new[agent] = table
    return new


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
    tables = _checked_tables(game, joint_policy)
    order = _order(game, options)
    return joint_policy_from_rows(_sweep(game, tables, _plain_value(game, tables), order, options))


def baseline_run(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    options: BaselineOptions,
) -> SolveTrace:
    """Iterate the baseline for a fixed budget, recording the plain return.

    The recorded return is the temperature-zero expected reward of the
    product policy, enumerated exactly. Status is "converged" once the
    final sweep moved the policy by less than 1e-9 (argmax absorbs at a
    vertex after at most two sweeps and stays there). The run iterates on
    the policies' tables, and its records hold those read-only tables
    themselves, as the soft solvers' records do, not writeable copies.
    """
    tables = _checked_tables(game, initial_joint_policy)
    order = _order(game, options)
    permutation = None if order is None else options.permutation
    records: list[IterationRecord] = []
    value, change = _plain_value(game, tables), 0.0
    for k in range(options.iterations + 1):
        if k:  # record 0 describes the start
            new = _sweep(game, tables, value, order, options)
            change, tables = _sup_distance(new, tables), new
            value = _plain_value(game, tables)
        records.append(
            IterationRecord(k, permutation, change, value, np.array([value]), math.nan, tuple(tables))
        )
    status = "converged" if change < 1e-9 else "max_iters"
    return SolveTrace(iterations=records, status=status, sweeps=options.iterations)
