"""Sequential soft policy iteration with per-agent Boltzmann updates.

One outer iteration evaluates the soft Q-table of the current joint
policy once, draws an agent permutation, and updates agents one at a
time. Agent i_m's new row at each state is the closed-form solution of
its local KL minimization,

    pi_new^{i_m}(a|s) proportional to
        exp( E_{a^{i_1..i_{m-1}} ~ pi_new}[ Q^{i_1..i_m}(s, ., a) ] / alpha ),

where the conditional table Q^{i_1..i_m} is taken under the *old* joint
policy and the expectation runs over the already-updated agents in this
sweep. Each sweep is guaranteed not to decrease the entropy-regularized
return, and the iteration's limit points are quantal response equilibria
(checked against the independent oracle in :mod:`maxent_marl.qre_oracle`).

The simultaneous variant updates every agent against the others' old
policies instead of conditioning on the updated prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .common import IterationRecord, SolveTrace, _logit_responses, boltzmann_rows
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    Permutation,
    joint_action_table,
    sup_policy_distance,
)
from .soft_dp import (
    SoftQTable,
    _agent_coefficients,
    _check_conditional,
    _check_shapes,
    _conditional_q,
    _contract,
    _policy_value,
    _with_entropy,
    evaluate_policy_exact,
    evaluate_policy_iterative,
)

__all__ = [
    "PermutationRule",
    "fixed_order",
    "random_order",
    "cyclic_order",
    "HaspiOptions",
    "IterationRecord",
    "SolveTrace",
    "expected_conditional_q",
    "boltzmann_local_update",
    "haspi_step",
    "masac_step",
    "haspi_solve",
    "masac_solve",
]


@dataclass(frozen=True)
class PermutationRule:
    """How the per-iteration agent ordering is chosen.

    kind "fixed" replays one ordering, "random" draws a fresh uniform
    permutation from a seeded generator each iteration, "cyclic" rotates
    the identity ordering by one position per iteration.
    """

    kind: str
    ordering: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "random", "cyclic"):
            raise ValueError(f"unknown permutation rule {self.kind!r}")
        if self.kind == "fixed" and self.ordering is None:
            raise ValueError("fixed permutation rule needs an ordering")
        if self.ordering is not None:
            object.__setattr__(self, "ordering", tuple(int(i) for i in self.ordering))

    def sampler(self, n_agents: int) -> Callable[[int], Permutation]:
        if self.kind == "fixed":
            perm = Permutation(self.ordering)
            if len(perm) != n_agents:
                raise ValueError(
                    f"fixed ordering {self.ordering} does not cover {n_agents} agents"
                )
            return lambda k: perm
        if self.kind == "cyclic":
            base = np.arange(n_agents)
            return lambda k: Permutation._unchecked(tuple(np.roll(base, -k).tolist()))
        rng = np.random.default_rng(self.seed)
        return lambda k: Permutation._unchecked(tuple(rng.permutation(n_agents).tolist()))


def fixed_order(ordering: Sequence[int]) -> PermutationRule:
    return PermutationRule("fixed", ordering=tuple(ordering))


def random_order(seed: int) -> PermutationRule:
    return PermutationRule("random", seed=seed)


def cyclic_order() -> PermutationRule:
    return PermutationRule("cyclic")


@dataclass(frozen=True)
class HaspiOptions:
    """Knobs for the outer solve loop.

    alpha must be finite and strictly positive: the zero-temperature
    greedy limit is ill-defined under ties, so cold runs use small positive
    temperatures instead. ``eval_method`` picks the exact linear solve or
    fixed-point iteration at tolerance ``tol_eval`` for the evaluation
    half-step.
    """

    alpha: float
    tol_policy: float = 1e-10
    tol_eval: float = 1e-12
    eval_method: str = "exact"
    max_outer_iters: int = 10_000
    permutation_rule: PermutationRule = field(default_factory=lambda: random_order(0))
    record_trace: bool = True

    def __post_init__(self) -> None:
        # Written so that NaN fails the tests too.
        if not 0 < self.alpha < math.inf:
            raise ValueError(
                f"temperature must be finite and strictly positive, got {self.alpha}"
            )
        if not (0 < self.tol_policy < math.inf and 0 < self.tol_eval < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.eval_method not in ("exact", "iterative"):
            raise ValueError(f"unknown eval_method {self.eval_method!r}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


def expected_conditional_q(
    game: CooperativeMarkovGame,
    q_old: SoftQTable,
    joint_policy_old: JointPolicy,
    updated_prefix: Sequence[AgentPolicy],
    agent: int,
    alpha: float,
) -> np.ndarray:
    """Per-state update coefficients for one agent, shape (|S|, |A^agent|).

    Conditions the old policy's table on (updated agents..., agent), then
    averages the updated agents' axes under their new rows. Agents outside
    the prefix stay at their old policies through the conditional table.
    The sweeps compute the same coefficients in one contraction per agent
    (:func:`_sweep_coefficients`); this chain is their reference.
    """
    prefix_ids = tuple(p.agent_id for p in updated_prefix)
    if agent in prefix_ids:
        raise ValueError(f"agent {agent} already appears in the updated prefix")
    prefix = _check_conditional(game, joint_policy_old, q_old, prefix_ids + (agent,))
    values = _conditional_q(game, joint_policy_old, q_old.values, prefix, alpha)
    for policy in updated_prefix:
        values = np.einsum("sa...,sa->s...", values, policy.table)
    return values


def _sweep_coefficients(game, joint_policy_old, mixed, q_values, prefix, alpha, reuse=None):
    """The coefficients of :func:`expected_conditional_q` in one contraction.

    ``mixed`` holds the new rows of the updated agents ``prefix[:-1]`` and
    the old rows of the rest. Averaging Q over all of them but the agent
    ``prefix[-1]`` gives the chain's average, and the old rows' entropy
    bonus is added back as the chain adds it. With no updated agent, the
    contraction may be ``reuse``d from the trace's record: it is the same.
    """
    agent = prefix[-1]
    if reuse is not None and len(prefix) == 1:
        values = reuse[agent]
    else:
        values = _contract(game, JointPolicy._unchecked(tuple(mixed)), q_values, (agent,))
    return _with_entropy(joint_policy_old, values, prefix, alpha)


# (old joint policy, updated prefix, agent, coefficients, alpha) -> new policy.
# The sweeps place the result unchecked, so a rule checks its rows finite.
RowRule = Callable[[JointPolicy, Sequence[AgentPolicy], int, np.ndarray, float], AgentPolicy]


def _boltzmann_rule(joint_policy_old, updated_prefix, agent, coefficients, alpha):
    rows = boltzmann_rows(coefficients, alpha)
    if not np.isfinite(rows).all():  # unreachable with finite Q
        raise RuntimeError("Boltzmann update produced a non-finite row")
    return AgentPolicy._unchecked(agent, rows)


def boltzmann_local_update(
    game: CooperativeMarkovGame,
    q_old: SoftQTable,
    joint_policy_old: JointPolicy,
    updated_prefix: Sequence[AgentPolicy],
    agent: int,
    alpha: float,
) -> AgentPolicy:
    """Closed-form KL-minimizing row update for one agent.

    Returns the Boltzmann distribution over the prefix-averaged
    conditional coefficients at temperature alpha. Rows are strictly
    positive and normalized; constant-in-action terms (the complement
    agents' entropy bonus) cancel in the normalization. The caller is
    responsible for ``q_old`` being the evaluated table of
    ``joint_policy_old``.
    """
    if alpha <= 0:
        raise ValueError(f"temperature must be positive, got {alpha}")
    coefficients = expected_conditional_q(
        game, q_old, joint_policy_old, updated_prefix, agent, alpha
    )
    return _boltzmann_rule(joint_policy_old, updated_prefix, agent, coefficients, alpha)


def _sequential_sweep(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    alpha: float,
    permutation: Permutation,
    rule: RowRule = _boltzmann_rule,
    reuse: Optional[list[np.ndarray]] = None,
) -> JointPolicy:
    """Update every agent along the permutation; (joint_policy, q) are checked."""
    if len(permutation) != game.n_agents:
        raise ValueError(f"permutation {permutation.order} does not cover {game.n_agents} agents")
    agents = list(joint_policy.agents)
    updated: list[AgentPolicy] = []
    for agent in permutation.order:
        prefix = tuple(p.agent_id for p in updated) + (agent,)
        coef = _sweep_coefficients(game, joint_policy, agents, q.values, prefix, alpha, reuse)
        policy = rule(joint_policy, updated, agent, coef, alpha)
        updated.append(policy)
        agents[agent] = policy
    return JointPolicy._unchecked(tuple(agents))


def _simultaneous_sweep(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    alpha: float,
    rule: RowRule = _boltzmann_rule,
    reuse: Optional[list[np.ndarray]] = None,
) -> JointPolicy:
    """Update every agent against the old policies; (joint_policy, q) are checked."""
    agents = []
    for i in range(game.n_agents):
        coefficients = _sweep_coefficients(
            game, joint_policy, joint_policy.agents, q.values, (i,), alpha, reuse
        )
        agents.append(rule(joint_policy, (), i, coefficients, alpha))
    return JointPolicy._unchecked(tuple(agents))


def _evaluate(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    tol_eval: Optional[float] = None,
) -> SoftQTable:
    """The policy's soft Q, exact or iterative at ``tol_eval``.

    The evaluation checks the policy against the game; the caller checks
    the table's shape once per solve, as every iterate's has the same.
    The contraction plan holds the dense bound of 11 agents.
    """
    if tol_eval is None:
        return evaluate_policy_exact(game, joint_policy, alpha)
    return evaluate_policy_iterative(game, joint_policy, alpha, tol=tol_eval)[0]


def haspi_step(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    permutation: Permutation,
    tol_eval: Optional[float] = None,
) -> JointPolicy:
    """One evaluation plus one sequential improvement sweep.

    Evaluates the soft Q-table of the incoming policy once (exactly, or
    iteratively at ``tol_eval`` when given), then updates every agent
    along the permutation, each conditioning on the prefix updated so far.
    """
    q = _evaluate(game, joint_policy, alpha, tol_eval)
    _check_shapes(game, q)
    return _sequential_sweep(game, joint_policy, q, alpha, permutation)


def masac_step(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    tol_eval: Optional[float] = None,
) -> JointPolicy:
    """Simultaneous variant: every agent updates against old teammates."""
    q = _evaluate(game, joint_policy, alpha, tol_eval)
    _check_shapes(game, q)
    return _simultaneous_sweep(game, joint_policy, q, alpha)


# Traced iterates whose QRE residuals are computed together: enough to spread
# the per-call cost of the softmax thin, few enough to keep the contractions
# held for them small.
_RESIDUAL_BATCH = 64


def _policy_iteration_loop(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    options: HaspiOptions,
    rule: RowRule = _boltzmann_rule,
    simultaneous: bool = False,
) -> tuple[JointPolicy, SoftQTable, "SolveTrace"]:
    """Shared outer loop: evaluate, record, sweep, check policy movement.

    Shared between the sequential, simultaneous and generalized (drift)
    solvers so that trivially-configured variants are iterate-for-iterate
    identical under the same permutation seed. Each iterate's policy is
    checked once, by its evaluation, and the table's shape once per
    solve. A traced iterate's one-agent contractions are reused
    by the next sweep's agents with no prefix and kept; they give the QRE
    residuals of up to ``_RESIDUAL_BATCH`` records in one softmax per agent.
    """
    alpha = options.alpha
    tol_eval = options.tol_eval if options.eval_method == "iterative" else None
    jp = initial_joint_policy
    sampler = options.permutation_rule.sampler(game.n_agents)
    records: list[IterationRecord] = []
    # Each traced iterate's record fields but the residual, and its contractions.
    pending: list[tuple[dict, list[np.ndarray]]] = []

    def snapshot(
        k: int, perm: Optional[Permutation], change: float, q: SoftQTable
    ) -> Optional[list[np.ndarray]]:
        if not options.record_trace:
            return None
        coefficients = _agent_coefficients(game, jp, q.values)
        values = _policy_value(joint_action_table(jp), q.values, jp.entropy_bonus, alpha)
        values.flags.writeable = False
        fields = dict(
            iteration=k,
            permutation=None if perm is None else perm.order,
            policy_change=change,
            maxent_return=float(game.initial_dist @ values),
            values=values,
            policies=tuple(a.table for a in jp.agents),
        )
        pending.append((fields, coefficients))
        if len(pending) == _RESIDUAL_BATCH:
            records.extend(_with_residuals(pending, game.n_agents, alpha))
            pending.clear()
        return coefficients

    q = _evaluate(game, jp, alpha, tol_eval)
    _check_shapes(game, q)
    reuse = snapshot(0, None, 0.0, q)
    status = "max_iters"
    sweeps = 0
    for k in range(1, options.max_outer_iters + 1):
        sweeps = k
        if simultaneous:
            perm = None
            jp_new = _simultaneous_sweep(game, jp, q, alpha, rule, reuse)
        else:
            perm = sampler(k - 1)
            jp_new = _sequential_sweep(game, jp, q, alpha, perm, rule, reuse)
        change = sup_policy_distance(jp_new, jp)
        jp = jp_new
        q = _evaluate(game, jp, alpha, tol_eval)
        reuse = snapshot(k, perm, change, q)
        if change < options.tol_policy:
            status = "converged"
            break
    records.extend(_with_residuals(pending, game.n_agents, alpha))
    return jp, q, SolveTrace(iterations=records, status=status, sweeps=sweeps)


def _with_residuals(
    pending: list[tuple[dict, list[np.ndarray]]], n_agents: int, alpha: float
) -> list[IterationRecord]:
    """The records, each QRE residual from the iterates stacked per agent."""
    if not pending:
        return []
    tables = [np.stack([f["policies"][i] for f, _ in pending]) for i in range(n_agents)]
    coefficients = [np.stack([coef[i] for _, coef in pending]) for i in range(n_agents)]
    residuals = _logit_responses(tables, coefficients, alpha)[1].tolist()
    return [IterationRecord(**f, qre_residual=r) for (f, _), r in zip(pending, residuals)]


def haspi_solve(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    options: HaspiOptions,
) -> tuple[JointPolicy, SoftQTable, SolveTrace]:
    """Alternate evaluation and sequential sweeps until the policy stops moving.

    Terminates when the sup-norm policy change of a sweep drops below
    ``tol_policy`` (status "converged") or after ``max_outer_iters``
    sweeps (status "max_iters"; the last iterate is still returned). The
    trace records the entropy-regularized return, per-state values, QRE
    residual, permutation and policy snapshot of every iterate.
    """
    return _policy_iteration_loop(game, initial_joint_policy, options)


def masac_solve(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    options: HaspiOptions,
) -> tuple[JointPolicy, SoftQTable, SolveTrace]:
    """Outer loop around the simultaneous sweep; no permutation involved."""
    return _policy_iteration_loop(game, initial_joint_policy, options, simultaneous=True)
