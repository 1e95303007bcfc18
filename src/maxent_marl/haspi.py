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

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .common import (
    IterationRecord,
    SolveTrace,
    _boltzmann_rows,
    _check_argument,
    _logit_responses,
)
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    Permutation,
    _sup_distance,
    _table_logs,
    joint_policy_from_rows,
)
from .soft_dp import (
    SoftQTable,
    _agent_coefficients,
    _check_evaluated,
    _check_prefix,
    _conditional_q,
    _contract,
    _evaluate_tables,
    _policy_value,
    _start,
    _with_entropy,
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
    permutation each iteration from a generator seeded by ``seed``, which
    must be a non-negative integer, "cyclic" rotates the identity ordering
    by one position per iteration.
    """

    kind: str
    ordering: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "random", "cyclic"):
            raise ValueError(f"unknown permutation rule {self.kind!r}")
        if self.kind == "fixed" and self.ordering is None:
            raise ValueError("fixed permutation rule needs an ordering")
        if self.kind == "random":
            _check_argument("seed", self.seed, "seed")
        if self.ordering is not None:
            object.__setattr__(self, "ordering", tuple(int(i) for i in self.ordering))

    def sampler(self, n_agents: int) -> Callable[[int], tuple[int, ...]]:
        """The ordering of iteration k, as a tuple of agent ids."""
        if self.kind == "fixed":
            order = Permutation(self.ordering).order
            if len(order) != n_agents:
                raise ValueError(
                    f"fixed ordering {self.ordering} does not cover {n_agents} agents"
                )
            return lambda k: order
        if self.kind == "cyclic":
            base = np.arange(n_agents)
            return lambda k: tuple(np.roll(base, -k).tolist())
        rng = np.random.default_rng(self.seed)
        return lambda k: tuple(rng.permutation(n_agents).tolist())


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
        _check_argument("temperature", self.alpha, "alpha")
        _check_argument("tolerance", self.tol_policy, "tol_policy")
        _check_argument("tolerance", self.tol_eval, "tol_eval")
        if self.eval_method not in ("exact", "iterative"):
            raise ValueError(f"unknown eval_method {self.eval_method!r}")
        _check_argument("iteration cap", self.max_outer_iters, "max_outer_iters")


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
    _check_evaluated(game, joint_policy_old, q_old, alpha)
    prefix = _check_prefix(game, prefix_ids + (agent,))
    values = _conditional_q(game, joint_policy_old, q_old.values, prefix, alpha)
    for policy in updated_prefix:
        values = np.einsum("sa...,sa->s...", values, policy.table)
    return values


# A solver's iterate: per agent, in id order, the read-only policy table, its
# log table and its entropy rows (see game_core._table_logs).
Arrays = tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]


def _sweep_coefficients(game, old, mixed, q_values, prefix, alpha, reuse=None):
    """The coefficients of :func:`expected_conditional_q` in one contraction.

    ``mixed`` holds the tables of the updated agents ``prefix[:-1]`` and
    the old tables of the rest. Averaging Q over all of them but the agent
    ``prefix[-1]`` gives the chain's average, and the entropy bonus of the
    ``old`` arrays is added back as the chain adds it. With no updated
    agent, the contraction may be ``reuse``d from the trace's flush at this
    iterate: it is the same, bit for bit.
    """
    agent = prefix[-1]
    if reuse is not None and len(prefix) == 1:
        values = reuse[agent]
    else:
        values = _contract(game, mixed, q_values, (agent,))
    return _with_entropy(old[2], values, prefix, alpha)


# (old arrays, the sweep's arrays so far, (updated agents..., agent),
# coefficients, alpha) -> the agent's new table. The sweeps take the table
# as it is, so a rule checks its rows finite.
RowRule = Callable[[Arrays, Arrays, tuple[int, ...], np.ndarray, float], np.ndarray]


def _boltzmann_rule(old, new, prefix, coefficients, alpha):
    rows = _boltzmann_rows(coefficients, alpha)
    if not np.logical_and.reduce(np.isfinite(rows), axis=None):  # unreachable with finite Q
        raise RuntimeError("Boltzmann update produced a non-finite row")
    return rows


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
    _check_argument("temperature", alpha, "alpha")
    coefficients = expected_conditional_q(
        game, q_old, joint_policy_old, updated_prefix, agent, alpha
    )
    return AgentPolicy(agent, _boltzmann_rule(None, None, (agent,), coefficients, alpha))


def _with_table(arrays: Arrays, agent: int, table: np.ndarray) -> None:
    """Put a new table, and the logs computed for it here, in ``arrays``."""
    log, rows = _table_logs(table)
    arrays[0][agent], arrays[1][agent], arrays[2][agent] = table, log, rows


def _sequential_sweep(
    game: CooperativeMarkovGame,
    old: Arrays,
    q_values: np.ndarray,
    alpha: float,
    order: tuple[int, ...],
    rule: RowRule = _boltzmann_rule,
    reuse: Optional[list[np.ndarray]] = None,
) -> Arrays:
    """Update every agent along ``order``; (old, q_values) are checked."""
    if len(order) != game.n_agents:
        raise ValueError(f"permutation {order} does not cover {game.n_agents} agents")
    new = (list(old[0]), list(old[1]), list(old[2]))
    for m, agent in enumerate(order):
        prefix = order[: m + 1]
        coef = _sweep_coefficients(game, old, new[0], q_values, prefix, alpha, reuse)
        _with_table(new, agent, rule(old, new, prefix, coef, alpha))
    return new


def _simultaneous_sweep(
    game: CooperativeMarkovGame,
    old: Arrays,
    q_values: np.ndarray,
    alpha: float,
    rule: RowRule = _boltzmann_rule,
    reuse: Optional[list[np.ndarray]] = None,
) -> Arrays:
    """Update every agent against the old tables; (old, q_values) are checked."""
    new = (list(old[0]), list(old[1]), list(old[2]))
    for i in range(game.n_agents):
        coefficients = _sweep_coefficients(game, old, old[0], q_values, (i,), alpha, reuse)
        _with_table(new, i, rule(old, old, (i,), coefficients, alpha))
    return new


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
    _check_argument("temperature", alpha, "alpha")
    arrays, q = _start(game, joint_policy, alpha, tol_eval)[:2]
    return joint_policy_from_rows(_sequential_sweep(game, arrays, q, alpha, permutation.order)[0])


def masac_step(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    tol_eval: Optional[float] = None,
) -> JointPolicy:
    """Simultaneous variant: every agent updates against old teammates."""
    _check_argument("temperature", alpha, "alpha")
    arrays, q = _start(game, joint_policy, alpha, tol_eval)[:2]
    return joint_policy_from_rows(_simultaneous_sweep(game, arrays, q, alpha)[0])


# Traced iterates whose QRE residuals are computed together: enough to spread
# the per-call cost of the contractions and the softmax thin, few enough to
# keep what is held for them small.
_RESIDUAL_BATCH = 64
# The records awaiting their contractions hold at most this many bytes of
# soft Q between them. A solve whose Q alone is larger, such as a 5 x 5 x 20
# game's 0.5 MB, contracts every record at its own snapshot, unstacked.
_PENDING_Q_BYTES = 256 * 1024


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
    identical under the same permutation seed. The loop's state is the
    iterate's :data:`Arrays`; the start policy is checked once, and
    policies are built for the result only.

    A traced iterate's record waits, as a tuple of its fields but the
    residual and holding its read-only Q, until a flush contracts it
    (:func:`_record_contractions`). A flush comes at ``_RESIDUAL_BATCH``
    waiting records, or earlier when one more Q would take them past
    ``_PENDING_Q_BYTES``. Every Q of a solve has the same size, so the
    flush size is fixed per solve, and a flush always ends at the current
    iterate: the next sweep reuses that iterate's one-agent contractions
    for its agents with no prefix. After an iterate that did not flush,
    the sweep contracts for itself, as in an untraced run, to the same
    bits. The contracted records then wait for their residuals, up to
    ``_RESIDUAL_BATCH`` of them, to share one softmax per agent
    (:func:`_with_residuals`).
    """
    alpha = options.alpha
    tol_eval = options.tol_eval if options.eval_method == "iterative" else None
    arrays, q, joint, bonus, _ = _start(game, initial_joint_policy, alpha, tol_eval)
    eye = np.eye(game.n_states)
    sampler = options.permutation_rule.sampler(game.n_agents)
    records: list[IterationRecord] = []
    # Traced iterates: their record fields but the residual, and their soft Q.
    pending: list[tuple[tuple, np.ndarray]] = []
    # Contracted flushes awaiting their residuals (see _record_contractions).
    contracted: list[tuple[list[tuple], list[np.ndarray], list[np.ndarray]]] = []

    def flush() -> list[np.ndarray]:
        contracted.append(_record_contractions(game, pending))
        pending.clear()
        coefficients = contracted[-1][2]
        # Every flush but the last of a solve holds ``batch`` records.
        if (len(contracted) + 1) * batch > _RESIDUAL_BATCH:
            records.extend(_with_residuals(contracted, game.n_agents, alpha))
            contracted.clear()
        return [c[-game.n_states:] for c in coefficients]

    def snapshot(k, order, change) -> Optional[list[np.ndarray]]:
        if not options.record_trace:
            return None
        values = _policy_value(joint, q, bonus, alpha)
        values.flags.writeable = False
        ret = float(game.initial_dist @ values)
        pending.append(((k, order, change, ret, values, tuple(arrays[0])), q))
        return flush() if len(pending) == batch else None

    batch = min(_RESIDUAL_BATCH, max(1, _PENDING_Q_BYTES // q.nbytes))
    reuse = snapshot(0, None, 0.0)
    status = "max_iters"
    sweeps = 0
    for k in range(1, options.max_outer_iters + 1):
        sweeps = k
        if simultaneous:
            order = None
            new = _simultaneous_sweep(game, arrays, q, alpha, rule, reuse)
        else:
            order = sampler(k - 1)
            new = _sequential_sweep(game, arrays, q, alpha, order, rule, reuse)
        change = _sup_distance(new[0], arrays[0])
        arrays = new
        q, joint, bonus, _ = _evaluate_tables(game, arrays[0], arrays[2], alpha, eye, tol_eval)
        reuse = snapshot(k, order, change)
        if change < options.tol_policy:
            status = "converged"
            break
    if pending:
        flush()
    records.extend(_with_residuals(contracted, game.n_agents, alpha))
    trace = SolveTrace(iterations=records, status=status, sweeps=sweeps)
    return joint_policy_from_rows(arrays[0]), SoftQTable(alpha, q), trace


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated on their first axis; a single one as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _record_contractions(
    game: CooperativeMarkovGame, pending: list[tuple[tuple, np.ndarray]]
) -> tuple[list[tuple], list[np.ndarray], list[np.ndarray]]:
    """The pending records' fields, and per agent their policy tables and
    one-agent contractions, the records' states laid end to end.

    One :func:`_contract` per agent serves every record, each with the
    bits of its own call, on which the sweeps' ``reuse`` relies. A
    record's fields end with its policy tables.
    """
    fields = [f for f, _ in pending]
    tables = [_joined([f[-1][i] for f in fields]) for i in range(game.n_agents)]
    q_values = _joined([q for _, q in pending])
    return fields, tables, _agent_coefficients(game, tables, q_values)


def _with_residuals(
    contracted: list[tuple[list[tuple], list[np.ndarray], list[np.ndarray]]],
    n_agents: int,
    alpha: float,
) -> list[IterationRecord]:
    """The records of the contracted flushes, each QRE residual from one
    softmax per agent over all of them."""
    if not contracted:
        return []
    fields = [f for chunk, _, _ in contracted for f in chunk]

    def stacked(arrays):
        rows = _joined(arrays)
        return rows.reshape(len(fields), -1, rows.shape[-1])

    tables = [stacked([t[i] for _, t, _ in contracted]) for i in range(n_agents)]
    coefficients = [stacked([c[i] for _, _, c in contracted]) for i in range(n_agents)]
    residuals = _logit_responses(tables, coefficients, alpha)[1].tolist()
    return [
        IterationRecord(k, order, change, ret, values, residual, policies)
        for (k, order, change, ret, values, policies), residual in zip(fields, residuals)
    ]


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
