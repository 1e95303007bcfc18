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
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .common import _agent_ids, _check_argument, _sup_norm
from .game_core import (
    _PAIRWISE_MIN_JOINT_ACTIONS,
    CooperativeMarkovGame,
    JointPolicy,
    _entropy_bonus,
    _joint_table,
    _policy_arrays,
    joint_action_table,
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

# The iteration cap of an iterative evaluation that is given none.
_MAX_BACKUPS = 100_000


class EvaluationNotConverged(RuntimeError):
    """Iterative evaluation hit its iteration cap before reaching tol."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"evaluation did not converge in {iterations} iterations "
            f"(last residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def _freeze_values(table, ndim: Optional[int] = None, what: str = "") -> None:
    """Make a result table's ``values`` a read-only, C-ordered float64 array,
    of ``ndim`` axes when given (else a ValueError naming ``what``), and its
    ``alpha`` a float: the construction of every table class here.

    A writeable input is copied, so the caller's array stays writeable. A
    read-only one, such as every table the solvers make, is taken as it is
    when it already is C-ordered float64.
    """
    values = table.values
    if isinstance(values, np.ndarray) and not values.flags.writeable:
        values = np.ascontiguousarray(values, dtype=np.float64)
    else:
        values = np.array(values, dtype=np.float64, order="C")
    if ndim is not None and values.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-d, got shape {values.shape}")
    values.flags.writeable = False
    object.__setattr__(table, "values", values)
    object.__setattr__(table, "alpha", float(table.alpha))


@dataclass(frozen=True, eq=False)
class SoftQTable:
    """Entropy-regularized action values, shape (|S|, prod|A^i|)."""

    alpha: float
    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze_values(self, 2, "soft Q table")


@dataclass(frozen=True, eq=False)
class SoftValueTable:
    """Entropy-regularized state values, shape (|S|,)."""

    alpha: float
    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze_values(self, 1, "value table")


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
        _freeze_values(self)
        object.__setattr__(self, "prefix", _agent_ids(self.prefix, "prefix"))


def zero_soft_q(game: CooperativeMarkovGame, alpha: float) -> SoftQTable:
    return SoftQTable(alpha, np.zeros((game.n_states, game.n_joint_actions)))


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


def _check_evaluated(
    game: CooperativeMarkovGame, joint_policy: JointPolicy, q: SoftQTable, alpha: float
) -> None:
    """Validate a temperature, a policy and a soft Q table for the game."""
    _check_argument("evaluation temperature", alpha, "alpha")
    expected = (game.n_states, game.n_joint_actions)
    if q.values.shape != expected:
        raise ValueError(f"soft Q shape {q.values.shape} does not match game {expected}")
    _check_policy(game, joint_policy)


def _policy_value(
    joint: np.ndarray, q_values: np.ndarray, bonus: np.ndarray, alpha: float
) -> np.ndarray:
    """V(s) from the joint table, the soft Q values and the entropy bonus.

    The average over the joint table is one dot product per row
    (``np.vecdot``). For a finite Q, such as an evaluation's, it cannot
    warn; :func:`soft_value` silences it for a Q the caller supplied, as
    in :func:`_policy_averages`.
    """
    return np.vecdot(joint, q_values) + alpha * bonus


def _policy_averages(
    game: CooperativeMarkovGame, joint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """rbar(s) = sum_a pi(a|s) r(s, a) and M(s, s') = sum_a pi(a|s) P(s'|s, a).

    ``joint`` is one joint table, shape (|S|, |A|), or the tables of
    several members stacked on a leading axis; rbar and M take the same
    leading axes.

    Both are one vector-matrix product per member and state (``np.vecdot``
    and ``np.vecmat``), so they run in BLAS, each member with the bits of
    its own call. An infinite or NaN entry at an action of probability
    zero gives 0 * inf = NaN there. The products warn about that, and
    about an overflowing sum, where einsum was silent; for a game without
    finite row sums the warnings are silenced, and the NaN or inf fails
    the bound of :func:`evaluate_policy_exact`. A game with them cannot
    warn and runs the bare products.
    """
    quiet = nullcontext() if game._finite_rows else np.errstate(invalid="ignore", over="ignore")
    with quiet:
        return np.vecdot(joint, game.reward), np.vecmat(joint, game.transition)


def _backup(game: CooperativeMarkovGame, v: np.ndarray) -> np.ndarray:
    """r(s, a) + gamma * E_{s'~P}[V(s')], built in the array P v makes.

    ``v`` holds the values of one member, or of several, stacked or laid
    end to end, and the result's rows hold their Q laid end to end. P v is
    one matrix-vector product per member and state (``np.matvec``), each
    member with the bits of ``P @ v`` for its own v.
    """
    q = np.matvec(game.transition, v.reshape(-1, 1, game.n_states))
    q *= game.gamma
    q += game.reward
    return q.reshape(-1, game.n_joint_actions)


def _singular(_error: str, _flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """v with lhs v = rhs: LAPACK's gesv through the gufunc that
    ``np.linalg.solve`` calls for a vector right-hand side, with its bits,
    without the wrapper's conversions and checks (the evaluation makes
    float64 square systems).

    The gufunc flags a singular matrix as an invalid floating-point
    operation; the error state turns that into ``LinAlgError``, as
    ``np.linalg.solve`` does. As a decorator, ``np.errstate`` sets that
    state around each call without building and entering a context
    manager per call, which costs about a microsecond more.
    """
    return _umath_linalg.solve1(lhs, rhs, signature="dd->d")


def soft_value(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    alpha: float,
) -> SoftValueTable:
    """V(s) = E_{a~pi}[Q(s,a)] + alpha * sum_i H(pi^i(.|s))."""
    _check_evaluated(game, joint_policy, q, alpha)
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
    max_iters: int = _MAX_BACKUPS,
) -> tuple[SoftQTable, int]:
    """Fixed-point iteration of the backup operator from Q = 0.

    Stops once the sup-norm change of successive tables drops below a
    threshold scaled by the contraction factor, min(tol, tol*(1-g)/g),
    which guarantees the returned table is within ``tol`` of the fixed
    point (a raw change below c leaves at most c*g/(1-g) to go). A single
    backup is already exact for gamma = 0. Raises
    :class:`EvaluationNotConverged` if ``max_iters`` is exhausted first.
    """
    _check_argument("tolerance", tol, "tol")  # None would make _start's evaluation exact
    _arrays, q, _joint, _bonus, backups = _start(game, joint_policy, alpha, tol, max_iters)
    return SoftQTable(alpha, q), backups[0]


def _iterated_q(game, joint, bonus, alpha, tol, max_iters) -> tuple[np.ndarray, list[int]]:
    """:func:`evaluate_policy_iterative` on the joint tables and entropy
    bonuses of members laid end to end on the rows, at one temperature or
    one per row; returns Q and each member's number of backups.

    Each member stops at its own threshold, with the Q and the count of its
    own run: the rows of a member that stopped keep its Q from then on.
    """
    members = joint.shape[0] // game.n_states

    def backup(q_values: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            return _backup(game, _policy_value(joint, q_values, bonus, alpha))

    q = np.zeros(joint.shape)
    if game.gamma == 0.0:
        return backup(q), [1] * members
    threshold = tol * min(1.0, (1.0 - game.gamma) / game.gamma)
    backups = np.zeros(members, dtype=int)
    for k in range(1, max_iters + 1):
        q_next = backup(q).reshape(members, -1)
        residuals = _sup_norm(q_next - q.reshape(members, -1), axis=1)
        stopped = backups > 0
        q_next[stopped] = q.reshape(members, -1)[stopped]
        backups[~stopped & (residuals < threshold)] = k
        q = q_next.reshape(joint.shape)
        if backups.all():
            return q, backups.tolist()
    raise EvaluationNotConverged(max_iters, float(residuals[backups == 0][0]))


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
    return SoftQTable(alpha, _start(game, joint_policy, alpha)[1])


def _start(game, joint_policy, alpha, tol=None, max_iters=_MAX_BACKUPS):
    """The start of every public evaluation: the policy's checked arrays
    (:func:`_checked_arrays`) and what :func:`_evaluate_tables` makes of
    them, exact or, given ``tol``, iterative."""
    arrays = _checked_arrays(game, joint_policy, alpha, tol, max_iters)
    eye = np.eye(game.n_states)
    return (arrays, *_evaluate_tables(game, arrays[0], arrays[2], alpha, eye, tol, max_iters))


def _checked_arrays(game, joint_policy, alpha, tol=None, max_iters=_MAX_BACKUPS):
    """A start policy's arrays (:func:`~maxent_marl.game_core._policy_arrays`).

    The temperature, an iterative evaluation's tolerance and cap, the
    game's discount and the policy are checked here, once per evaluation
    or per member of a solve, before anything is evaluated: every later
    iterate of a solve has the same shapes.
    """
    _check_argument("evaluation temperature", alpha, "alpha")
    if tol is not None:
        _check_argument("tolerance", tol, "tol")
        _check_argument("iteration cap", max_iters, "max_iters")
    if game.gamma >= 1.0:
        method = "exact" if tol is None else "iterative"
        raise ValueError(f"{method} evaluation requires gamma < 1")
    _check_policy(game, joint_policy)
    return _policy_arrays(joint_policy)


def _evaluate_tables(game, tables, entropies, alpha, eye, tol_eval=None, max_iters=_MAX_BACKUPS):
    """The read-only soft Q of the product policy of ``tables``, with its
    joint table, its entropy bonus and the number of backups it took: the
    evaluation of every solver iterate.

    The tables are not checked: the caller made them, or checked their
    policy once. ``entropies`` holds their entropy rows, and ``eye`` the
    identity of the game's state count, built once per solve. Exact,
    under the bound of :func:`evaluate_policy_exact` and with no backup,
    or, given ``tol_eval``, iterative as :func:`evaluate_policy_iterative`.

    The rows may hold several members of a batch laid end to end, each
    with the game's state count of rows, and ``alpha`` may then be one
    temperature per row. Each member's Q has the bits of its own call, and
    the backups come as a list with one count per member. The exact
    evaluation checks one residual bound, the largest member's, for all.
    """
    joint = _joint_table(tables)
    bonus = _entropy_bonus(entropies)
    members = joint.shape[0] // game.n_states
    if tol_eval is not None:
        q, backups = _iterated_q(game, joint, bonus, alpha, tol_eval, max_iters)
    else:
        # Several members' joint tables stack on a leading axis. One
        # member's stays 2-d: the same calls on it take 1-2 us less per
        # evaluation at the suite's shapes of 2-5 states (one thread of a
        # shared 2-vCPU x86-64 VM), with the same bits.
        stacked = joint if members == 1 else joint.reshape(members, game.n_states, -1)
        rbar, m = _policy_averages(game, stacked)
        lhs = eye - game.gamma * m
        rhs = rbar + (alpha * bonus).reshape(rbar.shape)
        try:
            v = _solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            # Reachable for gamma < 1 with a kernel that is not stochastic,
            # such as rows summing to 1 / gamma: validate_game rejects it,
            # the solvers take the game as given.
            raise RuntimeError(f"evaluation system is singular: {exc}") from exc
        error = np.matvec(lhs, v)
        error -= rhs
        bound = game.gamma * game.transition_norm * float(_sup_norm(error))
        # Written so that a NaN bound fails the test too.
        if not bound <= _EXACT_RESIDUAL_TOL:
            raise RuntimeError(
                f"exact evaluation residual {bound:.3e} exceeds {_EXACT_RESIDUAL_TOL}"
            )
        q = _backup(game, v)
        backups = [0] * members
    q.flags.writeable = False
    return q, joint, bonus, backups


def _check_prefix(game: CooperativeMarkovGame, prefix: Sequence[int]) -> tuple[int, ...]:
    """An ordered subset of the game's agents, as a tuple of their ids; a
    bool or a non-integer id is named by its position in the prefix."""
    prefix = _agent_ids(prefix, "prefix")
    if len(set(prefix)) != len(prefix):
        raise ValueError(f"prefix {prefix} contains a duplicate agent")
    if any(i < 0 or i >= game.n_agents for i in prefix):
        raise ValueError(f"prefix {prefix} is out of range for {game.n_agents} agents")
    return prefix


def _contraction_order(action_counts: tuple[int, ...]) -> tuple[int, ...]:
    """Every agent, the largest action set first, ties in agent order: the
    order in which a pairwise plan averages agents out."""
    return tuple(sorted(range(len(action_counts)), key=lambda i: -action_counts[i]))


@lru_cache(maxsize=4096)
def _conditional_plan(
    action_counts: tuple[int, ...], prefix: tuple[int, ...]
) -> tuple[tuple[tuple[object, tuple[int, ...]], ...], tuple[int, ...]]:
    """How :func:`_contract` contracts one prefix of one game shape.

    Returns the steps and the complement agents. Each step
    ``(kernel, agents)`` averages the running tensor, which starts as the
    Q tensor, over the policy tables of ``agents``.

    Below ``_PAIRWISE_MIN_JOINT_ACTIONS`` joint actions, and whenever
    fewer than two agents are averaged out, there is a single step over
    every complement table, and its kernel is the subscripts of one
    ``np.einsum``. From that size on there is one step per complement
    agent j, in :func:`_contraction_order`, so that each table shrinks the
    tensor as much as it can before the next one is applied. That is the
    order the greedy search of ``np.einsum_path`` picks for these
    operands. Such a step is a batched matmul over axis j where it lies:
    its kernel ``(shape, result, axes)`` views the running tensor as
    (rows, pre, |A^j|, post), multiplies the table's rows, (rows, 1, 1,
    |A^j|), into it, views the product as ``result`` and, on the last step
    of a prefix out of agent order, transposes it to prefix order by
    ``axes``. One agent's plan thus contracts the agents ahead of it in
    that order first, with the steps of every later agent's plan, which
    :func:`_agent_coefficients` shares. The plan depends on the shape
    alone and is built once per (action counts, prefix); a game of more
    agents than there are axis letters has none.
    """
    n_agents = len(action_counts)
    if n_agents > len(_AXIS_LETTERS):
        raise ValueError("dense conditionals support at most 11 agents")
    complement = tuple(i for i in range(n_agents) if i not in prefix)
    if math.prod(action_counts) < _PAIRWISE_MIN_JOINT_ACTIONS or len(complement) < 2:
        terms = ["s" + _AXIS_LETTERS[:n_agents]] + ["s" + _AXIS_LETTERS[i] for i in complement]
        out = "s" + "".join(_AXIS_LETTERS[i] for i in prefix)
        return ((",".join(terms) + "->" + out, complement),), complement
    steps = []
    remaining = list(range(n_agents))
    for j in _contraction_order(action_counts):
        if j in prefix:
            continue
        at = remaining.index(j)
        pre = math.prod(action_counts[i] for i in remaining[:at])
        post = math.prod(action_counts[i] for i in remaining[at + 1 :])
        remaining.remove(j)
        result = (-1, *(action_counts[i] for i in remaining))
        steps.append((((-1, pre, action_counts[j], post), result, ()), (j,)))
    # The prefix agents are left in agent order.
    if list(prefix) != remaining:
        (shape, result, _axes), agents = steps[-1]
        axes = (0, *(1 + remaining.index(i) for i in prefix))
        steps[-1] = ((shape, result, axes), agents)
    return tuple(steps), complement


def _contracted(steps, tables: Sequence[np.ndarray], values: np.ndarray) -> np.ndarray:
    """``values`` through ``steps`` of a plan (see :func:`_conditional_plan`);
    an einsum step takes them in the Q tensor's shape."""
    for kernel, agents in steps:
        if kernel.__class__ is str:
            values = np.einsum(kernel, values, *(tables[i] for i in agents))
        else:
            shape, result, axes = kernel
            values = (tables[agents[0]][:, None, None, :] @ values.reshape(shape)).reshape(result)
            if axes:
                values = values.transpose(axes)
    return values


def _contract(
    game: CooperativeMarkovGame,
    tables: Sequence[np.ndarray],
    q_values: np.ndarray,
    prefix: tuple[int, ...],
) -> np.ndarray:
    """E_{a^rest ~ pi}[Q(s, a)] over the agents outside a checked prefix:
    the conditional of :func:`multiagent_soft_q` without their entropy.

    ``tables`` holds every agent's policy table, shape (rows, actions),
    and ``q_values`` has shape (rows, joint actions). The rows are states,
    and the state axis is the only batch axis: the iterates of a solve
    laid end to end on it, Q and tables alike, contract in one call, each
    with the bits of its own call. Neither ``np.einsum`` nor matmul
    promises that, so the tests check it on every suite shape and on
    pairwise ones.
    """
    steps, _complement = _conditional_plan(game.action_counts, prefix)
    return _contracted(steps, tables, q_values.reshape(-1, *game.action_counts))


def _with_entropy(
    entropies: Sequence[np.ndarray], values: np.ndarray, prefix: tuple[int, ...], alpha: float
) -> np.ndarray:
    """Add alpha * sum_{i not in prefix} H(pi^i(.|s)) to a contraction.

    ``entropies`` holds every agent's entropy rows. ``values`` has a state
    axis first; the bonus is constant along the others, which may be fewer
    than the prefix has agents. ``alpha`` is one temperature or one per
    row.
    """
    complement = [entropies[i] for i in range(len(entropies)) if i not in prefix]
    if complement:
        bonus = alpha * _entropy_bonus(complement)
        values = values + bonus.reshape((-1,) + (1,) * (values.ndim - 1))
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
    tables, _logs, entropies = _policy_arrays(joint_policy)
    return _with_entropy(entropies, _contract(game, tables, q_values, prefix), prefix, alpha)


def _agent_coefficients(
    game: CooperativeMarkovGame, tables: Sequence[np.ndarray], q_values: np.ndarray
) -> list[np.ndarray]:
    """The logit coefficients E_{a^-i ~ pi^-i}[Q(s, a^i, a^-i)] of every agent i,
    from every agent's policy table.

    Checked arguments. The others' entropy, constant in a^i, is left out;
    :func:`_with_entropy` adds it back bit for bit where it is needed.
    Pairwise plans share their leading steps: along
    :func:`_contraction_order`, the agents ahead of agent i are averaged
    out once for i and every later agent, and i's own plan goes on from
    there. Each agent's coefficients are the bits of its own
    :func:`_contract`, on which the sweeps' ``reuse`` relies.
    """
    values = q_values.reshape(-1, *game.action_counts)
    plans = [_conditional_plan(game.action_counts, (i,))[0] for i in range(game.n_agents)]
    if len(plans[0]) == 1:  # one einsum per agent: no steps to share
        return [_contracted(steps, tables, values) for steps in plans]
    coefficients = [None] * game.n_agents
    for k, i in enumerate(_contraction_order(game.action_counts)):
        if k:  # Q averaged over the k agents ahead of i: i's first k steps
            values = _contracted(plans[i][k - 1 : k], tables, values)
        coefficients[i] = _contracted(plans[i][k:], tables, values)
    return coefficients


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
    _check_evaluated(game, joint_policy, q, alpha)
    prefix = _check_prefix(game, prefix)
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
    cond = _agent_ids(cond_subset, "cond_subset")
    sub = _agent_ids(subset, "subset")
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
    _arrays, q, joint, bonus, _backups = _start(game, joint_policy, alpha)
    return float(game.initial_dist @ _policy_value(joint, q, bonus, alpha))
