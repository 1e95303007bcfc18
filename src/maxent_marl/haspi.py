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

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .common import (
    IterationRecord,
    SolveTrace,
    _agent_id,
    _agent_ids,
    _boltzmann_rows,
    _check_argument,
    _logit_responses,
    _sup_norm,
)
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    Permutation,
    _joint_table,
    _table_logs,
    joint_policy_from_rows,
)
from .soft_dp import (
    SoftQTable,
    _agent_coefficients,
    _check_evaluated,
    _check_policy,
    _check_prefix,
    _checked_arrays,
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
    "haspi_solve_many",
    "masac_solve_many",
]


@dataclass(frozen=True)
class PermutationRule:
    """How the per-iteration agent ordering is chosen.

    kind "fixed" replays one ordering, "random" draws a fresh uniform
    permutation each iteration from a generator seeded by ``seed``, which
    must be a non-negative integer, "cyclic" rotates the identity ordering
    by one position per iteration. The entries of ``ordering`` must be
    integers, not bools; none is truncated.
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
            object.__setattr__(self, "ordering", _agent_ids(self.ordering, "ordering"))

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
    half-step. ``permutation_rule`` must be a :class:`PermutationRule` and
    ``record_trace`` a bool.
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
        if not isinstance(self.permutation_rule, PermutationRule):
            raise ValueError(
                "permutation_rule must be a PermutationRule (fixed_order, random_order or "
                f"cyclic_order), got permutation_rule={self.permutation_rule!r}"
            )
        if not isinstance(self.record_trace, bool):
            raise ValueError(f"record_trace must be a bool, got record_trace={self.record_trace!r}")


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
    (:func:`_sweep`); this chain is their reference. The updated policies
    must be of distinct agents of the game, each with the game's state
    count and its agent's action count.
    """
    prefix_ids = tuple(p.agent_id for p in updated_prefix)
    agent = _agent_id(agent, "agent")
    if agent in prefix_ids:
        raise ValueError(f"agent {agent} already appears in the updated prefix")
    _check_evaluated(game, joint_policy_old, q_old, alpha)
    prefix = _check_prefix(game, prefix_ids + (agent,))
    _check_policy(game, functools.reduce(JointPolicy.replace, updated_prefix, joint_policy_old))
    values = _conditional_q(game, joint_policy_old, q_old.values, prefix, alpha)
    for policy in updated_prefix:
        values = np.einsum("sa...,sa->s...", values, policy.table)
    return values


# A solver's iterate: per agent, in id order, the read-only policy table, its
# log table and its entropy rows (see game_core._table_logs). In a batch the
# rows hold the states of every member, laid end to end.
Arrays = tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]


# (old arrays, the sweep's arrays so far, (updated agents..., agent),
# coefficients, alpha) -> the agent's new table. The sweeps take the table
# as it is, so a rule checks its rows finite. In a batch of several members
# the coefficients may be some of the arrays' rows, alpha a column of one
# temperature per row, and the prefix that of one of the members whose rows
# they are (see _sweep); a rule that reads the arrays or the prefix's order
# runs a batch of one, as MEHAML's do.
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


def _sweep_coefficients(game, entropies, mixed, q_values, prefix, alpha, reuse=None):
    """The coefficients of :func:`expected_conditional_q` in one contraction.

    ``mixed`` holds the tables of the updated agents ``prefix[:-1]`` and
    the old tables of the rest. Averaging Q over all of them but the agent
    ``prefix[-1]`` gives the chain's average, and the old ``entropies``'
    bonus is added back as the chain adds it. With no updated agent, the
    contraction may be ``reuse``d from the trace's flush at this iterate:
    it is the same, bit for bit. ``alpha`` is one temperature, or one per
    row.
    """
    agent = prefix[-1]
    if reuse is not None and len(prefix) == 1:
        values = reuse[agent]
    else:
        values = _contract(game, mixed, q_values, (agent,))
    return _with_entropy(entropies, values, prefix, alpha)


def _sweep(
    game: CooperativeMarkovGame,
    old: Arrays,
    q_values: np.ndarray,
    alpha,
    orders: Optional[list[tuple[int, ...]]],
    rule: RowRule = _boltzmann_rule,
    reuse: Optional[list[np.ndarray]] = None,
) -> Arrays:
    """One sweep of every member of a batch; (old, q_values) are checked.

    ``orders`` holds each member's agent ordering for a sequential sweep,
    in which an agent conditions on the agents updated before it, or is
    None for the simultaneous one, in which every agent updates against the
    old tables. ``alpha`` is the temperature, or one per row.

    At each position the members are grouped by the agent they update and
    the set of agents they updated before it (:func:`_groups`): they
    average Q over the same agents' tables and add back the old entropy of
    the same agents, so one contraction, one entropy bonus and one rule
    call serve a group's rows, each member's with the bits of its own
    sweep. When one group holds every member, as in a simultaneous sweep
    or when the members share their ordering, it takes the arrays as they
    are and its table goes in at once. Otherwise each group gathers its
    rows, and as each member updates one agent per position, the groups'
    tables go in at the position's end.
    """
    for order in orders or ():
        if len(order) != game.n_agents:
            raise ValueError(f"permutation {order} does not cover {game.n_agents} agents")
    per_row = isinstance(alpha, np.ndarray)
    column = alpha[:, None] if per_row else alpha
    new = (list(old[0]), list(old[1]), list(old[2]))
    mixed, rule_new = (old[0], old) if orders is None else (new[0], new)
    shared = orders is None or orders.count(orders[0]) == len(orders)
    for p in range(game.n_agents):
        prefix = (p,) if orders is None else orders[0][: p + 1]
        groups = None if shared else _groups(orders, p, game.n_states)
        if groups is None:
            # Routing a shared order through the grouped code instead, with
            # slice(None) as its rows, cost suite HASPI +9 to +19 % and suite
            # MEHAML +13 to +17 % (both versions in one process, perfbench's
            # suite operations alternating between them, minimum of 9-40
            # rounds, one BLAS thread).
            coefficients = _sweep_coefficients(game, old[2], mixed, q_values, prefix, alpha, reuse)
            _with_table(new, prefix[-1], rule(old, rule_new, prefix, coefficients, column))
            continue
        tables: dict[int, np.ndarray] = {}
        for prefix, rows in groups:
            agent = prefix[-1]
            # The group's rows of what it reads; the rest is not read.
            entropies = [e if i in prefix else e[rows] for i, e in enumerate(old[2])]
            group_mixed = [t if i == agent else t[rows] for i, t in enumerate(mixed)]
            group_reuse = None if reuse is None or p else [c[rows] for c in reuse]
            coefficients = _sweep_coefficients(
                game, entropies, group_mixed, q_values[rows], prefix,
                alpha[rows] if per_row else alpha, group_reuse,
            )
            table = rule(old, rule_new, prefix, coefficients, column[rows] if per_row else alpha)
            if agent not in tables:
                tables[agent] = new[0][agent].copy()
            tables[agent][rows] = table
        for agent, table in tables.items():
            _with_table(new, agent, table)
    return new


def _groups(orders: list[tuple[int, ...]], p: int, n_states: int):
    """The members' groups at position ``p`` of their orderings, as
    (prefix, the group's rows) pairs; None if one group holds them all."""
    found: dict = {}
    for j, order in enumerate(orders):
        found.setdefault((order[p], frozenset(order[:p])), (order[: p + 1], []))[1].append(j)
    if len(found) == 1:
        return None
    rows = np.arange(n_states)
    return [(prefix, (np.array(group)[:, None] * n_states + rows).ravel()) for prefix, group in found.values()]


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
    return joint_policy_from_rows(_sweep(game, arrays, q, alpha, [permutation.order])[0])


def masac_step(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    alpha: float,
    tol_eval: Optional[float] = None,
) -> JointPolicy:
    """Simultaneous variant: every agent updates against old teammates."""
    _check_argument("temperature", alpha, "alpha")
    arrays, q = _start(game, joint_policy, alpha, tol_eval)[:2]
    return joint_policy_from_rows(_sweep(game, arrays, q, alpha, None)[0])


# Traced iterates whose QRE residuals are computed together: enough to spread
# the per-call cost of the contractions and the softmax thin, few enough to
# keep what is held for them small.
_RESIDUAL_BATCH = 64
# The records awaiting their flush hold at most this many bytes of soft Q
# between them. A solve whose Q alone is larger, such as a 5 x 5 x 20 game's
# 0.5 MB, flushes every iterate at its own snapshot, unstacked.
_PENDING_Q_BYTES = 256 * 1024


class Iterate(NamedTuple):
    """A traced iterate awaiting its flush, by reference to what it was
    evaluated on. Its soft Q and entropy bonus wait beside it, and are not
    kept past the flush."""

    k: int
    orders: Optional[list]  # the members' orderings; None in a simultaneous sweep
    changes: list[float]  # the members' policy changes
    active: list[int]  # the members
    tables: list[np.ndarray]  # per agent, each member's rows laid end to end


class Flushed(NamedTuple):
    """A flush awaiting its residuals (see :func:`_flushed`), its records'
    states laid end to end."""

    temperatures: list[float]  # per record, its member's
    iterates: list[Iterate]
    values: np.ndarray
    returns: list[float]
    tables: list[np.ndarray]  # per agent
    coefficients: list[np.ndarray]  # per agent, its one-agent contractions


def _temperatures(alphas: list[float], n_states: int):
    """The temperature of members laid end to end: one number if they share
    it, else one per row. A row rule that takes some of the rows it is
    given, as MEHAML's line search does, runs a batch of one and is handed
    its one temperature."""
    # One per row throughout, with MEHAML's rule closing over its alpha,
    # timed suite HASPI at -0.1 to +0.7 %, where an identical copy read
    # -0.3 to +1.1 % (one process, the two alternating per solve, sum of
    # per-solve minima over 25-40 rounds): the one number is kept for that
    # rule, not for speed.
    if len(set(alphas)) == 1:
        return alphas[0]
    return np.repeat(np.array(alphas, dtype=np.float64), n_states)


def _member_rows(array: np.ndarray, members: np.ndarray, n_states: int) -> np.ndarray:
    """The rows of the members at these positions of a batch, read-only."""
    shape = array.shape[1:]
    taken = array.reshape(-1, n_states, *shape)[members].reshape(-1, *shape)
    taken.flags.writeable = False
    return taken


def _policy_changes(new: list[np.ndarray], old: list[np.ndarray], members: int) -> list[float]:
    """Each member's sup-norm policy change over its agents, states and
    actions: the agents' tables side by side hold a member's rows together."""
    difference = np.concatenate(new, axis=1)
    difference -= np.concatenate(old, axis=1)
    return _sup_norm(difference.reshape(members, -1), axis=1).tolist()


def _policy_iteration_loop(
    game: CooperativeMarkovGame,
    starts: Sequence[JointPolicy],
    options: Sequence[HaspiOptions],
    rule: RowRule = _boltzmann_rule,
    simultaneous: bool = False,
) -> list[tuple[JointPolicy, SoftQTable, SolveTrace]]:
    """Shared outer loop: evaluate, record, sweep, check policy movement.

    Shared between the sequential, simultaneous and generalized (drift)
    solvers so that trivially-configured variants are iterate-for-iterate
    identical under the same permutation seed. The loop's state is the
    iterate's :data:`Arrays`; the start policies are checked once, and
    policies are built for the results only.

    It solves a batch of members of one game, each from its own start
    under its own options, and returns one (policy, Q, trace) per member,
    each with the bits of the member's own solve. The members' states lie
    end to end on the rows of the arrays, so an iterate makes one
    evaluation and one sweep (:func:`_sweep`) for all of them. A member
    leaves the batch when it converges or reaches its own iteration cap,
    and the rows of the others are gathered then. The members may differ
    in ``alpha``, ``permutation_rule``, ``tol_policy`` and
    ``max_outer_iters``; ``eval_method``, ``tol_eval`` and
    ``record_trace`` must agree. A batch of one runs the same code, on one
    member's rows.

    A traced iterate waits, as references to what it was evaluated on (an
    :class:`Iterate`, its Q and its entropy bonus), until a flush makes its
    records (:func:`_flushed`). A flush comes when one more iterate's
    records would take the waiting ones past ``batch``: ``_RESIDUAL_BATCH``
    records, or fewer when their Q would pass ``_PENDING_Q_BYTES``. Every
    member's Q has the same size, so ``batch`` is fixed per solve; a batch
    of more members than that flushes at every iterate. A flush always ends
    at the current iterate: the next sweep reuses that iterate's one-agent
    contractions for its agents with no prefix. After an iterate that did
    not flush, the sweep contracts for itself, as in an untraced run, to the
    same bits. The flushed records then wait for their residuals, about
    ``_RESIDUAL_BATCH`` of them, to share one softmax per agent
    (:func:`_with_residuals`).
    """
    if len(starts) != len(options):
        raise ValueError(f"{len(starts)} start policies for {len(options)} options")
    if not starts:
        return []
    first = options[0]
    for name in ("eval_method", "tol_eval", "record_trace"):
        if any(getattr(o, name) != getattr(first, name) for o in options):
            raise ValueError(f"the members of a batch must agree on {name}")
    n_states = game.n_states
    tol_eval = first.tol_eval if first.eval_method == "iterative" else None
    alphas = [o.alpha for o in options]
    checked = [_checked_arrays(game, s, a, tol_eval) for s, a in zip(starts, alphas)]
    arrays = tuple([_joined(rows) for rows in zip(*part)] for part in zip(*checked))
    active = list(range(len(starts)))
    alpha = _temperatures(alphas, n_states)
    eye = np.eye(n_states)
    q, joint, bonus, _ = _evaluate_tables(game, arrays[0], arrays[2], alpha, eye, tol_eval)
    # The active members' samplers, policy tolerances and iteration caps.
    samplers = [o.permutation_rule.sampler(game.n_agents) for o in options]
    tols = [o.tol_policy for o in options]
    caps = [o.max_outer_iters for o in options]
    records: list[list[IterationRecord]] = [[] for _ in starts]
    pending: list[Iterate] = []
    pending_q: list[np.ndarray] = []
    pending_bonus: list[np.ndarray] = []
    held = 0  # the pending iterates' records
    flushed: list[Flushed] = []  # awaiting their residuals
    batch = min(_RESIDUAL_BATCH, max(1, _PENDING_Q_BYTES // (q.nbytes // len(active))))

    def flush() -> list[np.ndarray]:
        nonlocal pending, pending_q, pending_bonus, held
        # A flush of one iterate is the current one, whose joint table is at hand.
        current = joint if len(pending) == 1 else None
        flushed.append(_flushed(game, pending, pending_q, pending_bonus, current, alphas))
        pending, pending_q, pending_bonus, held = [], [], [], 0
        coefficients = flushed[-1].coefficients
        if sum(len(f.temperatures) for f in flushed) + batch > _RESIDUAL_BATCH:
            _with_residuals(flushed, n_states, records)
        # The current iterate's rows, which the next sweep reuses.
        return [c[-q.shape[0] :] for c in coefficients]

    def snapshot(k, orders, changes) -> Optional[list[np.ndarray]]:
        nonlocal held
        pending.append(Iterate(k, orders, changes, active, arrays[0]))
        pending_q.append(q)
        pending_bonus.append(bonus)
        held += len(active)
        return flush() if held + len(active) > batch else None

    record_trace = first.record_trace
    reuse = snapshot(0, None, [0.0] * len(active)) if record_trace else None
    results: list = [None] * len(starts)
    k = 0
    while True:
        k += 1
        orders = None
        if not simultaneous:
            # Loops, not comprehensions: a comprehension is a function call.
            orders = []
            for sampler in samplers:
                orders.append(sampler(k - 1))
        new = _sweep(game, arrays, q, alpha, orders, rule, reuse)
        changes = _policy_changes(new[0], arrays[0], len(active))
        arrays = new
        q, joint, bonus, _ = _evaluate_tables(game, arrays[0], arrays[2], alpha, eye, tol_eval)
        if record_trace:
            reuse = snapshot(k, orders, changes)
        stops = []
        for j, change in enumerate(changes):
            if change < tols[j] or k == caps[j]:
                stops.append(j)
        if not stops:
            continue
        for j in stops:
            status = "converged" if changes[j] < tols[j] else "max_iters"
            rows = slice(j * n_states, (j + 1) * n_states)
            results[active[j]] = ([t[rows] for t in arrays[0]], q[rows], status, k)
        if len(stops) == len(active):
            break
        keep = [j for j in range(len(active)) if j not in stops]
        active, samplers, tols, caps = ([x[j] for j in keep] for x in (active, samplers, tols, caps))
        rows = np.array(keep)
        arrays = tuple([_member_rows(a, rows, n_states) for a in f] for f in arrays)
        q, joint, bonus = (_member_rows(a, rows, n_states) for a in (q, joint, bonus))
        if reuse is not None:
            reuse = [_member_rows(c, rows, n_states) for c in reuse]
        alpha = _temperatures([alphas[member] for member in active], n_states)
    if pending:
        flush()
    _with_residuals(flushed, n_states, records)
    return [
        (
            joint_policy_from_rows(tables),
            SoftQTable(alphas[member], member_q),
            SolveTrace(iterations=records[member], status=status, sweeps=sweeps),
        )
        for member, (tables, member_q, status, sweeps) in enumerate(results)
    ]


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated on their first axis, read-only; a single one
    as it is."""
    if len(arrays) == 1:
        return arrays[0]
    joined = np.concatenate(arrays)
    joined.flags.writeable = False
    return joined


def _flushed(
    game: CooperativeMarkovGame,
    iterates: list[Iterate],
    q: list[np.ndarray],
    bonus: list[np.ndarray],
    joint: Optional[np.ndarray],
    alphas: list[float],
) -> Flushed:
    """The records but their residuals of the iterates, evaluated on ``q``
    and ``bonus``, the records' states laid end to end.

    One :func:`_policy_value` gives every record's values, each member's
    at its own temperature in ``alphas``, and one ``np.vecdot`` every
    return, with the bits of ``initial_dist @ values`` per record. One
    :func:`_contract` per agent serves every record, each with the bits of
    its own call, on which the sweeps' ``reuse`` relies. ``joint`` is the
    joint table of a single iterate; of several, their tables make it
    again. The flush holds no Q, which would otherwise outlive the cap on
    it while the records wait for their residuals.
    """
    tables = [_joined([it.tables[i] for it in iterates]) for i in range(game.n_agents)]
    q_values = _joined(q)
    if joint is None:
        joint = _joint_table(tables)
    temperatures = [alphas[member] for it in iterates for member in it.active]
    alpha = _temperatures(temperatures, game.n_states)
    values = _policy_value(joint, q_values, _joined(bonus), alpha)
    values.flags.writeable = False
    returns = np.vecdot(values.reshape(-1, game.n_states), game.initial_dist).tolist()
    coefficients = _agent_coefficients(game, tables, q_values)
    return Flushed(temperatures, iterates, values, returns, tables, coefficients)


def _with_residuals(flushed: list[Flushed], n_states: int, records: list[list[IterationRecord]]) -> None:
    """Append the flushed records to their members' lists in ``records``,
    and clear the flushes. Each QRE residual comes from one softmax per
    agent over all of them, at its member's temperature."""
    if not flushed:
        return
    temperatures = [t for f in flushed for t in f.temperatures]

    def stacked(arrays):
        rows = _joined(arrays)
        return rows.reshape(len(temperatures), -1, rows.shape[-1])

    n_agents = len(flushed[0].tables)
    tables = [stacked([f.tables[i] for f in flushed]) for i in range(n_agents)]
    coefficients = [stacked([f.coefficients[i] for f in flushed]) for i in range(n_agents)]
    if len(set(temperatures)) == 1:
        alpha = temperatures[0]
    else:
        alpha = np.array(temperatures)[:, None, None]
    residuals = iter(_logit_responses(tables, coefficients, alpha)[1].tolist())
    for f in flushed:
        r = 0  # the record's position in its flush
        for k, orders, changes, active, iterate_tables in f.iterates:
            for j, member in enumerate(active):
                # A single member's record holds the iterate's tables themselves.
                if len(active) == 1:
                    policies = tuple(iterate_tables)
                else:
                    policies = tuple(t[j * n_states : (j + 1) * n_states] for t in iterate_tables)
                order = None if orders is None else orders[j]
                rows = f.values[r * n_states : (r + 1) * n_states]
                records[member].append(
                    IterationRecord(k, order, changes[j], f.returns[r], rows, next(residuals), policies)
                )
                r += 1
    flushed.clear()


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
    return _policy_iteration_loop(game, [initial_joint_policy], [options])[0]


def masac_solve(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    options: HaspiOptions,
) -> tuple[JointPolicy, SoftQTable, SolveTrace]:
    """Outer loop around the simultaneous sweep; no permutation involved."""
    return _policy_iteration_loop(game, [initial_joint_policy], [options], simultaneous=True)[0]


def haspi_solve_many(
    game: CooperativeMarkovGame,
    starts: Sequence[JointPolicy],
    options: Sequence[HaspiOptions],
) -> list[tuple[JointPolicy, SoftQTable, SolveTrace]]:
    """:func:`haspi_solve` of every (start, options) pair of one game at once.

    The members are solved together, one evaluation and one sweep per
    iterate for all of them, and each result is bit for bit the one
    :func:`haspi_solve` returns for its pair. The members may differ in
    ``alpha``, ``permutation_rule``, ``tol_policy`` and
    ``max_outer_iters``; a ValueError names ``eval_method``, ``tol_eval``
    or ``record_trace`` if they differ there. An error in any member
    raises and ends the whole batch.
    """
    return _policy_iteration_loop(game, starts, options)


def masac_solve_many(
    game: CooperativeMarkovGame,
    starts: Sequence[JointPolicy],
    options: Sequence[HaspiOptions],
) -> list[tuple[JointPolicy, SoftQTable, SolveTrace]]:
    """:func:`masac_solve` of every (start, options) pair of one game at
    once, as :func:`haspi_solve_many` does for :func:`haspi_solve`."""
    return _policy_iteration_loop(game, starts, options, simultaneous=True)
