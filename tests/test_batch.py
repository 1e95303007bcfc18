"""Batched solves: members of one game laid end to end on the state axis.

Every member of a ``haspi_solve_many`` or ``masac_solve_many`` batch must
be, byte for byte, the standalone ``haspi_solve`` or ``masac_solve`` of its
(start, options) pair; the batch only shares the calls.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_marl import (
    HaspiOptions,
    cyclic_order,
    fixed_order,
    haspi_solve,
    haspi_solve_many,
    masac_solve,
    masac_solve_many,
    random_order,
    uniform_joint_policy,
)
from maxent_marl import haspi
from conftest import random_start, suite_game, suite_params

SOLVES = {"haspi": (haspi_solve, haspi_solve_many), "masac": (masac_solve, masac_solve_many)}
SUITE = list(suite_params())


def result_bytes(result):
    """Everything a solve returns, as bytes and reprs: the final tables, Q
    and its temperature, the status, the sweeps and every record field."""
    policy, q, trace = result
    fields = [trace.status, trace.sweeps, repr(q.alpha), q.values.tobytes()]
    fields.append(tuple(agent.table.tobytes() for agent in policy.agents))
    for rec in trace.iterations:
        fields.append((
            rec.iteration, rec.permutation, repr(rec.policy_change), repr(rec.maxent_return),
            repr(rec.qre_residual), rec.values.tobytes(), tuple(t.tobytes() for t in rec.policies),
        ))
    return fields


def assert_members_stand_alone(solver, game, starts, options):
    """Each member of the batch is its own solve, byte for byte; returns the
    members' (status, sweeps)."""
    solve, solve_many = SOLVES[solver]
    batch = solve_many(game, starts, options)
    assert len(batch) == len(starts)
    outcomes = []
    for start, member_options, member in zip(starts, options, batch):
        alone = solve(game, start, member_options)
        assert result_bytes(member) == result_bytes(alone)
        outcomes.append((member[2].status, member[2].sweeps))
    return outcomes


def suite_case(k):
    k, n_agents, n_states, counts, gamma, alpha = SUITE[k]
    return suite_game(k, n_agents, n_states, counts, gamma), n_agents, alpha


@st.composite
def member_sets(draw):
    """A suite game, a solver, the options the members share and 2-5 members,
    each with its own start, temperature, ordering, tolerance and cap."""
    game, n_agents, suite_alpha = suite_case(draw(st.integers(0, len(SUITE) - 1)))
    solver = draw(st.sampled_from(sorted(SOLVES)))
    shared = {
        "record_trace": draw(st.booleans()),
        "eval_method": draw(st.sampled_from(("exact", "iterative"))),
    }
    starts, options = [], []
    for _ in range(draw(st.integers(2, 5))):
        starts.append(random_start(game, draw(st.integers(0, 99))))
        rule = draw(st.sampled_from(("random", "fixed", "cyclic")))
        if rule == "random":
            permutation_rule = random_order(draw(st.integers(0, 99)))
        elif rule == "fixed":
            permutation_rule = fixed_order(draw(st.permutations(range(n_agents))))
        else:
            permutation_rule = cyclic_order()
        options.append(HaspiOptions(
            alpha=draw(st.sampled_from((suite_alpha, 0.1, 0.5, 1.0, 5.0))),
            tol_policy=draw(st.sampled_from((1e-10, 1e-6, 1e-3))),
            max_outer_iters=draw(st.integers(1, 40)),
            permutation_rule=permutation_rule,
            **shared,
        ))
    return solver, game, starts, options


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(member_sets())
def test_every_member_is_its_own_solve(case):
    assert_members_stand_alone(*case)


@pytest.mark.parametrize("record_trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("eval_method", ["exact", "iterative"])
@pytest.mark.parametrize("solver", sorted(SOLVES))
def test_members_that_stop_apart(solver, eval_method, record_trace):
    # Suite game 0 (2 agents, 1 state): the members converge at different
    # sweeps, and the member capped at 3 sweeps stops first.
    game, _n_agents, _alpha = suite_case(0)
    shared = {"eval_method": eval_method, "record_trace": record_trace}
    options = [
        HaspiOptions(alpha=0.1, permutation_rule=random_order(1), **shared),
        HaspiOptions(alpha=5.0, permutation_rule=random_order(2), **shared),
        HaspiOptions(alpha=1.0, max_outer_iters=3, permutation_rule=fixed_order((1, 0)), **shared),
        HaspiOptions(alpha=1.0, tol_policy=1e-4, permutation_rule=cyclic_order(), **shared),
    ]
    starts = [random_start(game, k) for k in range(len(options))]
    outcomes = assert_members_stand_alone(solver, game, starts, options)
    assert outcomes[2] == ("max_iters", 3)
    assert all(status == "converged" for status, _sweeps in outcomes[:2] + outcomes[3:])
    assert len({sweeps for _status, sweeps in outcomes}) == len(outcomes)


@pytest.mark.parametrize("solver", sorted(SOLVES))
def test_members_that_leave_right_after_a_flush(solver, monkeypatch):
    # More members than half of a flush's records: every iterate flushes at
    # first, and the next sweep reuses the flush's one-agent contractions,
    # whose rows are gathered when a member leaves. Member j stops at sweep
    # j + 1, or earlier once its sweeps stop moving it at all.
    game, _n_agents, _alpha = suite_case(0)
    n = haspi._RESIDUAL_BATCH // 2 + 4
    options = [
        HaspiOptions(
            alpha=(0.1, 1.0, 5.0)[j % 3], tol_policy=1e-300, max_outer_iters=j + 1,
            permutation_rule=random_order(j),
        )
        for j in range(n)
    ]
    starts = [random_start(game, j) for j in range(n)]
    flushed = []  # the records of each flush
    flush = haspi._flushed

    def counting(game, iterates, *args):
        flushed.append(sum(len(it.active) for it in iterates))
        return flush(game, iterates, *args)

    monkeypatch.setattr(haspi, "_flushed", counting)
    outcomes = assert_members_stand_alone(solver, game, starts, options)
    assert all(sweeps <= j + 1 for j, (_status, sweeps) in enumerate(outcomes))
    assert outcomes[:4] == [("max_iters", j + 1) for j in range(4)]
    # The batch, solved first, flushed the start's records and then the
    # first sweep's, before member 0 left.
    assert flushed[:2] == [n, n]


def counted(monkeypatch, name):
    """The calls made from here on to ``haspi.<name>``, by argument tuple."""
    calls = []
    function = getattr(haspi, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(haspi, name, counting)
    return calls


@pytest.mark.parametrize("record_trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("solver", sorted(SOLVES))
def test_one_evaluation_per_batched_iterate(solver, record_trace, monkeypatch):
    game, n_agents, _alpha = suite_case(3)
    options = [
        HaspiOptions(
            alpha=alpha, max_outer_iters=200, permutation_rule=random_order(k),
            record_trace=record_trace,
        )
        for k, alpha in enumerate((0.1, 1.0, 5.0))
    ]
    starts = [random_start(game, k) for k in range(len(options))]
    calls = counted(monkeypatch, "_evaluate_tables")
    batch = SOLVES[solver][1](game, starts, options)
    sweeps = [trace.sweeps for _policy, _q, trace in batch]
    assert len(set(sweeps)) > 1
    # The start and every sweep of the longest member, once for all members.
    assert len(calls) == 1 + max(sweeps)
    rows = [args[1][0].shape[0] for args in calls]
    assert rows[0] == len(options) * game.n_states
    assert rows[-1] == game.n_states


@pytest.mark.parametrize("k", [3, 8])
def test_a_shared_order_contracts_once_per_agent_per_position(k, monkeypatch):
    # Replicate's six temperatures with one fixed order on a suite game: every
    # member is in one group at every position, whose rows need no gather.
    game, n_agents, _alpha = suite_case(k)
    order = tuple(reversed(range(n_agents)))
    options = [
        HaspiOptions(alpha=alpha, permutation_rule=fixed_order(order), record_trace=False)
        for alpha in (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
    ]
    starts = [uniform_joint_policy(game)] * len(options)
    calls = counted(monkeypatch, "_contract")
    batch = haspi_solve_many(game, starts, options)
    sweeps = [trace.sweeps for _policy, _q, trace in batch]
    assert len(calls) == n_agents * max(sweeps)
    assert len(calls) < n_agents * sum(sweeps)
    # The first sweep contracts all six members' rows.
    assert calls[0][2].shape[0] == len(options) * game.n_states


def test_members_must_agree_on_the_evaluation_and_the_trace():
    game, _n_agents, _alpha = suite_case(3)
    start = random_start(game, 0)
    base = HaspiOptions(alpha=1.0)
    for field, value in (
        ("eval_method", "iterative"), ("tol_eval", 1e-9), ("record_trace", False)
    ):
        other = replace(base, **{field: value})
        for solve_many in (haspi_solve_many, masac_solve_many):
            with pytest.raises(ValueError, match=f"must agree on {field}"):
                solve_many(game, [start, start], [base, other])


def test_one_start_per_options():
    game, _n_agents, _alpha = suite_case(3)
    start = random_start(game, 0)
    with pytest.raises(ValueError, match="2 start policies for 1 options"):
        haspi_solve_many(game, [start, start], [HaspiOptions(alpha=1.0)])
    assert haspi_solve_many(game, [], []) == []


def test_a_failing_member_ends_the_batch():
    # A start of the wrong shape is rejected before anything is evaluated,
    # by the message its own solve gives.
    game, _n_agents, _alpha = suite_case(3)
    other, _n, _a = suite_case(4)
    options = [HaspiOptions(alpha=1.0)] * 2
    with pytest.raises(ValueError) as alone:
        haspi_solve(game, random_start(other, 0), options[0])
    with pytest.raises(ValueError) as batched:
        haspi_solve_many(game, [random_start(game, 0), random_start(other, 0)], options)
    assert str(batched.value) == str(alone.value)
