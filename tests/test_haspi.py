"""Sequential and simultaneous Boltzmann policy iteration."""

import itertools
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from maxent_marl import (
    AgentPolicy,
    BaselineOptions,
    HaspiOptions,
    JointPolicy,
    Permutation,
    SoftQTable,
    boltzmann_local_update,
    cyclic_order,
    evaluate_policy_exact,
    evaluate_policy_iterative,
    fixed_order,
    full_neighborhood,
    haspi_solve,
    haspi_step,
    joint_action_prob,
    joint_action_table,
    joint_kl_objective,
    joint_policy_from_rows,
    kl_ball,
    kl_drift,
    logit_response,
    masac_solve,
    masac_step,
    maxent_return,
    mehaml_local_update,
    mehaml_solve,
    multiagent_soft_q,
    new_matrix_game,
    policy_entropy,
    qre_fixed_point,
    qre_residual,
    random_game,
    random_order,
    soft_value,
    sup_policy_distance,
    surrogate_coefficients,
    trivial_drift,
    uniform_joint_policy,
)
from maxent_marl import game_core, haspi, qre_oracle, soft_dp
from maxent_marl.common import boltzmann_rows
from maxent_marl.haspi import (
    _boltzmann_rule,
    _sweep,
    expected_conditional_q,
)
from maxent_marl.game_core import _policy_arrays
from maxent_marl.soft_dp import _agent_coefficients, _contract, _evaluate_tables
from maxent_marl.mehaml import _mirror_rule
from conftest import random_start, suite_game, suite_params

FIRST_UPDATE_COEFS = np.array([-5.0, -14.0, -12.0])


def softmax_oracle(c, alpha):
    """One-line independent softmax for frozen reference rows."""
    e = [math.exp(x / alpha - max(c) / alpha) for x in c]
    return np.array(e) / sum(e)


class TestBoltzmannLocalUpdate:
    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (1.0, (0.9990, 0.0001, 0.0009)),
            (5.0, (0.7083, 0.1171, 0.1747)),
        ],
    )
    def test_reference_first_updates(self, matrix_game, start_policy, alpha, expected):
        q = evaluate_policy_exact(matrix_game, start_policy, alpha)
        row = boltzmann_local_update(matrix_game, q, start_policy, [], 0, alpha).table[0]
        assert np.allclose(row, softmax_oracle(FIRST_UPDATE_COEFS, alpha), atol=1e-12)
        assert np.allclose(np.round(row, 4), expected, atol=1e-12)

    def test_uniform_q_gives_uniform_policy(self):
        game = new_matrix_game(np.full((3, 3), 2.5))
        jp = uniform_joint_policy(game)
        q = evaluate_policy_exact(game, jp, 1.0)
        row = boltzmann_local_update(game, q, jp, [], 0, 1.0).table[0]
        assert np.allclose(row, 1 / 3, atol=1e-14)

    def test_rows_strictly_positive_and_normalized(self):
        game = suite_game(9, 3, 3, (2, 3, 2), 0.9)
        jp = random_start(game, 9)
        q = evaluate_policy_exact(game, jp, 0.1)
        pol = boltzmann_local_update(game, q, jp, [], 1, 0.1)
        assert pol.table.min() > 0.0
        assert np.abs(pol.table.sum(axis=1) - 1.0).max() < 1e-12

    def test_alpha_zero_rejected(self, matrix_game, start_policy):
        q = evaluate_policy_exact(matrix_game, start_policy, 1.0)
        with pytest.raises(ValueError, match="positive"):
            boltzmann_local_update(matrix_game, q, start_policy, [], 0, 0.0)

    def test_prefix_duplicate_rejected(self, matrix_game, start_policy):
        q = evaluate_policy_exact(matrix_game, start_policy, 1.0)
        first = boltzmann_local_update(matrix_game, q, start_policy, [], 0, 1.0)
        with pytest.raises(ValueError, match="prefix"):
            boltzmann_local_update(matrix_game, q, start_policy, [first], 0, 1.0)


class TestHaspiStep:
    def test_sequential_conditioning(self, matrix_game, start_policy):
        # agent 1 moves first; agent 2's coefficients average over the NEW row
        new = haspi_step(matrix_game, start_policy, 1.0, Permutation((0, 1)))
        row0 = new.agents[0].table[0]
        assert np.allclose(np.round(row0, 4), (0.9990, 0.0001, 0.0009), atol=1e-12)
        reward = matrix_game.reward[0].reshape(3, 3)
        coefs2 = row0 @ reward
        expected2 = softmax_oracle(coefs2, 1.0)
        assert np.allclose(new.agents[1].table[0], expected2, atol=1e-12)

    def test_qre_is_fixed_point(self, matrix_game, start_policy):
        sol = qre_fixed_point(matrix_game, 10.0, tol=1e-12, initial_joint_policy=start_policy)
        assert sol.converged
        stepped = haspi_step(matrix_game, sol.joint_policy, 10.0, Permutation((0, 1)))
        assert sup_policy_distance(stepped, sol.joint_policy) < 1e-9

    def test_single_agent_bandit_closed_form(self):
        from maxent_marl import CooperativeMarkovGame

        rewards = np.array([[1.0, 0.0, -1.0]])
        game = CooperativeMarkovGame(
            1, 1, (3,), rewards, np.ones((1, 3, 1)), 0.0, np.array([1.0])
        )
        jp = uniform_joint_policy(game)
        new = haspi_step(game, jp, 0.5, Permutation((0,)))
        assert np.allclose(new.agents[0].table[0], softmax_oracle(rewards[0], 0.5), atol=1e-14)

    def test_iterative_eval_variant(self, matrix_game, start_policy):
        a = haspi_step(matrix_game, start_policy, 2.0, Permutation((0, 1)))
        b = haspi_step(matrix_game, start_policy, 2.0, Permutation((0, 1)), tol_eval=1e-10)
        assert sup_policy_distance(a, b) < 1e-9


class TestMasacStep:
    def test_symmetric_start_stays_symmetric(self, matrix_game, start_policy):
        new = masac_step(matrix_game, start_policy, 1.0)
        assert np.allclose(new.agents[0].table, new.agents[1].table, atol=1e-15)

    def test_both_agents_get_first_update_row(self, matrix_game, start_policy):
        # both condition on the OLD teammate, so both see the same coefficients
        new = masac_step(matrix_game, start_policy, 1.0)
        expected = softmax_oracle(FIRST_UPDATE_COEFS, 1.0)
        assert np.allclose(new.agents[0].table[0], expected, atol=1e-12)
        assert np.allclose(new.agents[1].table[0], expected, atol=1e-12)

    def test_single_agent_equals_sequential(self):
        from maxent_marl import CooperativeMarkovGame

        rewards = np.array([[0.3, -0.7]])
        game = CooperativeMarkovGame(
            1, 1, (2,), rewards, np.ones((1, 2, 1)), 0.0, np.array([1.0])
        )
        jp = uniform_joint_policy(game)
        a = masac_step(game, jp, 1.0)
        b = haspi_step(game, jp, 1.0, Permutation((0,)))
        assert sup_policy_distance(a, b) == 0.0

    def test_rows_remain_distributions(self):
        game = suite_game(6, 3, 2, (3, 2, 2), 0.5)
        jp = random_start(game, 6)
        new = masac_step(game, jp, 0.5)
        for agent in new.agents:
            assert agent.table.min() > 0.0
            assert np.abs(agent.table.sum(axis=1) - 1.0).max() < 1e-12


class TestHaspiSolve:
    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (1.0, (1.0000, 0.0000, 0.0000)),
            (10.0, (0.0221, 0.0224, 0.9555)),
            (20.0, (0.2514, 0.2790, 0.4697)),
        ],
    )
    def test_reference_limits(self, matrix_game, start_policy, alpha, expected):
        options = HaspiOptions(
            alpha=alpha, tol_policy=1e-12, permutation_rule=fixed_order((0, 1))
        )
        policy, _q, trace = haspi_solve(matrix_game, start_policy, options)
        assert trace.status == "converged"
        for agent in policy.agents:
            assert np.allclose(np.round(agent.table[0], 4), expected, atol=1e-12)

    def test_trace_contents(self, matrix_game, start_policy):
        options = HaspiOptions(alpha=10.0, tol_policy=1e-10)
        policy, q, trace = haspi_solve(matrix_game, start_policy, options)
        first = trace.iterations[0]
        assert first.iteration == 0
        assert first.permutation is None
        assert first.maxent_return == pytest.approx(
            maxent_return(matrix_game, start_policy, 10.0), abs=1e-9
        )
        last = trace.iterations[-1]
        assert last.qre_residual < 1e-8
        assert np.allclose(last.policies[0], policy.agents[0].table)

    def test_monotonic_return_and_q(self):
        from maxent_marl import qre_residual

        for k, n_agents, n_states, counts, gamma, alpha in suite_params(12):
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            options = HaspiOptions(
                alpha=alpha, tol_policy=1e-10, max_outer_iters=3000,
                permutation_rule=random_order(k),
            )
            policy, q, trace = haspi_solve(game, jp, options)
            returns = trace.returns
            assert all(
                returns[i + 1] >= returns[i] - 1e-9 for i in range(len(returns) - 1)
            )
            if trace.status == "converged":
                assert qre_residual(game, policy, alpha, q=q) <= 10 * options.tol_policy
            # entrywise Q-monotonicity along the run
            q_prev = None
            for rec in trace.iterations:
                jp_k = joint_policy_from_rows(list(rec.policies))
                q_k = evaluate_policy_exact(game, jp_k, alpha).values
                if q_prev is not None:
                    assert (q_k - q_prev).min() >= -1e-9
                q_prev = q_k

    def test_permutation_order_invariant_limit(self, matrix_game, start_policy):
        limits = []
        for order in ((0, 1), (1, 0)):
            options = HaspiOptions(
                alpha=10.0, tol_policy=1e-12, permutation_rule=fixed_order(order)
            )
            policy, _q, _t = haspi_solve(matrix_game, start_policy, options)
            limits.append(policy)
        assert sup_policy_distance(limits[0], limits[1]) < 1e-6

    def test_max_iters_status(self, matrix_game, start_policy):
        options = HaspiOptions(alpha=10.0, tol_policy=1e-12, max_outer_iters=2)
        _policy, _q, trace = haspi_solve(matrix_game, start_policy, options)
        assert trace.status == "max_iters"
        assert len(trace.iterations) == 3  # initial record plus two sweeps

    def test_cyclic_and_random_rules_cover_agents(self):
        game = suite_game(10, 3, 1, (2, 2, 2), 0.5)
        jp = uniform_joint_policy(game)
        for rule in (cyclic_order(), random_order(3)):
            options = HaspiOptions(alpha=1.0, tol_policy=1e-10, permutation_rule=rule)
            _policy, _q, trace = haspi_solve(game, jp, options)
            perms = {rec.permutation for rec in trace.iterations if rec.permutation}
            assert all(sorted(p) == [0, 1, 2] for p in perms)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, None], ids=repr)
    def test_random_rule_rejects_a_bad_seed_at_construction(self, seed):
        # The rule of the spec layer's seed: a non-negative integer, not a bool.
        with pytest.raises(ValueError, match=re.escape(f"non-negative integer, got seed={seed}")):
            random_order(seed)

    def test_random_rule_takes_any_numpy_seed(self):
        for seed in (0, 2**70, np.int64(7)):
            assert random_order(seed).sampler(3)(0) in set(itertools.permutations(range(3)))

    def test_options_validation(self):
        with pytest.raises(ValueError, match="positive"):
            HaspiOptions(alpha=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            HaspiOptions(alpha=1.0, tol_policy=0.0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, True, "1", None, np.bool_(True)], ids=repr
    )
    def test_options_reject_non_finite(self, value):
        with pytest.raises(ValueError, match="temperature must be finite"):
            HaspiOptions(alpha=value)
        for key in ("tol_policy", "tol_eval"):
            with pytest.raises(ValueError, match="tolerances must be finite"):
                HaspiOptions(alpha=1.0, **{key: value})

    def test_options_take_numpy_numbers(self):
        options = HaspiOptions(alpha=np.float64(2.0), tol_policy=np.float32(1e-6), tol_eval=1)
        assert (options.alpha, options.tol_eval) == (2.0, 1)


class TestMasacSolve:
    def test_preserves_distribution_rows(self, matrix_game, start_policy):
        options = HaspiOptions(alpha=10.0, tol_policy=1e-10, max_outer_iters=500)
        policy, _q, trace = masac_solve(matrix_game, start_policy, options)
        for rec in trace.iterations:
            for table in rec.policies:
                assert table.min() >= 0.0
                assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-12
        for agent in policy.agents:
            assert agent.table.min() > 0.0

    def test_symmetry_preserved_along_run(self, matrix_game, start_policy):
        options = HaspiOptions(alpha=10.0, tol_policy=1e-10, max_outer_iters=200)
        _policy, _q, trace = masac_solve(matrix_game, start_policy, options)
        for rec in trace.iterations:
            assert np.allclose(rec.policies[0], rec.policies[1], atol=1e-14)


def solve_each_way(game, start, alpha, k, record_trace, max_iters=300, names=None):
    """Final policy and trace of every solver sharing the outer loop, or of
    those ``names`` picks."""
    options = HaspiOptions(
        alpha=alpha, max_outer_iters=max_iters, permutation_rule=random_order(k),
        record_trace=record_trace,
    )
    mehaml = {
        "mehaml-kl": (kl_drift(1.0), full_neighborhood(), "closed_form"),
        "mehaml-trivial": (trivial_drift(), full_neighborhood(), "closed_form"),
        "mehaml-line-search": (kl_drift(1.0), kl_ball(0.1), "line_search"),
    }
    runs = {}
    for name, solve in (("haspi", haspi_solve), ("masac", masac_solve)):
        if names is None or name in names:
            policy, _q, trace = solve(game, start, options)
            runs[name] = (policy, trace)
    for name, (drift, hood, mode) in mehaml.items():
        if names is None or name in names:
            runs[name] = mehaml_solve(game, start, alpha, drift, hood, options=options, mode=mode)
    return runs


def assert_trace_free(game, start, alpha, k, names=None):
    """Traced and untraced solves end at the same status, sweep count and
    bits: the traced sweeps reuse the records' contractions, the untraced
    ones make their own."""
    traced = solve_each_way(game, start, alpha, k, True, names=names)
    untraced = solve_each_way(game, start, alpha, k, False, names=names)
    assert list(traced) == list(untraced) == list(names or traced)
    for name, (policy, trace) in traced.items():
        other_policy, other_trace = untraced[name]
        assert (trace.status, trace.sweeps) == (other_trace.status, other_trace.sweeps), name
        assert trace.sweeps > 1 and len(trace.iterations) == trace.sweeps + 1
        assert not other_trace.iterations
        for a, b in zip(policy.agents, other_policy.agents):
            assert a.table.tobytes() == b.table.tobytes(), name


# Two 2-agent suite games and one 3-agent game.
TRACE_GAMES = [p for p in suite_params(13) if p[0] in (4, 7, 12)]


class TestSharedLoop:
    @pytest.mark.parametrize("params", TRACE_GAMES, ids=lambda p: f"game{p[0]}")
    def test_iterates_do_not_depend_on_the_trace(self, params):
        # Only a traced run reuses the record's contractions in the next sweep.
        k, n_agents, n_states, counts, gamma, alpha = params
        game = suite_game(k, n_agents, n_states, counts, gamma)
        assert_trace_free(game, random_start(game, k), alpha, k)

    @pytest.mark.parametrize("params", TRACE_GAMES[:2], ids=lambda p: f"game{p[0]}")
    def test_records_equal_a_fresh_evaluation(self, params):
        k, n_agents, n_states, counts, gamma, alpha = params
        game = suite_game(k, n_agents, n_states, counts, gamma)
        runs = solve_each_way(game, random_start(game, k), alpha, k, True, max_iters=40)
        for name, (_policy, trace) in runs.items():
            for rec in trace.iterations:
                jp = joint_policy_from_rows(rec.policies)
                q = evaluate_policy_exact(game, jp, alpha)
                assert rec.qre_residual == qre_residual(game, jp, alpha), name
                assert rec.maxent_return == maxent_return(game, jp, alpha), name
                assert rec.values.tobytes() == soft_value(game, jp, q, alpha).values.tobytes()


def sweep_coefficients(game, jp, q, alpha, order, reuse):
    """Each agent's (updated prefix, agent, coefficients) in one sweep."""
    seen = []

    def rule(old, new, prefix, coefficients, alpha):
        updated = [AgentPolicy(i, new[0][i]) for i in prefix[:-1]]
        seen.append((updated, prefix[-1], coefficients))
        return _boltzmann_rule(old, new, prefix, coefficients, alpha)

    orders = None if order is None else [Permutation(order).order]
    _sweep(game, _policy_arrays(jp), q.values, alpha, orders, rule, reuse)
    return seen


# 4 agents x 4 actions: 256 joint actions, so one-agent conditionals contract
# pairwise (see soft_dp._conditional_plan).
PAIRWISE_GAME = (random_game(4444, 4, 3, (4, 4, 4, 4), -1.0, 1.0, 0.9), 44, 1.0)


def coefficient_games():
    for k, n_agents, n_states, counts, gamma, alpha in TRACE_GAMES:
        yield suite_game(k, n_agents, n_states, counts, gamma), k, alpha
    yield PAIRWISE_GAME


class TestSweepCoefficients:
    """A sweep averages Q over the mixed policy (new rows for the updated
    prefix, old rows for the rest) in one contraction per agent; the public
    prefix chain of expected_conditional_q is the reference."""

    @pytest.mark.parametrize(
        "case", list(coefficient_games()), ids=["game4", "game7", "game12", "pairwise"]
    )
    def test_every_permutation_prefix_matches_the_chain(self, case):
        game, k, alpha = case
        jp = random_start(game, k)
        q = evaluate_policy_exact(game, jp, alpha)
        checked = 0
        for reuse in (None, _agent_coefficients(game, _policy_arrays(jp)[0], q.values)):
            for order in itertools.permutations(range(game.n_agents)):
                for updated, agent, coef in sweep_coefficients(game, jp, q, alpha, order, reuse):
                    expected = expected_conditional_q(game, q, jp, updated, agent, alpha)
                    assert coef.shape == expected.shape
                    if updated:
                        assert np.abs(coef - expected).max() <= 1e-12
                    else:  # the same contraction, reused or not
                        assert coef.tobytes() == expected.tobytes()
                    checked += 1
        assert checked == 2 * math.factorial(game.n_agents) * game.n_agents

    @pytest.mark.parametrize(
        "case", list(coefficient_games()), ids=["game4", "game7", "game12", "pairwise"]
    )
    def test_simultaneous_sweep_is_the_empty_prefix(self, case):
        game, k, alpha = case
        jp = random_start(game, k)
        q = evaluate_policy_exact(game, jp, alpha)
        for reuse in (None, _agent_coefficients(game, _policy_arrays(jp)[0], q.values)):
            seen = sweep_coefficients(game, jp, q, alpha, None, reuse)
            assert [agent for _u, agent, _c in seen] == list(range(game.n_agents))
            for updated, agent, coef in seen:
                expected = expected_conditional_q(game, q, jp, updated, agent, alpha)
                assert coef.tobytes() == expected.tobytes()


def record_bytes(runs):
    """Every field of every record, and the final tables, of each solver's run."""
    out = {}
    for name, (policy, trace) in runs.items():
        fields = [(trace.status, trace.sweeps)]
        for rec in trace.iterations:
            fields.append((
                rec.iteration, rec.permutation, repr(rec.policy_change),
                repr(rec.maxent_return), repr(rec.qre_residual), rec.values.tobytes(),
                tuple(t.tobytes() for t in rec.policies),
            ))
        fields.append(tuple(a.table.tobytes() for a in policy.agents))
        out[name] = fields
    return out


def q_nbytes(game):
    return game.n_states * game.n_joint_actions * 8


class TestBatchedRecords:
    """A traced solve contracts its pending records in stacked flushes; the
    records and the iterates must not depend on where the flushes fall."""

    @pytest.mark.parametrize("params", TRACE_GAMES, ids=lambda p: f"game{p[0]}")
    def test_records_do_not_depend_on_the_flushes(self, params, monkeypatch):
        k, n_agents, n_states, counts, gamma, alpha = params
        game = suite_game(k, n_agents, n_states, counts, gamma)
        start = random_start(game, k)
        # The mehaml-kl run of game 12 makes 201 records: four default flushes.
        defaults = record_bytes(solve_each_way(game, start, alpha, k, True))
        forced = {
            "byte cap, one record": ("_PENDING_Q_BYTES", 1),
            "count cap 1": ("_RESIDUAL_BATCH", 1),
            "byte cap, three records": ("_PENDING_Q_BYTES", 4 * q_nbytes(game) - 1),
            "count cap 5": ("_RESIDUAL_BATCH", 5),
        }
        for case, (name, value) in forced.items():
            with monkeypatch.context() as patch:
                patch.setattr(haspi, name, value)
                runs = record_bytes(solve_each_way(game, start, alpha, k, True))
            assert runs == defaults, case

    @pytest.mark.parametrize(
        "cap_records, expected_batch", [(1, 1), (3.5, 3), (1000, 64)], ids=["alone", "three", "count"]
    )
    def test_pending_q_never_passes_the_cap(self, cap_records, expected_batch, monkeypatch):
        k, n_agents, n_states, counts, gamma, alpha = TRACE_GAMES[2]
        game = suite_game(k, n_agents, n_states, counts, gamma)
        cap = int(cap_records * q_nbytes(game))
        monkeypatch.setattr(haspi, "_PENDING_Q_BYTES", cap)
        flushes = []  # each flush's (records, bytes of soft Q held for them)
        flushed = haspi._flushed

        def counted(game, iterates, q, *args):
            flushes.append((sum(len(it.active) for it in iterates), sum(x.nbytes for x in q)))
            return flushed(game, iterates, q, *args)

        monkeypatch.setattr(haspi, "_flushed", counted)
        options = HaspiOptions(alpha=alpha, max_outer_iters=300, permutation_rule=random_order(k))
        _policy, trace = mehaml_solve(
            game, random_start(game, k), alpha, kl_drift(1.0), full_neighborhood(), options=options
        )
        records = len(trace.iterations)
        assert records > 64 and sum(n for n, _ in flushes) == records
        for n, held in flushes[:-1]:
            assert (n, held) == (expected_batch, expected_batch * q_nbytes(game))
        assert all(held <= cap or n == 1 for n, held in flushes)
        assert len(flushes) == math.ceil(records / expected_batch)

    @pytest.mark.parametrize("solver", ["haspi", "mehaml"])
    def test_flushed_records_hold_no_q(self, solver, monkeypatch):
        # One record per flush, and 64 flushes per softmax: the records
        # waiting for their residuals must not keep their iterates' Q alive.
        k, n_agents, n_states, counts, gamma, alpha = TRACE_GAMES[2]
        game = suite_game(k, n_agents, n_states, counts, gamma)
        monkeypatch.setattr(haspi, "_PENDING_Q_BYTES", 1)
        flushed_q = []  # weak references to the Q of every flushed iterate
        alive = []  # at each flush, how many of the earlier ones are alive
        flushed = haspi._flushed

        def counted(game, iterates, q, *args):
            alive.append(sum(ref() is not None for ref in flushed_q))
            flushed_q.extend(weakref.ref(x) for x in q)
            return flushed(game, iterates, q, *args)

        monkeypatch.setattr(haspi, "_flushed", counted)
        options = HaspiOptions(alpha=alpha, max_outer_iters=300, permutation_rule=random_order(k))
        if solver == "haspi":
            trace = haspi_solve(game, random_start(game, k), options)[2]
        else:
            trace = mehaml_solve(
                game, random_start(game, k), alpha, kl_drift(1.0), full_neighborhood(), options=options
            )[1]
        assert len(alive) == len(trace.iterations) > 2
        # The loop's current iterate has the Q of the last flush; no earlier one is kept.
        assert max(alive) <= 1


def einsum_calls(monkeypatch, solve):
    """How many contractions ``solve()`` makes, counted as calls of
    ``soft_dp._contracted``: at suite shapes each is one einsum."""
    calls = []
    contracted = soft_dp._contracted

    def counted(*args):
        calls.append(None)
        return contracted(*args)

    with monkeypatch.context() as patch:
        patch.setattr(soft_dp, "_contracted", counted)
        solve()
    return len(calls)


# Suite games 3 (3 agents, 4 states) and 6 (2 agents, 2 states): MEHAML makes
# 269 and 203 records, HASPI 32 and 9.
@pytest.mark.parametrize("k", [3, 6])
@pytest.mark.parametrize("solver", ["haspi", "mehaml"])
def test_a_trace_adds_one_contraction_per_agent_per_flush(k, solver, monkeypatch):
    """A timing-free guard on the trace's cost: the records' contractions come
    in one einsum per agent per flush, not one per agent per record."""
    _k, n_agents, n_states, counts, gamma, alpha = list(suite_params(k + 1))[k]
    game = suite_game(k, n_agents, n_states, counts, gamma)
    start = random_start(game, k)
    traces = []

    def solve(record_trace):
        options = HaspiOptions(
            alpha=alpha, max_outer_iters=300, permutation_rule=random_order(k),
            record_trace=record_trace,
        )
        if solver == "haspi":
            trace = haspi_solve(game, start, options)[2]
        else:
            trace = mehaml_solve(game, start, alpha, kl_drift(1.0), full_neighborhood(), options=options)[1]
        traces.append(trace)

    traced = einsum_calls(monkeypatch, lambda: solve(True))
    untraced = einsum_calls(monkeypatch, lambda: solve(False))
    records = len(traces[0].iterations)
    assert traces[0].sweeps == traces[1].sweeps == records - 1
    # Suite shapes contract in one step per agent, a flush of one record too.
    flushes = math.ceil(records / haspi._RESIDUAL_BATCH)
    assert 0 < traced - untraced <= n_agents * flushes
    # One contraction per agent per record, less the next sweep's reuse of
    # one per iterate, would pass the bound.
    assert n_agents * records - (records - 1) > n_agents * flushes


def policy_value_calls(monkeypatch, solve):
    """How many times ``solve()`` computes V, counted as calls of
    ``_policy_value`` from the solver loop and from the evaluations."""
    calls = []
    policy_value = soft_dp._policy_value

    def counted(*args):
        calls.append(None)
        return policy_value(*args)

    with monkeypatch.context() as patch:
        patch.setattr(haspi, "_policy_value", counted)
        patch.setattr(soft_dp, "_policy_value", counted)
        solve()
    return len(calls)


@pytest.mark.parametrize("k", [3, 6])
@pytest.mark.parametrize("solver", ["haspi", "mehaml"])
def test_a_trace_computes_its_values_once_per_flush(k, solver, monkeypatch):
    """A timing-free guard on the trace's cost: the records' values V come in
    one ``_policy_value`` call per flush, not one per record."""
    _k, n_agents, n_states, counts, gamma, alpha = list(suite_params(k + 1))[k]
    game = suite_game(k, n_agents, n_states, counts, gamma)
    start = random_start(game, k)
    traces = []

    def solve(record_trace):
        options = HaspiOptions(
            alpha=alpha, max_outer_iters=300, permutation_rule=random_order(k),
            record_trace=record_trace,
        )
        if solver == "haspi":
            trace = haspi_solve(game, start, options)[2]
        else:
            trace = mehaml_solve(game, start, alpha, kl_drift(1.0), full_neighborhood(), options=options)[1]
        traces.append(trace)

    traced = policy_value_calls(monkeypatch, lambda: solve(True))
    untraced = policy_value_calls(monkeypatch, lambda: solve(False))
    records = len(traces[0].iterations)
    assert traces[0].sweeps == traces[1].sweeps == records - 1
    flushes = math.ceil(records / haspi._RESIDUAL_BATCH)
    assert 0 < traced - untraced <= flushes < records


@pytest.mark.parametrize("solver", ["haspi", "masac"])
def test_records_of_members_that_leave_between_flushes(solver, monkeypatch):
    """A batch's members leave between flushes, so a flush lays out iterates
    with different members at different temperatures; every record still
    holds the bits of soft_value, maxent_return and qre_residual of its
    policy."""
    k, n_agents, n_states, counts, gamma, _alpha = list(suite_params(4))[3]
    game = suite_game(k, n_agents, n_states, counts, gamma)
    alphas, caps = (0.1, 1.0, 5.0, 1.0), (7, 23, 41, 80)
    options = [
        HaspiOptions(alpha=a, tol_policy=1e-300, max_outer_iters=cap, permutation_rule=random_order(j))
        for j, (a, cap) in enumerate(zip(alphas, caps))
    ]
    starts = [random_start(game, j) for j in range(len(options))]
    flushes = []  # per flush, each pending iterate's members
    flushed = haspi._flushed

    def counted(game, iterates, *args):
        flushes.append([tuple(it.active) for it in iterates])
        return flushed(game, iterates, *args)

    monkeypatch.setattr(haspi, "_flushed", counted)
    solve_many = haspi.haspi_solve_many if solver == "haspi" else haspi.masac_solve_many
    results = solve_many(game, starts, options)
    # Some flush holds iterates before and after a member left.
    assert any(len(set(members)) > 1 for members in flushes)
    assert [len(trace.iterations) for _jp, _q, trace in results] == [cap + 1 for cap in caps]
    for alpha, (_jp, _q, trace) in zip(alphas, results):
        for rec in trace.iterations:
            jp = joint_policy_from_rows(rec.policies)
            q = evaluate_policy_exact(game, jp, alpha)
            assert rec.values.tobytes() == soft_value(game, jp, q, alpha).values.tobytes()
            assert repr(rec.maxent_return) == repr(maxent_return(game, jp, alpha))
            assert repr(rec.qre_residual) == repr(qre_residual(game, jp, alpha))


# The 4 x 4 x 10 shape of perfbench's large-joint workload: its pairwise chain
# and a flush of 12 records under the byte cap.
LARGE_JOINT_GAME = (random_game(7004, 4, 10, (4, 4, 4, 4), -1.0, 1.0, 0.9), 7004, 1.0)


@pytest.mark.parametrize(
    "case", [PAIRWISE_GAME, LARGE_JOINT_GAME], ids=["pairwise", "large-joint"]
)
def test_pairwise_iterates_do_not_depend_on_the_trace(case):
    # The records' contractions share leading steps across agents; a sweep
    # that reuses them must see the bits of its own contraction.
    game, k, alpha = case
    assert_trace_free(game, random_start(game, k), alpha, k, ("haspi", "masac", "mehaml-kl"))


def batch_cases():
    """Each suite shape and the pairwise game with 6 (tables, Q) iterates, and
    the large-joint shape with as many as one flush stacks there."""
    games = [(suite_game(k, n, s, c, g), k, a) for k, n, s, c, g, a in suite_params(100)]
    for game, k, alpha in games + [PAIRWISE_GAME, LARGE_JOINT_GAME]:
        rng = np.random.default_rng(k)
        members = 12 if k == LARGE_JOINT_GAME[1] else 6
        iterates = []
        for _ in range(members):
            jp = joint_policy_from_rows(
                [rng.dirichlet(np.ones(c), size=game.n_states) for c in game.action_counts]
            )
            iterates.append((jp, evaluate_policy_exact(game, jp, alpha).values))
        yield game, iterates


def test_batched_contraction_is_the_per_iterate_one_bit_for_bit():
    """Iterates laid end to end on the state axis, as a flush lays its
    records, contract to the bits of each iterate's own call."""
    large = LARGE_JOINT_GAME[0]
    assert haspi._PENDING_Q_BYTES // (large.n_states * large.n_joint_actions * 8) == 12
    cases = 0
    for game, iterates in batch_cases():
        n = game.n_states
        tables = [np.concatenate(t) for t in zip(*(_policy_arrays(jp)[0] for jp, _ in iterates))]
        q_values = np.concatenate([q for _, q in iterates])
        singles = [_agent_coefficients(game, _policy_arrays(jp)[0], q) for jp, q in iterates]
        for i in range(game.n_agents):
            joined = _contract(game, tables, q_values, (i,))
            assert joined.shape == (len(iterates) * n, game.action_counts[i])
            for b, single in enumerate(singles):
                assert joined[b * n : (b + 1) * n].tobytes() == single[i].tobytes()
                cases += 1
    assert cases == 6 * (sum(p[1] for p in suite_params(100)) + 4) + 12 * 4


class TestSolverBuiltPolicies:
    """The solvers build their own rows without the public checks; those rows
    must still pass them, and a non-finite row must fail with a named error."""

    @pytest.mark.parametrize("params", TRACE_GAMES, ids=lambda p: f"game{p[0]}")
    def test_record_tables_pass_public_validation(self, params):
        k, n_agents, n_states, counts, gamma, alpha = params
        game = suite_game(k, n_agents, n_states, counts, gamma)
        start = random_start(game, k)
        traces = {name: trace for name, (_p, trace) in solve_each_way(game, start, alpha, k, True).items()}
        traces["qre-oracle"] = qre_fixed_point(
            game, alpha, max_iters=300, initial_joint_policy=start, record_trace=True
        ).trace
        for name, trace in traces.items():
            assert len(trace.iterations) > 2, name
            for rec in trace.iterations:
                for i, table in enumerate(rec.policies):
                    assert not table.flags.writeable, name
                    checked = AgentPolicy(i, table)
                    assert checked.table.tobytes() == table.tobytes(), name

    @pytest.mark.parametrize(
        "rule, message",
        [
            (_boltzmann_rule, "Boltzmann update produced a non-finite row"),
            (_mirror_rule(None, kl_drift(1.0), full_neighborhood(), "closed_form"),
             "mirror update produced a non-finite row"),
            (_mirror_rule(None, trivial_drift(), full_neighborhood(), "closed_form"),
             "mirror update produced a non-finite row"),
            (_mirror_rule(None, kl_drift(1.0), kl_ball(0.1), "line_search"),
             "mirror update produced a non-finite row"),
        ],
        ids=["boltzmann", "mehaml-kl", "mehaml-trivial", "mehaml-line-search"],
    )
    def test_row_rules_reject_a_non_finite_row(self, rule, message):
        game = random_game(3, 2, 2, (2, 3), -1.0, 1.0, 0.5)
        arrays = _policy_arrays(uniform_joint_policy(game))
        coefficients = np.zeros((2, 3))
        coefficients[1, 2] = np.nan
        with pytest.raises(RuntimeError, match=message):
            rule(arrays, arrays, (1,), coefficients, 1.0)

    def test_oracle_rejects_a_non_finite_response(self, monkeypatch):
        game = random_game(3, 2, 2, (2, 3), -1.0, 1.0, 0.5)

        def nan_coefficients(game, tables, q_values):
            return [np.full((game.n_states, c), np.nan) for c in game.action_counts]

        monkeypatch.setattr(qre_oracle, "_agent_coefficients", nan_coefficients)
        with pytest.raises(RuntimeError, match="logit response produced a non-finite row"):
            qre_fixed_point(game, 1.0)

    def test_public_constructors_keep_their_checks(self):
        with pytest.raises(ValueError, match="sums to"):
            AgentPolicy(0, np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError, match="sums to"):
            AgentPolicy(0, np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation((0, 0))
        with pytest.raises(ValueError, match="agent at position 0 has agent_id 1"):
            JointPolicy((AgentPolicy(1, np.array([[1.0]])),))
        with pytest.raises(ValueError, match="must be 2-d"):
            SoftQTable(1.0, np.zeros(3))


def boundary_calls():
    """Every public entry point over a conditional, called with (game, jp, q, agent)."""
    return {
        "expected_conditional_q": lambda g, jp, q, i: expected_conditional_q(g, q, jp, [], i, 1.0),
        "boltzmann_local_update": lambda g, jp, q, i: boltzmann_local_update(g, q, jp, [], i, 1.0),
        "mehaml_local_update": lambda g, jp, q, i: mehaml_local_update(
            g, q, jp, [], i, 1.0, kl_drift(1.0), full_neighborhood()
        ),
        "multiagent_soft_q": lambda g, jp, q, i: multiagent_soft_q(g, jp, q, (i,), 1.0),
        "logit_response": lambda g, jp, q, i: logit_response(g, jp, i, 1.0, q=q),
        "qre_residual": lambda g, jp, q, i: qre_residual(g, jp, 1.0, q=q),
    }


VIOLATIONS = [
    "agent count", "action count", "q shape", "agent out of range", "negative agent",
    "fractional agent", "float agent", "bool agent", "text agent", "no agent",
]
BOUNDARY_CASES = [
    (function, violation)
    for function in boundary_calls()
    for violation in VIOLATIONS
    # qre_residual takes no agent
    if function != "qre_residual" or violation in VIOLATIONS[:3]
]


ID_RULE = r"an agent id must be an integer, got (agent|prefix\[0\])"


class TestBoundaryChecks:
    game = random_game(2, 2, 2, (2, 3), -1.0, 1.0, 0.5)

    def violations(self):
        jp = uniform_joint_policy(self.game)
        q = evaluate_policy_exact(self.game, jp, 1.0)
        three_agents = uniform_joint_policy(random_game(2, 3, 2, (2, 3, 2), -1.0, 1.0, 0.5))
        wrong_actions = uniform_joint_policy(random_game(2, 2, 2, (3, 3), -1.0, 1.0, 0.5))
        return {
            "agent count": ((three_agents, q, 0), "3 agents"),
            "action count": ((wrong_actions, q, 0), "3 actions"),
            "q shape": ((jp, SoftQTable(1.0, np.zeros((2, 7))), 0), "shape"),
            "agent out of range": ((jp, q, 2), "out of range"),
            "negative agent": ((jp, q, -1), "out of range"),
            # Named as "prefix[0]" by multiagent_soft_q, whose argument is the prefix.
            "fractional agent": ((jp, q, 0.7), rf"{ID_RULE}=0\.7$"),
            "float agent": ((jp, q, 1.0), rf"{ID_RULE}=1\.0$"),
            "bool agent": ((jp, q, True), rf"{ID_RULE}=True$"),
            "text agent": ((jp, q, "0"), rf"{ID_RULE}='0'$"),
            "no agent": ((jp, q, None), rf"{ID_RULE}=None$"),
        }

    @pytest.mark.parametrize("function,violation", BOUNDARY_CASES)
    def test_rejected_with_a_named_violation(self, function, violation):
        (jp, q, agent), message = self.violations()[violation]
        with pytest.raises(ValueError, match=message):
            boundary_calls()[function](self.game, jp, q, agent)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g, jp, q: policy_entropy(jp.agents[0], -1), "state must be.* got s=-1"),
            (lambda g, jp, q: policy_entropy(jp.agents[1], 2), "state must be.* got s=2"),
            (lambda g, jp, q: joint_kl_objective(g, q, jp, 1.0, -1), "state must be.*s=-1"),
            (lambda g, jp, q: joint_kl_objective(g, q, jp, 1.0, 2), "state must be.*s=2"),
            (lambda g, jp, q: joint_action_prob(jp, -1, (0, 0)), "state must be.*s=-1"),
            (lambda g, jp, q: joint_action_prob(jp, 0, (0,)), "not one action per agent"),
            (lambda g, jp, q: joint_action_prob(jp, 0, (0, 0, 0)), "not one action per agent"),
            (lambda g, jp, q: joint_action_prob(jp, 0, (0, -1)), r"joint_action\[1\]=-1"),
            (lambda g, jp, q: joint_action_prob(jp, 0, (0, 3)), r"in \[0, 3\).*joint_action\[1\]"),
            (lambda g, jp, q: joint_action_prob(jp, 0, (0.0, 0)), r"joint_action\[0\]=0.0"),
            (lambda g, jp, q: policy_entropy(jp.agents[0], True), "state must be.* got s=True"),
            (lambda g, jp, q: joint_kl_objective(g, q, jp, 1.0, True), "state must be.*s=True"),
            (lambda g, jp, q: joint_action_prob(jp, False, (0, 0)), "state must be.*s=False"),
            (lambda g, jp, q: joint_action_prob(jp, 0, (0, True)), r"joint_action\[1\]=True"),
        ],
        ids=[
            "entropy-negative-state", "entropy-state-past-end", "kl-negative-state",
            "kl-state-past-end", "prob-negative-state", "prob-short-action",
            "prob-long-action", "prob-negative-action", "prob-action-past-end",
            "prob-float-action", "entropy-bool-state", "kl-bool-state", "prob-bool-state",
            "prob-bool-action",
        ],
    )
    def test_states_and_actions_named(self, call, message):
        jp = uniform_joint_policy(self.game)
        q = evaluate_policy_exact(self.game, jp, 1.0)
        with pytest.raises(ValueError, match=message):
            call(self.game, jp, q)

    def test_a_bool_agent_is_named_before_the_updated_prefix(self):
        jp = uniform_joint_policy(self.game)
        q = evaluate_policy_exact(self.game, jp, 1.0)
        with pytest.raises(ValueError, match="an agent id must be an integer, got agent=True"):
            expected_conditional_q(self.game, q, jp, [jp.agents[1]], True, 1.0)

    @pytest.mark.parametrize(
        "ordering, k", [((0.5, 1), 0), ((0.5, 1.9), 0), ((0, True), 1), ((1, "0"), 1)], ids=repr
    )
    def test_orderings_must_hold_integers(self, ordering, k):
        # The k-th entry is the first that is no integer; none is truncated.
        for make, name in ((Permutation, "order"), (fixed_order, "ordering")):
            message = re.escape(f"an agent id must be an integer, got {name}[{k}]={ordering[k]!r}")
            with pytest.raises(ValueError, match=message):
                make(ordering)

    def test_orderings_take_numpy_integers(self):
        order = (np.int64(1), np.int32(0))
        assert Permutation(order).order == (1, 0)
        assert fixed_order(order).sampler(2)(0) == (1, 0)

    @pytest.mark.parametrize("agent", [2, -1])
    def test_surrogate_agent_named(self, agent):
        game = new_matrix_game(np.eye(2))
        with pytest.raises(ValueError, match=rf"prefix \({agent},\) is out of range"):
            surrogate_coefficients(game, uniform_joint_policy(game), agent)

    def test_duplicate_agent_in_the_updated_prefix(self):
        jp = uniform_joint_policy(self.game)
        q = evaluate_policy_exact(self.game, jp, 1.0)
        with pytest.raises(ValueError, match="already appears in the updated prefix"):
            expected_conditional_q(self.game, q, jp, [jp.agents[1]], 1, 1.0)

    @pytest.mark.parametrize(
        "update",
        [
            lambda g, q, jp, prefix: expected_conditional_q(g, q, jp, prefix, 0, 1.0),
            lambda g, q, jp, prefix: boltzmann_local_update(g, q, jp, prefix, 0, 1.0),
            lambda g, q, jp, prefix: mehaml_local_update(
                g, q, jp, prefix, 0, 1.0, kl_drift(1.0), full_neighborhood()
            ),
            lambda g, q, jp, prefix: mehaml_local_update(
                g, q, jp, prefix, 0, 1.0, kl_drift(1.0), kl_ball(0.1), mode="line_search"
            ),
        ],
        ids=["expected_conditional_q", "boltzmann_local_update", "mehaml-closed-form",
             "mehaml-line-search"],
    )
    @pytest.mark.parametrize(
        "table, message",
        [
            (np.full((1, 2), 0.5), "agent 1 has 2 actions, game expects 3"),
            (np.full((2, 3), 1 / 3), "all agents must share the same state count"),
        ],
        ids=["wrong action count", "wrong state count"],
    )
    def test_updated_prefix_tables_must_fit_the_game(
        self, matrix_game, start_policy, update, table, message
    ):
        # The Appendix B game: 1 state, 3 actions per agent.
        q = evaluate_policy_exact(matrix_game, start_policy, 1.0)
        with pytest.raises(ValueError, match=message):
            update(matrix_game, q, start_policy, [AgentPolicy(1, table)])

    @pytest.mark.parametrize("order", [(0,), (1, 0, 2)])
    def test_haspi_step_needs_a_permutation_of_every_agent(self, order):
        jp = uniform_joint_policy(self.game)
        with pytest.raises(ValueError, match="does not cover 2 agents"):
            haspi_step(self.game, jp, 1.0, Permutation(order))

    def test_dense_bound_of_eleven_agents(self):
        # The contraction plan holds the bound; every solver and the
        # baselines' coefficients reach it before any sweep or update.
        game = random_game(0, 12, 1, (1,) * 11 + (2,), -1.0, 1.0, 0.0)
        jp = uniform_joint_policy(game)
        calls = [
            lambda: haspi_solve(game, jp, HaspiOptions(alpha=1.0)),
            lambda: masac_solve(game, jp, HaspiOptions(alpha=1.0, record_trace=False)),
            lambda: mehaml_solve(game, jp, 1.0, kl_drift(1.0), full_neighborhood()),
            lambda: haspi_step(game, jp, 1.0, Permutation(tuple(range(12)))),
            lambda: qre_fixed_point(game, 1.0),
            lambda: surrogate_coefficients(game, jp, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="at most 11 agents"):
                call()


def temperature_calls():
    """Every public entry point that takes a temperature, called with
    (game, jp, q, alpha)."""
    return {
        "boltzmann_rows": lambda g, jp, q, a: boltzmann_rows(np.zeros((2, 3)), a),
        "boltzmann_local_update": lambda g, jp, q, a: boltzmann_local_update(g, q, jp, [], 0, a),
        "mehaml_local_update": lambda g, jp, q, a: mehaml_local_update(
            g, q, jp, [], 0, a, kl_drift(1.0), full_neighborhood()
        ),
        "logit_response": lambda g, jp, q, a: logit_response(g, jp, 0, a),
        "qre_residual": lambda g, jp, q, a: qre_residual(g, jp, a),
        "qre_fixed_point": lambda g, jp, q, a: qre_fixed_point(g, a),
        "evaluate_policy_exact": lambda g, jp, q, a: evaluate_policy_exact(g, jp, a),
        "maxent_return": lambda g, jp, q, a: maxent_return(g, jp, a),
        "evaluate_policy_iterative": lambda g, jp, q, a: evaluate_policy_iterative(g, jp, a),
        "soft_value": lambda g, jp, q, a: soft_value(g, jp, q, a),
        "multiagent_soft_q": lambda g, jp, q, a: multiagent_soft_q(g, jp, q, (0,), a),
        "haspi_step": lambda g, jp, q, a: haspi_step(g, jp, a, Permutation((0, 1))),
        "masac_step": lambda g, jp, q, a: masac_step(g, jp, a),
    }


# The entry points that need a positive temperature; the evaluations and
# conditionals also take alpha = 0.
POSITIVE_TEMPERATURE = [
    "boltzmann_rows",
    "boltzmann_local_update",
    "mehaml_local_update",
    "logit_response",
    "qre_residual",
    "qre_fixed_point",
    "haspi_step",
    "masac_step",
]


def counted_backups(monkeypatch):
    """The soft Bellman backups made from here on: every evaluation,
    exact or iterative, makes at least one."""
    backups = []
    backup = soft_dp._backup

    def counted(game, v):
        backups.append(v)
        return backup(game, v)

    monkeypatch.setattr(soft_dp, "_backup", counted)
    return backups


class TestArgumentChecks:
    game = random_game(2, 2, 2, (2, 3), -1.0, 1.0, 0.5)
    identity_game = new_matrix_game(np.eye(2))

    @pytest.mark.parametrize(
        "alpha", [math.nan, math.inf, -math.inf, True, False, "1", None], ids=repr
    )
    @pytest.mark.parametrize("function", sorted(temperature_calls()))
    def test_non_finite_temperature_named_before_any_evaluation(
        self, monkeypatch, function, alpha
    ):
        jp = uniform_joint_policy(self.game)
        q = evaluate_policy_exact(self.game, jp, 1.0)
        backups = counted_backups(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"temperature must be finite.* got alpha="):
                temperature_calls()[function](self.game, jp, q, alpha)
        assert backups == []

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    @pytest.mark.parametrize("function", POSITIVE_TEMPERATURE)
    def test_solver_temperature_must_be_positive(self, monkeypatch, function, alpha):
        jp = uniform_joint_policy(self.game)
        q = evaluate_policy_exact(self.game, jp, 1.0)
        backups = counted_backups(monkeypatch)
        with pytest.raises(ValueError, match="temperature must be finite and strictly positive"):
            temperature_calls()[function](self.game, jp, q, alpha)
        assert backups == []

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g, jp: qre_fixed_point(g, 1.0, tol=math.nan),
             "tolerances must be finite and positive, got tol=nan"),
            (lambda g, jp: qre_fixed_point(g, 1.0, max_iters=0),
             "iteration caps must be at least 1, got max_iters=0"),
            (lambda g, jp: evaluate_policy_iterative(g, jp, 1.0, tol=math.nan),
             "tolerances must be finite and positive, got tol=nan"),
            (lambda g, jp: evaluate_policy_iterative(g, jp, 1.0, max_iters=0),
             "iteration caps must be at least 1, got max_iters=0"),
            (lambda g, jp: haspi_step(g, jp, 1.0, Permutation((0, 1)), tol_eval=math.nan),
             "tolerances must be finite and positive"),
            (lambda g, jp: masac_step(g, jp, 1.0, tol_eval=0.0),
             "tolerances must be finite and positive"),
            (lambda g, jp: qre_fixed_point(g, 1.0, tol=True),
             "tolerances must be finite and positive, got tol=True"),
            (lambda g, jp: qre_fixed_point(g, 1.0, tol="1e-9"),
             "tolerances must be finite and positive, got tol='1e-9'"),
            (lambda g, jp: evaluate_policy_iterative(g, jp, 1.0, tol=True),
             "tolerances must be finite and positive, got tol=True"),
            (lambda g, jp: evaluate_policy_iterative(g, jp, 1.0, tol=None),
             "tolerances must be finite and positive, got tol=None"),
        ],
        ids=[
            "qre_fixed_point-tol",
            "qre_fixed_point-max_iters",
            "evaluate_policy_iterative-tol",
            "evaluate_policy_iterative-max_iters",
            "haspi_step-tol_eval",
            "masac_step-tol_eval",
            "qre_fixed_point-bool-tol",
            "qre_fixed_point-text-tol",
            "evaluate_policy_iterative-bool-tol",
            "evaluate_policy_iterative-no-tol",
        ],
    )
    def test_tolerance_and_cap_named_before_any_evaluation(self, monkeypatch, call, message):
        # At alpha = 1 the oracle converges on this game at its first
        # iteration, so a NaN tolerance that passed would show as a cycle.
        backups = counted_backups(monkeypatch)
        with pytest.raises(ValueError, match=message):
            call(self.identity_game, uniform_joint_policy(self.identity_game))
        assert backups == []

    @pytest.mark.parametrize("cap", [2.5, 3.0, True, np.float64(2.0)], ids=repr)
    @pytest.mark.parametrize(
        "entry", ["HaspiOptions", "qre_fixed_point", "evaluate_policy_iterative", "BaselineOptions"]
    )
    def test_iteration_caps_must_be_integers(self, monkeypatch, entry, cap):
        name, call = {
            "HaspiOptions": (
                "max_outer_iters", lambda g, jp: HaspiOptions(1.0, max_outer_iters=cap)
            ),
            "qre_fixed_point": ("max_iters", lambda g, jp: qre_fixed_point(g, 1.0, max_iters=cap)),
            "evaluate_policy_iterative": (
                "max_iters", lambda g, jp: evaluate_policy_iterative(g, jp, 1.0, max_iters=cap)
            ),
            "BaselineOptions": (
                "iterations", lambda g, jp: BaselineOptions("happo", iterations=cap)
            ),
        }[entry]
        message = f"must be an integer, and iteration caps must be at least 1, got {name}={cap}"
        backups = counted_backups(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(message)):
            call(self.identity_game, uniform_joint_policy(self.identity_game))
        assert backups == []


def core_calls(monkeypatch, solve):
    """``solve()``'s result, the tables it passes to ``_log_and_entropy``
    (kept alive, so their ids stay distinct), and how many AgentPolicy and
    JointPolicy objects it builds."""
    logged, built = [], {AgentPolicy: 0, JointPolicy: 0}
    log_and_entropy = game_core._log_and_entropy

    def logged_call(table):
        logged.append(table)
        return log_and_entropy(table)

    def counted(cls):
        post_init = cls.__post_init__

        def counted_post_init(self):
            built[cls] += 1
            post_init(self)

        return counted_post_init

    with monkeypatch.context() as patch:
        patch.setattr(game_core, "_log_and_entropy", logged_call)
        for cls in built:
            patch.setattr(cls, "__post_init__", counted(cls))
        result = solve()
    return result, logged, built


def oracle_run(game, start, options):
    solution = qre_fixed_point(
        game, options.alpha, max_iters=options.max_outer_iters, initial_joint_policy=start,
        record_trace=options.record_trace,
    )
    records = solution.trace.iterations if solution.trace else []
    return solution.joint_policy, solution.iterations - 1, records


def loop_run(solve):
    def run(game, start, options):
        policy, trace = solve(game, start, options)
        return policy, trace.sweeps, trace.iterations

    return run


# Each returns the final policy, the sweeps made and the records.
CORE_SOLVERS = {
    "haspi": loop_run(lambda game, start, options: haspi_solve(game, start, options)[::2]),
    "masac": loop_run(lambda game, start, options: masac_solve(game, start, options)[::2]),
    "mehaml-kl": loop_run(lambda game, start, options: mehaml_solve(
        game, start, options.alpha, kl_drift(1.0), full_neighborhood(), options=options
    )),
    "mehaml-line-search": loop_run(lambda game, start, options: mehaml_solve(
        game, start, options.alpha, kl_drift(1.0), kl_ball(0.1), options=options,
        mode="line_search",
    )),
    "oracle": oracle_run,
}


@pytest.mark.parametrize("record_trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("solver", CORE_SOLVERS)
@pytest.mark.parametrize("k", [3, 6])
def test_the_loops_iterate_on_tables_not_policies(k, solver, record_trace, monkeypatch):
    """A timing-free guard on the array core: each table a solver makes has
    its logs computed once, and policies are built for the result only
    (and, in a line search, once per table for the drift's arguments)."""
    _k, n_agents, n_states, counts, gamma, alpha = list(suite_params(k + 1))[k]
    game = suite_game(k, n_agents, n_states, counts, gamma)
    start = random_start(game, k)  # fresh: its logs are not computed yet
    options = HaspiOptions(
        alpha=alpha, max_outer_iters=300, permutation_rule=random_order(k),
        record_trace=record_trace,
    )
    (policy, sweeps, records), logged, built = core_calls(
        monkeypatch, lambda: CORE_SOLVERS[solver](game, start, options)
    )
    iterates = sweeps + 1
    assert sweeps > 1 and len(policy.agents) == n_agents
    assert len({id(table) for table in logged}) == len(logged)  # once per table
    if solver == "oracle":  # its last relaxation may make tables it does not evaluate
        assert iterates * n_agents <= len(logged) <= (iterates + 1) * n_agents
    else:
        assert len(logged) == iterates * n_agents
    if record_trace:
        made = {id(table) for table in logged}
        assert len(records) == iterates
        assert all(id(t) in made for rec in records for t in rec.policies)
    if solver == "mehaml-line-search":
        assert built[JointPolicy] <= sweeps + 1
        assert built[AgentPolicy] <= (iterates + 1) * n_agents
    else:
        assert built == {AgentPolicy: n_agents, JointPolicy: 1}


def test_the_evaluation_kernel_is_the_public_evaluation_bit_for_bit():
    games = [(suite_game(k, n, s, c, g), k, a) for k, n, s, c, g, a in suite_params(100)]
    for game, k, alpha in games + [PAIRWISE_GAME]:
        jp = random_start(game, k)
        tables, _logs, entropies = _policy_arrays(jp)
        q, joint, bonus, _backups = _evaluate_tables(
            game, tables, entropies, alpha, np.eye(game.n_states)
        )
        assert not q.flags.writeable
        assert q.tobytes() == evaluate_policy_exact(game, jp, alpha).values.tobytes()
        assert joint.tobytes() == joint_action_table(jp).tobytes()
        assert bonus.tobytes() == jp.entropy_bonus.tobytes()


class TestHaspiOptionChecks:
    """A permutation rule or trace flag of the wrong kind is named when the
    options are built, not deep inside a solve (a batch's options too)."""

    @pytest.mark.parametrize("rule", ["random", None, 0, ("fixed", (0, 1))], ids=repr)
    def test_permutation_rule_must_be_a_rule(self, rule):
        with pytest.raises(ValueError, match=r"permutation_rule must be a PermutationRule"):
            HaspiOptions(alpha=1.0, permutation_rule=rule)

    @pytest.mark.parametrize("flag", ["no", "", 0, 1, None, np.bool_(True)], ids=repr)
    def test_record_trace_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match=re.escape(f"record_trace must be a bool, got record_trace={flag!r}")):
            HaspiOptions(alpha=1.0, record_trace=flag)

    @pytest.mark.parametrize("rule", [fixed_order((1, 0)), random_order(3), cyclic_order()])
    @pytest.mark.parametrize("flag", [True, False])
    def test_rules_and_flags_run(self, rule, flag):
        game = random_game(3, 2, 2, (2, 3), -1.0, 1.0, 0.5)
        options = HaspiOptions(alpha=1.0, permutation_rule=rule, record_trace=flag)
        _policy, _q, trace = haspi_solve(game, uniform_joint_policy(game), options)
        assert trace.status == "converged"
        assert len(trace.iterations) == (trace.sweeps + 1 if flag else 0)
