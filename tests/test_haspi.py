"""Sequential and simultaneous Boltzmann policy iteration."""

import itertools
import math

import numpy as np
import pytest

from maxent_marl import (
    AgentPolicy,
    HaspiOptions,
    JointPolicy,
    Permutation,
    SoftQTable,
    boltzmann_local_update,
    cyclic_order,
    evaluate_policy_exact,
    fixed_order,
    full_neighborhood,
    haspi_solve,
    haspi_step,
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
from maxent_marl import qre_oracle
from maxent_marl.haspi import (
    _boltzmann_rule,
    _sequential_sweep,
    _simultaneous_sweep,
    expected_conditional_q,
)
from maxent_marl.soft_dp import _agent_coefficients
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

    def test_options_validation(self):
        with pytest.raises(ValueError, match="positive"):
            HaspiOptions(alpha=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            HaspiOptions(alpha=1.0, tol_policy=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_options_reject_non_finite(self, value):
        with pytest.raises(ValueError, match="temperature must be finite"):
            HaspiOptions(alpha=value)
        for key in ("tol_policy", "tol_eval"):
            with pytest.raises(ValueError, match="tolerances must be finite"):
                HaspiOptions(alpha=1.0, **{key: value})


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


def solve_each_way(game, start, alpha, k, record_trace, max_iters=300):
    """Final policy and trace of every solver sharing the outer loop."""
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
        policy, _q, trace = solve(game, start, options)
        runs[name] = (policy, trace)
    for name, (drift, hood, mode) in mehaml.items():
        runs[name] = mehaml_solve(game, start, alpha, drift, hood, options=options, mode=mode)
    return runs


# Two 2-agent suite games and one 3-agent game.
TRACE_GAMES = [p for p in suite_params(13) if p[0] in (4, 7, 12)]


class TestSharedLoop:
    @pytest.mark.parametrize("params", TRACE_GAMES, ids=lambda p: f"game{p[0]}")
    def test_iterates_do_not_depend_on_the_trace(self, params):
        # Only a traced run reuses the record's contractions in the next sweep.
        k, n_agents, n_states, counts, gamma, alpha = params
        game = suite_game(k, n_agents, n_states, counts, gamma)
        start = random_start(game, k)
        traced = solve_each_way(game, start, alpha, k, True)
        untraced = solve_each_way(game, start, alpha, k, False)
        for name, (policy, trace) in traced.items():
            other_policy, other_trace = untraced[name]
            assert (trace.status, trace.sweeps) == (other_trace.status, other_trace.sweeps), name
            assert trace.sweeps > 1 and len(trace.iterations) == trace.sweeps + 1
            assert not other_trace.iterations
            for a, b in zip(policy.agents, other_policy.agents):
                assert a.table.tobytes() == b.table.tobytes(), name

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

    def rule(joint_policy_old, updated, agent, coefficients, alpha):
        seen.append((list(updated), agent, coefficients))
        return _boltzmann_rule(joint_policy_old, updated, agent, coefficients, alpha)

    if order is None:
        _simultaneous_sweep(game, jp, q, alpha, rule, reuse)
    else:
        _sequential_sweep(game, jp, q, alpha, Permutation(order), rule, reuse)
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
        for reuse in (None, _agent_coefficients(game, jp, q.values)):
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
        for reuse in (None, _agent_coefficients(game, jp, q.values)):
            seen = sweep_coefficients(game, jp, q, alpha, None, reuse)
            assert [agent for _u, agent, _c in seen] == list(range(game.n_agents))
            for updated, agent, coef in seen:
                expected = expected_conditional_q(game, q, jp, updated, agent, alpha)
                assert coef.tobytes() == expected.tobytes()


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
        jp = uniform_joint_policy(game)
        coefficients = np.zeros((2, 3))
        coefficients[1, 2] = np.nan
        with pytest.raises(RuntimeError, match=message):
            rule(jp, (), 1, coefficients, 1.0)

    def test_oracle_rejects_a_non_finite_response(self, monkeypatch):
        game = random_game(3, 2, 2, (2, 3), -1.0, 1.0, 0.5)

        def nan_coefficients(game, joint_policy, q_values):
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


VIOLATIONS = ["agent count", "action count", "q shape", "agent out of range", "negative agent"]
BOUNDARY_CASES = [
    (function, violation)
    for function in boundary_calls()
    for violation in VIOLATIONS
    # qre_residual takes no agent
    if function != "qre_residual" or violation in VIOLATIONS[:3]
]


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
        }

    @pytest.mark.parametrize("function,violation", BOUNDARY_CASES)
    def test_rejected_with_a_named_violation(self, function, violation):
        (jp, q, agent), message = self.violations()[violation]
        with pytest.raises(ValueError, match=message):
            boundary_calls()[function](self.game, jp, q, agent)

    def test_duplicate_agent_in_the_updated_prefix(self):
        jp = uniform_joint_policy(self.game)
        q = evaluate_policy_exact(self.game, jp, 1.0)
        with pytest.raises(ValueError, match="already appears in the updated prefix"):
            expected_conditional_q(self.game, q, jp, [jp.agents[1]], 1, 1.0)

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
