"""Sequential and simultaneous Boltzmann policy iteration."""

import math

import numpy as np
import pytest

from maxent_marl import (
    HaspiOptions,
    Permutation,
    boltzmann_local_update,
    cyclic_order,
    evaluate_policy_exact,
    fixed_order,
    haspi_solve,
    haspi_step,
    joint_policy_from_rows,
    masac_solve,
    masac_step,
    maxent_return,
    new_matrix_game,
    qre_fixed_point,
    random_order,
    sup_policy_distance,
    uniform_joint_policy,
)
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
