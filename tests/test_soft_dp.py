"""Soft dynamic programming: backups, evaluation, conditionals, advantages."""

import itertools
import math

import numpy as np
import pytest

from maxent_marl import (
    EvaluationNotConverged,
    Permutation,
    SoftQTable,
    evaluate_policy_exact,
    evaluate_policy_iterative,
    joint_action_table,
    joint_policy_from_rows,
    maxent_return,
    multiagent_soft_advantage,
    multiagent_soft_q,
    new_matrix_game,
    random_game,
    soft_bellman_backup,
    soft_value,
    uniform_joint_policy,
)
from maxent_marl.haspi import expected_conditional_q
from maxent_marl.soft_dp import _conditional_q, zero_soft_q
from conftest import random_start, suite_game, suite_params

H_START = -(0.6 * math.log(0.6) + 2 * 0.2 * math.log(0.2))


def plain_policy_evaluation(game, joint_policy, tol=1e-14):
    """Independent standard (entropy-free) policy evaluation oracle.

    Plain dense iteration written without the package's operators.
    """
    joint = joint_action_table(joint_policy)
    q = np.zeros((game.n_states, game.n_joint_actions))
    for _ in range(2_000_000):
        v = (joint * q).sum(axis=1)
        q_next = game.reward + game.gamma * game.transition.dot(v)
        if np.abs(q_next - q).max() < tol:
            return q_next
        q = q_next
    raise AssertionError("oracle did not converge")


def value_iteration_oracle(game, tol=1e-14):
    """Independent optimal-value oracle: max over joint actions."""
    v = np.zeros(game.n_states)
    for _ in range(2_000_000):
        q = game.reward + game.gamma * game.transition.dot(v)
        v_next = q.max(axis=1)
        if np.abs(v_next - v).max() < tol:
            return v_next, q.argmax(axis=1)
        v = v_next
    raise AssertionError("oracle did not converge")


def zero_reward_game(gamma=0.5):
    reward = np.zeros((1, 4))
    transition = np.ones((1, 4, 1))
    from maxent_marl import CooperativeMarkovGame

    return CooperativeMarkovGame(2, 1, (2, 2), reward, transition, gamma, np.array([1.0]))


class TestSoftBellmanBackup:
    def test_entropy_only_backup(self):
        game = zero_reward_game(gamma=0.5)
        jp = uniform_joint_policy(game)
        q1 = soft_bellman_backup(game, jp, zero_soft_q(game, 1.0), 1.0)
        expected = 0.5 * 2 * math.log(2.0)
        assert np.allclose(q1.values, expected, atol=1e-14)

    def test_gamma_zero_returns_reward(self, matrix_game, start_policy):
        q0 = SoftQTable(1.0, np.full((1, 9), 123.0))
        q1 = soft_bellman_backup(matrix_game, start_policy, q0, 1.0)
        assert np.array_equal(q1.values, matrix_game.reward)

    def test_alpha_zero_matches_plain_backup(self):
        game = suite_game(0, 2, 1, (2, 2), 0.5)
        jp = random_start(game, 0)
        joint = joint_action_table(jp)
        q = np.arange(4.0).reshape(1, 4)
        ours = soft_bellman_backup(game, jp, SoftQTable(0.0, q), 0.0).values
        v = (joint * q).sum(axis=1)
        theirs = game.reward + game.gamma * game.transition.dot(v)
        assert np.allclose(ours, theirs, atol=1e-14)

    def test_shape_mismatch_rejected(self, matrix_game, start_policy):
        with pytest.raises(ValueError, match="shape"):
            soft_bellman_backup(matrix_game, start_policy, SoftQTable(1.0, np.zeros((1, 4))), 1.0)


class TestSoftValue:
    def test_reference_standard_value(self, matrix_game, start_policy):
        q = SoftQTable(0.0, matrix_game.reward)
        v = soft_value(matrix_game, start_policy, q, 0.0)
        assert v.values[0] == pytest.approx(-8.2, abs=1e-12)

    def test_deterministic_policy_drops_entropy(self, matrix_game):
        jp = joint_policy_from_rows(
            [np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]])]
        )
        q = SoftQTable(3.0, matrix_game.reward)
        v = soft_value(matrix_game, jp, q, 3.0)
        assert v.values[0] == pytest.approx(matrix_game.reward[0, 2], abs=1e-12)

    def test_reference_soft_value(self, matrix_game, start_policy):
        q = SoftQTable(1.0, matrix_game.reward)
        v = soft_value(matrix_game, start_policy, q, 1.0)
        assert v.values[0] == pytest.approx(-8.2 + 2 * H_START, abs=1e-12)
        assert v.values[0] == pytest.approx(-6.29946, abs=5e-6)


class TestEvaluation:
    def test_matrix_game_converges_in_one_iteration(self, matrix_game, start_policy):
        q, iters = evaluate_policy_iterative(matrix_game, start_policy, 1.0)
        assert iters == 1
        assert np.array_equal(q.values, matrix_game.reward)

    def test_zero_reward_uniform_closed_form(self):
        game = zero_reward_game(gamma=0.5)
        jp = uniform_joint_policy(game)
        q, _ = evaluate_policy_iterative(game, jp, 1.0, tol=1e-10)
        assert np.allclose(q.values, 2 * math.log(2.0), atol=1e-9)
        q_exact = evaluate_policy_exact(game, jp, 1.0)
        assert np.allclose(q_exact.values, 2 * math.log(2.0), atol=1e-12)

    def test_exact_gamma_zero_is_reward(self, matrix_game, start_policy):
        q = evaluate_policy_exact(matrix_game, start_policy, 5.0)
        assert np.array_equal(q.values, matrix_game.reward)

    def test_iterative_matches_exact_on_suite(self):
        tol = 1e-10
        for k, n_agents, n_states, counts, gamma, alpha in suite_params(30):
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            q_iter, _ = evaluate_policy_iterative(game, jp, alpha, tol=tol)
            q_exact = evaluate_policy_exact(game, jp, alpha)
            assert np.abs(q_iter.values - q_exact.values).max() <= 2 * tol

    def test_exact_bellman_residual(self):
        game = suite_game(2, 2, 3, (2, 3), 0.9)
        jp = random_start(game, 2)
        q = evaluate_policy_exact(game, jp, 0.7)
        backup = soft_bellman_backup(game, jp, q, 0.7)
        assert np.abs(backup.values - q.values).max() <= 1e-9

    def test_contraction(self):
        game = suite_game(5, 3, 4, (2, 2, 3), 0.9)
        jp = random_start(game, 5)
        q = zero_soft_q(game, 1.0)
        prev_change = None
        for _ in range(30):
            q_next = soft_bellman_backup(game, jp, q, 1.0)
            change = np.abs(q_next.values - q.values).max()
            if prev_change is not None and prev_change > 1e-13:
                assert change <= game.gamma * prev_change + 1e-12
            prev_change = change
            q = q_next

    def test_non_convergence_signal(self):
        game = suite_game(1, 2, 2, (2, 3), 0.9)
        jp = random_start(game, 1)
        with pytest.raises(EvaluationNotConverged) as info:
            evaluate_policy_iterative(game, jp, 1.0, tol=1e-12, max_iters=3)
        assert info.value.residual > 0

    def test_alpha_zero_matches_plain_oracle(self):
        for k in (0, 7, 14):
            params = list(suite_params(20))[k]
            game = suite_game(params[0], params[1], params[2], params[3], params[4])
            jp = random_start(game, k)
            ours = evaluate_policy_exact(game, jp, 0.0).values
            oracle = plain_policy_evaluation(game, jp)
            assert np.abs(ours - oracle).max() < 1e-10

    def test_soft_q_bound(self):
        for k, n_agents, n_states, counts, gamma, alpha in suite_params(12):
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            q = evaluate_policy_exact(game, jp, alpha)
            bound = (
                np.abs(game.reward).max()
                + alpha * sum(math.log(c) for c in game.action_counts)
            ) / (1.0 - game.gamma)
            assert np.abs(q.values).max() <= bound + 1e-9


class TestMultiAgentSoftQ:
    def test_reference_single_agent_conditional(self, matrix_game, start_policy):
        q = SoftQTable(0.0, matrix_game.reward)
        maq = multiagent_soft_q(matrix_game, start_policy, q, (0,), 0.0)
        assert np.allclose(maq.values[0], [-5.0, -14.0, -12.0], atol=1e-12)

    def test_full_prefix_equals_joint(self):
        game = suite_game(3, 3, 2, (2, 2, 3), 0.5)
        jp = random_start(game, 3)
        q = evaluate_policy_exact(game, jp, 1.0)
        maq = multiagent_soft_q(game, jp, q, (0, 1, 2), 1.0)
        assert np.abs(maq.values.reshape(q.values.shape) - q.values).max() < 1e-12
        # reordered prefix is the transposed tensor
        maq_perm = multiagent_soft_q(game, jp, q, (2, 0, 1), 1.0)
        expected = q.values.reshape(2, 2, 2, 3).transpose(0, 3, 1, 2)
        assert np.abs(maq_perm.values - expected).max() < 1e-12

    def test_empty_prefix_equals_value(self):
        game = suite_game(4, 2, 3, (3, 2), 0.9)
        jp = random_start(game, 4)
        q = evaluate_policy_exact(game, jp, 0.7)
        maq = multiagent_soft_q(game, jp, q, (), 0.7)
        v = soft_value(game, jp, q, 0.7)
        assert np.abs(maq.values - v.values).max() < 1e-12

    def test_duplicate_prefix_rejected(self, matrix_game, start_policy):
        q = SoftQTable(0.0, matrix_game.reward)
        with pytest.raises(ValueError, match="duplicate"):
            multiagent_soft_q(matrix_game, start_policy, q, (0, 0), 0.0)

    def test_internal_conditional_is_byte_identical(self):
        # Every ordered prefix of a 3-agent game, the full prefixes included,
        # whose einsum result is a transposed view before the C-layout copy.
        game = suite_game(7, 3, 3, (2, 3, 4), 0.9)
        jp = random_start(game, 7)
        q = evaluate_policy_exact(game, jp, 0.5)
        prefixes = [
            p for m in range(4) for p in itertools.permutations(range(3), m)
        ]
        assert len(prefixes) == 16
        for prefix in prefixes:
            public = multiagent_soft_q(game, jp, q, prefix, 0.5).values
            internal = _conditional_q(game, jp, q.values, prefix, 0.5)
            assert internal.flags.c_contiguous
            assert internal.shape == public.shape
            assert internal.tobytes() == public.tobytes()

    def test_expected_conditional_q_is_the_public_chain(self):
        game = suite_game(7, 3, 3, (2, 3, 4), 0.9)
        jp = random_start(game, 7)
        q = evaluate_policy_exact(game, jp, 0.5)
        for order in itertools.permutations(range(3)):
            updated = []
            for agent in order:
                prefix = tuple(p.agent_id for p in updated) + (agent,)
                expected = multiagent_soft_q(game, jp, q, prefix, 0.5).values
                for policy in updated:
                    expected = np.einsum("sa...,sa->s...", expected, policy.table)
                got = expected_conditional_q(game, q, jp, updated, agent, 0.5)
                assert got.tobytes() == expected.tobytes()
                updated.append(jp.agents[agent])


class TestAdvantage:
    def test_reference_values(self, matrix_game, start_policy):
        q = SoftQTable(0.0, matrix_game.reward)
        adv_joint = multiagent_soft_advantage(matrix_game, start_policy, q, (), (0, 1), 0.0)
        assert adv_joint[0, 0, 0] == pytest.approx(13.2, abs=1e-12)
        adv_one = multiagent_soft_advantage(matrix_game, start_policy, q, (), (0,), 0.0)
        assert adv_one[0, 0] == pytest.approx(3.2, abs=1e-12)
        adv_two = multiagent_soft_advantage(matrix_game, start_policy, q, (0,), (1,), 0.0)
        assert adv_two[0, 0, 0] == pytest.approx(10.0, abs=1e-12)
        # the chain rule across the two tables
        assert adv_one[0, 0] + adv_two[0, 0, 0] == pytest.approx(13.2, abs=1e-12)

    def test_overlap_rejected(self, matrix_game, start_policy):
        q = SoftQTable(0.0, matrix_game.reward)
        with pytest.raises(ValueError, match="overlap"):
            multiagent_soft_advantage(matrix_game, start_policy, q, (0,), (0, 1), 0.0)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(77)
        for k, n_agents, n_states, counts, gamma, alpha in suite_params(10):
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            q = evaluate_policy_exact(game, jp, alpha)
            order = tuple(rng.permutation(n_agents))
            full = multiagent_soft_advantage(game, jp, q, (), order, alpha)
            total = np.zeros_like(full)
            for j in range(n_agents):
                part = multiagent_soft_advantage(game, jp, q, order[:j], (order[j],), alpha)
                shape = part.shape + (1,) * (n_agents - 1 - j)
                total += part.reshape(shape)
            assert np.abs(full - total).max() < 1e-10


class TestMaxentReturn:
    def test_matrix_game_standard(self, matrix_game, start_policy):
        assert maxent_return(matrix_game, start_policy, 0.0) == pytest.approx(-8.2, abs=1e-12)

    def test_zero_reward_closed_form(self):
        game = zero_reward_game(gamma=0.5)
        jp = uniform_joint_policy(game)
        assert maxent_return(game, jp, 1.0) == pytest.approx(4 * math.log(2.0), abs=1e-12)

    def test_matches_value_iteration_oracle(self):
        game = suite_game(8, 2, 4, (2, 2), 0.9)
        v_star, greedy = value_iteration_oracle(game)
        rows = []
        for i, count in enumerate(game.action_counts):
            table = np.zeros((game.n_states, count))
            for s in range(game.n_states):
                joint = np.unravel_index(int(greedy[s]), game.action_counts)
                table[s, joint[i]] = 1.0
            rows.append(table)
        jp = joint_policy_from_rows(rows)
        expected = float(game.initial_dist @ v_star)
        assert maxent_return(game, jp, 0.0) == pytest.approx(expected, abs=1e-8)
