"""Logit responses, the damped fixed point, Nash enumeration, deviation checks."""

import math

import numpy as np
import pytest

from maxent_marl import (
    HaspiOptions,
    Permutation,
    enumerate_pure_nash,
    evaluate_policy_exact,
    fixed_order,
    haspi_solve,
    haspi_step,
    joint_kl_objective,
    joint_policy_from_rows,
    logit_response,
    multiagent_soft_q,
    new_matrix_game,
    qre_fixed_point,
    qre_residual,
    random_game,
    sup_policy_distance,
    uniform_joint_policy,
)
from maxent_marl import qre_oracle
from maxent_marl.qre_oracle import (
    boltzmann_rows,
    deviation_grid_slack,
    unilateral_deviation_gain,
)
from conftest import random_start, suite_game, suite_params


def softmax_oracle(c, alpha):
    e = [math.exp(x / alpha - max(c) / alpha) for x in c]
    return np.array(e) / sum(e)


class TestLogitResponse:
    def test_reference_row(self, matrix_game, start_policy):
        row = logit_response(matrix_game, start_policy, 0, 1.0).table[0]
        assert np.allclose(np.round(row, 4), (0.9990, 0.0001, 0.0009), atol=1e-12)

    def test_constant_q_gives_uniform(self):
        game = new_matrix_game(np.full((2, 2), 3.0))
        jp = uniform_joint_policy(game)
        row = logit_response(game, jp, 1, 1.0).table[0]
        assert np.allclose(row, 0.5, atol=1e-14)

    def test_high_temperature_limit(self, matrix_game, start_policy):
        row = logit_response(matrix_game, start_policy, 0, 1e6).table[0]
        assert np.abs(row - 1 / 3).max() < 1e-3

    def test_alpha_zero_rejected(self, matrix_game, start_policy):
        with pytest.raises(ValueError, match="positive"):
            logit_response(matrix_game, start_policy, 0, 0.0)


class TestQreResidual:
    def test_residual_at_fixed_point(self, matrix_game, start_policy):
        sol = qre_fixed_point(matrix_game, 10.0, tol=1e-11, initial_joint_policy=start_policy)
        assert qre_residual(matrix_game, sol.joint_policy, 10.0) <= 1e-11

    def test_reference_initial_residual(self, matrix_game, start_policy):
        # dominated by the first agent's gap to its logit row
        logit_row = softmax_oracle([-5.0, -14.0, -12.0], 1.0)
        expected = float(np.abs(logit_row - [0.6, 0.2, 0.2]).max())
        assert qre_residual(matrix_game, start_policy, 1.0) == pytest.approx(expected, abs=1e-12)
        assert round(expected, 4) == 0.3990

    def test_entropy_free_coefficients_match_the_conditional(self):
        # The residual's coefficients leave out the other agents' entropy,
        # which cancels in each Boltzmann row up to the last bits.
        for k, n_agents, n_states, counts, gamma, alpha in suite_params(100):
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            q = evaluate_policy_exact(game, jp, alpha)
            rows = [
                boltzmann_rows(multiagent_soft_q(game, jp, q, (i,), alpha).values, alpha)
                for i in range(n_agents)
            ]
            reference = max(
                float(np.abs(r - agent.table).max()) for r, agent in zip(rows, jp.agents)
            )
            assert abs(qre_residual(game, jp, alpha) - reference) <= 1e-14
            for i in range(n_agents):
                response = logit_response(game, jp, i, alpha, q=q).table
                assert np.abs(response - rows[i]).max() <= 1e-14

    def test_single_agent_boltzmann_optimum(self):
        from maxent_marl import CooperativeMarkovGame

        rewards = np.array([[0.5, -0.5]])
        game = CooperativeMarkovGame(
            1, 1, (2,), rewards, np.ones((1, 2, 1)), 0.0, np.array([1.0])
        )
        jp = joint_policy_from_rows([softmax_oracle(rewards[0], 2.0).reshape(1, 2)])
        assert qre_residual(game, jp, 2.0) < 1e-12


class TestQreFixedPoint:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(10.0, (0.0221, 0.0224, 0.9555)), (20.0, (0.2514, 0.2790, 0.4697))],
    )
    def test_reference_limits(self, matrix_game, start_policy, alpha, expected):
        sol = qre_fixed_point(matrix_game, alpha, tol=1e-11, initial_joint_policy=start_policy)
        assert sol.converged
        for agent in sol.joint_policy.agents:
            assert np.allclose(np.round(agent.table[0], 4), expected, atol=1e-12)

    def test_stored_residual_is_recomputable(self, matrix_game, start_policy):
        sol = qre_fixed_point(matrix_game, 15.0, tol=1e-10, initial_joint_policy=start_policy)
        fresh = qre_residual(matrix_game, sol.joint_policy, 15.0)
        assert abs(fresh - sol.residual) < 1e-12

    def test_agreement_with_sequential_solver(self):
        # moderate temperatures: both dynamics find the same equilibrium
        for k, n_agents, n_states, counts, gamma, alpha in suite_params(12):
            if alpha < 1.0:
                continue
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            options = HaspiOptions(alpha=alpha, tol_policy=1e-10, max_outer_iters=3000)
            policy, _q, trace = haspi_solve(game, jp, options)
            sol = qre_fixed_point(game, alpha, tol=1e-10, max_iters=30000,
                                  initial_joint_policy=jp)
            if trace.status == "converged" and sol.converged:
                assert sup_policy_distance(policy, sol.joint_policy) < 1e-6

    def test_non_convergence_reported(self, matrix_game, start_policy):
        sol = qre_fixed_point(matrix_game, 10.0, tol=1e-12, max_iters=3,
                              initial_joint_policy=start_policy)
        assert not sol.converged
        assert sol.status == "max_iters"
        assert sol.residual > 1e-12

    def test_damping_validation(self, matrix_game):
        with pytest.raises(ValueError, match="damping"):
            qre_fixed_point(matrix_game, 1.0, damping=0.0)


def suite_oracle(k):
    """The benchmark suite's oracle run on game k: seeded start, cap 2,000."""
    params = next(p for p in suite_params(100) if p[0] == k)
    _k, n_agents, n_states, counts, gamma, alpha = params
    game = suite_game(k, n_agents, n_states, counts, gamma)
    return qre_fixed_point(game, alpha, damping=0.5, tol=1e-10, max_iters=2000,
                           initial_joint_policy=random_start(game, k))


class TestCycleStop:
    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_swapped_start_on_identity_game_cycles(self, damping):
        # each agent answers the other's favoured action, so the rows swap
        game = new_matrix_game(np.eye(2))
        jp = joint_policy_from_rows([np.array([[0.9, 0.1]]), np.array([[0.1, 0.9]])])
        sol = qre_fixed_point(game, 0.1, damping=damping, initial_joint_policy=jp,
                              record_trace=True)
        assert sol.status == "cycle"
        assert sol.trace.status == "cycle"
        assert not sol.converged
        assert sol.iterations < 50
        assert abs(sol.residual - qre_residual(game, sol.joint_policy, 0.1)) < 1e-12

    def test_suite_game_39_stops_early_with_the_capped_best_iterate(self, monkeypatch):
        sol = suite_oracle(39)
        assert sol.status == "cycle"
        assert sol.iterations <= 100
        # the same run with the cycle stop switched off spends the whole cap
        monkeypatch.setattr(qre_oracle, "CYCLE_REPEATS", 10**9)
        capped = suite_oracle(39)
        assert capped.status == "max_iters"
        assert capped.iterations == 2000
        assert sol.residual == capped.residual
        for a, b in zip(sol.joint_policy.agents, capped.joint_policy.agents):
            assert a.table.tobytes() == b.table.tobytes()

    @pytest.mark.parametrize("k, iterations", [(87, 135), (51, 133), (99, 118), (33, 89)])
    def test_slow_converging_suite_runs_unchanged(self, k, iterations):
        # the slowest suite runs, and game 33, whose residual goes longest
        # without halving: none of them may be mistaken for a cycle
        sol = suite_oracle(k)
        assert sol.status == "converged"
        assert sol.converged
        assert sol.iterations == iterations


class TestEnumeratePureNash:
    def test_reference_game(self, matrix_game):
        assert enumerate_pure_nash(matrix_game) == {(0, 0), (1, 1), (2, 2)}

    def test_constant_reward_all_equilibria(self):
        game = new_matrix_game(np.full((2, 3), 1.0))
        assert enumerate_pure_nash(game) == set((i, j) for i in range(2) for j in range(3))

    def test_two_by_two(self):
        game = new_matrix_game(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert enumerate_pure_nash(game) == {(0, 0), (1, 1)}

    def test_multi_state_rejected(self):
        game = random_game(0, 2, 2, [2, 2], -1, 1, 0.5)
        with pytest.raises(ValueError, match="single-state"):
            enumerate_pure_nash(game)

    def test_low_temperature_qre_sits_on_a_pure_nash(self, matrix_game, start_policy):
        sol = qre_fixed_point(matrix_game, 0.1, tol=1e-10, initial_joint_policy=start_policy)
        assert sol.converged
        nash = enumerate_pure_nash(matrix_game)
        modal = tuple(int(np.argmax(a.table[0])) for a in sol.joint_policy.agents)
        assert modal in nash
        prob = 1.0
        for a, choice in zip(sol.joint_policy.agents, modal):
            prob *= a.table[0, choice]
        assert prob > 0.99


class TestJointKlObjective:
    def test_uniform_candidate_on_constant_q(self):
        game = new_matrix_game(np.full((2, 2), 4.0))
        jp = uniform_joint_policy(game)
        q = evaluate_policy_exact(game, jp, 1.0)
        assert joint_kl_objective(game, q, jp, 1.0, 0) == pytest.approx(0.0, abs=1e-14)

    def test_factorizing_boltzmann_self_distance(self):
        # additive rewards factorize the joint Boltzmann density exactly
        f = np.array([0.8, -0.3])
        g = np.array([0.1, 0.5, -0.4])
        game = new_matrix_game(f[:, None] + g[None, :])
        jp = uniform_joint_policy(game)
        q = evaluate_policy_exact(game, jp, 1.0)
        rows = [
            (np.exp(f) / np.exp(f).sum()).reshape(1, 2),
            (np.exp(g) / np.exp(g).sum()).reshape(1, 3),
        ]
        cand = joint_policy_from_rows(rows)
        assert joint_kl_objective(game, q, cand, 1.0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_last_updated_agent_is_blockwise_optimal(self, matrix_game, start_policy):
        # the final agent in a sweep exactly minimizes the joint objective
        # over its own row, holding the updated prefix fixed
        rng = np.random.default_rng(11)
        for alpha in (1.0, 10.0):
            q_old = evaluate_policy_exact(matrix_game, start_policy, alpha)
            pnew = haspi_step(matrix_game, start_policy, alpha, Permutation((0, 1)))
            base = joint_kl_objective(matrix_game, q_old, pnew, alpha, 0)
            for scale in (0.01, 0.05, 0.2):
                for _ in range(100):
                    t = pnew.agents[1].table + rng.normal(0, scale, size=(1, 3))
                    t = np.clip(t, 1e-15, None)
                    t /= t.sum(axis=1, keepdims=True)
                    cand = joint_policy_from_rows([pnew.agents[0].table, t])
                    assert base <= joint_kl_objective(matrix_game, q_old, cand, alpha, 0) + 1e-9


class TestUnilateralDeviation:
    def test_converged_policy_has_no_gain(self, matrix_game, start_policy):
        options = HaspiOptions(
            alpha=10.0, tol_policy=1e-12, permutation_rule=fixed_order((0, 1))
        )
        policy, _q, _t = haspi_solve(matrix_game, start_policy, options)
        gain = unilateral_deviation_gain(matrix_game, policy, 10.0, grid_resolution=0.01)
        assert gain <= 1e-3

    def test_initial_policy_has_gain(self, matrix_game, start_policy):
        gain = unilateral_deviation_gain(matrix_game, start_policy, 1.0, grid_resolution=0.01)
        assert gain > 0.1

    def test_single_action_agents_zero_gain(self):
        game = new_matrix_game(np.array([[2.0]]))
        jp = uniform_joint_policy(game)
        assert unilateral_deviation_gain(game, jp, 1.0, grid_resolution=0.05) == 0.0

    def test_too_many_actions_rejected(self):
        game = random_game(1, 2, 1, [5, 2], -1, 1, 0.0)
        jp = uniform_joint_policy(game)
        with pytest.raises(ValueError, match="at most 4"):
            unilateral_deviation_gain(game, jp, 1.0)

    def test_consistent_with_residual_on_multistate_game(self):
        game = suite_game(31, 2, 2, (2, 2), 0.5)
        jp = uniform_joint_policy(game)
        sol = qre_fixed_point(game, 1.0, tol=1e-10, initial_joint_policy=jp)
        assert sol.converged
        assert qre_residual(game, sol.joint_policy, 1.0) <= 1e-8
        gain = unilateral_deviation_gain(game, sol.joint_policy, 1.0, grid_resolution=0.02)
        assert gain <= deviation_grid_slack(game, 1.0, 0.02)
