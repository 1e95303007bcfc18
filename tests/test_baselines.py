"""Expected-update baselines: coefficients, vertex absorption, the trap."""

import numpy as np
import pytest

from maxent_marl import (
    AgentPolicy,
    BaselineOptions,
    HaspiOptions,
    JointPolicy,
    baseline_run,
    baseline_step,
    fixed_order,
    haspi_solve,
    joint_action_table,
    maxent_return,
    new_matrix_game,
    qre_fixed_point,
    random_game,
    surrogate_coefficients,
    uniform_joint_policy,
)


class TestSurrogateCoefficients:
    def test_reference_simultaneous_coefficients(self, matrix_game, start_policy):
        coef = surrogate_coefficients(matrix_game, start_policy, 0)
        assert np.allclose(coef, [3.2, -5.8, -3.8], atol=1e-12)
        # symmetric game and start: agent 2 sees the same numbers
        coef2 = surrogate_coefficients(matrix_game, start_policy, 1)
        assert np.allclose(coef2, [3.2, -5.8, -3.8], atol=1e-12)

    def test_reference_sequential_coefficients(self, matrix_game, start_policy):
        moved = AgentPolicy(0, np.array([[1.0, 0.0, 0.0]]))
        coef = surrogate_coefficients(matrix_game, start_policy, 1, [moved])
        assert np.allclose(coef, [13.2, -11.8, -11.8], atol=1e-12)

    def test_constant_advantage_gives_equal_coefficients(self):
        game = new_matrix_game(np.full((3, 3), 7.0))
        jp = uniform_joint_policy(game)
        coef = surrogate_coefficients(game, jp, 0)
        assert np.allclose(coef, coef[0], atol=1e-14)
        assert coef[0] == pytest.approx(0.0, abs=1e-12)

    def test_mixed_policy_contraction_matches_a_one_shot_einsum(self):
        # Reference: the advantage averaged over every other agent in one
        # einsum, new rows for the ratio policies, old rows for the rest.
        game = random_game(3, 3, 1, [2, 3, 4], -1, 1, 0.0)
        rng = np.random.default_rng(3)
        tables = [rng.dirichlet(np.ones(c), size=1) for c in game.action_counts]
        jp = JointPolicy(tuple(AgentPolicy(i, t) for i, t in enumerate(tables)))
        moved = AgentPolicy(2, rng.dirichlet(np.ones(4), size=1))
        value = float(joint_action_table(jp)[0] @ game.reward[0])
        advantage = (game.reward[0] - value).reshape(game.action_counts)
        a, b, c = (t[0] for t in tables)
        cases = {
            (0, ()): np.einsum("abc,b,c->a", advantage, b, c),
            (1, (moved,)): np.einsum("abc,a,c->b", advantage, a, moved.table[0]),
            (0, (moved,)): np.einsum("abc,b,c->a", advantage, b, moved.table[0]),
        }
        for (agent, ratio), expected in cases.items():
            got = surrogate_coefficients(game, jp, agent, ratio)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-15

    def test_multi_state_rejected(self, start_policy):
        game = random_game(0, 2, 2, [3, 3], -1, 1, 0.5)
        jp = uniform_joint_policy(game)
        with pytest.raises(ValueError, match="single-state"):
            surrogate_coefficients(game, jp, 0)


class TestBaselineStep:
    def test_simultaneous_argmax_reaches_vertex(self, matrix_game, start_policy):
        options = BaselineOptions(algorithm="mappo", update_mode="argmax")
        new = baseline_step(matrix_game, start_policy, options)
        for agent in new.agents:
            assert np.array_equal(agent.table[0], [1.0, 0.0, 0.0])

    def test_sequential_argmax_reaches_vertex(self, matrix_game, start_policy):
        options = BaselineOptions(
            algorithm="happo", update_mode="argmax", permutation=(0, 1)
        )
        new = baseline_step(matrix_game, start_policy, options)
        for agent in new.agents:
            assert np.array_equal(agent.table[0], [1.0, 0.0, 0.0])

    def test_argmax_tie_breaks_to_lowest_index(self):
        game = new_matrix_game(np.zeros((3, 3)))
        jp = uniform_joint_policy(game)
        options = BaselineOptions(algorithm="mappo", update_mode="argmax")
        new = baseline_step(game, jp, options)
        assert np.array_equal(new.agents[0].table[0], [1.0, 0.0, 0.0])

    def test_mirror_moves_toward_best_action(self, matrix_game, start_policy):
        options = BaselineOptions(algorithm="mappo", update_mode="mirror", step_size=0.1)
        jp = start_policy
        prob = 0.6
        for _ in range(5):
            jp = baseline_step(matrix_game, jp, options)
            assert jp.agents[0].table[0, 0] > prob
            prob = jp.agents[0].table[0, 0]

    def test_mirror_rows_stay_distributions(self, matrix_game, start_policy):
        options = BaselineOptions(algorithm="happo", update_mode="mirror", step_size=0.5)
        jp = start_policy
        for _ in range(20):
            jp = baseline_step(matrix_game, jp, options)
            for agent in jp.agents:
                assert agent.table.min() >= 0.0
                assert abs(agent.table.sum() - 1.0) < 1e-12

    def test_options_validation(self):
        with pytest.raises(ValueError):
            BaselineOptions(algorithm="ppo")
        with pytest.raises(ValueError):
            BaselineOptions(algorithm="mappo", update_mode="mirror", step_size=0.0)


class TestBaselineRun:
    def test_mirror_converges_to_suboptimal_vertex(self, matrix_game, start_policy):
        options = BaselineOptions(
            algorithm="mappo", update_mode="mirror", step_size=0.1, iterations=200
        )
        trace = baseline_run(matrix_game, start_policy, options)
        last = trace.iterations[-1]
        for table in last.policies:
            assert np.abs(table[0] - [1.0, 0.0, 0.0]).max() < 1e-3
        assert last.maxent_return == pytest.approx(5.0, abs=1e-2)
        assert trace.status == "converged"

    def test_argmax_absorbs_within_two_sweeps(self, matrix_game, start_policy):
        for algorithm in ("mappo", "happo"):
            options = BaselineOptions(
                algorithm=algorithm, update_mode="argmax", iterations=5
            )
            trace = baseline_run(matrix_game, start_policy, options)
            vertex = trace.iterations[2].policies
            for table in vertex:
                assert set(np.unique(table)) <= {0.0, 1.0}
            for rec in trace.iterations[2:]:
                for a, b in zip(rec.policies, vertex):
                    assert np.array_equal(a, b)

    def test_mirror_return_is_monotone_here(self, matrix_game, start_policy):
        options = BaselineOptions(
            algorithm="mappo", update_mode="mirror", step_size=0.1, iterations=100
        )
        trace = baseline_run(matrix_game, start_policy, options)
        returns = [rec.maxent_return for rec in trace.iterations]
        assert returns[0] == pytest.approx(-8.2, abs=1e-12)
        assert all(returns[i + 1] >= returns[i] - 1e-12 for i in range(len(returns) - 1))

    def test_trap_versus_soft_solver(self, matrix_game, start_policy):
        """Both baselines stop at the low-reward vertex; the soft solver escapes."""
        for algorithm in ("mappo", "happo"):
            options = BaselineOptions(
                algorithm=algorithm, update_mode="mirror", step_size=0.1, iterations=200
            )
            trace = baseline_run(matrix_game, start_policy, options)
            last = trace.iterations[-1]
            greedy = tuple(int(np.argmax(t[0])) for t in last.policies)
            assert greedy == (0, 0)
            assert last.maxent_return == pytest.approx(5.0, abs=1e-2)

        solve_options = HaspiOptions(
            alpha=10.0, tol_policy=1e-12, permutation_rule=fixed_order((0, 1))
        )
        policy, _q, _trace = haspi_solve(matrix_game, start_policy, solve_options)
        escaped = maxent_return(matrix_game, policy, 0.0)
        assert escaped > 5.0 + 1.0  # far above the trap's return

        # the plain return of the soft limit matches the independent
        # oracle's equilibrium evaluated by enumeration
        sol = qre_fixed_point(matrix_game, 10.0, tol=1e-11, initial_joint_policy=start_policy)
        joint = joint_action_table(sol.joint_policy)[0]
        oracle_value = float(joint @ matrix_game.reward[0])
        assert escaped == pytest.approx(oracle_value, abs=1e-2)

    def test_happo_mirror_traps_too(self, matrix_game, start_policy):
        options = BaselineOptions(
            algorithm="happo", update_mode="mirror", step_size=0.1,
            iterations=200, permutation=(1, 0),
        )
        trace = baseline_run(matrix_game, start_policy, options)
        assert trace.iterations[-1].maxent_return == pytest.approx(5.0, abs=1e-2)
