"""Game and policy data model: constructors, validation, entropy, products."""

import math
import re

import numpy as np
import pytest

from maxent_marl import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    Permutation,
    joint_action_prob,
    joint_action_table,
    joint_policy_from_rows,
    new_matrix_game,
    policy_entropy,
    random_game,
    uniform_joint_policy,
    validate_game,
)
from maxent_marl.game_core import policy_entropy_rows
from conftest import MATRIX


class TestNewMatrixGame:
    def test_reference_game_is_valid(self, matrix_game):
        assert matrix_game.n_agents == 2
        assert matrix_game.n_states == 1
        assert matrix_game.gamma == 0.0
        assert matrix_game.action_counts == (3, 3)
        assert np.array_equal(matrix_game.initial_dist, [1.0])
        assert validate_game(matrix_game) == []
        assert np.array_equal(matrix_game.reward[0].reshape(3, 3), MATRIX)

    def test_degenerate_single_cell(self):
        game = new_matrix_game(np.array([[0.0]]))
        assert game.n_joint_actions == 1
        assert game.reward[0, 0] == 0.0
        assert validate_game(game) == []

    def test_identity_coordination_game(self):
        game = new_matrix_game(np.eye(2))
        assert validate_game(game) == []
        assert game.action_counts == (2, 2)

    def test_non_finite_entry_names_cell(self):
        bad = MATRIX.copy()
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            new_matrix_game(bad)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            new_matrix_game(np.empty((0, 3)))


class TestRandomGame:
    def test_valid_by_construction(self):
        game = random_game(7, 2, 3, [2, 2], -1.0, 1.0, 0.9)
        assert validate_game(game) == []

    def test_determinism(self):
        a = random_game(7, 2, 3, [2, 2], -1.0, 1.0, 0.9)
        b = random_game(7, 2, 3, [2, 2], -1.0, 1.0, 0.9)
        assert np.array_equal(a.reward, b.reward)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.initial_dist, b.initial_dist)

    def test_different_seeds_differ(self):
        a = random_game(7, 2, 3, [2, 2], -1.0, 1.0, 0.9)
        b = random_game(8, 2, 3, [2, 2], -1.0, 1.0, 0.9)
        assert not np.array_equal(a.reward, b.reward)

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            random_game(7, 2, 3, [2, 2], -1.0, 1.0, 1.0)

    def test_zero_states_rejected(self):
        with pytest.raises(ValueError):
            random_game(7, 2, 0, [2, 2], -1.0, 1.0, 0.9)

    def test_zero_actions_rejected(self):
        with pytest.raises(ValueError):
            random_game(7, 2, 3, [2, 0], -1.0, 1.0, 0.9)

    @pytest.mark.parametrize("seed", [-1, True, 2.5])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=rf"non-negative integer, got seed={seed}"):
            random_game(seed, 2, 3, [2, 2], -1.0, 1.0, 0.9)

    @pytest.mark.parametrize(
        "n_agents, n_states, counts, name",
        [
            (2, 1, (2.5, 2), r"action_counts\[0\]=2.5"),
            (True, 1, (2,), "n_agents=True"),
            (2, 2.5, (2, 2), "n_states=2.5"),
            (2, 2.0, (2, 2), "n_states=2.0"),
            (1, 1, (False,), r"action_counts\[0\]=False"),
        ],
        ids=["fractional action count", "bool agents", "fractional states", "float states",
             "bool action count"],
    )
    def test_counts_must_be_integers(self, n_agents, n_states, counts, name):
        # Nothing is truncated, and a bool is no count.
        with pytest.raises(ValueError, match=f"a game's counts must be integers, got {name}$"):
            random_game(0, n_agents, n_states, counts, -1.0, 1.0, 0.5)

    def test_counts_take_numpy_integers(self):
        game = random_game(7, np.int64(2), np.int32(3), (np.int8(2), np.uint8(2)), -1.0, 1.0, 0.9)
        assert (game.n_agents, game.n_states, game.action_counts) == (2, 3, (2, 2))
        assert all(type(c) is int for c in (game.n_agents, game.n_states, *game.action_counts))
        assert game.reward.tobytes() == random_game(7, 2, 3, [2, 2], -1.0, 1.0, 0.9).reward.tobytes()

    def test_one_count_per_agent(self):
        with pytest.raises(ValueError, match="action_counts has 1 entries for 2 agents"):
            random_game(0, 2, 1, (2,), -1.0, 1.0, 0.5)

    def test_reward_bounds_respected(self):
        game = random_game(3, 2, 2, [2, 3], -0.5, 2.5, 0.5)
        assert game.reward.min() >= -0.5
        assert game.reward.max() <= 2.5


class TestGameCounts:
    ARRAYS = (np.zeros((1, 2)), np.ones((1, 2, 1)), 0.0, np.ones(1))

    @pytest.mark.parametrize(
        "n_agents, n_states, counts, name",
        [
            (True, 1, (2,), "n_agents=True"),
            (1.0, 1, (2,), "n_agents=1.0"),
            (1, np.True_, (2,), "n_states=np.True_"),
            (1, 1, (2.0,), r"action_counts\[0\]=2.0"),
        ],
        ids=["bool agents", "float agents", "numpy bool states", "float action count"],
    )
    def test_counts_must_be_integers(self, n_agents, n_states, counts, name):
        with pytest.raises(ValueError, match=f"a game's counts must be integers, got {name}$"):
            CooperativeMarkovGame(n_agents, n_states, counts, *self.ARRAYS)

    def test_counts_take_numpy_integers(self):
        game = CooperativeMarkovGame(np.int64(1), np.uint8(1), (np.int32(2),), *self.ARRAYS)
        assert (game.n_agents, game.n_states, game.action_counts) == (1, 1, (2,))
        assert all(type(c) is int for c in (game.n_agents, game.n_states, *game.action_counts))


class TestValidateGame:
    def test_bad_transition_row_named(self, matrix_game):
        transition = matrix_game.transition.copy()
        transition[0, 4, 0] = 0.9
        broken = CooperativeMarkovGame(
            2, 1, (3, 3), matrix_game.reward, transition, 0.0, matrix_game.initial_dist
        )
        violations = validate_game(broken)
        assert len(violations) == 1
        assert "s=0" in violations[0] and "(1, 1)" in violations[0]

    def test_gamma_one_named(self, matrix_game):
        broken = CooperativeMarkovGame(
            2, 1, (3, 3), matrix_game.reward, matrix_game.transition, 1.0,
            matrix_game.initial_dist,
        )
        violations = validate_game(broken)
        assert len(violations) == 1
        assert "gamma" in violations[0]

    def test_bad_initial_dist(self, matrix_game):
        broken = CooperativeMarkovGame(
            2, 1, (3, 3), matrix_game.reward, matrix_game.transition, 0.0,
            np.array([0.7]),
        )
        assert any("initial_dist" in v for v in validate_game(broken))

    def test_non_finite_reward_named(self, matrix_game):
        reward = matrix_game.reward.copy()
        reward[0, 0] = np.nan
        broken = CooperativeMarkovGame(
            2, 1, (3, 3), reward, matrix_game.transition, 0.0, matrix_game.initial_dist
        )
        assert any("reward" in v for v in validate_game(broken))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_and_initial_named(self, value):
        game = random_game(3, 2, 2, [2, 2], -1, 1, 0.9)
        transition = game.transition.copy()
        transition[1, 2, 0] = value
        initial = game.initial_dist.copy()
        initial[1] = value
        broken = CooperativeMarkovGame(
            2, 2, (2, 2), game.reward, transition, 0.9, initial
        )
        violations = validate_game(broken)
        assert "transition[s=1, a=(1, 0)] to s'=0 is not finite" in violations
        assert "initial_dist[1] is not finite" in violations
        assert not any("sums to" in v for v in violations)


class TestPolicies:
    def test_row_must_normalize(self):
        with pytest.raises(ValueError, match="sums to"):
            AgentPolicy(0, np.array([[0.3, 0.3, 0.3]]))

    def test_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            AgentPolicy(0, np.array([[0.9, 0.1, 0.0]]), floor=0.05)

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -0.1, True, "0", None], ids=repr)
    def test_floor_must_be_a_finite_non_negative_number(self, floor):
        # A NaN floor passed both comparisons; True was a floor of 1.
        with pytest.raises(ValueError, match="policy floor must be finite and non-negative, got floor="):
            AgentPolicy(0, np.array([[1.0]]), floor=floor)

    @pytest.mark.parametrize("agent_id", [0.7, True, "0", None], ids=repr)
    def test_agent_id_must_be_an_integer(self, agent_id):
        message = f"an agent id must be an integer, got agent_id={agent_id!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            AgentPolicy(agent_id, np.array([[1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, value):
        with pytest.raises(ValueError, match="row at state 1 sums to"):
            AgentPolicy(0, np.array([[0.5, 0.5], [value, 0.5]]))

    def test_deterministic_row_ok_at_zero_floor(self):
        pol = AgentPolicy(0, np.array([[1.0, 0.0, 0.0]]))
        assert pol.n_actions == 3

    def test_agent_ids_must_be_positional(self):
        row = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="agent_id"):
            JointPolicy((AgentPolicy(1, row), AgentPolicy(0, row)))

    def test_permutation_validation(self):
        assert Permutation((1, 0, 2)).order == (1, 0, 2)
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))


class TestEntropy:
    def test_uniform_maximizes(self):
        pol = AgentPolicy(0, np.array([[1 / 3, 1 / 3, 1 / 3]]))
        assert policy_entropy(pol, 0) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_deterministic_is_zero(self):
        pol = AgentPolicy(0, np.array([[1.0, 0.0, 0.0]]))
        assert policy_entropy(pol, 0) == 0.0

    def test_reference_row(self):
        # independent one-line evaluation of -sum p log p
        expected = -(0.6 * math.log(0.6) + 2 * 0.2 * math.log(0.2))
        pol = AgentPolicy(0, np.array([[0.6, 0.2, 0.2]]))
        assert policy_entropy(pol, 0) == pytest.approx(expected, abs=1e-14)
        assert round(policy_entropy(pol, 0), 5) == 0.95027


class TestJointProducts:
    def test_reference_diagonal_probability(self, start_policy):
        assert joint_action_prob(start_policy, 0, (0, 0)) == pytest.approx(0.36, abs=1e-15)
        assert joint_action_prob(start_policy, 0, (0, 1)) == pytest.approx(0.12, abs=1e-15)

    def test_deterministic_joint_prob_is_one(self):
        rows = [np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])]
        jp = joint_policy_from_rows(rows)
        assert joint_action_prob(jp, 0, (1, 0)) == 1.0

    def test_product_consistency(self):
        for seed in range(5):
            game = random_game(seed, 3, 4, [2, 3, 2], -1, 1, 0.5)
            rng = np.random.default_rng(seed)
            jp = joint_policy_from_rows(
                [rng.dirichlet(np.ones(c), size=4) for c in game.action_counts]
            )
            table = joint_action_table(jp)
            assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-10

    def test_joint_table_matches_entrywise_product(self, start_policy):
        table = joint_action_table(start_policy)
        for idx, joint in enumerate(np.ndindex(3, 3)):
            assert table[0, idx] == pytest.approx(
                joint_action_prob(start_policy, 0, joint), abs=1e-15
            )

    def test_entropy_additivity_brute_force(self):
        # entropy of the product distribution equals the sum of the parts
        game = random_game(11, 2, 1, [2, 2], -1, 1, 0.0)
        rng = np.random.default_rng(0)
        jp = joint_policy_from_rows(
            [rng.dirichlet(np.ones(2), size=1) for _ in range(2)]
        )
        joint = joint_action_table(jp)[0]
        joint_entropy = -(joint * np.log(joint)).sum()
        marginal_sum = sum(policy_entropy(a, 0) for a in jp.agents)
        assert joint_entropy == pytest.approx(marginal_sum, abs=1e-12)


class TestImmutability:
    def test_tensors_read_only(self, matrix_game):
        with pytest.raises(ValueError):
            matrix_game.reward[0, 0] = 1.0

    def test_policy_read_only(self):
        pol = uniform_joint_policy(new_matrix_game(np.eye(2))).agents[0]
        with pytest.raises(ValueError):
            pol.table[0, 0] = 0.9

    def test_caller_array_is_copied(self):
        # Writing into the constructor's input must not reach the table or
        # the values cached from it, and the input stays writeable.
        rows = [np.array([[0.6, 0.4], [0.1, 0.9]]), np.array([[0.3, 0.7], [0.5, 0.5]])]
        jp = joint_policy_from_rows(rows)
        single = AgentPolicy(0, rows[0])

        def snapshot():
            arrays = [joint_action_table(jp)]
            for policy in (*jp.agents, single):
                arrays += [policy.table, policy_entropy_rows(policy)]
            return [a.tobytes() for a in arrays]

        before = snapshot()
        for arr in rows:
            assert arr.flags.writeable
            arr[:] = [[1.0, 0.0], [0.0, 1.0]]
        assert snapshot() == before

    def test_cached_values_read_only(self, start_policy):
        for arr in (
            joint_action_table(start_policy),
            policy_entropy_rows(start_policy.agents[0]),
            start_policy.entropy_bonus,
        ):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cached_values_match_fresh_computation(self):
        game = random_game(5, 3, 3, [2, 3, 2], -1, 1, 0.5)
        rng = np.random.default_rng(5)
        rows = [rng.dirichlet(np.ones(c), size=3) for c in game.action_counts]
        jp = joint_policy_from_rows(rows)
        table = rows[0]
        for other in rows[1:]:
            table = (table[:, :, None] * other[:, None, :]).reshape(3, -1)
        assert joint_action_table(jp).tobytes() == table.tobytes()
        assert joint_action_table(jp) is joint_action_table(jp)
        bonus = np.zeros(3)
        for r in rows:
            bonus += -(r * np.log(r)).sum(axis=1)
        assert jp.entropy_bonus.tobytes() == bonus.tobytes()

    def test_n_joint_actions_is_product(self):
        for counts in ([2], [3, 2], [2, 3, 4], [5, 5, 5, 5]):
            game = random_game(0, len(counts), 2, counts, -1, 1, 0.5)
            assert game.n_joint_actions == math.prod(counts)
            assert type(game.n_joint_actions) is int
