"""Soft dynamic programming: backups, evaluation, conditionals, advantages."""

import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxent_marl import (
    CooperativeMarkovGame,
    EvaluationNotConverged,
    Permutation,
    SoftQTable,
    evaluate_policy_exact,
    evaluate_policy_iterative,
    joint_action_prob,
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
from maxent_marl import soft_dp
from maxent_marl.haspi import expected_conditional_q
from maxent_marl.soft_dp import (
    _AXIS_LETTERS,
    _PAIRWISE_MIN_JOINT_ACTIONS,
    _conditional_plan,
    _conditional_q,
    _policy_averages,
    zero_soft_q,
)
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

    @pytest.mark.parametrize("prefix", [(0.7,), (True,), (0, 1.0), ("1",)], ids=repr)
    def test_prefix_ids_must_be_integers(self, matrix_game, start_policy, prefix):
        # Neither truncated (0.7 to agent 0) nor read as agents (True as 1).
        q = SoftQTable(0.0, matrix_game.reward)
        with pytest.raises(ValueError, match=r"an agent id must be an integer, got prefix\["):
            multiagent_soft_q(matrix_game, start_policy, q, prefix, 0.0)
        with pytest.raises(ValueError, match=r"an agent id must be an integer, got prefix\["):
            soft_dp.MultiAgentSoftQ(0.0, prefix, np.zeros((1, 3)))

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


def one_shot_conditional(game, jp, q_values, prefix, alpha):
    """The conditional by one einsum over the tensor and every complement table."""
    n = game.n_agents
    complement = [i for i in range(n) if i not in prefix]
    subscripts = (
        ",".join(["s" + _AXIS_LETTERS[:n]] + ["s" + _AXIS_LETTERS[i] for i in complement])
        + "->s" + "".join(_AXIS_LETTERS[i] for i in prefix)
    )
    tensor = q_values.reshape(game.n_states, *game.action_counts)
    values = np.einsum(subscripts, tensor, *(jp.agents[i].table for i in complement))
    bonus = sum((jp.agents[i]._logs[1] for i in complement), np.zeros(game.n_states))
    return values + alpha * bonus.reshape((-1,) + (1,) * len(prefix))


def all_prefixes(n_agents):
    return [p for m in range(n_agents + 1) for p in itertools.permutations(range(n_agents), m)]


def is_one_shot(counts, prefix):
    steps, complement = _conditional_plan(counts, prefix)
    return len(steps) == 1 and steps[0][1] == complement


def greedy_order(counts, prefix):
    """The complement agents in the order np.einsum_path's greedy search contracts them."""
    n = len(counts)
    complement = [i for i in range(n) if i not in prefix]
    terms = ["s" + _AXIS_LETTERS[:n]] + ["s" + _AXIS_LETTERS[i] for i in complement]
    subscripts = ",".join(terms) + "->s" + "".join(_AXIS_LETTERS[i] for i in prefix)
    operands = [np.empty((2, *counts))] + [np.empty((2, counts[i])) for i in complement]
    path, _ = np.einsum_path(subscripts, *operands, optimize="greedy")
    order = []
    for contracted in path[1:]:
        picked = [terms[p] for p in contracted]
        # Each greedy step pairs the running tensor with one table.
        tables = [t for t in picked if len(t) == 2]
        assert len(tables) == 1 and len(picked) == 2
        order.append(_AXIS_LETTERS.index(tables[0][1]))
        terms = [t for p, t in enumerate(terms) if p not in contracted] + ["*"]
    return order


class TestConditionalPlan:
    def test_planned_path_agrees_with_one_shot(self):
        game = random_game(11, 4, 2, (4, 4, 4, 4), -1.0, 1.0, 0.9)
        assert game.n_joint_actions >= _PAIRWISE_MIN_JOINT_ACTIONS
        jp = random_start(game, 11)
        q = evaluate_policy_exact(game, jp, 0.5)
        scale = np.abs(q.values).max()
        prefixes = all_prefixes(4)
        assert len(prefixes) == 65
        for prefix in prefixes:
            got = _conditional_q(game, jp, q.values, prefix, 0.5)
            expected = one_shot_conditional(game, jp, q.values, prefix, 0.5)
            assert got.flags.c_contiguous
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12 * scale
            public = multiagent_soft_q(game, jp, q, prefix, 0.5).values
            assert got.tobytes() == public.tobytes()

    def test_selection_follows_the_joint_action_count(self):
        small = {counts for _, _, _, counts, _, _ in suite_params(100)}
        small |= {(3, 3, 3), (3, 3)}  # the cli-files game and Appendix B
        for counts in small:
            assert all(is_one_shot(counts, p) for p in all_prefixes(len(counts)))
        # A suite plan is the einsum the conditionals have always made.
        assert _conditional_plan((2, 3, 4), (2,)) == ((("sabc,sa,sb->sc", (0, 1)),), (0, 1))
        for counts in ((5,) * 5, (5,) * 6, (4,) * 4, (3, 4, 5, 2, 3)):
            for prefix in ((), (0,), (2, 1), (3, 0)):
                steps, complement = _conditional_plan(counts, prefix)
                assert len(steps) == len(complement) >= 2
                assert all(len(agents) == 1 for _, agents in steps)
                order = [agents[0] for _, agents in steps]
                assert order == greedy_order(counts, prefix)

    def test_plans_are_keyed_by_action_counts(self):
        rng = np.random.default_rng(3)
        _conditional_plan.cache_clear()
        for counts in ((4, 4, 4, 4), (2, 5, 3, 6)):
            game = random_game(12, 4, 2, counts, -1.0, 1.0, 0.9)
            jp = joint_policy_from_rows([rng.dirichlet(np.ones(c), size=2) for c in counts])
            q = evaluate_policy_exact(game, jp, 0.5)
            got = _conditional_q(game, jp, q.values, (1,), 0.5)
            expected = one_shot_conditional(game, jp, q.values, (1,), 0.5)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(q.values).max()
        assert _conditional_plan.cache_info().misses == 2
        assert _conditional_plan.cache_info().hits == 0

    @pytest.mark.parametrize("counts", [(5,) * 6, (3, 4, 5, 2, 3), (4, 4, 4, 4)], ids=str)
    def test_agent_coefficients_share_leading_steps_bit_for_bit(self, counts):
        """Along the shared order each agent's plan starts with the agents
        ahead of it, and the shared steps give each agent the bits of its
        own contraction."""
        game, tables, q_values = pairwise_case(counts)
        coefficients = soft_dp._agent_coefficients(game, tables, q_values)
        order = soft_dp._contraction_order(counts)
        assert sorted(order) == list(range(len(counts)))
        for i in order:
            steps = _conditional_plan(counts, (i,))[0]
            assert [agents for _, agents in steps] == [(j,) for j in order if j != i]
            single = soft_dp._contract(game, tables, q_values, (i,))
            assert coefficients[i].shape == (game.n_states, counts[i])
            assert coefficients[i].tobytes() == single.tobytes()

    def test_unsorted_prefixes_on_unequal_action_counts(self):
        # The last matmul step puts the prefix agents in prefix order.
        counts = (3, 4, 5, 2, 3)
        game, tables, q_values = pairwise_case(counts)
        jp = joint_policy_from_rows(tables)
        for prefix in ((4, 1), (2, 0, 3), (1, 0), (0, 4, 2), (3,)):
            got = _conditional_q(game, jp, q_values, prefix, 0.5)
            expected = one_shot_conditional(game, jp, q_values, prefix, 0.5)
            assert got.shape == expected.shape == (game.n_states, *(counts[i] for i in prefix))
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(q_values).max()


def pairwise_case(counts, n_states=3):
    """A game of the given action counts, random policy tables and a random Q."""
    game = random_game(21, len(counts), n_states, counts, -1.0, 1.0, 0.9)
    assert game.n_joint_actions >= _PAIRWISE_MIN_JOINT_ACTIONS
    rng = np.random.default_rng(21)
    tables = [rng.dirichlet(np.ones(c), size=n_states) for c in counts]
    return game, tables, rng.uniform(-5.0, 5.0, (n_states, game.n_joint_actions))


# The bytes of the large-table kernels at perfbench's 6 x 5 x 8 large-joint
# shape: every agent's coefficients, one agent's contraction, the joint table.
KERNEL_BYTES = """
import hashlib
import numpy as np
from maxent_marl.game_core import _joint_table, random_game
from maxent_marl.soft_dp import _agent_coefficients, _contract
game = random_game(7006, 6, 8, (5,) * 6, -1.0, 1.0, 0.9)
rng = np.random.default_rng(7006)
tables = [rng.dirichlet(np.ones(5), size=8) for _ in range(6)]
q = rng.uniform(-5.0, 5.0, (8, game.n_joint_actions))
h = hashlib.sha256()
for array in (*_agent_coefficients(game, tables, q), _contract(game, tables, q, (2,)), _joint_table(tables)):
    h.update(array.tobytes())
print(h.hexdigest())
"""


def available_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(available_cpus() < 2, reason="needs 2 CPUs for 2 BLAS threads")
def test_large_table_kernels_do_not_depend_on_the_blas_thread_count():
    src = str(Path(soft_dp.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-c", KERNEL_BYTES], capture_output=True, text=True, env=env, check=True
        )
        digests.append(result.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def exact_values(game, jp, alpha):
    """The linear system of the exact evaluation and its solution."""
    joint = joint_action_table(jp)
    lhs = np.eye(game.n_states) - game.gamma * np.einsum("sa,sat->st", joint, game.transition)
    rhs = (joint * game.reward).sum(axis=1) + alpha * jp.entropy_bonus
    return lhs, rhs, np.linalg.solve(lhs, rhs)


@st.composite
def kernels(draw):
    """Small games whose rows may be rescaled by up to 2x or hold negative entries."""
    n_agents = draw(st.integers(1, 3))
    counts = tuple(draw(st.integers(1, 3)) for _ in range(n_agents))
    n_states = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_states, math.prod(counts), n_states)
    low = -1.0 if draw(st.booleans()) else 0.0
    transition = rng.uniform(low, 1.0, size=shape)
    transition /= np.abs(transition).sum(axis=2, keepdims=True)
    if draw(st.booleans()):
        transition *= rng.uniform(0.0, 2.0, size=shape[:2] + (1,))
    game = CooperativeMarkovGame(
        n_agents, n_states, counts, rng.uniform(-1.0, 1.0, size=shape[:2]), transition,
        draw(st.floats(0.0, 0.45)), np.full(n_states, 1.0 / n_states),
    )
    jp = joint_policy_from_rows([rng.dirichlet(np.ones(c), size=n_states) for c in counts])
    perturbation = draw(st.sampled_from([0.0, 1e-12, 1e-9, 3e-9, 1e-8, 1e-6, 1e-3]))
    return game, jp, draw(st.floats(0.1, 5.0)), perturbation * rng.uniform(-1.0, 1.0, n_states)


def backup_residual(game, jp, v, alpha):
    """max |G(Q) - Q| for the Q that one backup makes of v: the old check."""
    q = SoftQTable(alpha, game.reward + game.gamma * (game.transition @ v))
    return np.abs(soft_bellman_backup(game, jp, q, alpha).values - q.values).max()


class TestExactEvaluationCheck:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(kernels())
    def test_bound_covers_the_backup_residual(self, case):
        # G(Q) - Q = -gamma P e for any v, so the bound holds off the
        # solution too; the perturbation makes both sides non-trivial.
        game, jp, alpha, dv = case
        lhs, rhs, v = exact_values(game, jp, alpha)
        residual = backup_residual(game, jp, v + dv, alpha)
        norm = np.abs(game.transition).sum(axis=2).max()
        assert game.transition_norm == norm
        bound = game.gamma * norm * np.abs(lhs @ (v + dv) - rhs).max()
        assert bound >= residual - 1e-12
        # Whatever the check accepts, the old check would have accepted.
        solve = soft_dp._solve
        with mock.patch.object(soft_dp, "_solve", lambda a, b: solve(a, b) + dv):
            try:
                evaluate_policy_exact(game, jp, alpha)
            except RuntimeError:
                return
        assert residual <= 1e-9

    def test_bound_uses_the_kernel_norm(self, monkeypatch):
        # Rows summing to 2 and a constant shift c of v make the bound
        # tight: e = 0.2c, and G(Q) - Q = -gamma P e = -0.16c everywhere.
        game = suite_game(5, 2, 3, (2, 3), 0.4)
        doubled = CooperativeMarkovGame(
            2, 3, (2, 3), game.reward, 2.0 * game.transition, 0.4, game.initial_dist
        )
        jp = random_start(game, 5)
        assert doubled.transition_norm == pytest.approx(2.0, abs=1e-12)
        _, _, v = exact_values(doubled, jp, 1.0)
        assert backup_residual(doubled, jp, v + 1e-8, 1.0) == pytest.approx(1.6e-9, rel=1e-3)
        solve = soft_dp._solve
        monkeypatch.setattr(soft_dp, "_solve", lambda a, b: solve(a, b) + 1e-8)
        with pytest.raises(RuntimeError, match="exact evaluation residual 1.6"):
            evaluate_policy_exact(doubled, jp, 1.0)

    def test_perturbed_solve_is_rejected(self, monkeypatch):
        game = suite_game(5, 3, 4, (2, 3, 4), 0.9)
        jp = random_start(game, 5)
        evaluate_policy_exact(game, jp, 1.0)
        solve = soft_dp._solve

        def perturbed(a, b):
            return solve(a, b) + 1e-6

        monkeypatch.setattr(soft_dp, "_solve", perturbed)
        with pytest.raises(RuntimeError, match=r"exact evaluation residual .* exceeds 1e-09"):
            evaluate_policy_exact(game, jp, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_transition_raises(self):
        game = suite_game(6, 2, 2, (2, 2), 0.9)
        transition = game.transition.copy()
        transition[0, 3, 1] = np.nan
        broken = CooperativeMarkovGame(
            2, 2, (2, 2), game.reward, transition, 0.9, game.initial_dist
        )
        # Neither agent ever plays action 1, so the NaN row has probability 0.
        jp = joint_policy_from_rows([np.array([[1.0, 0.0], [1.0, 0.0]])] * 2)
        with pytest.raises(RuntimeError, match="residual nan"):
            evaluate_policy_exact(broken, jp, 1.0)

    def test_singular_system_is_named_without_a_warning(self):
        # Rows summing to 2 = 1 / gamma make I - gamma M zero: gamma < 1
        # alone does not keep the system regular for a kernel that is not
        # stochastic.
        game = CooperativeMarkovGame(
            2, 1, (2, 2), np.zeros((1, 4)), np.full((1, 4, 1), 2.0), 0.5, np.ones(1)
        )
        jp = uniform_joint_policy(game)
        error_state = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(
                    RuntimeError, match="^evaluation system is singular: Singular matrix$"
                ):
                    evaluate_policy_exact(game, jp, 1.0)
        assert np.geterr() == error_state


def average_shapes():
    """One game per suite shape, then a 4-agent, 4-action, 3-state game."""
    seen = set()
    for k, n_agents, n_states, counts, gamma, _alpha in suite_params():
        if (n_states, counts) not in seen:
            seen.add((n_states, counts))
            game = suite_game(k, n_agents, n_states, counts, gamma)
            yield game, random_start(game, k)
    game = random_game(7004, 4, 3, (4, 4, 4, 4), -1.0, 1.0, 0.9)
    yield game, joint_policy_from_rows(
        [np.random.default_rng(8004 + i).dirichlet(np.ones(4), size=3) for i in range(4)]
    )


def enumerated_average(game, jp, table):
    """sum_a pi(a|s) table[s, a, ...] over an explicit joint-action loop, and
    the same sum of absolute terms, the scale of its rounding error."""
    total = np.zeros(table.shape[:1] + table.shape[2:])
    scale = np.zeros_like(total)
    for s in range(game.n_states):
        for a, joint_action in enumerate(game.joint_actions()):
            term = joint_action_prob(jp, s, joint_action) * table[s, a]
            total[s] += term
            scale[s] += np.abs(term)
    return total, scale


class TestPolicyAverages:
    @pytest.mark.parametrize(
        "field, index, value",
        [("reward", (0, 3), np.inf), ("transition", (1, 3, 0), np.nan)],
        ids=["inf-reward", "nan-kernel"],
    )
    def test_non_finite_entry_at_a_zero_probability_action_raises(self, field, index, value):
        game = suite_game(6, 2, 2, (2, 2), 0.9)
        tensors = {"reward": game.reward.copy(), "transition": game.transition.copy()}
        tensors[field][index] = value
        broken = CooperativeMarkovGame(
            2, 2, (2, 2), tensors["reward"], tensors["transition"], 0.9, game.initial_dist
        )
        # Neither agent ever plays action 1, so joint action 3 has probability 0.
        jp = joint_policy_from_rows([np.array([[1.0, 0.0], [1.0, 0.0]])] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="residual nan"):
                evaluate_policy_exact(broken, jp, 1.0)

    def test_soft_value_of_a_supplied_non_finite_q_is_silent(self):
        game = suite_game(6, 2, 2, (2, 2), 0.9)
        jp = joint_policy_from_rows([np.array([[1.0, 0.0], [1.0, 0.0]])] * 2)
        values = np.zeros((2, 4))
        values[0, 3] = np.inf  # joint action 3 has probability 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = soft_value(game, jp, SoftQTable(1.0, values), 1.0)
        assert math.isnan(v.values[0]) and v.values[1] == 0.0

    def test_finite_rows_is_cached_per_game(self):
        game = suite_game(6, 2, 2, (2, 2), 0.9)
        assert game._finite_rows is True and "_finite_rows" in vars(game)
        reward = game.reward.copy()
        reward[1, 2] = 1e308
        reward[1, 3] = 1e308  # finite entries whose absolute row sum overflows
        big = CooperativeMarkovGame(2, 2, (2, 2), reward, game.transition, 0.9, game.initial_dist)
        assert big._finite_rows is False

    def test_averages_match_enumeration(self):
        shapes = 0
        for game, jp in average_shapes():
            shapes += 1
            joint = joint_action_table(jp)
            q = SoftQTable(1.0, np.random.default_rng(shapes).uniform(-5.0, 5.0, joint.shape))
            got = (*_policy_averages(game, joint), soft_value(game, jp, q, 0.0).values)
            for value, table in zip(got, (game.reward, game.transition, q.values)):
                want, scale = enumerated_average(game, jp, table)
                assert value.shape == want.shape
                assert np.all(np.abs(value - want) <= 1e-14 * scale)
        assert shapes == 31

    def test_joint_table_is_the_broadcast_product(self):
        for game, jp in average_shapes():
            n = game.n_agents
            factors = [
                agent.table.reshape((game.n_states,) + (1,) * i + (-1,) + (1,) * (n - 1 - i))
                for i, agent in enumerate(jp.agents)
            ]
            product = functools.reduce(np.multiply, factors)
            assert np.array_equal(joint_action_table(jp), product.reshape(game.n_states, -1))


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

    def test_subset_ids_must_be_integers(self, matrix_game, start_policy):
        q = SoftQTable(0.0, matrix_game.reward)
        with pytest.raises(ValueError, match=r"got cond_subset\[0\]=0.5"):
            multiagent_soft_advantage(matrix_game, start_policy, q, (0.5,), (1,), 0.0)
        with pytest.raises(ValueError, match=r"got subset\[0\]=True"):
            multiagent_soft_advantage(matrix_game, start_policy, q, (0,), (True,), 0.0)

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


RESULT_TABLES = {
    "SoftQTable": lambda a: soft_dp.SoftQTable(1.0, a),
    "SoftValueTable": lambda a: soft_dp.SoftValueTable(1.0, a[0]),
    "MultiAgentSoftQ": lambda a: soft_dp.MultiAgentSoftQ(1.0, (0,), a),
}


class TestResultTablesAndTheCallersArray:
    @pytest.mark.parametrize("make", RESULT_TABLES.values(), ids=RESULT_TABLES)
    def test_a_writeable_input_is_copied(self, make):
        a = np.arange(6.0).reshape(2, 3)
        table = make(a)
        assert a.flags.writeable and not table.values.flags.writeable
        assert not np.shares_memory(a, table.values)
        a[0] = -1.0  # the table keeps its values
        assert table.values.reshape(-1)[:3].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("make", RESULT_TABLES.values(), ids=RESULT_TABLES)
    def test_a_read_only_input_is_taken_as_it_is(self, make):
        a = np.arange(6.0).reshape(2, 3)
        a.flags.writeable = False
        table = make(a)
        assert np.shares_memory(a, table.values) and not table.values.flags.writeable

    def test_solver_tables_are_not_copied(self):
        game = suite_game(3, 3, 4, (2, 3, 4), 0.9)
        jp = random_start(game, 3)
        tables, _logs, entropies = soft_dp._policy_arrays(jp)
        q = soft_dp._evaluate_tables(game, tables, entropies, 1.0, np.eye(game.n_states))[0]
        assert np.shares_memory(q, SoftQTable(1.0, q).values)
