"""The benchmark's reference evaluator against values worked by hand.

These tests import only numpy and the evaluator; they run no workload.
"""

import math

import numpy as np

import refeval
from workloads import APPENDIX_B, PUBLISHED_TABLE, REPLICATION_START as START


def matrix_game(matrix):
    """Single state, gamma = 0: reward (1, |A1||A2|), transition all ones."""
    return matrix.reshape(1, -1), np.ones((1, matrix.size, 1)), 0.0


def test_appendix_b_coefficients_and_softmax():
    reward, transition, gamma = matrix_game(APPENDIX_B)
    for alpha, (published, _convergent) in PUBLISHED_TABLE.items():
        _v, q = refeval.evaluate(reward, transition, gamma, [START, START], alpha)
        coef = refeval.response_coefficients(q, [START, START], 0)[0]
        # 5*0.6 - 20*0.2 - 20*0.2 = -5, -20*0.6 + 10*0.2 - 20*0.2 = -14, -12 - 4 + 4 = -12
        assert np.allclose(coef, [-5.0, -14.0, -12.0], rtol=0, atol=1e-12)
        weights = [math.exp(-5.0 / alpha), math.exp(-14.0 / alpha), math.exp(-12.0 / alpha)]
        by_hand = [w / sum(weights) for w in weights]
        row = refeval.logit_responses(q, [START, START], alpha)[0][0]
        assert np.abs(row - by_hand).max() <= 1e-12
        assert np.abs(row - published).max() <= 5e-5


def test_single_state_discounted_value():
    # One agent, two actions, rewards (1, 0), uniform policy:
    # V = (0.5 + alpha ln 2) / (1 - gamma).
    reward = np.array([[1.0, 0.0]])
    transition = np.ones((1, 2, 1))
    uniform = np.array([[0.5, 0.5]])
    v, q = refeval.evaluate(reward, transition, 0.5, [uniform], 1.0)
    assert abs(v[0] - (1.0 + 2.0 * math.log(2.0))) <= 1e-12
    # Q(a) = r(a) + gamma V
    assert np.allclose(q[0], [1.0 + 0.5 * v[0], 0.5 * v[0]], rtol=0, atol=1e-12)


def test_two_state_chain_return():
    # s0 -> s1 -> s1, rewards 1 then 2, gamma 0.5, one action, no entropy:
    # V(s1) = 2 / 0.5 = 4, V(s0) = 1 + 0.5 * 4 = 3, J from s0 = 3.
    reward = np.array([[1.0], [2.0]])
    transition = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
    only = np.ones((2, 1))
    j = refeval.regularized_return(reward, transition, 0.5, np.array([1.0, 0.0]), [only], 7.0)
    assert abs(j - 3.0) <= 1e-12


def test_qre_residual_of_coordination_game():
    reward, transition, gamma = matrix_game(np.eye(2))
    uniform = np.array([[0.5, 0.5]])
    assert refeval.qre_residual(reward, transition, gamma, [uniform, uniform], 1.0) <= 1e-15
    # At (0.6, 0.4) for both, agent 1's coefficients are (0.6, 0.4) and its
    # response is 1 / (1 + e^-0.2) = 0.549834, a gap of 0.050166.
    tilted = np.array([[0.6, 0.4]])
    gap = refeval.qre_residual(reward, transition, gamma, [tilted, tilted], 1.0)
    assert abs(gap - (0.6 - 1.0 / (1.0 + math.exp(-0.2)))) <= 1e-12


def test_three_agent_coefficients_contract_the_right_axes():
    # Reward depends only on agent 2's action, so agents 0 and 1 see flat
    # coefficients and agent 2 sees the reward against its own action.
    counts = (2, 3, 4)
    base = np.array([0.0, 1.0, 2.0, 3.0])
    reward = np.broadcast_to(base, counts).reshape(1, -1)
    transition = np.ones((1, reward.shape[1], 1))
    rng = np.random.default_rng(0)
    policies = [rng.dirichlet(np.ones(c), size=1) for c in counts]
    _v, q = refeval.evaluate(reward, transition, 0.0, policies, 0.0)
    expected = float(policies[2][0] @ base)
    assert np.allclose(refeval.response_coefficients(q, policies, 0), expected, atol=1e-12)
    assert np.allclose(refeval.response_coefficients(q, policies, 1), expected, atol=1e-12)
    assert np.allclose(refeval.response_coefficients(q, policies, 2)[0], base, atol=1e-12)
