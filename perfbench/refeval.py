"""Reference evaluator for entropy-regularized cooperative Markov games.

Written in plain numpy from the definitions, and importing nothing from
``maxent_marl``, so that the benchmark can check the solvers' outputs
against a computation of its own:

    V = (I - gamma M_pi)^-1 (rbar_pi + alpha * sum_i H(pi^i))
    Q = r + gamma P V
    J = d . V
    response^i(s, .) = softmax(E_{a^-i ~ pi^-i} Q(s, ., a^-i) / alpha)

with M_pi(s, s') = sum_a pi(a|s) P(s'|s, a) and rbar_pi(s) = sum_a pi(a|s) r(s, a).
Joint actions are flattened in row-major agent order, as in the game files:
``reward`` is (S, prod A_i), ``transition`` is (S, prod A_i, S), and a policy
is a list of one (S, A_i) row table per agent.
"""

from __future__ import annotations

import numpy as np


def joint_table(policies):
    """The product policy pi(a|s) over flattened joint actions, (S, prod A_i)."""
    table = np.ones((policies[0].shape[0], 1))
    for rows in policies:
        table = (table[:, :, None] * rows[:, None, :]).reshape(table.shape[0], -1)
    return table


def row_entropy(rows):
    """Shannon entropy in nats of every row, with 0 log 0 = 0."""
    safe = np.where(rows > 0.0, rows, 1.0)
    return -(rows * np.log(safe)).sum(axis=1)


def evaluate(reward, transition, gamma, policies, alpha):
    """(V, Q) of a product policy, by one dense linear solve."""
    pi = joint_table(policies)
    m = np.einsum("sa,sat->st", pi, transition)
    rhs = (pi * reward).sum(axis=1) + alpha * sum(row_entropy(p) for p in policies)
    v = np.linalg.solve(np.eye(len(rhs)) - gamma * m, rhs)
    q = reward + gamma * (transition @ v)
    return v, q


def regularized_return(reward, transition, gamma, initial, policies, alpha):
    """J = d . V; with alpha = 0 this is the plain expected discounted return."""
    v, _q = evaluate(reward, transition, gamma, policies, alpha)
    return float(initial @ v)


def softmax_rows(coefficients, alpha):
    z = coefficients / alpha
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def response_coefficients(q, policies, agent):
    """E_{a^-i ~ pi^-i} Q(s, a^i, a^-i) for one agent i, shape (S, A_i)."""
    n = len(policies)
    c = q.reshape(q.shape[0], *(p.shape[1] for p in policies))
    # Contract the other agents from the last down, so that the axis of
    # every agent below the one being contracted keeps its position.
    for j in reversed(range(n)):
        if j == agent:
            continue
        c = np.moveaxis(c, j + 1, -1)
        shape = (c.shape[0],) + (1,) * (c.ndim - 2) + (c.shape[-1],)
        c = (c * policies[j].reshape(shape)).sum(axis=-1)
    return c


def logit_responses(q, policies, alpha):
    return [softmax_rows(response_coefficients(q, policies, i), alpha) for i in range(len(policies))]


def qre_residual(reward, transition, gamma, policies, alpha):
    """Sup-norm gap between a policy and its logit response; 0 at a QRE."""
    _v, q = evaluate(reward, transition, gamma, policies, alpha)
    return max(
        float(np.abs(resp - rows).max())
        for resp, rows in zip(logit_responses(q, policies, alpha), policies)
    )
