"""Invariants of the solvers and of the game files on small random games.

Hypothesis draws the games; every run is derandomized and keeps no example
database, so Tier-1 sees the same examples each time.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_marl import (
    AgentPolicy,
    CooperativeMarkovGame,
    HaspiOptions,
    full_neighborhood,
    haspi_solve,
    joint_policy_from_rows,
    kl_ball,
    kl_drift,
    load_game,
    masac_solve,
    mehaml_solve,
    qre_fixed_point,
    random_game,
    random_order,
    save_game,
    trivial_drift,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def small_games(draw):
    """A random game of 2-3 agents, 1-3 states and 2-3 actions each, a
    Dirichlet start, a temperature and a permutation seed."""
    n_agents = draw(st.integers(2, 3))
    n_states = draw(st.integers(1, 3))
    counts = tuple(draw(st.integers(2, 3)) for _ in range(n_agents))
    seed = draw(st.integers(0, 2**16))
    gamma = draw(st.sampled_from((0.0, 0.5, 0.9)))
    alpha = draw(st.sampled_from((0.1, 1.0, 5.0)))
    game = random_game(seed, n_agents, n_states, counts, -1.0, 1.0, gamma)
    rng = np.random.default_rng(seed)
    start = joint_policy_from_rows([rng.dirichlet(np.ones(c), size=n_states) for c in counts])
    options = HaspiOptions(alpha=alpha, max_outer_iters=40, permutation_rule=random_order(seed))
    return game, start, options


@PROPERTY_SETTINGS
@given(small_games())
def test_mehaml_with_trivial_drift_gives_haspi_iterates(case):
    game, start, options = case
    _policy, _q, haspi = haspi_solve(game, start, options)
    _policy, mehaml = mehaml_solve(
        game, start, options.alpha, trivial_drift(), full_neighborhood(), options=options
    )
    assert (mehaml.status, mehaml.sweeps) == (haspi.status, haspi.sweeps)
    for ours, theirs in zip(mehaml.iterations, haspi.iterations, strict=True):
        assert ours.permutation == theirs.permutation
        for a, b in zip(ours.policies, theirs.policies, strict=True):
            assert a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(small_games())
def test_haspi_return_never_falls(case):
    game, start, options = case
    _policy, _q, trace = haspi_solve(game, start, options)
    returns = trace.returns
    assert all(after >= before - 1e-9 for before, after in zip(returns, returns[1:]))


SOLVERS = {
    "haspi": lambda game, start, options: haspi_solve(game, start, options)[0],
    "masac": lambda game, start, options: masac_solve(game, start, options)[0],
    "mehaml-closed-form": lambda game, start, options: mehaml_solve(
        game, start, options.alpha, kl_drift(1.0), full_neighborhood(), options=options
    )[0],
    "mehaml-line-search": lambda game, start, options: mehaml_solve(
        game, start, options.alpha, kl_drift(1.0), kl_ball(0.1), options=options,
        mode="line_search",
    )[0],
    "oracle": lambda game, start, options: qre_fixed_point(
        game, options.alpha, max_iters=options.max_outer_iters, initial_joint_policy=start
    ).joint_policy,
}


@pytest.mark.parametrize("solver", SOLVERS)
@PROPERTY_SETTINGS
@given(case=small_games())
def test_every_solver_returns_stochastic_finite_rows(solver, case):
    game, start, options = case
    # 20 sweeps keep the line search, the slowest, under 2 s.
    policy = SOLVERS[solver](game, start, replace(options, max_outer_iters=20))
    assert len(policy.agents) == game.n_agents
    for i, agent in enumerate(policy.agents):
        table = agent.table
        assert table.shape == (game.n_states, game.action_counts[i])
        assert np.isfinite(table).all() and (table >= 0.0).all()
        assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-12
        # The public constructor's own checks accept the rows unchanged.
        assert AgentPolicy(i, table).table.tobytes() == table.tobytes()


def stochastic(draw, rows, width):
    """Rows of positive entries normalized to sum to one, from drawn floats."""
    raw = np.array(draw(st.lists(
        st.floats(1e-300, 1e300), min_size=rows * width, max_size=rows * width
    ))).reshape(rows, width)
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def stored_games(draw):
    """A valid game of 1-3 agents, 1-3 states and 1-3 actions each, with any
    finite rewards (signed zeros, subnormals and extremes included)."""
    n_agents = draw(st.integers(1, 3))
    n_states = draw(st.integers(1, 3))
    counts = tuple(draw(st.integers(1, 3)) for _ in range(n_agents))
    n_joint = int(np.prod(counts))
    reward = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=n_states * n_joint, max_size=n_states * n_joint,
    ))
    return CooperativeMarkovGame(
        n_agents=n_agents,
        n_states=n_states,
        action_counts=counts,
        reward=np.array(reward).reshape(n_states, n_joint),
        transition=stochastic(draw, n_states * n_joint, n_states).reshape(
            n_states, n_joint, n_states
        ),
        gamma=draw(st.floats(0.0, 1.0, exclude_max=True)),
        initial_dist=stochastic(draw, 1, n_states)[0],
    )


@PROPERTY_SETTINGS
@given(stored_games())
def test_game_files_round_trip_bit_exactly(game):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.json"
        save_game(game, path)
        loaded = load_game(path)
    assert (loaded.n_agents, loaded.n_states) == (game.n_agents, game.n_states)
    assert loaded.action_counts == game.action_counts
    assert np.float64(loaded.gamma).tobytes() == np.float64(game.gamma).tobytes()
    for name in ("reward", "transition", "initial_dist"):
        ours, theirs = getattr(loaded, name), getattr(game, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
