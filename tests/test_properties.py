"""Invariants of the sequential solvers on small random games.

Hypothesis draws the games; every run is derandomized and keeps no example
database, so Tier-1 sees the same examples each time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_marl import (
    HaspiOptions,
    full_neighborhood,
    haspi_solve,
    joint_policy_from_rows,
    mehaml_solve,
    random_game,
    random_order,
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
