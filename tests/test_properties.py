"""Invariants of the solvers and of the game files on small random games.

Hypothesis draws the games; every run is derandomized and keeps no example
database, so Tier-1 sees the same examples each time.
"""

import contextlib
import io
import json
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
    cli,
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


# A 2-agent, 2-state game file and one spec per subcommand that reads it. The
# property mutates one of them and drives ``cli.main`` on the result.
CLI_GAME = {
    "n_agents": 2,
    "states": 2,
    "action_counts": [2, 2],
    "gamma": 0.5,
    "initial_dist": [0.5, 0.5],
    "reward": [[[1.0, 0.0], [0.0, 0.5]], [[0.0, 1.0], [0.5, 0.0]]],
    "transition": [
        [[[0.9, 0.1], [0.5, 0.5]], [[0.5, 0.5], [0.1, 0.9]]],
        [[[0.2, 0.8], [0.5, 0.5]], [[0.5, 0.5], [0.8, 0.2]]],
    ],
}
CLI_RUNS = {
    "haspi": ("solve", {"solver": "haspi", "game": "game.json", "alpha": 1.0, "seed": 1,
                        "permutation": "random", "tol_policy": 1e-10, "eval": "exact"}),
    "mehaml": ("solve", {"solver": "mehaml", "game": "game.json", "alpha": 1.0,
                         "drift": {"name": "kl", "beta": 1.0},
                         "neighborhood": {"name": "kl_ball", "radius": 0.1},
                         "mode": "line_search", "initial_policy": [[0.6, 0.4], [0.5, 0.5]]}),
    "qre": ("qre", {"solver": "qre-oracle", "game": "game.json", "alpha": 1.0, "damping": 0.5}),
    "sweep": ("sweep-alpha", {"solver": "masac", "game": "game.json", "alphas": [0.5, 2.0]}),
    "baseline": ("baseline", {"solver": "happo", "game": {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
                              "update_mode": "mirror", "step_size": 0.1, "iterations": 5,
                              "permutation": [1, 0]}),
    "validate": ("validate", None),
}
# Values of the wrong type for any field, and the non-finite JSON literals.
WRONG_VALUES = ("x", "1", True, None, [], {}, [1, "a"], 2.5, -1, 0, 10**30, -(10**400),
                {"name": "kl"})
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@st.composite
def cli_inputs(draw):
    """A subcommand, its game file and spec texts, one of them mutated."""
    run = draw(st.sampled_from(sorted(CLI_RUNS)))
    command, spec = CLI_RUNS[run]
    texts = {"game.json": CLI_GAME}
    if spec is not None:
        texts["spec.json"] = spec
    target = draw(st.sampled_from(sorted(texts)))
    data = json.loads(json.dumps(texts[target]))
    mutations = ("wrong type", "unknown key", "non-finite", "missing", "truncated", "alphas")
    mutation = draw(st.sampled_from(mutations))
    key = draw(st.sampled_from(sorted(data)))
    if mutation == "wrong type":
        value = draw(st.sampled_from(WRONG_VALUES))
        if isinstance(data[key], list) and data[key] and draw(st.booleans()):
            data[key][draw(st.integers(0, len(data[key]) - 1))] = value
        else:
            data[key] = value
    elif mutation == "unknown key":
        data[draw(st.sampled_from(("bogus", "Alpha", "", "gamma ")))] = 1
    elif mutation == "non-finite":
        data[key] = draw(st.sampled_from(NON_FINITE))
    elif mutation == "missing":
        del data[key]
    elif mutation == "alphas" and "alpha" in data:
        # Drop alpha, keep alphas: a list that only sweep-alpha reads.
        data["alphas"] = [data.pop("alpha"), 2.0]
    texts = {name: json.dumps(value) for name, value in texts.items()}
    texts[target] = json.dumps(data)
    if mutation == "truncated":
        texts[target] = texts[target][: draw(st.integers(0, len(texts[target]) - 1))]
    return command, texts


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(cli_inputs())
def test_cli_exits_with_a_documented_code_on_mutated_inputs(case):
    command, texts = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            (Path(tmp) / name).write_text(text)
        target = "game.json" if command == "validate" else "spec.json"
        argv = [command, str(Path(tmp) / target), "--quiet"]
        if command != "validate":
            argv += ["--out", str(Path(tmp) / "out"), "--max-iters", "20"]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
