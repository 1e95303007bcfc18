"""Expected-update baselines: coefficients, vertex absorption, the trap."""

import re

import numpy as np
import pytest

from conftest import MATRIX, START_ROW
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
    joint_policy_from_rows,
    maxent_return,
    new_matrix_game,
    qre_fixed_point,
    random_game,
    sup_policy_distance,
    surrogate_coefficients,
    uniform_joint_policy,
)
from maxent_marl import baselines


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

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"step_size": float("nan")}, "finite positive step size: nan"),
            ({"step_size": float("inf")}, "finite positive step size: inf"),
            ({"iterations": 0}, "iteration caps must be at least 1, got iterations=0"),
            ({"step_size": True}, "finite positive step size: True"),
            ({"step_size": "0.1"}, "finite positive step size: 0.1"),
        ],
    )
    def test_options_rejected_by_name(self, options, message):
        with pytest.raises(ValueError, match=message):
            BaselineOptions(algorithm="happo", **options)


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


def reference_step(game, jp, options):
    """One baseline update as a loop over policy objects, from the public
    ``surrogate_coefficients``: each agent's new row is built as an
    ``AgentPolicy``, and happo feeds the rows updated so far to the next."""

    def updated(agent, ratio):
        coef = surrogate_coefficients(game, jp, agent, ratio)
        if options.update_mode == "argmax":
            row = np.zeros_like(coef)
            row[int(np.argmax(coef))] = 1.0
        else:
            weights = jp.agents[agent].table[0] * np.exp(options.step_size * (coef - coef.max()))
            row = weights / weights.sum()
        return AgentPolicy(agent, row.reshape(1, -1))

    if options.algorithm == "mappo":
        return JointPolicy(tuple(updated(i, ()) for i in range(game.n_agents)))
    order = tuple(range(game.n_agents)) if options.permutation is None else options.permutation
    agents = list(jp.agents)
    done = []
    for agent in order:
        done.append(updated(agent, done))
        agents[agent] = done[-1]
    return JointPolicy(tuple(agents))


def reference_run(game, jp, options):
    """``baseline_run``'s records as field tuples, and its status, from
    :func:`reference_step`, ``joint_action_table`` and ``sup_policy_distance``."""
    permutation = options.permutation if options.algorithm == "happo" else None

    def record(k, change):
        value = float(joint_action_table(jp)[0] @ game.reward[0])
        tables = tuple(a.table for a in jp.agents)
        return (k, permutation, change, value, np.array([value]), float("nan"), tables)

    records = [record(0, 0.0)]
    for k in range(1, options.iterations + 1):
        new = reference_step(game, jp, options)
        change = sup_policy_distance(new, jp)
        jp = new
        records.append(record(k, change))
    return records, "converged" if change < 1e-9 else "max_iters"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_cases():
    """(game, two starts) for the Appendix B game and a 3-agent matrix game."""
    appendix_b = new_matrix_game(MATRIX)
    three = random_game(3, 3, 1, [2, 3, 4], -1, 1, 0.0)
    rng = np.random.default_rng(21)

    def seeded(game):
        return joint_policy_from_rows([rng.dirichlet(np.ones(c), size=1) for c in game.action_counts])

    row = np.array([START_ROW])
    return {
        "appendix-b": (appendix_b, joint_policy_from_rows([row, row]), seeded(appendix_b)),
        "three-agents": (three, uniform_joint_policy(three), seeded(three)),
    }


class TestAgainstThePolicyLoop:
    """Every record of ``baseline_run`` and every ``baseline_step`` result
    has the bits of a loop that builds a policy for every update."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["default-order", "reversed-order"])
    @pytest.mark.parametrize("update_mode", ["argmax", "mirror"])
    @pytest.mark.parametrize("algorithm", ["mappo", "happo"])
    @pytest.mark.parametrize("case", ["appendix-b", "three-agents"])
    def test_byte_equal_to_the_policy_loop(self, case, algorithm, update_mode, reverse):
        game, *starts = reference_cases()[case]
        permutation = tuple(reversed(range(game.n_agents))) if reverse else None
        options = BaselineOptions(
            algorithm, update_mode, step_size=0.3, iterations=25, permutation=permutation
        )
        for start in starts:
            step = baseline_step(game, start, options)
            expected_step = reference_step(game, start, options)
            assert [a.agent_id for a in step.agents] == list(range(game.n_agents))
            for got, expected in zip(step.agents, expected_step.agents):
                assert same_bits(got.table, expected.table)

            trace = baseline_run(game, start, options)
            expected_records, expected_status = reference_run(game, start, options)
            assert (trace.status, trace.sweeps) == (expected_status, options.iterations)
            assert len(trace.iterations) == len(expected_records)
            for rec, expected in zip(trace.iterations, expected_records):
                k, perm, change, value, values, residual, tables = expected
                assert (rec.iteration, rec.permutation) == (k, perm)
                assert same_bits(rec.policy_change, change)
                assert same_bits(rec.maxent_return, value)
                assert same_bits(rec.values, values)
                assert same_bits(rec.qre_residual, residual)
                assert len(rec.policies) == len(tables)
                assert all(same_bits(t, e) for t, e in zip(rec.policies, tables))


def count_constructions(monkeypatch):
    """The AgentPolicy and JointPolicy objects built from here on, by class."""
    built = []
    for cls in (AgentPolicy, JointPolicy):

        def counting(self, cls=cls, post_init=cls.__post_init__):
            built.append(cls)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


class TestIteratesAreTables:
    @pytest.mark.parametrize("algorithm", ["mappo", "happo"])
    def test_run_builds_no_policy_per_update(self, monkeypatch, algorithm):
        cases = reference_cases().values()
        built = count_constructions(monkeypatch)
        for game, start, _seeded in cases:
            for iterations in (1, 200):
                built.clear()
                trace = baseline_run(game, start, BaselineOptions(algorithm, iterations=iterations))
                assert trace.sweeps == iterations
                assert built == []

    @pytest.mark.parametrize("algorithm", ["mappo", "happo"])
    def test_step_builds_only_its_result(self, monkeypatch, algorithm):
        cases = reference_cases().values()
        built = count_constructions(monkeypatch)
        for game, start, _seeded in cases:
            built.clear()
            baseline_step(game, start, BaselineOptions(algorithm))
            assert (built.count(AgentPolicy), built.count(JointPolicy)) == (game.n_agents, 1)

    def test_records_hold_read_only_tables(self, matrix_game, start_policy):
        trace = baseline_run(matrix_game, start_policy, BaselineOptions("happo", iterations=5))
        for table, agent in zip(trace.iterations[0].policies, start_policy.agents):
            assert table is agent.table
        for rec in trace.iterations:
            assert not any(table.flags.writeable for table in rec.policies)

    def test_non_finite_row_is_named(self, monkeypatch, matrix_game, start_policy):
        def nan_contract(game, tables, values, prefix):
            return np.full((1, game.action_counts[prefix[-1]]), np.nan)

        monkeypatch.setattr(baselines, "_contract", nan_contract)
        for run in (baseline_step, baseline_run):
            with pytest.raises(RuntimeError, match="baseline update produced a non-finite row"):
                run(matrix_game, start_policy, BaselineOptions("happo"))


class TestBoundary:
    @pytest.mark.parametrize("agent", [0.5, True, "0", None], ids=repr)
    def test_agent_must_be_an_integer(self, matrix_game, start_policy, agent):
        message = re.escape(f"an agent id must be an integer, got agent={agent!r}")
        with pytest.raises(ValueError, match=message):
            surrogate_coefficients(matrix_game, start_policy, agent)

    @pytest.mark.parametrize("permutation", [(0.5, 1), (1, True), (0, "1")], ids=repr)
    def test_permutation_entries_must_be_integers(self, matrix_game, start_policy, permutation):
        with pytest.raises(ValueError, match=r"an agent id must be an integer, got permutation\["):
            BaselineOptions("happo", permutation=permutation)

    def test_policy_must_fit_the_game(self, matrix_game):
        three = uniform_joint_policy(new_matrix_game(np.eye(2)))
        for run in (baseline_step, baseline_run):
            with pytest.raises(ValueError, match="agent 0 has 2 actions, game expects 3"):
                run(matrix_game, three, BaselineOptions("mappo"))

    @pytest.mark.parametrize(
        "ratio, message",
        [
            ([AgentPolicy(5, np.full((1, 3), 1 / 3))], r"prefix \(5,\) is out of range for 2 agents"),
            ([AgentPolicy(1, np.full((1, 2), 0.5))], "agent 1 has 2 actions, game expects 3"),
            ([AgentPolicy(1, np.full((2, 3), 1 / 3))], "all agents must share the same state count"),
            (
                [AgentPolicy(1, np.full((1, 3), 1 / 3)), AgentPolicy(1, np.eye(3)[:1])],
                r"prefix \(1, 1\) contains a duplicate agent",
            ),
            ([AgentPolicy(0, np.eye(3)[:1])], "agent 0 cannot appear in ratio_policies"),
        ],
        ids=["no agent of the game", "wrong action count", "wrong state count", "one agent twice",
             "the agent itself"],
    )
    def test_ratio_policies_must_fit_the_game(self, matrix_game, start_policy, ratio, message):
        with pytest.raises(ValueError, match=message):
            surrogate_coefficients(matrix_game, start_policy, 0, ratio)
