"""Drift functionals, neighborhoods, mirror updates and the generalized solver."""

import math

import numpy as np
import pytest

from maxent_marl import (
    HaspiOptions,
    boltzmann_local_update,
    evaluate_policy_exact,
    fixed_order,
    full_neighborhood,
    hadf_property_check,
    haspi_solve,
    joint_policy_from_rows,
    kl_ball,
    kl_drift,
    mehaml_local_update,
    mehaml_solve,
    mehamo_eval,
    new_matrix_game,
    qre_residual,
    random_order,
    sup_policy_distance,
    trivial_drift,
    uniform_joint_policy,
)
from maxent_marl.common import boltzmann_rows
from maxent_marl.game_core import AgentPolicy, JointPolicy, _policy_arrays
from maxent_marl.haspi import expected_conditional_q
from maxent_marl.mehaml import (
    DRIFTS,
    NEIGHBORHOODS,
    DriftFunctional,
    KlBall,
    KlDrift,
    NeighborhoodOperator,
    _kl_regularized_rows,
    _mirror_rule,
)
from conftest import START_ROW, random_start, suite_game, suite_params


class TotalVariationDrift(DriftFunctional):
    """Kinked distance: linear in the perturbation, so not a valid drift."""

    name = "tv"

    def __call__(self, game, joint_policy, agent, candidate_row, state, updated_prefix=()):
        q = joint_policy.agents[agent].table[state]
        return float(np.abs(np.asarray(candidate_row) - q).sum())


class RecordingDrift(DriftFunctional):
    """A squared-distance drift that defines only ``__call__`` and records
    what each call is handed: the agent, the joint policy's tables, and
    the ids and tables of the updated prefix, in order."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def __call__(self, game, joint_policy, agent, candidate_row, state, updated_prefix=()):
        tables = [p.table for p in joint_policy.agents]
        self.calls.append((agent, tables, [(p.agent_id, p.table) for p in updated_prefix]))
        q = joint_policy.agents[agent].table[state]
        return float(((np.asarray(candidate_row) - q) ** 2).sum())


class TestKlDrift:
    def test_zero_at_identity(self, matrix_game, start_policy):
        drift = kl_drift(2.0)
        row = start_policy.agents[0].table[0]
        assert drift(matrix_game, start_policy, 0, row, 0) == 0.0

    def test_zero_coefficient_is_trivial(self, matrix_game, start_policy):
        drift = kl_drift(0.0)
        cand = np.array([0.9, 0.05, 0.05])
        assert drift(matrix_game, start_policy, 0, cand, 0) == 0.0

    def test_reference_value(self):
        game = new_matrix_game(np.zeros((2, 2)))
        jp = uniform_joint_policy(game)
        drift = kl_drift(2.0)
        value = drift(game, jp, 0, np.array([0.9, 0.1]), 0)
        expected = 2 * (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))
        assert value == pytest.approx(expected, abs=1e-14)
        assert value == pytest.approx(0.7361, abs=5e-5)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            kl_drift(-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, False, "1", None], ids=repr)
    def test_non_finite_parameters_rejected(self, value):
        with pytest.raises(ValueError, match="KL drift coefficient must be finite"):
            kl_drift(value)
        with pytest.raises(ValueError, match="KL ball radius must be finite"):
            kl_ball(value)

    @pytest.mark.parametrize(
        "registry, name, option",
        [(DRIFTS, "kl", "betta"), (DRIFTS, "trivial", "beta"),
         (NEIGHBORHOODS, "kl_ball", "raduis"), (NEIGHBORHOODS, "full", "radius")],
    )
    def test_spec_constructors_take_only_their_own_options(self, registry, name, option):
        with pytest.raises(TypeError, match=option):
            registry[name](**{option: 1.0})


class TestMehamoEval:
    def test_trivial_drift_at_current_policy(self, matrix_game, start_policy):
        alpha = 1.0
        q = evaluate_policy_exact(matrix_game, start_policy, alpha)
        row = start_policy.agents[0].table[0]
        value = mehamo_eval(
            matrix_game, start_policy, q, trivial_drift(), row, [], 0, alpha, 0
        )
        # the conditional table carries the teammate's entropy bonus, the
        # candidate contributes its own: E[Q^1] + alpha*H(pi^2) + alpha*H(cand)
        coefs = np.array([-5.0, -14.0, -12.0])
        entropy = -(row * np.log(row)).sum()
        assert value == pytest.approx(float(coefs @ row) + 2 * entropy, abs=1e-12)
        assert value == pytest.approx(-8.2 + 2 * entropy, abs=1e-12)

    def test_kl_drift_vanishes_at_current_policy(self, matrix_game, start_policy):
        alpha = 1.0
        q = evaluate_policy_exact(matrix_game, start_policy, alpha)
        row = start_policy.agents[0].table[0]
        trivial = mehamo_eval(matrix_game, start_policy, q, trivial_drift(), row, [], 0, alpha, 0)
        with_kl = mehamo_eval(matrix_game, start_policy, q, kl_drift(3.0), row, [], 0, alpha, 0)
        assert with_kl == pytest.approx(trivial, abs=1e-14)

    def test_boltzmann_row_maximizes(self, matrix_game, start_policy):
        alpha = 1.0
        q = evaluate_policy_exact(matrix_game, start_policy, alpha)
        best = boltzmann_local_update(matrix_game, q, start_policy, [], 0, alpha).table[0]
        value_best = mehamo_eval(
            matrix_game, start_policy, q, trivial_drift(), best, [], 0, alpha, 0
        )
        value_start = mehamo_eval(
            matrix_game, start_policy, q, trivial_drift(),
            start_policy.agents[0].table[0], [], 0, alpha, 0,
        )
        assert value_best > value_start

    @pytest.mark.parametrize(
        "s, row, match",
        [
            (-1, START_ROW, "state must be"),
            (1, START_ROW, "state must be"),
            (5, START_ROW, "state must be"),
            (0.0, START_ROW, "state must be"),
            (0, (0.5, 0.5), "candidate row"),
            (0, (START_ROW,), "candidate row"),
        ],
        ids=["negative", "one-past", "far-past", "float", "short-row", "table"],
    )
    def test_bad_state_or_row_rejected(self, matrix_game, start_policy, s, row, match):
        q = evaluate_policy_exact(matrix_game, start_policy, 1.0)
        with pytest.raises(ValueError, match=match):
            mehamo_eval(
                matrix_game, start_policy, q, kl_drift(1.0), np.array(row), [], 0, 1.0, s
            )

    def test_prefix_overlap_rejected(self, matrix_game, start_policy):
        q = evaluate_policy_exact(matrix_game, start_policy, 1.0)
        first = boltzmann_local_update(matrix_game, q, start_policy, [], 0, 1.0)
        with pytest.raises(ValueError, match="prefix"):
            mehamo_eval(
                matrix_game, start_policy, q, trivial_drift(),
                np.array([1.0, 0.0, 0.0]), [first], 0, 1.0, 0,
            )


def grid_maximize_mehamo(coef, incumbent, alpha, drift_fn, resolution=1e-5):
    """Brute-force grid maximization over the 1-simplex for two actions."""
    p = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
    rows = np.stack([p, 1.0 - p], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -np.where(rows > 0, rows * np.log(rows), 0.0).sum(axis=1)
    values = rows @ coef + alpha * entropy - np.array([drift_fn(r) for r in rows])
    return rows[int(np.argmax(values))]


class TestMehamlLocalUpdate:
    def test_trivial_full_matches_boltzmann(self, matrix_game, start_policy):
        alpha = 5.0
        q = evaluate_policy_exact(matrix_game, start_policy, alpha)
        reference = boltzmann_local_update(matrix_game, q, start_policy, [], 0, alpha)
        generalized = mehaml_local_update(
            matrix_game, q, start_policy, [], 0, alpha,
            trivial_drift(), full_neighborhood(), mode="closed_form",
        )
        assert np.array_equal(reference.table, generalized.table)

    def test_kl_closed_form_against_grid(self):
        # two actions, incumbent (0.5, 0.5), coefficients (1, 0)
        game = new_matrix_game(np.array([[1.0, 1.0], [0.0, 0.0]]))
        jp = uniform_joint_policy(game)
        alpha, beta = 1.0, 1.0
        q = evaluate_policy_exact(game, jp, alpha)
        updated = mehaml_local_update(
            game, q, jp, [], 0, alpha, kl_drift(beta), full_neighborhood(),
            mode="closed_form",
        )
        incumbent = jp.agents[0].table[0]
        coef = np.array([1.0, 0.0])

        def drift_fn(row):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(row > 0, row * (np.log(row) - np.log(incumbent)), 0.0)
            return beta * terms.sum()

        grid_best = grid_maximize_mehamo(coef, incumbent, alpha, drift_fn)
        assert np.abs(updated.table[0] - grid_best).max() < 1e-4
        # and the analytic target itself
        expected = np.exp(coef / (alpha + beta)) * incumbent ** (beta / (alpha + beta))
        expected /= expected.sum()
        assert np.allclose(updated.table[0], expected, atol=1e-12)
        assert np.allclose(np.round(updated.table[0], 4), (0.6225, 0.3775), atol=1e-12)

    def test_closed_form_rejects_unknown_drift(self, matrix_game, start_policy):
        q = evaluate_policy_exact(matrix_game, start_policy, 1.0)
        with pytest.raises(ValueError, match="line_search"):
            mehaml_local_update(
                matrix_game, q, start_policy, [], 0, 1.0,
                TotalVariationDrift(), full_neighborhood(), mode="closed_form",
            )

    def test_update_never_scores_below_incumbent(self, matrix_game, start_policy):
        alpha = 2.0
        q = evaluate_policy_exact(matrix_game, start_policy, alpha)
        for drift, mode in (
            (trivial_drift(), "closed_form"),
            (kl_drift(1.0), "closed_form"),
            (TotalVariationDrift(), "line_search"),
            (kl_drift(0.5), "line_search"),
        ):
            updated = mehaml_local_update(
                matrix_game, q, start_policy, [], 0, alpha, drift,
                full_neighborhood(), mode=mode,
            )
            before = mehamo_eval(
                matrix_game, start_policy, q, drift,
                start_policy.agents[0].table[0], [], 0, alpha, 0,
            )
            after = mehamo_eval(
                matrix_game, start_policy, q, drift, updated.table[0], [], 0, alpha, 0
            )
            assert after >= before - 1e-12

    def test_kl_ball_constrains_step(self, matrix_game, start_policy):
        alpha = 1.0
        q = evaluate_policy_exact(matrix_game, start_policy, alpha)
        ball = kl_ball(0.05)
        updated = mehaml_local_update(
            matrix_game, q, start_policy, [], 0, alpha,
            trivial_drift(), ball, mode="closed_form",
        )
        incumbent = start_policy.agents[0].table[0]
        row = updated.table[0]
        kl = (row * (np.log(row) - np.log(incumbent))).sum()
        assert kl <= 0.05 + 1e-9
        assert sup_policy_distance(
            start_policy, start_policy.replace(updated)
        ) > 0.0  # it still moved

    def test_neighborhood_reflexivity(self, start_policy):
        row = start_policy.agents[0].table[0]
        assert full_neighborhood().contains(row, row)
        assert kl_ball(1e-6).contains(row, row)


def reference_line_search(game, jp, agent, coef, target, alpha, drift, hood, updated):
    """The per-state backtracking loop: each state's row and accepted step
    (0 where the incumbent row is kept)."""
    incumbent = jp.agents[agent].table

    def mirror_value(s, row):
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy = -np.where(row > 0.0, row * np.log(row), 0.0).sum()
        return float(coef[s] @ row) + alpha * entropy - drift(game, jp, agent, row, s, updated)

    rows, steps = np.empty_like(incumbent), []
    for s in range(game.n_states):
        base = mirror_value(s, incumbent[s])
        rows[s], step = incumbent[s], 0.0
        t = 1.0
        while t > 1e-12:
            cand = (1.0 - t) * incumbent[s] + t * target[s]
            if hood.contains(incumbent[s], cand) and mirror_value(s, cand) >= base:
                rows[s], step = cand, t
                break
            t *= 0.5
        steps.append(step)
    return rows, steps


class TestWholeTableLineSearch:
    """The line search backtracks every state at once; a per-state loop over
    the drift's __call__ and the neighborhood's contains is the reference."""

    @pytest.mark.parametrize(
        "drift, hood",
        [
            (kl_drift(1.0), kl_ball(0.02)),
            (TotalVariationDrift(), full_neighborhood()),
            (trivial_drift(), kl_ball(0.02)),
        ],
        ids=["kl-kl_ball", "tv-full", "trivial-kl_ball"],
    )
    def test_same_step_and_rows_as_a_per_state_loop(self, drift, hood):
        steps = set()
        for k, n_agents, n_states, counts, gamma, alpha in suite_params(15):
            if n_states < 3:
                continue
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            q = evaluate_policy_exact(game, jp, alpha)
            rule = _mirror_rule(game, drift, hood, "line_search")
            updated = []
            for agent in range(n_agents):
                coef = expected_conditional_q(game, q, jp, updated, agent, alpha)
                if isinstance(drift, KlDrift):
                    log = jp.agents[agent]._logs[0]
                    target = _kl_regularized_rows(coef, log, alpha, drift.beta)
                else:
                    target = boltzmann_rows(coef, alpha)
                expected, chosen = reference_line_search(
                    game, jp, agent, coef, target, alpha, drift, hood, updated
                )
                mixed = jp
                for policy in updated:
                    mixed = mixed.replace(policy)
                prefix = tuple(p.agent_id for p in updated) + (agent,)
                got = rule(_policy_arrays(jp), _policy_arrays(mixed), prefix, coef, alpha)
                assert got.tobytes() == expected.tobytes()
                steps.update(chosen)
                updated.append(AgentPolicy(agent, got))
        # Full steps, shorter steps and kept rows all occur.
        assert 1.0 in steps and len(steps) > 2

    def test_row_forms_match_the_per_state_forms(self):
        game = suite_game(4, 2, 5, (2, 3), 0.5)
        jp = random_start(game, 4)
        rows = random_start(game, 40).agents[1].table
        states = np.arange(game.n_states)
        incumbent = jp.agents[1].table
        arrays = _policy_arrays(jp)
        for drift in (kl_drift(0.7), trivial_drift(), TotalVariationDrift()):
            got = drift.rows(game, arrays, arrays, (1,), rows, states)
            expected = [drift(game, jp, 1, rows[s], s) for s in states]
            assert got.tolist() == expected
        for hood in (kl_ball(0.05), kl_ball(10.0), full_neighborhood()):
            got = hood.contains_rows(incumbent, rows)
            assert got.dtype == bool
            assert got.tolist() == [hood.contains(incumbent[s], rows[s]) for s in states]


class TestOneFormExtensions:
    """A subclass defines either form of a drift or a neighborhood; one that
    defines neither is named by either form, and neither form recurses."""

    def test_drift_defining_neither_form(self):
        class Bare(DriftFunctional):
            pass

        game = suite_game(4, 2, 5, (2, 3), 0.5)
        jp = random_start(game, 4)
        arrays = _policy_arrays(jp)
        row = jp.agents[1].table[0]
        with pytest.raises(NotImplementedError, match="Bare defines neither __call__ nor rows"):
            Bare()(game, jp, 1, row, 0)
        with pytest.raises(NotImplementedError, match="Bare defines neither __call__ nor rows"):
            Bare().rows(game, arrays, arrays, (1,), [row], [0])

    def test_neighborhood_defining_neither_form(self):
        class Bare(NeighborhoodOperator):
            pass

        row = np.array([0.5, 0.5])
        message = "Bare defines neither contains nor contains_rows"
        with pytest.raises(NotImplementedError, match=message):
            Bare().contains(row, row)
        with pytest.raises(NotImplementedError, match=message):
            Bare().contains_rows([row], [row])

    def test_a_rows_only_drift_and_a_contains_only_neighborhood(self):
        class RowsOnly(DriftFunctional):
            def rows(self, game, old, new, prefix, candidate_rows, states):
                return np.asarray(states, dtype=np.float64)

        class ContainsOnly(NeighborhoodOperator):
            def contains(self, current_row, candidate_row):
                return candidate_row[0] >= current_row[0]

        game = suite_game(4, 2, 5, (2, 3), 0.5)
        jp = random_start(game, 4)
        assert RowsOnly()(game, jp, 0, jp.agents[0].table[3], 3) == 3.0
        low, high = np.array([0.2, 0.8]), np.array([0.7, 0.3])
        assert ContainsOnly().contains_rows([low, high], [high, low]).tolist() == [True, False]


class TestDriftArguments:
    """What a line search hands its drift, on a 3-agent suite game."""

    K = 7  # 3 agents, 3 states, (3, 4, 2) actions, alpha = 1

    def _setup(self):
        k, n_agents, n_states, counts, gamma, alpha = list(suite_params(self.K + 1))[self.K]
        assert n_agents == 3
        game = suite_game(k, n_agents, n_states, counts, gamma)
        return game, random_start(game, k), alpha

    def test_a_call_only_drift_sees_the_old_iterate_and_the_sweeps_prefix(self):
        game, start, alpha = self._setup()
        drift = RecordingDrift()
        options = HaspiOptions(
            alpha=alpha, max_outer_iters=6, permutation_rule=fixed_order((2, 0, 1))
        )
        _p, trace = mehaml_solve(
            game, start, alpha, drift, full_neighborhood(), options=options, mode="line_search"
        )
        iterates = [[t.tobytes() for t in rec.policies] for rec in trace.iterations]
        prefix_ids = {2: [], 0: [2], 1: [2, 0]}
        sweep, previous = -1, None
        for agent, tables, prefix in drift.calls:
            if agent == 2 and previous != 2:
                sweep += 1  # agent 2 opens every sweep
            previous = agent
            assert [t.tobytes() for t in tables] == iterates[sweep]
            assert [i for i, _ in prefix] == prefix_ids[agent]
            assert [t.tobytes() for _, t in prefix] == [iterates[sweep + 1][i] for i, _ in prefix]
        assert previous == 1 and sweep + 1 == trace.sweeps == 6

    def test_shipped_drifts_build_no_policy_per_sweep(self, monkeypatch):
        game, start, alpha = self._setup()
        built = []
        for cls in (AgentPolicy, JointPolicy):

            def counting(self, cls=cls, post_init=cls.__post_init__):
                built.append(cls)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)

        def constructions(mode, hood, sweeps):
            options = HaspiOptions(
                alpha=alpha, tol_policy=1e-300, max_outer_iters=sweeps,
                permutation_rule=fixed_order((2, 0, 1)),
            )
            built.clear()
            _p, trace = mehaml_solve(
                game, start, alpha, kl_drift(1.0), hood, options=options, mode=mode
            )
            assert trace.sweeps == sweeps
            return built.count(AgentPolicy), built.count(JointPolicy)

        closed_form = constructions("closed_form", full_neighborhood(), 4)
        assert closed_form[0] > 0
        assert constructions("line_search", kl_ball(0.05), 4) == closed_form
        assert constructions("line_search", kl_ball(0.05), 12) == closed_form

    def test_a_call_only_drift_builds_its_policies_once_per_agent_update(self, monkeypatch):
        game, start, alpha = self._setup()
        built = []
        for cls in (AgentPolicy, JointPolicy):

            def counting(self, cls=cls, post_init=cls.__post_init__):
                built.append(cls)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)

        class CountingBall(KlBall):
            """A KL ball that counts the backtracking steps, one test each."""

            steps = []

            def contains_rows(self, current_rows, candidate_rows):
                self.steps.append(None)
                return super().contains_rows(current_rows, candidate_rows)

        def constructions(radius, sweeps):
            """The policies a line search builds, and its backtracking steps."""
            drift, hood = RecordingDrift(), CountingBall(radius)
            hood.steps.clear()
            options = HaspiOptions(
                alpha=alpha, tol_policy=1e-300, max_outer_iters=sweeps,
                permutation_rule=fixed_order((2, 0, 1)),
            )
            built.clear()
            _p, trace = mehaml_solve(
                game, start, alpha, drift, hood, options=options, mode="line_search"
            )
            assert trace.sweeps == sweeps
            return built.count(AgentPolicy), built.count(JointPolicy), len(hood.steps)

        # Per agent update: the old joint policy (3 agents) and the updated
        # prefix (0, 1 and 2 agents along the ordering); then the result's
        # 3 agents and its joint policy.
        for sweeps in (4, 16):
            wide, narrow = constructions(10.0, sweeps), constructions(0.001, sweeps)
            assert wide[:2] == narrow[:2] == (sweeps * (3 * 3 + 0 + 1 + 2) + 3, sweeps * 3 + 1)
            # The narrow ball takes more steps per agent update.
            assert narrow[2] > wide[2] >= sweeps * 3


class TestMehamlSolve:
    def test_reduces_to_sequential_solver(self, matrix_game, start_policy):
        options = HaspiOptions(
            alpha=10.0, tol_policy=1e-12, permutation_rule=random_order(42)
        )
        p_ref, _q, t_ref = haspi_solve(matrix_game, start_policy, options)
        p_gen, t_gen = mehaml_solve(
            matrix_game, start_policy, 10.0, trivial_drift(), full_neighborhood(),
            options=options,
        )
        assert len(t_ref.iterations) == len(t_gen.iterations)
        for rec_a, rec_b in zip(t_ref.iterations, t_gen.iterations):
            assert rec_a.permutation == rec_b.permutation
            for ta, tb in zip(rec_a.policies, rec_b.policies):
                assert np.abs(ta - tb).max() <= 1e-12
        assert sup_policy_distance(p_ref, p_gen) <= 1e-12

    def test_kl_drift_reaches_same_equilibrium(self, matrix_game, start_policy):
        options = HaspiOptions(
            alpha=10.0, tol_policy=1e-12, max_outer_iters=100_000,
            permutation_rule=fixed_order((0, 1)),
        )
        p_ref, _q, _t = haspi_solve(matrix_game, start_policy, options)
        p_kl, trace = mehaml_solve(
            matrix_game, start_policy, 10.0, kl_drift(1.0), full_neighborhood(),
            options=options,
        )
        assert trace.status == "converged"
        assert sup_policy_distance(p_ref, p_kl) < 1e-5
        assert qre_residual(matrix_game, p_kl, 10.0) <= 1e-6

    def test_kl_drift_monotone_on_random_games(self):
        for k, n_agents, n_states, counts, gamma, alpha in suite_params(9):
            game = suite_game(k, n_agents, n_states, counts, gamma)
            jp = random_start(game, k)
            options = HaspiOptions(
                alpha=alpha, tol_policy=1e-9, max_outer_iters=2000,
                permutation_rule=random_order(k),
            )
            _p, trace = mehaml_solve(
                game, jp, alpha, kl_drift(1.0), full_neighborhood(), options=options
            )
            returns = trace.returns
            assert all(
                returns[i + 1] >= returns[i] - 1e-9 for i in range(len(returns) - 1)
            )

    def test_line_search_with_ball_still_improves(self, matrix_game, start_policy):
        options = HaspiOptions(
            alpha=10.0, tol_policy=1e-9, max_outer_iters=3000,
            permutation_rule=fixed_order((0, 1)),
        )
        policy, trace = mehaml_solve(
            matrix_game, start_policy, 10.0, kl_drift(0.5), kl_ball(0.02),
            options=options, mode="line_search",
        )
        returns = trace.returns
        assert all(returns[i + 1] >= returns[i] - 1e-9 for i in range(len(returns) - 1))
        assert returns[-1] > returns[0]

    def test_options_must_agree_on_alpha(self, matrix_game, start_policy):
        options = HaspiOptions(alpha=5.0, max_outer_iters=3)
        with pytest.raises(ValueError, match=r"alpha=10\.0 differs from options\.alpha=5\.0"):
            mehaml_solve(
                matrix_game, start_policy, 10.0, kl_drift(1.0), full_neighborhood(), options=options
            )
        # A non-finite alpha still gets the temperature rule's message.
        with pytest.raises(ValueError, match="temperature must be finite.*got alpha=nan"):
            mehaml_solve(
                matrix_game, start_policy, math.nan, kl_drift(1.0), full_neighborhood(),
                options=options,
            )

    def test_options_that_agree_on_alpha_are_used(self, matrix_game, start_policy):
        # An equal alpha passes the check, even as an int, and the options'
        # other fields still govern the solve.
        options = HaspiOptions(alpha=10.0, max_outer_iters=1)
        for alpha in (10.0, 10):
            _p, trace = mehaml_solve(
                matrix_game, start_policy, alpha, kl_drift(1.0), full_neighborhood(),
                options=options,
            )
            assert trace.status == "max_iters"
            assert trace.sweeps == 1


class TestHadfPropertyCheck:
    def _samples(self, game, n=4):
        rng = np.random.default_rng(123)
        out = []
        for _ in range(n):
            out.append(
                joint_policy_from_rows(
                    [rng.dirichlet(np.ones(c), size=game.n_states)
                     for c in game.action_counts]
                )
            )
        return out

    def test_kl_drift_passes(self, matrix_game):
        report = hadf_property_check(
            kl_drift(1.5), matrix_game, self._samples(matrix_game)
        )
        assert report.ok
        assert report.worst_slope >= 1.5

    def test_trivial_drift_passes_vacuously(self, matrix_game):
        report = hadf_property_check(
            trivial_drift(), matrix_game, self._samples(matrix_game)
        )
        assert report.ok

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"epsilons": (1e-2,)}, "epsilons"),
            ({"epsilons": ()}, "epsilons"),
            ({"epsilons": (1e-2, 1e-2)}, "epsilons"),
            ({"epsilons": (1e-2, 0.0)}, "epsilons"),
            ({"epsilons": (1e-2, -1e-3)}, "epsilons"),
            ({"epsilons": (1e-2, math.nan)}, "epsilons"),
            ({"epsilons": (1e-2, math.inf)}, "epsilons"),
            ({"n_directions": 0}, "n_directions"),
            ({"n_directions": -1}, "n_directions"),
            ({"epsilons": (1e-2, True)}, "epsilons"),
            ({"epsilons": (1e-2, "0.1")}, "epsilons"),
            ({"n_directions": True}, "n_directions"),
        ],
        ids=["one", "none", "repeated", "zero", "negative", "nan", "inf", "no-directions",
             "negative-directions", "bool", "text", "bool-directions"],
    )
    def test_arguments_that_leave_no_slope_are_rejected(self, matrix_game, options, name):
        samples = self._samples(matrix_game)
        with pytest.raises(ValueError, match=name):
            hadf_property_check(TotalVariationDrift(), matrix_game, samples, **options)

    def test_no_sample_policies_rejected(self, matrix_game):
        with pytest.raises(ValueError, match="sample_policies"):
            hadf_property_check(TotalVariationDrift(), matrix_game, [])

    def test_no_usable_probe_does_not_certify_flatness(self):
        # With one action per agent every simplex-tangent direction is zero.
        game = new_matrix_game(np.array([[1.0]]))
        report = hadf_property_check(TotalVariationDrift(), game, [uniform_joint_policy(game)])
        assert report.probes == 0
        assert not report.zero_gradient_ok
        assert not report.ok

    def test_total_variation_fails_flatness(self, matrix_game):
        report = hadf_property_check(
            TotalVariationDrift(), matrix_game, self._samples(matrix_game)
        )
        assert report.nonnegativity_ok
        assert not report.zero_gradient_ok
        assert report.worst_slope < 1.5
        assert not report.ok
