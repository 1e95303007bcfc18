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
    uniform_state_weighting,
)
from maxent_marl.common import boltzmann_rows
from maxent_marl.haspi import expected_conditional_q
from maxent_marl.mehaml import (
    DRIFTS,
    NEIGHBORHOODS,
    DriftFunctional,
    KlDrift,
    StateWeighting,
    _kl_regularized_rows,
    _mirror_rule,
)
from conftest import random_start, suite_game, suite_params


class TotalVariationDrift(DriftFunctional):
    """Kinked distance: linear in the perturbation, so not a valid drift."""

    name = "tv"

    def __call__(self, game, joint_policy, agent, candidate_row, state, updated_prefix=()):
        q = joint_policy.agents[agent].table[state]
        return float(np.abs(np.asarray(candidate_row) - q).sum())


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
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
                    target = _kl_regularized_rows(coef, jp.agents[agent], alpha, drift.beta)
                else:
                    target = boltzmann_rows(coef, alpha)
                expected, chosen = reference_line_search(
                    game, jp, agent, coef, target, alpha, drift, hood, updated
                )
                got = rule(jp, updated, agent, coef, alpha)
                assert got.table.tobytes() == expected.tobytes()
                steps.update(chosen)
                updated.append(got)
        # Full steps, shorter steps and kept rows all occur.
        assert 1.0 in steps and len(steps) > 2

    def test_row_forms_match_the_per_state_forms(self):
        game = suite_game(4, 2, 5, (2, 3), 0.5)
        jp = random_start(game, 4)
        rows = random_start(game, 40).agents[1].table
        states = np.arange(game.n_states)
        incumbent = jp.agents[1].table
        for drift in (kl_drift(0.7), trivial_drift(), TotalVariationDrift()):
            got = drift.rows(game, jp, 1, rows, states)
            expected = [drift(game, jp, 1, rows[s], s) for s in states]
            assert got.tolist() == expected
        for hood in (kl_ball(0.05), kl_ball(10.0), full_neighborhood()):
            got = hood.contains_rows(incumbent, rows)
            assert got.dtype == bool
            assert got.tolist() == [hood.contains(incumbent[s], rows[s]) for s in states]


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

    def test_state_weighting_validation(self):
        with pytest.raises(ValueError):
            StateWeighting(np.array([0.5, 0.4]))
        w = uniform_state_weighting(4)
        assert np.allclose(w.weights, 0.25)


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

    def test_total_variation_fails_flatness(self, matrix_game):
        report = hadf_property_check(
            TotalVariationDrift(), matrix_game, self._samples(matrix_game)
        )
        assert report.nonnegativity_ok
        assert not report.zero_gradient_ok
        assert report.worst_slope < 1.5
        assert not report.ok
