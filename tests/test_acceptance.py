"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines on passing tests too).

The paper promises that sequential sweeps never lower the regularized
return and that the iterates converge to *a* quantal response equilibrium
(QRE). It promises neither a particular return on the reference matrix
game nor a unique QRE, so two criteria check exactly that much:

* criterion 3 (escape half) requires the temperature-10 limit to be a QRE
  with its mode on (C, C), whose plain return matches the exact
  enumeration over the reference row ``REFERENCE_TABLE[10.0]`` within the
  error that ``REPLICATION_TOL`` propagates, and exceeds the best pure
  equilibrium outside the C corner;
* criterion 5 requires the sequential solver and the damped logit oracle
  to agree from the same start, except where the two limits are certified
  as distinct equilibria: both residuals are recomputed and small, and
  each solver, started at the other's limit, stays there. Low-temperature
  logit QRE come in several branches, and the two dynamics may select
  different ones.
"""

import math
import sys
import time

import numpy as np
import pytest

from maxent_marl import (
    HaspiOptions,
    Permutation,
    baseline_run,
    BaselineOptions,
    boltzmann_local_update,
    enumerate_pure_nash,
    evaluate_policy_exact,
    evaluate_policy_iterative,
    fixed_order,
    full_neighborhood,
    haspi_solve,
    joint_kl_objective,
    joint_policy_from_rows,
    kl_drift,
    maxent_return,
    mehaml_solve,
    multiagent_soft_advantage,
    qre_fixed_point,
    qre_residual,
    random_order,
    soft_bellman_backup,
    sup_policy_distance,
    trivial_drift,
)
from maxent_marl.cli import REFERENCE_TABLE, REPLICATION_TOL, replicate_appendix_b
from conftest import random_start, suite_game, suite_params

SUITE_TOL_POLICY = 1e-10
SUITE_MAX_ITERS = 5000
ORACLE_DAMPING = 0.5
ORACLE_MAX_ITERS = 50_000
QRE_RESIDUAL_TOL = 1e-8
AGREEMENT_TOL = 1e-6

_haspi_cache = {}


def suite_haspi_options(k, alpha):
    return HaspiOptions(
        alpha=alpha,
        tol_policy=SUITE_TOL_POLICY,
        max_outer_iters=SUITE_MAX_ITERS,
        permutation_rule=random_order(k),
    )


def suite_haspi(k, game, jp, alpha):
    """Sequential solve with the suite's standard options, cached per game."""
    if k not in _haspi_cache:
        _haspi_cache[k] = haspi_solve(game, jp, suite_haspi_options(k, alpha))
    return _haspi_cache[k]


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status}{' - ' + detail if detail else ''}")


def start_policy_matrix():
    row = np.array([[0.6, 0.2, 0.2]])
    return joint_policy_from_rows([row.copy(), row.copy()])


def test_criterion_1_replication_table(tmp_path):
    started = time.perf_counter()
    rows, mismatches = replicate_appendix_b(out_dir=tmp_path)
    elapsed = time.perf_counter() - started
    ok = mismatches == [] and len(rows) == 6 and elapsed < 5.0
    report(1, ok, f"36 cells within 5e-4, {elapsed:.2f}s")
    assert mismatches == [], mismatches
    assert elapsed < 5.0


def test_criterion_2_first_update_closed_form(matrix_game):
    jp = start_policy_matrix()
    coefficients = (-5.0, -14.0, -12.0)
    for alpha, (ref_first, _conv) in REFERENCE_TABLE.items():
        q = evaluate_policy_exact(matrix_game, jp, alpha)
        row = boltzmann_local_update(matrix_game, q, jp, [], 0, alpha).table[0]
        exps = [math.exp((c - max(coefficients)) / alpha) for c in coefficients]
        closed_form = np.array(exps) / sum(exps)
        assert np.abs(row - closed_form).max() <= 1e-9
        assert tuple(np.round(row, 4)) == ref_first
    report(2, True, "closed-form softmax identity at all six temperatures")


def test_criterion_3_baseline_trap(matrix_game):
    started = time.perf_counter()
    jp = start_policy_matrix()
    for algorithm in ("mappo", "happo"):
        mirror = baseline_run(
            matrix_game, jp,
            BaselineOptions(algorithm=algorithm, update_mode="mirror",
                            step_size=0.1, iterations=200),
        )
        last = mirror.iterations[-1]
        greedy = tuple(int(np.argmax(t[0])) for t in last.policies)
        assert greedy == (0, 0), f"{algorithm} mirror did not reach the trap vertex"
        assert abs(last.maxent_return - 5.0) <= 1e-2
        argmax = baseline_run(
            matrix_game, jp,
            BaselineOptions(algorithm=algorithm, update_mode="argmax", iterations=2),
        )
        vertex = argmax.iterations[-1].policies
        assert all(np.array_equal(t[0], [1.0, 0.0, 0.0]) for t in vertex)
    elapsed = time.perf_counter() - started
    report(3, True, f"both baselines absorbed at (A, A) with return 5, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_3_haspi_escape(matrix_game):
    alpha = 10.0
    c_corner = (2, 2)
    jp = start_policy_matrix()
    options = HaspiOptions(
        alpha=alpha, tol_policy=1e-12, permutation_rule=fixed_order((0, 1))
    )
    policy, _q, trace = haspi_solve(matrix_game, jp, options)
    assert trace.status == "converged"
    residual = qre_residual(matrix_game, policy, alpha)
    modal = tuple(int(np.argmax(a.table[0])) for a in policy.agents)
    reward = matrix_game.reward[0].reshape(matrix_game.action_counts)
    ref_row = np.array(REFERENCE_TABLE[alpha][1])
    row_error = max(float(np.abs(a.table[0] - ref_row).max()) for a in policy.agents)
    ref_return = sum(
        ref_row[a] * ref_row[b] * reward[a, b] for a, b in np.ndindex(reward.shape)
    )
    # The return is bilinear in the two rows; moving each row by at most
    # REPLICATION_TOL per entry moves it by at most 3 * REPLICATION_TOL *
    # max|M| per agent.
    return_bound = 2 * len(ref_row) * REPLICATION_TOL * float(np.abs(reward).max())
    trap_return = max(
        float(reward[joint])
        for joint in enumerate_pure_nash(matrix_game)
        if joint != c_corner
    )
    plain_return = maxent_return(matrix_game, policy, 0.0)
    ok = (
        residual <= QRE_RESIDUAL_TOL
        and modal == c_corner
        and row_error <= REPLICATION_TOL
        and abs(plain_return - ref_return) <= return_bound
        and plain_return > trap_return
    )
    report(
        3,
        ok,
        f"escape half: QRE residual {residual:.1e}, mode {modal}, plain return "
        f"{plain_return:.4f} vs reference-row enumeration {ref_return:.4f} "
        f"(bound {return_bound:.2f}), above the best other pure equilibrium "
        f"{trap_return:g}",
    )
    assert residual <= QRE_RESIDUAL_TOL, f"reached policy is no QRE: {residual:.1e}"
    assert modal == c_corner, "solver did not reach the C-dominant equilibrium"
    assert row_error <= REPLICATION_TOL, (
        f"reached row is {row_error:.1e} from the reference row {tuple(ref_row)}"
    )
    assert abs(plain_return - ref_return) <= return_bound, (
        f"plain return {plain_return:.4f} is more than {return_bound:.2f} from the "
        f"reference-row return {ref_return:.4f}"
    )
    assert plain_return > trap_return, (
        f"plain return {plain_return:.4f} does not beat the pure equilibrium "
        f"return {trap_return:g} outside the C corner"
    )


def test_criterion_4_monotonic_improvement_suite():
    started = time.perf_counter()
    worst = 0.0
    for k, n_agents, n_states, counts, gamma, alpha in suite_params(100):
        game = suite_game(k, n_agents, n_states, counts, gamma)
        jp = random_start(game, k)
        _policy, _q, trace = suite_haspi(k, game, jp, alpha)
        returns = trace.returns
        worst = max(
            worst,
            max(returns[i] - returns[i + 1] for i in range(len(returns) - 1)),
        )
        options = HaspiOptions(
            alpha=alpha, tol_policy=SUITE_TOL_POLICY, max_outer_iters=2000,
            permutation_rule=random_order(k),
        )
        _p2, trace2 = mehaml_solve(
            game, jp, alpha, kl_drift(1.0), full_neighborhood(), options=options
        )
        returns2 = trace2.returns
        worst = max(
            worst,
            max(returns2[i] - returns2[i + 1] for i in range(len(returns2) - 1)),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 120.0
    report(4, ok, f"worst single-iteration decrease {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 120.0


def certify_distinct_equilibria(k, game, alpha, policy, oracle_policy):
    """Why two differing limits are not both confirmed QREs, or None if they are.

    Each solver, started at the other's limit, must stay within
    AGREEMENT_TOL of it: the oracle with its suite damping, the sequential
    solver with the suite's permutation rule for game k.
    """
    reseeded = qre_fixed_point(
        game, alpha, damping=ORACLE_DAMPING, tol=SUITE_TOL_POLICY,
        max_iters=SUITE_MAX_ITERS, initial_joint_policy=policy,
    )
    drift = sup_policy_distance(reseeded.joint_policy, policy)
    if not reseeded.converged or drift > AGREEMENT_TOL:
        return f"oracle started at the sequential limit moved {drift:.1e}"
    reseeded_policy, _q, trace = haspi_solve(
        game, oracle_policy, suite_haspi_options(k, alpha)
    )
    drift = sup_policy_distance(reseeded_policy, oracle_policy)
    if trace.status != "converged" or drift > AGREEMENT_TOL:
        return f"sequential solver started at the oracle limit moved {drift:.1e}"
    return None


def test_criterion_5_cross_solver_agreement():
    alphas = sorted({params[5] for params in suite_params(100)})
    compared = dict.fromkeys(alphas, 0)
    certified = []
    skipped = []
    disagreements = []
    residual_worst = 0.0
    for k, n_agents, n_states, counts, gamma, alpha in suite_params(100):
        game = suite_game(k, n_agents, n_states, counts, gamma)
        jp = random_start(game, k)
        policy, _q, trace = suite_haspi(k, game, jp, alpha)
        oracle = qre_fixed_point(
            game, alpha, damping=ORACLE_DAMPING, tol=SUITE_TOL_POLICY,
            max_iters=ORACLE_MAX_ITERS, initial_joint_policy=jp,
        )
        if trace.status != "converged":
            skipped.append(f"game {k}: sequential solver hit {SUITE_MAX_ITERS} sweeps")
            continue
        if not oracle.converged:
            skipped.append(
                f"game {k}: oracle stopped ({oracle.status}) after {oracle.iterations} iterations "
                f"(residual {oracle.residual:.1e})"
            )
            continue
        compared[alpha] += 1
        # Both residuals are recomputed here rather than read off the solvers.
        residuals = (
            qre_residual(game, policy, alpha),
            qre_residual(game, oracle.joint_policy, alpha),
        )
        residual_worst = max(residual_worst, *residuals)
        gap = sup_policy_distance(policy, oracle.joint_policy)
        if gap <= AGREEMENT_TOL:
            continue
        reason = (
            f"residuals {residuals[0]:.1e} / {residuals[1]:.1e}"
            if max(residuals) > QRE_RESIDUAL_TOL
            else certify_distinct_equilibria(k, game, alpha, policy, oracle.joint_policy)
        )
        if reason is None:
            certified.append(k)
        else:
            disagreements.append(
                f"game {k} (alpha={alpha}, gamma={gamma}): gap {gap:.3f}, {reason}"
            )
    empty = [alpha for alpha, count in compared.items() if count == 0]
    ok = not disagreements and not empty and residual_worst <= QRE_RESIDUAL_TOL
    per_alpha = ", ".join(f"{n} at alpha={alpha:g}" for alpha, n in compared.items())
    report(
        5,
        ok,
        f"{sum(compared.values())} pairs compared ({per_alpha}); "
        f"{len(certified)} certified distinct equilibria (games "
        f"{', '.join(map(str, certified)) or 'none'}); "
        f"{len(disagreements)} uncertified disagreements; "
        f"worst residual {residual_worst:.1e}; skipped: {'; '.join(skipped) or 'none'}",
    )
    assert not empty, f"no pair compared at alpha in {empty}"
    assert residual_worst <= QRE_RESIDUAL_TOL
    assert not disagreements, (
        f"{len(disagreements)} pairs reached different limits that are not both "
        "confirmed equilibria:\n" + "\n".join(disagreements)
    )


def test_criterion_6_advantage_decomposition():
    worst = 0.0
    rng = np.random.default_rng(2024)
    for k, n_agents, n_states, counts, gamma, alpha in suite_params(100):
        game = suite_game(k, n_agents, n_states, counts, gamma)
        jp = random_start(game, k)
        q = evaluate_policy_exact(game, jp, alpha)
        for _ in range(5):
            order = tuple(rng.permutation(n_agents))
            full = multiagent_soft_advantage(game, jp, q, (), order, alpha)
            total = np.zeros_like(full)
            for j in range(n_agents):
                part = multiagent_soft_advantage(
                    game, jp, q, order[:j], (order[j],), alpha
                )
                total += part.reshape(part.shape + (1,) * (n_agents - 1 - j))
            worst = max(worst, float(np.abs(full - total).max()))
    ok = worst <= 1e-10
    report(6, ok, f"worst identity violation {worst:.2e} over 500 permutations")
    assert worst <= 1e-10


def test_criterion_7_reduction_to_sequential_solver(matrix_game):
    worst = 0.0
    cases = [(matrix_game, start_policy_matrix(), 10.0, 42)]
    for k in (13, 27):
        params = list(suite_params(30))[k]
        game = suite_game(params[0], params[1], params[2], params[3], params[4])
        cases.append((game, random_start(game, k), params[5], 1000 + k))
    for game, jp, alpha, seed in cases:
        options = HaspiOptions(
            alpha=alpha, tol_policy=1e-11, max_outer_iters=3000,
            permutation_rule=random_order(seed),
        )
        _pa, _qa, trace_a = haspi_solve(game, jp, options)
        _pb, trace_b = mehaml_solve(
            game, jp, alpha, trivial_drift(), full_neighborhood(), options=options
        )
        assert len(trace_a.iterations) == len(trace_b.iterations)
        for rec_a, rec_b in zip(trace_a.iterations, trace_b.iterations):
            assert rec_a.permutation == rec_b.permutation
            for ta, tb in zip(rec_a.policies, rec_b.policies):
                worst = max(worst, float(np.abs(ta - tb).max()))
    ok = worst <= 1e-12
    report(7, ok, f"iterate-for-iterate deviation {worst:.2e} across 3 games")
    assert worst <= 1e-12


def test_criterion_8_joint_kl_optimality(matrix_game):
    rng = np.random.default_rng(314)
    for alpha in (1.0, 10.0):
        options = HaspiOptions(
            alpha=alpha, tol_policy=1e-12, permutation_rule=fixed_order((0, 1))
        )
        policy, q_star, _trace = haspi_solve(matrix_game, start_policy_matrix(), options)
        base = joint_kl_objective(matrix_game, q_star, policy, alpha, 0)
        for i in range(1000):
            scale = (0.01, 0.05, 0.2)[i % 3]
            rows = []
            for agent in policy.agents:
                table = agent.table + rng.normal(0.0, scale, size=agent.table.shape)
                table = np.clip(table, 1e-15, None)
                table /= table.sum(axis=1, keepdims=True)
                rows.append(table)
            perturbed = joint_policy_from_rows(rows)
            value = joint_kl_objective(matrix_game, q_star, perturbed, alpha, 0)
            assert base <= value + 1e-9, (
                f"alpha={alpha}: perturbation {i} scored {value:.9f} "
                f"below the solver's {base:.9f}"
            )
    report(8, True, "2000 perturbed product policies never beat the converged policy")


def test_criterion_9_evaluation_correctness():
    tol = 1e-10
    worst_gap = 0.0
    worst_residual = 0.0
    for k, n_agents, n_states, counts, gamma, alpha in suite_params(100):
        game = suite_game(k, n_agents, n_states, counts, gamma)
        jp = random_start(game, k)
        q_iter, _iters = evaluate_policy_iterative(game, jp, alpha, tol=tol)
        q_exact = evaluate_policy_exact(game, jp, alpha)
        worst_gap = max(worst_gap, float(np.abs(q_iter.values - q_exact.values).max()))
        backup = soft_bellman_backup(game, jp, q_exact, alpha)
        worst_residual = max(
            worst_residual, float(np.abs(backup.values - q_exact.values).max())
        )
    ok = worst_gap <= 2 * tol and worst_residual <= 1e-9
    report(
        9, ok,
        f"iterative-exact gap {worst_gap:.2e} (limit {2 * tol:.0e}), "
        f"Bellman residual {worst_residual:.2e}",
    )
    assert worst_gap <= 2 * tol
    assert worst_residual <= 1e-9


def test_criterion_10_no_deep_learning_surface():
    """Deep-benchmark results are out of scope; the property suites above
    substitute. Operationally: the exact solvers must not touch any deep
    learning runtime."""
    import maxent_marl  # noqa: F401

    for module in ("torch", "tensorflow", "jax"):
        assert module not in sys.modules
    report(10, True, "no deep-learning runtime imported; property suites substitute")
