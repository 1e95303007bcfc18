"""File formats, experiment dispatch, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxent_marl import (
    GameValidationError,
    load_experiment,
    load_game,
    new_matrix_game,
    random_game,
    run_experiment,
    save_game,
    sweep_alpha,
)
from maxent_marl import cli, specs
from maxent_marl.cli import (
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    main,
    replicate_appendix_b,
)
from maxent_marl.game_core import joint_policy_from_rows
from maxent_marl.soft_dp import EvaluationNotConverged
from maxent_marl.specs import bundled_game_path, parse_experiment
from conftest import MATRIX


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


MATRIX_GAME_JSON = {"matrix": MATRIX.tolist()}
HASPI_SPEC = {
    "solver": "haspi",
    "game": MATRIX_GAME_JSON,
    "alpha": 10.0,
    "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
    "seed": 3,
    "tol_policy": 1e-10,
}


class TestGameFiles:
    def test_bundled_game(self):
        game = load_game(bundled_game_path())
        assert game.action_counts == (3, 3)
        assert np.array_equal(game.reward[0].reshape(3, 3), MATRIX)

    def test_matrix_shorthand(self, tmp_path):
        path = write_json(tmp_path / "m.game", MATRIX_GAME_JSON)
        game = load_game(path)
        assert game.gamma == 0.0 and game.n_states == 1

    def test_round_trip_bit_exact(self, tmp_path):
        game = random_game(42, 3, 4, [2, 3, 2], -2.5, 1.5, 0.85)
        path = tmp_path / "g.game"
        save_game(game, path)
        game2 = load_game(path)
        assert np.array_equal(game.reward, game2.reward)
        assert np.array_equal(game.transition, game2.transition)
        assert np.array_equal(game.initial_dist, game2.initial_dist)
        assert game.gamma == game2.gamma

    def test_gamma_one_rejected_with_name(self, tmp_path):
        payload = {
            "n_agents": 2,
            "states": 1,
            "action_counts": [2, 2],
            "gamma": 1.0,
            "reward": [[[0.0, 0.0], [0.0, 0.0]]],
        }
        path = write_json(tmp_path / "bad.game", payload)
        with pytest.raises(GameValidationError) as info:
            load_game(path)
        assert any("gamma" in v for v in info.value.violations)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_json(tmp_path / "odd.game", {"matrix": [[1.0]], "extra": 1})
        with pytest.raises(ValueError, match="unknown game field"):
            load_game(path)
        mixed = write_json(
            tmp_path / "mixed.game", {"matrix": [[1.0]], "gamma": 0.0}
        )
        with pytest.raises(ValueError, match="shorthand"):
            load_game(mixed)

    def test_nan_transition_named_by_validate(self, tmp_path, capsys):
        transition = random_game(42, 2, 2, [2, 2], -1, 1, 0.9).transition.copy()
        transition[0, 1, 1] = np.nan
        game = random_game(42, 2, 2, [2, 2], -1, 1, 0.9)
        broken = type(game)(2, 2, (2, 2), game.reward, transition, 0.9, game.initial_dist)
        path = tmp_path / "nan.game"
        save_game(broken, path)
        assert "NaN" in path.read_text()
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert "transition[s=0, a=(0, 1)] to s'=1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_rejected_by_name(self, tmp_path, literal):
        base = {
            "n_agents": 2,
            "states": 1,
            "action_counts": [2, 2],
            "gamma": 0.0,
            "reward": [[[0.0, 1.0], [1.0, 0.0]]],
        }
        cases = {
            "initial_dist": ({**base, "initial_dist": ["@"]}, "initial_dist[0] is not finite"),
            "reward": (
                {**base, "reward": [[[0.0, "@"], [1.0, 0.0]]]},
                "reward[s=0, a=(0, 1)] is not finite",
            ),
            "transition": (
                {**base, "transition": [[[[1.0], ["@"]], [[1.0], [1.0]]]]},
                "transition[s=0, a=(0, 1)] to s'=0 is not finite",
            ),
            "gamma": ({**base, "gamma": "@"}, "gamma"),
            "count": ({**base, "n_agents": "@"}, "game field 'n_agents' must be an integer"),
        }
        for name, (payload, message) in cases.items():
            path = tmp_path / f"{name}.game"
            path.write_text(json.dumps(payload).replace('"@"', literal))
            with pytest.raises(ValueError) as info:
                load_game(path)
            assert message in str(info.value), name

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.game"
        path.write_text('{"matrix": [[1.0]\n')
        with pytest.raises(ValueError, match="line"):
            load_game(path)


class TestExperimentSpecs:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="not defined for solver"):
            parse_experiment({**HASPI_SPEC, "damping": 0.5})

    def test_solver_required(self):
        with pytest.raises(ValueError, match="solver"):
            parse_experiment({"game": MATRIX_GAME_JSON})

    def test_baseline_rejects_alpha(self):
        spec = {"solver": "mappo", "game": MATRIX_GAME_JSON, "alpha": 1.0}
        with pytest.raises(ValueError, match="not defined"):
            parse_experiment(spec)

    def test_alpha_required_for_soft_solvers(self):
        with pytest.raises(ValueError, match="alpha"):
            parse_experiment({"solver": "haspi", "game": MATRIX_GAME_JSON})

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = write_json(tmp_path / "myrun.json", HASPI_SPEC)
        assert load_experiment(path).name == "myrun"


class TestRunExperiment:
    def test_haspi_summary_values(self, tmp_path):
        spec = parse_experiment(HASPI_SPEC)
        record = run_experiment(spec, out_dir=tmp_path)
        assert record.status == "converged"
        assert np.allclose(
            np.round(record.final_policy[0][0], 4), (0.0221, 0.0224, 0.9555), atol=1e-12
        )
        summary = json.loads((tmp_path / "experiment_summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["final_qre_residual"] <= 1e-8

    def test_csv_determinism(self, tmp_path):
        spec = parse_experiment(HASPI_SPEC)
        run_experiment(spec, out_dir=tmp_path / "a")
        run_experiment(spec, out_dir=tmp_path / "b")
        body_a = (tmp_path / "a" / "experiment_trace.csv").read_bytes()
        body_b = (tmp_path / "b" / "experiment_trace.csv").read_bytes()
        assert body_a == body_b

    def test_csv_schema(self, tmp_path):
        spec = parse_experiment(HASPI_SPEC)
        run_experiment(spec, out_dir=tmp_path)
        lines = (tmp_path / "experiment_trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["iteration", "J", "qre_residual", "policy_change", "permutation"]
        assert header[5:] == [
            f"pi{i}_s0_a{a}" for i in range(2) for a in range(3)
        ]
        assert len(lines) >= 3

    def test_baseline_dispatch(self, tmp_path):
        spec = parse_experiment(
            {
                "solver": "mappo",
                "game": MATRIX_GAME_JSON,
                "update_mode": "mirror",
                "step_size": 0.1,
                "iterations": 200,
                "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
            }
        )
        record = run_experiment(spec, out_dir=tmp_path)
        greedy = tuple(int(np.argmax(t[0])) for t in record.final_policy)
        assert greedy == (0, 0)
        assert record.final_return == pytest.approx(5.0, abs=1e-2)

    def test_qre_dispatch(self, tmp_path):
        spec = parse_experiment(
            {
                "solver": "qre-oracle",
                "game": MATRIX_GAME_JSON,
                "alpha": 10.0,
                "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
            }
        )
        record = run_experiment(spec, out_dir=tmp_path)
        assert record.status == "converged"
        assert np.allclose(
            np.round(record.final_policy[0][0], 4), (0.0221, 0.0224, 0.9555), atol=1e-12
        )

    def test_mehaml_dispatch(self, tmp_path):
        spec = parse_experiment(
            {
                "solver": "mehaml",
                "game": MATRIX_GAME_JSON,
                "alpha": 10.0,
                "drift": {"name": "kl", "beta": 1.0},
                "neighborhood": {"name": "full"},
                "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
                "max_iters": 100000,
            }
        )
        record = run_experiment(spec, out_dir=tmp_path)
        assert record.status == "converged"
        assert record.final_qre_residual <= 1e-6

    @pytest.mark.parametrize(
        "extra",
        [
            {"solver": "haspi"},
            {"solver": "haspi", "eval": "iterative"},
            {"solver": "haspi", "record_trace": False},
            {"solver": "masac"},
            {"solver": "mehaml", "drift": {"name": "kl", "beta": 1.0}, "max_iters": 100000},
            {"solver": "mehaml", "mode": "line_search",
             "neighborhood": {"name": "kl_ball", "radius": 0.1}},
            {"solver": "qre-oracle"},
            {"solver": "qre-oracle", "max_iters": 3},
            {"solver": "qre-oracle", "record_trace": False},
            {"solver": "mappo", "iterations": 20},
            {"solver": "happo", "iterations": 20},
        ],
    )
    def test_final_stats_equal_reevaluation(self, extra):
        # The final return and residual read off the trace are the values a
        # fresh evaluation of the returned policy gives, to the last bit.
        game = random_game(42, 2, 3, [2, 3], -1, 1, 0.9)
        payload = {
            "game": {
                "n_agents": 2,
                "states": 3,
                "action_counts": [2, 3],
                "gamma": 0.9,
                "initial_dist": game.initial_dist.tolist(),
                "reward": game.reward.reshape(3, 2, 3).tolist(),
                "transition": game.transition.reshape(3, 2, 3, 3).tolist(),
            },
            **extra,
        }
        baseline = extra["solver"] in ("mappo", "happo")
        if baseline:  # scoped to matrix games
            game = new_matrix_game(MATRIX)
            payload["game"] = MATRIX_GAME_JSON
            payload["initial_policy"] = [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]]
        else:
            payload["alpha"] = 1.0
        record = run_experiment(parse_experiment(payload), write=False)
        policy = joint_policy_from_rows(record.final_policy)
        expected = cli._final_stats(game, policy, None if baseline else 1.0)
        assert repr((record.final_return, record.final_qre_residual)) == repr(expected)

    def test_game_by_path(self, tmp_path):
        game_path = write_json(tmp_path / "g.game", MATRIX_GAME_JSON)
        spec_path = write_json(
            tmp_path / "exp.json", {**HASPI_SPEC, "game": "g.game"}
        )
        record = run_experiment(load_experiment(spec_path), out_dir=tmp_path)
        assert record.status == "converged"


class TestSweep:
    def test_policies_shift_with_temperature(self, tmp_path):
        spec = parse_experiment(
            {
                "solver": "haspi",
                "game": MATRIX_GAME_JSON,
                "alphas": [1.0, 10.0, 10000.0],
                "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
                "name": "sweep",
            }
        )
        records = sweep_alpha(spec, out_dir=tmp_path)
        assert [r.status for r in records] == ["converged"] * 3
        cold = records[0].final_policy[0][0]
        mid = records[1].final_policy[0][0]
        hot = records[2].final_policy[0][0]
        assert cold[0] > 0.999          # exploit-the-start limit
        assert mid[2] > 0.9             # escapes to the high-reward action
        assert np.abs(hot - 1 / 3).max() < 1e-2  # entropy-dominated limit
        combined = (tmp_path / "sweep_sweep.csv").read_text().splitlines()
        assert combined[0].startswith("alpha,iteration,J")
        assert len({line.split(",")[0] for line in combined[1:]}) == 3

    def test_cli_sweep_and_status_summary(self, tmp_path):
        spec_path = write_json(
            tmp_path / "sw.json",
            {
                "solver": "haspi",
                "game": MATRIX_GAME_JSON,
                "alphas": [1.0, 10.0],
                "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
            },
        )
        assert main(["sweep-alpha", spec_path, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        summary = json.loads((tmp_path / "sw_sweep_summary.json").read_text())
        assert summary["statuses"] == {"1": "converged", "10": "converged"}
        # a branch hitting its iteration cap surfaces through the exit code
        capped = write_json(
            tmp_path / "capped.json",
            {
                "solver": "haspi",
                "game": MATRIX_GAME_JSON,
                "alphas": [10.0],
                "max_iters": 1,
                "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
            },
        )
        assert main(["sweep-alpha", capped, "--out", str(tmp_path), "--quiet"]) == EXIT_NOT_CONVERGED

    def test_combined_csv_is_branch_rows_with_alpha(self, tmp_path, monkeypatch):
        loads = []

        def counting_load_game(path):
            loads.append(path)
            return load_game(path)

        monkeypatch.setattr(specs, "load_game", counting_load_game)
        write_json(tmp_path / "g.game", MATRIX_GAME_JSON)
        alphas = [1.0, 10.0, 0.5]
        spec_path = write_json(
            tmp_path / "sw.json",
            {
                "solver": "haspi",
                "game": "g.game",
                "alphas": alphas,
                "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
            },
        )
        records = sweep_alpha(load_experiment(spec_path), out_dir=tmp_path)
        assert len(loads) == 1
        assert [r.status for r in records] == ["converged"] * 3
        expected = []
        for alpha in alphas:
            branch = (tmp_path / f"sw_alpha{alpha:g}_trace.csv").read_bytes().split(b"\r\n")
            assert branch[-1] == b""
            if not expected:
                expected.append(b"alpha," + branch[0])
            expected += [repr(alpha).encode() + b"," + row for row in branch[1:-1]]
        combined = (tmp_path / "sw_sweep.csv").read_bytes()
        assert combined == b"\r\n".join(expected) + b"\r\n"

    def test_untraced_sweep_writes_full_headers(self, tmp_path):
        spec_path = write_json(
            tmp_path / "u.json",
            {
                "solver": "haspi",
                "game": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
                "alphas": [1.0, 2.0],
                "record_trace": False,
            },
        )
        assert main(["sweep-alpha", spec_path, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        header = "iteration,J,qre_residual,policy_change,permutation," + ",".join(
            f"pi{i}_s0_a{a}" for i in range(2) for a in range(2)
        )
        for alpha in ("1", "2"):
            trace = (tmp_path / f"u_alpha{alpha}_trace.csv").read_bytes()
            assert trace == (header + "\r\n").encode()
        assert (tmp_path / "u_sweep.csv").read_bytes() == ("alpha," + header + "\r\n").encode()

    def test_singleton_sweep_matches_run(self, tmp_path):
        base = {
            "solver": "haspi",
            "game": MATRIX_GAME_JSON,
            "initial_policy": [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]],
            "seed": 5,
        }
        sweep_spec = parse_experiment({**base, "alphas": [10.0], "name": "s"})
        records = sweep_alpha(sweep_spec, out_dir=tmp_path, write=False)
        single_seed = records[0].seed
        single = parse_experiment({**base, "alpha": 10.0, "seed": single_seed})
        record = run_experiment(single, out_dir=tmp_path, write=False)
        assert np.allclose(
            records[0].final_policy[0], record.final_policy[0], atol=1e-15
        )


class TestCliInterface:
    def test_solve_exit_codes(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "run.json", HASPI_SPEC)
        assert main(["solve", spec_path, "--out", str(tmp_path), "--quiet"]) == EXIT_OK

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"solver": "haspi"})
        assert main(["solve", path, "--quiet"]) == EXIT_INVALID

    def test_max_iters_exit_code(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "run.json", {**HASPI_SPEC, "max_iters": 1})
        code = main(["solve", spec_path, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_NOT_CONVERGED

    def test_evaluation_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        def capped(*args, **kwargs):
            raise EvaluationNotConverged(100_000, 3e-3)

        monkeypatch.setattr(cli, "haspi_solve", capped)
        spec_path = write_json(tmp_path / "run.json", {**HASPI_SPEC, "eval": "iterative"})
        assert main(["solve", spec_path, "--out", str(tmp_path), "--quiet"]) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().err.startswith("error: evaluation did not converge")

    def test_sweep_branch_evaluation_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        # One branch's evaluation hits its cap and another fails otherwise;
        # the sweep goes on, and exits 2 as solve does for the capped branch.
        solve = cli.haspi_solve

        def failing(game, start, options):
            if options.alpha == 1.0:
                raise EvaluationNotConverged(100_000, 3e-3)
            if options.alpha == 2.0:
                raise RuntimeError("boom")
            return solve(game, start, options)

        monkeypatch.setattr(cli, "haspi_solve", failing)
        spec = {**HASPI_SPEC, "alpha": None, "alphas": [1.0, 2.0, 10.0], "name": "sw"}
        path = write_json(tmp_path / "sw.json", spec)
        assert main(["sweep-alpha", path, "--out", str(tmp_path), "--quiet"]) == EXIT_NOT_CONVERGED
        statuses = json.loads((tmp_path / "sw_sweep_summary.json").read_text())["statuses"]
        assert statuses == {"1": "eval_max_iters", "2": "error", "10": "converged"}
        del spec["alphas"][0]
        path = write_json(tmp_path / "sw.json", spec)
        assert main(["sweep-alpha", path, "--out", str(tmp_path), "--quiet"]) == EXIT_INVALID

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "solver, message",
        [
            ({"solver": "mehaml", "drift": {"name": "kl", "beta": 0.0}},
             "mirror update produced a non-finite row"),
            ({"solver": "mehaml", "drift": {"name": "trivial"},
              "neighborhood": {"name": "kl_ball", "radius": 0.1}, "mode": "line_search"},
             "mirror update produced a non-finite row"),
            ({"solver": "masac"}, "Boltzmann update produced a non-finite row"),
        ],
        ids=["mehaml-kl", "mehaml-line-search", "masac"],
    )
    def test_non_finite_row_exit_code(self, tmp_path, capsys, solver, message):
        # Finite rewards so large that the Boltzmann logits overflow.
        spec_path = write_json(
            tmp_path / "run.json",
            {**solver, "game": {"matrix": [[1e308, 1e308], [1e308, 1e308]]}, "alpha": 0.001},
        )
        assert main(["solve", spec_path, "--out", str(tmp_path), "--quiet"]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_runtime_error_exit_code(self, tmp_path, capsys):
        # Finite rewards so large that the Boltzmann logits overflow.
        spec_path = write_json(
            tmp_path / "run.json",
            {"solver": "haspi", "game": {"matrix": [[1e308, 1e308], [1e308, 1e308]]},
             "alpha": 0.001},
        )
        assert main(["solve", spec_path, "--out", str(tmp_path), "--quiet"]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: Boltzmann update produced a non-finite row\n"
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({**HASPI_SPEC, "alpha": float("nan")}, "'alpha' must be finite"),
            ({**HASPI_SPEC, "alpha": float("inf")}, "'alpha' must be finite"),
            ({**HASPI_SPEC, "alpha": None, "alphas": [1.0, float("nan")]},
             "'alphas[1]' must be finite"),
            ({**HASPI_SPEC, "tol_policy": float("nan")}, "'tol_policy' must be finite"),
            ({**HASPI_SPEC, "tol_eval": float("-inf")}, "'tol_eval' must be finite"),
            ({"solver": "qre-oracle", "game": MATRIX_GAME_JSON, "alpha": 1.0,
              "damping": float("nan")}, "'damping' must be finite"),
            ({"solver": "happo", "game": MATRIX_GAME_JSON, "update_mode": "mirror",
              "step_size": float("inf")}, "'step_size' must be finite"),
            ({**HASPI_SPEC, "max_iters": float("inf")}, "'max_iters' must be an integer"),
            ({**HASPI_SPEC, "seed": float("nan")}, "'seed' must be an integer"),
            ({"solver": "happo", "game": MATRIX_GAME_JSON, "iterations": float("inf")},
             "'iterations' must be an integer"),
            ({**HASPI_SPEC, "alpha": None, "alphas": 5.0}, "'alphas' must be a list"),
            ({**HASPI_SPEC, "solver": "mehaml", "drift": {"name": "kl", "beta": float("nan")}},
             "KL drift coefficient must be finite"),
            ({**HASPI_SPEC, "solver": "mehaml",
              "neighborhood": {"name": "kl_ball", "radius": float("nan")}},
             "KL ball radius must be finite"),
            ({**HASPI_SPEC, "permutation": 5}, "'permutation' must be 'random', 'cyclic' or a list"),
            ({**HASPI_SPEC, "permutation": ["a", 0]}, "'permutation[0]' must be an integer"),
            ({"solver": "happo", "game": MATRIX_GAME_JSON, "permutation": "random"},
             "'permutation' must be a list of agent indices"),
            ({**HASPI_SPEC, "solver": "mehaml", "drift": 5}, "'drift' must be an object"),
            ({**HASPI_SPEC, "solver": "mehaml", "drift": {"beta": 1.0}},
             "'drift' has name None"),
            ({**HASPI_SPEC, "solver": "mehaml", "drift": {"name": ["kl"]}},
             "'drift' has name ['kl']"),
            ({**HASPI_SPEC, "solver": "mehaml", "drift": {"name": "kl", "beta": "1"}},
             "'drift': option 'beta' must be a number"),
            ({**HASPI_SPEC, "solver": "mehaml", "neighborhood": 5},
             "'neighborhood' must be an object"),
            ({**HASPI_SPEC, "solver": "mehaml", "drift": {"name": "kl", "betta": 3.0}},
             "'drift': 'kl' takes no option 'betta'"),
            ({**HASPI_SPEC, "solver": "mehaml", "drift": {"name": "trivial", "beta": 1.0}},
             "'drift': 'trivial' takes no option 'beta'"),
            ({**HASPI_SPEC, "solver": "mehaml",
              "neighborhood": {"name": "kl_ball", "raduis": 0.2}},
             "'neighborhood': 'kl_ball' takes no option 'raduis'"),
            ({**HASPI_SPEC, "solver": "mehaml", "neighborhood": {"name": "full", "radius": 0.2}},
             "'neighborhood': 'full' takes no option 'radius'"),
            ({**HASPI_SPEC, "record_trace": "no"}, "'record_trace' must be true or false"),
            ({**HASPI_SPEC, "record_trace": 0}, "'record_trace' must be true or false"),
            ({**HASPI_SPEC, "name": 5}, "'name' must be a string, got 5"),
            ({**HASPI_SPEC, "out": 5}, "'out' must be a string or null, got 5"),
            ({**HASPI_SPEC, "out": ["dir"]}, "'out' must be a string or null"),
        ],
    )
    def test_malformed_spec_fields_named(self, tmp_path, capsys, spec, message):
        spec = {k: v for k, v in spec.items() if v is not None}
        path = write_json(tmp_path / "run.json", spec)
        assert main(["solve", path, "--out", str(tmp_path), "--quiet"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not list(tmp_path.glob("*_summary.json"))

    def test_null_out_is_the_default(self):
        assert parse_experiment({**HASPI_SPEC, "out": None}).out is None

    @pytest.mark.parametrize("solver", ["haspi", "masac", "mehaml", "qre-oracle"])
    def test_iterations_do_not_depend_on_the_trace(self, tmp_path, solver):
        counts = {}
        for record_trace in (True, False):
            name = f"run_{record_trace}"
            spec = {**HASPI_SPEC, "solver": solver, "record_trace": record_trace, "name": name}
            path = write_json(tmp_path / f"{name}.json", spec)
            code = main(["solve", path, "--out", str(tmp_path), "--quiet"])
            summary = json.loads((tmp_path / f"{name}_summary.json").read_text())
            counts[record_trace] = (code, summary["status"], summary["iterations"])
        assert counts[True] == counts[False]
        assert counts[True][2] > 1

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_qre_cycle_exit_code(self, tmp_path, damping):
        # each agent answers the other's favoured action, so the rows swap
        spec = {
            "solver": "qre-oracle",
            "game": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "alpha": 0.1,
            "damping": damping,
            "initial_policy": [[0.9, 0.1], [0.1, 0.9]],
        }
        path = write_json(tmp_path / "cyc.json", spec)
        assert main(["qre", path, "--out", str(tmp_path), "--quiet"]) == EXIT_NOT_CONVERGED
        summary = json.loads((tmp_path / "cyc_summary.json").read_text())
        assert summary["status"] == "cycle"
        assert summary["iterations"] < 100  # the default cap is 10,000
        sweep = write_json(tmp_path / "sw.json", {**spec, "alpha": None, "alphas": [0.1, 1.0]})
        assert main(["sweep-alpha", sweep, "--out", str(tmp_path), "--quiet"]) == EXIT_NOT_CONVERGED
        statuses = json.loads((tmp_path / "sw_sweep_summary.json").read_text())["statuses"]
        assert statuses == {"0.1": "cycle", "1": "converged"}

    def test_module_entry_point(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-m", "maxent_marl", "--help"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert "sweep-alpha" in result.stdout

    def test_validate_ok_and_violations(self, tmp_path, capsys):
        good = write_json(tmp_path / "good.game", MATRIX_GAME_JSON)
        assert main(["validate", good]) == EXIT_OK
        bad = write_json(
            tmp_path / "bad.game",
            {
                "n_agents": 2,
                "states": 1,
                "action_counts": [2, 2],
                "gamma": 1.0,
                "reward": [[[0.0, 0.0], [0.0, 0.0]]],
            },
        )
        assert main(["validate", bad]) == EXIT_INVALID
        assert "gamma" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        spec_path = write_json(tmp_path / "run.json", HASPI_SPEC)
        assert main(
            ["solve", spec_path, "--seed", "9", "--out", str(tmp_path), "--quiet"]
        ) == EXIT_OK
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["seed"] == 9

    def test_qre_guard(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "run.json", HASPI_SPEC)
        assert main(["qre", spec_path, "--quiet"]) == EXIT_INVALID

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MAXENT_MARL_OUT", str(tmp_path / "envout"))
        spec_path = write_json(tmp_path / "run.json", HASPI_SPEC)
        assert main(["solve", spec_path, "--quiet"]) == EXIT_OK
        assert (tmp_path / "envout" / "run_trace.csv").exists()


# replication_table.csv of replicate-appendix-b, byte for byte once each
# line ends in CRLF: README promises these bytes from one version to the
# next ("Outputs across versions").
REPLICATION_TABLE_CSV = (
    "alpha,p1_first,p2_first,p3_first,p1_conv,p2_conv,p3_conv\n"
    "1,0.9989657789508989,0.00012328217106962768,0.0009109388780314432,"
    "0.999999999972224,1.3887943880008331e-11,1.3887943881937077e-11\n"
    "2,0.9603321551125756,0.010668326586708377,0.02899951830071589,"
    "0.9999925455684769,3.7271810289505953e-06,3.7272504941682234e-06\n"
    "5,0.7082675386204164,0.11707583669739441,0.1746566246821892,"
    "0.9849096256652289,0.007485084170769631,0.0076052901640014355\n"
    "10,0.5254432871531017,0.21362929847081846,0.26092741437607986,"
    "0.022094520669036857,0.022357596035771983,0.9555478832951912\n"
    "15,0.45957979156866885,0.2522227373265528,0.28819747110477834,"
    "0.127817312668257,0.13542595905202592,0.7367567282797172\n"
    "20,0.4269278342311749,0.27222120581671094,0.30085095995211425,"
    "0.2513606136422248,0.27898851746620046,0.46965086889157465\n"
)


class TestReplication:
    def test_table_bytes_are_pinned(self, tmp_path):
        replicate_appendix_b(out_dir=tmp_path)
        written = (tmp_path / "replication_table.csv").read_bytes()
        assert written == REPLICATION_TABLE_CSV.replace("\n", "\r\n").encode()

    def test_full_table_within_tolerance(self, tmp_path):
        rows, mismatches = replicate_appendix_b(out_dir=tmp_path)
        assert mismatches == []
        assert len(rows) == 6
        table = (tmp_path / "replication_table.csv").read_text().splitlines()
        assert len(table) == 7

    def test_cli_entry(self, capsys):
        assert main(["replicate-appendix-b", "--quiet"]) == EXIT_OK
