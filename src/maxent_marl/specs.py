"""Declarative game and experiment files, plus result persistence.

Games and experiments are JSON. A game file is either the dense form

    {"n_agents": 2, "states": 2, "action_counts": [2, 2], "gamma": 0.9,
     "initial_dist": [0.5, 0.5], "reward": [[[..], [..]], ...],
     "transition": [[[[..], [..]], ...], ...]}

or the single-state shorthand ``{"matrix": [[...], [...]]}`` which
expands to the two-agent gamma = 0 construction. Unknown keys are
rejected so that typos fail loudly. Numeric content round-trips exactly:
floats are serialized with ``repr`` (shortest exact representation).

Traces are written as RFC-4180 CSV with a fixed, documented column
order; summaries as JSON. All files are written atomically (temp file in
the target directory, then rename). Wall-clock time appears only in the
summary and is excluded from the determinism contract.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .common import SolveTrace
from .game_core import (
    CooperativeMarkovGame,
    JointPolicy,
    joint_policy_from_rows,
    new_matrix_game,
    uniform_joint_policy,
    validate_game,
)
from .mehaml import DRIFTS, NEIGHBORHOODS

__all__ = [
    "GameValidationError",
    "parse_game",
    "load_game",
    "save_game",
    "ExperimentSpec",
    "parse_experiment",
    "load_experiment",
    "initial_policy_for",
    "ResultRecord",
    "write_trace_csv",
    "write_summary_json",
    "atomic_write_text",
    "bundled_game_path",
]

SOLVERS = ("haspi", "masac", "mehaml", "mappo", "happo", "qre-oracle")

_GAME_KEYS = {
    "matrix",
    "n_agents",
    "states",
    "action_counts",
    "gamma",
    "initial_dist",
    "reward",
    "transition",
}

_COMMON_KEYS = {"name", "game", "solver", "seed", "initial_policy", "out", "record_trace"}
_SOLVER_KEYS: dict[str, set[str]] = {
    "haspi": {"alpha", "alphas", "tol_policy", "tol_eval", "eval", "max_iters", "permutation"},
    "masac": {"alpha", "alphas", "tol_policy", "tol_eval", "eval", "max_iters"},
    "mehaml": {
        "alpha",
        "alphas",
        "tol_policy",
        "tol_eval",
        "eval",
        "max_iters",
        "permutation",
        "drift",
        "neighborhood",
        "mode",
    },
    "qre-oracle": {"alpha", "alphas", "damping", "tol_policy", "max_iters"},
    "mappo": {"update_mode", "step_size", "iterations"},
    "happo": {"update_mode", "step_size", "iterations", "permutation"},
}


class GameValidationError(ValueError):
    """A parsed game violates its invariants; carries every violation."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid game: " + "; ".join(violations))
        self.violations = violations


def parse_game(data: dict[str, Any]) -> CooperativeMarkovGame:
    """Build a game from a JSON-shaped dict without validating invariants."""
    if not isinstance(data, dict):
        raise ValueError(f"game description must be an object, got {type(data).__name__}")
    unknown = set(data) - _GAME_KEYS
    if unknown:
        raise ValueError(f"unknown game field(s): {sorted(unknown)}")
    if "matrix" in data:
        extra = set(data) - {"matrix"}
        if extra:
            raise ValueError(
                f"the 'matrix' shorthand takes no other fields, got {sorted(extra)}"
            )
        return new_matrix_game(np.asarray(data["matrix"], dtype=np.float64))

    for key in ("n_agents", "action_counts", "gamma", "reward"):
        if key not in data:
            raise ValueError(f"game field {key!r} is required")
    states = data.get("states", 1)
    n_states = len(states) if isinstance(states, list) else _integer("states", states)
    n_agents = _integer("n_agents", data["n_agents"])
    counts = tuple(_integer("action_counts", c) for c in data["action_counts"])
    n_joint = int(np.prod(counts))

    reward = np.asarray(data["reward"], dtype=np.float64)
    if reward.shape != (n_states, *counts):
        raise ValueError(
            f"reward field has shape {reward.shape}, expected {(n_states, *counts)}"
        )
    if "transition" in data:
        transition = np.asarray(data["transition"], dtype=np.float64)
        if transition.shape != (n_states, *counts, n_states):
            raise ValueError(
                f"transition field has shape {transition.shape}, "
                f"expected {(n_states, *counts, n_states)}"
            )
        transition = transition.reshape(n_states, n_joint, n_states)
    elif n_states == 1:
        transition = np.ones((1, n_joint, 1))
    else:
        raise ValueError("transition field is required for multi-state games")
    if "initial_dist" in data:
        initial = np.asarray(data["initial_dist"], dtype=np.float64)
    else:
        initial = np.full(n_states, 1.0 / n_states)
    return CooperativeMarkovGame(
        n_agents=n_agents,
        n_states=n_states,
        action_counts=counts,
        reward=reward.reshape(n_states, n_joint),
        transition=transition,
        gamma=float(data["gamma"]),
        initial_dist=initial,
    )


def _integer(key: str, value: Any, kind: str = "game") -> int:
    """An integer field; NaN and the infinities are named and rejected."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{kind} field {key!r} must be an integer, got {value!r}") from exc


def load_game(path: str | Path) -> CooperativeMarkovGame:
    """Parse and validate a game file; raises with every violation listed.

    The JSON literals NaN, Infinity and -Infinity parse to floats and are
    rejected by name: in a tensor by :func:`validate_game`, in gamma by the
    game itself, in a count by the parser.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    try:
        game = parse_game(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    violations = validate_game(game)
    if violations:
        raise GameValidationError(violations)
    return game


def save_game(game: CooperativeMarkovGame, path: str | Path) -> None:
    """Serialize a game to JSON; load_game restores all tensors bit-exactly."""
    data = {
        "n_agents": game.n_agents,
        "states": game.n_states,
        "action_counts": list(game.action_counts),
        "gamma": game.gamma,
        "initial_dist": game.initial_dist.tolist(),
        "reward": game.reward.reshape(game.n_states, *game.action_counts).tolist(),
        "transition": game.transition.reshape(
            game.n_states, *game.action_counts, game.n_states
        ).tolist(),
    }
    atomic_write_text(path, json.dumps(data) + "\n")


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed experiment description."""

    solver: str
    game: dict[str, Any] | str
    name: str = "experiment"
    alpha: Optional[float] = None
    alphas: Optional[tuple[float, ...]] = None
    seed: int = 0
    initial_policy: Any = "uniform"
    tol_policy: Optional[float] = None
    tol_eval: Optional[float] = None
    eval_method: Optional[str] = None
    max_iters: Optional[int] = None
    permutation: Any = None
    drift: Optional[dict[str, Any]] = None
    neighborhood: Optional[dict[str, Any]] = None
    mode: Optional[str] = None
    damping: Optional[float] = None
    update_mode: Optional[str] = None
    step_size: Optional[float] = None
    iterations: Optional[int] = None
    out: Optional[str] = None
    record_trace: bool = True
    base_dir: Optional[str] = None


def parse_experiment(data: dict[str, Any], base_dir: str | Path | None = None) -> ExperimentSpec:
    """Validate an experiment dict: solver-specific keys only, no unknowns.

    Numeric fields must be finite: NaN and the infinities (the JSON
    literals NaN, Infinity and -Infinity) are rejected by field name, as
    is an integer field that does not convert to an integer. So is a
    ``permutation``, ``drift`` or ``neighborhood`` of the wrong type, or
    a drift or neighborhood option that its constructor does not take.
    ``record_trace`` must be a JSON boolean, ``name`` a string and ``out``
    a string or null.
    """
    if not isinstance(data, dict):
        raise ValueError("experiment description must be an object")
    solver = data.get("solver")
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if "game" not in data:
        raise ValueError("experiment field 'game' is required")
    allowed = _COMMON_KEYS | _SOLVER_KEYS[solver]
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(
            f"field(s) {sorted(unknown)} are not defined for solver {solver!r}"
        )
    needs_alpha = solver in ("haspi", "masac", "mehaml", "qre-oracle")
    alpha = data.get("alpha")
    alphas = data.get("alphas")
    if needs_alpha and alpha is None and alphas is None:
        raise ValueError(f"solver {solver!r} requires 'alpha' (or 'alphas')")
    if alpha is not None:
        alpha = _finite("alpha", alpha)
        if alpha <= 0:
            raise ValueError("alpha must be strictly positive")
    if alphas is not None:
        if not isinstance(alphas, (list, tuple)):
            raise ValueError(f"experiment field 'alphas' must be a list, got {alphas!r}")
        alphas = tuple(_finite(f"alphas[{k}]", a) for k, a in enumerate(alphas))
        if not alphas:
            raise ValueError("'alphas' must be a non-empty list")
        if any(a <= 0 for a in alphas):
            raise ValueError("every alpha in 'alphas' must be strictly positive")
    return ExperimentSpec(
        solver=solver,
        game=data["game"],
        name=_typed("name", data.get("name", "experiment"), str, "a string"),
        alpha=alpha,
        alphas=alphas,
        seed=_integer("seed", data.get("seed", 0), "experiment"),
        initial_policy=data.get("initial_policy", "uniform"),
        tol_policy=_opt_float(data, "tol_policy"),
        tol_eval=_opt_float(data, "tol_eval"),
        eval_method=data.get("eval"),
        max_iters=_opt_integer(data, "max_iters"),
        permutation=_permutation(data.get("permutation"), solver),
        drift=_named_option("drift", data.get("drift"), DRIFTS),
        neighborhood=_named_option("neighborhood", data.get("neighborhood"), NEIGHBORHOODS),
        mode=data.get("mode"),
        damping=_opt_float(data, "damping"),
        update_mode=data.get("update_mode"),
        step_size=_opt_float(data, "step_size"),
        iterations=_opt_integer(data, "iterations"),
        out=_typed("out", data.get("out"), (str, type(None)), "a string or null"),
        record_trace=_typed("record_trace", data.get("record_trace", True), bool, "true or false"),
        base_dir=None if base_dir is None else str(base_dir),
    )


def _typed(key: str, value: Any, kind: type | tuple[type, ...], expected: str) -> Any:
    """A field that must already have its JSON type; nothing is converted."""
    if not isinstance(value, kind):
        raise ValueError(f"experiment field {key!r} must be {expected}, got {value!r}")
    return value


def _finite(key: str, value: Any) -> float:
    """A real experiment field; NaN and the infinities are named and rejected."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"experiment field {key!r} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ValueError(f"experiment field {key!r} must be finite, got {value!r}")
    return number


def _opt_float(data: dict[str, Any], key: str) -> Optional[float]:
    return None if key not in data else _finite(key, data[key])


def _opt_integer(data: dict[str, Any], key: str) -> Optional[int]:
    return None if key not in data else _integer(key, data[key], "experiment")


def _permutation(value: Any, solver: str) -> Any:
    """A fixed order as a tuple of agent indices; the soft solvers also
    take "random" and "cyclic"."""
    if value is None or (value in ("random", "cyclic") and solver != "happo"):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(
            _integer(f"permutation[{k}]", i, "experiment") for k, i in enumerate(value)
        )
    expected = "a list of agent indices"
    if solver != "happo":
        expected = "'random', 'cyclic' or " + expected
    raise ValueError(f"experiment field 'permutation' must be {expected}, got {value!r}")


def _named_option(
    key: str, value: Any, registry: dict[str, Callable[..., Any]]
) -> Optional[dict[str, Any]]:
    """A drift or neighborhood: an object whose ``name`` is in the registry
    and whose other keys are numeric options of that constructor."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ValueError(f"experiment field {key!r} must be an object, got {value!r}")
    name = value.get("name")
    if not isinstance(name, str) or name not in registry:
        raise ValueError(
            f"experiment field {key!r} has name {name!r}, expected one of {sorted(registry)}"
        )
    own = inspect.signature(registry[name]).parameters
    for option, number in value.items():
        if option == "name":
            continue
        if option not in own:
            raise ValueError(
                f"experiment field {key!r}: {name!r} takes no option {option!r} "
                f"(options: {sorted(own) or 'none'})"
            )
        if isinstance(number, bool) or not isinstance(number, (int, float)):
            raise ValueError(
                f"experiment field {key!r}: option {option!r} must be a number, got {number!r}"
            )
    return value


def load_experiment(path: str | Path) -> ExperimentSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    try:
        spec = parse_experiment(data, base_dir=path.parent)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if spec.name == "experiment":
        spec = _with_name(spec, path.stem)
    return spec


def _with_name(spec: ExperimentSpec, name: str) -> ExperimentSpec:
    from dataclasses import replace

    return replace(spec, name=name)


def resolve_game(spec: ExperimentSpec) -> CooperativeMarkovGame:
    """Load the spec's game, inline or by path relative to the spec file."""
    if isinstance(spec.game, str):
        path = Path(spec.game)
        if not path.is_absolute() and spec.base_dir:
            path = Path(spec.base_dir) / path
        return load_game(path)
    game = parse_game(spec.game)
    violations = validate_game(game)
    if violations:
        raise GameValidationError(violations)
    return game


def initial_policy_for(game: CooperativeMarkovGame, description: Any) -> JointPolicy:
    """Build the starting joint policy from its spec form.

    Accepts "uniform", one probability vector per agent (broadcast over
    states), or one row per agent per state.
    """
    if description == "uniform" or description is None:
        return uniform_joint_policy(game)
    if not isinstance(description, (list, tuple)) or len(description) != game.n_agents:
        raise ValueError(
            f"initial_policy must be 'uniform' or a list with one entry per agent"
        )
    rows = []
    for i, entry in enumerate(description):
        arr = np.asarray(entry, dtype=np.float64)
        if arr.ndim == 1:
            arr = np.tile(arr, (game.n_states, 1))
        if arr.shape != (game.n_states, game.action_counts[i]):
            raise ValueError(
                f"initial_policy for agent {i} has shape {arr.shape}, "
                f"expected ({game.n_states}, {game.action_counts[i]})"
            )
        rows.append(arr)
    return joint_policy_from_rows(rows)


@dataclass
class ResultRecord:
    """Everything one experiment run produced."""

    name: str
    solver: str
    alpha: Optional[float]
    seed: int
    status: str
    iterations: int
    final_return: float
    final_qre_residual: float
    final_policy: tuple[np.ndarray, ...]
    trace: SolveTrace
    wall_clock_seconds: float = 0.0
    trace_path: Optional[str] = None
    summary_path: Optional[str] = None
    error: Optional[str] = None


def _fmt(x: float) -> str:
    if isinstance(x, float) and np.isnan(x):
        return ""
    return repr(float(x))


def trace_csv_header(game: CooperativeMarkovGame) -> str:
    """Header line of a trace CSV. Column order (documented contract):

    iteration, J, qre_residual, policy_change, permutation, then one
    pi{agent}_s{state}_a{action} column per policy entry of the game.
    """
    header = ["iteration", "J", "qre_residual", "policy_change", "permutation"]
    for i, n_actions in enumerate(game.action_counts):
        header += [f"pi{i}_s{s}_a{a}" for s in range(game.n_states) for a in range(n_actions)]
    return ",".join(header)


def trace_csv_lines(trace: SolveTrace, game: CooperativeMarkovGame) -> list[str]:
    """CSV body for a trace: :func:`trace_csv_header`, then one row per record.

    The permutation is pipe-joined agent indices, empty when untracked.
    A NaN scalar is an empty cell; policy cells are finite.
    """
    lines = [trace_csv_header(game)]
    for rec in trace.iterations:
        row = [
            str(rec.iteration),
            _fmt(rec.maxent_return),
            _fmt(rec.qre_residual),
            _fmt(rec.policy_change),
            "" if rec.permutation is None else "|".join(map(str, rec.permutation)),
        ]
        for table in rec.policies:
            row.extend(map(repr, table.ravel().tolist()))
        lines.append(",".join(row))
    return lines


def write_trace_csv(path: str | Path, trace: SolveTrace, game: CooperativeMarkovGame) -> list[str]:
    """Write the trace CSV atomically; returns its lines."""
    lines = trace_csv_lines(trace, game)
    atomic_write_text(path, "\r\n".join(lines) + "\r\n")
    return lines


def write_summary_json(path: str | Path, record: ResultRecord) -> None:
    payload = {
        "name": record.name,
        "solver": record.solver,
        "alpha": record.alpha,
        "seed": record.seed,
        "status": record.status,
        "iterations": record.iterations,
        "final_return": record.final_return,
        "final_qre_residual": (
            None if np.isnan(record.final_qre_residual) else record.final_qre_residual
        ),
        "final_policy": [table.tolist() for table in record.final_policy],
        "wall_clock_seconds": record.wall_clock_seconds,
        "error": record.error,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def bundled_game_path(name: str = "appendix_b") -> Path:
    """Path of a game file shipped with the package."""
    return Path(__file__).parent / "data" / f"{name}.game"
