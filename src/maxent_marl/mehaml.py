"""Generalized sequential updates with drift penalties and neighborhoods.

The per-agent objective maximized here is the mirror value

    M(candidate | s) = E_{prefix ~ updated, a ~ candidate}[
        Q^{prefix, i}(s, ., a) - alpha * log candidate(a | s)
    ] - D(candidate | s, prefix),

where D is a drift functional: non-negative, zero at the incumbent
policy, with vanishing directional derivatives there. With the trivial
drift and an unconstrained neighborhood the per-state argmax is exactly
the Boltzmann row of :func:`maxent_marl.haspi.boltzmann_local_update`,
so the generalized solver reduces iterate-for-iterate to the sequential
one. A KL drift with coefficient beta also admits a closed form,

    p(a) proportional to q(a)^(beta/(alpha+beta)) * exp(c(a)/(alpha+beta)),

with q the incumbent row and c the prefix-averaged conditional
coefficients; other drifts fall back to a backtracking line search along
the mixture path toward the Boltzmann target, which keeps the iterate
feasible and never decreases the per-state mirror value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Optional, Sequence

import numpy as np

from .common import SolveTrace, boltzmann_rows
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    _kl_rows,
    _log_and_entropy,
)
from .haspi import (
    HaspiOptions,
    RowRule,
    _policy_iteration_loop,
    expected_conditional_q,
)
from .soft_dp import SoftQTable

__all__ = [
    "DriftFunctional",
    "TrivialDrift",
    "KlDrift",
    "kl_drift",
    "trivial_drift",
    "NeighborhoodOperator",
    "FullNeighborhood",
    "KlBall",
    "kl_ball",
    "full_neighborhood",
    "StateWeighting",
    "uniform_state_weighting",
    "mehamo_eval",
    "mehaml_local_update",
    "mehaml_solve",
    "hadf_property_check",
    "HadfCheckReport",
    "DRIFTS",
    "NEIGHBORHOODS",
]

_BACKTRACK_FLOOR = 1e-12


class DriftFunctional:
    """Penalty on a candidate row given the current joint policy.

    Subclasses implement ``__call__``; a valid drift is non-negative,
    exactly zero when the candidate equals the incumbent row, and flat to
    first order there. The updated-prefix argument lets a drift condition
    on teammates that moved earlier in the sweep; the instances shipped
    here do not use it. The line search reads drifts through :meth:`rows`.
    """

    name = "base"

    def __call__(
        self,
        game: CooperativeMarkovGame,
        joint_policy: JointPolicy,
        agent: int,
        candidate_row: np.ndarray,
        state: int,
        updated_prefix: Sequence[AgentPolicy] = (),
    ) -> float:
        raise NotImplementedError

    def rows(self, game, joint_policy, agent, candidate_rows, states, updated_prefix=()):
        """The drift of ``candidate_rows[k]`` at state ``states[k]``, for every k.

        Returns shape (len(states),). This default calls ``__call__`` once
        per row, so a drift that implements only ``__call__`` works with
        the line search. The drifts shipped here compute all rows at once,
        and their ``__call__`` is the one-row case.
        """
        calls = zip(candidate_rows, states)
        values = [self(game, joint_policy, agent, row, int(s), updated_prefix) for row, s in calls]
        return np.array(values, dtype=np.float64)


class TrivialDrift(DriftFunctional):
    """Identically zero; recovers the plain sequential Boltzmann update."""

    name = "trivial"

    def __call__(self, game, joint_policy, agent, candidate_row, state, updated_prefix=()):
        return float(self.rows(game, joint_policy, agent, [candidate_row], [state])[0])

    def rows(self, game, joint_policy, agent, candidate_rows, states, updated_prefix=()):
        """Zero for every row."""
        return np.zeros(len(states))


@dataclass(frozen=True)
class KlDrift(DriftFunctional):
    """beta * KL(candidate || incumbent row); a soft trust region."""

    beta: float
    name = "kl"

    def __post_init__(self) -> None:
        # Written so that NaN fails the test too.
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"KL drift coefficient must be finite and >= 0, got {self.beta}")

    def __call__(self, game, joint_policy, agent, candidate_row, state, updated_prefix=()):
        return float(self.rows(game, joint_policy, agent, [candidate_row], [state])[0])

    def rows(self, game, joint_policy, agent, candidate_rows, states, updated_prefix=()):
        """beta * KL against the incumbent's row at each state, from its cached log."""
        p = np.asarray(candidate_rows, dtype=np.float64)
        return self.beta * _kl_rows(p, joint_policy.agents[agent]._log_table[states])


def kl_drift(beta_coef: float) -> KlDrift:
    return KlDrift(beta_coef)


def trivial_drift() -> TrivialDrift:
    return TrivialDrift()


class NeighborhoodOperator:
    """Feasible region around an incumbent row; must contain it.

    Subclasses implement ``contains``; the line search reads
    neighborhoods through :meth:`contains_rows`.
    """

    name = "base"

    def contains(self, current_row: np.ndarray, candidate_row: np.ndarray) -> bool:
        raise NotImplementedError

    def contains_rows(self, current_rows: np.ndarray, candidate_rows: np.ndarray) -> np.ndarray:
        """Whether ``candidate_rows[k]`` is feasible around ``current_rows[k]``, for every k.

        Returns a boolean array of shape (len(candidate_rows),). This
        default calls ``contains`` once per pair. The neighborhoods shipped
        here test all rows at once, and their ``contains`` is the one-row case.
        """
        pairs = zip(current_rows, candidate_rows)
        return np.array([bool(self.contains(c, x)) for c, x in pairs], dtype=bool)


class FullNeighborhood(NeighborhoodOperator):
    """No constraint: the whole simplex is feasible."""

    name = "full"

    def contains(self, current_row, candidate_row):
        return bool(self.contains_rows([current_row], [candidate_row])[0])

    def contains_rows(self, current_rows, candidate_rows):
        """True for every row."""
        return np.ones(len(candidate_rows), dtype=bool)


@dataclass(frozen=True)
class KlBall(NeighborhoodOperator):
    """Rows with KL(candidate || current) at most ``radius``."""

    radius: float
    name = "kl_ball"

    def __post_init__(self) -> None:
        if not 0 < self.radius < math.inf:
            raise ValueError(f"KL ball radius must be finite and positive, got {self.radius}")

    def contains(self, current_row, candidate_row):
        return bool(self.contains_rows([current_row], [candidate_row])[0])

    def contains_rows(self, current_rows, candidate_rows):
        """A finite KL(candidate || current) of at most the radius, per row."""
        log_q = _log_and_entropy(np.asarray(current_rows, dtype=np.float64))[0]
        value = _kl_rows(np.asarray(candidate_rows, dtype=np.float64), log_q)
        return np.isfinite(value) & (value <= self.radius + 1e-12)


def kl_ball(radius: float) -> KlBall:
    return KlBall(radius)


def full_neighborhood() -> FullNeighborhood:
    return FullNeighborhood()


# Spec names to constructors; each takes exactly its own options as keywords.
DRIFTS: dict[str, Callable[..., DriftFunctional]] = {
    "trivial": trivial_drift,
    "kl": lambda beta=1.0: KlDrift(beta),
}

NEIGHBORHOODS: dict[str, Callable[..., NeighborhoodOperator]] = {
    "full": full_neighborhood,
    "kl_ball": lambda radius=0.1: KlBall(radius),
}


@dataclass(frozen=True, eq=False)
class StateWeighting:
    """Probability weights over states used by the expected mirror objective.

    The per-state argmax is state-separable, so any strictly positive
    weighting yields the same update; constant weightings are trivially
    continuous in the policy.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if weights.ndim != 1:
            raise ValueError("state weighting must be a vector")
        if abs(weights.sum() - 1.0) > 1e-12 or (weights < 0).any():
            raise ValueError("state weighting must be a probability vector")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


def uniform_state_weighting(n_states: int) -> StateWeighting:
    return StateWeighting(np.full(n_states, 1.0 / n_states))


def mehamo_eval(
    game: CooperativeMarkovGame,
    joint_policy: JointPolicy,
    q: SoftQTable,
    drift: DriftFunctional,
    candidate_row: np.ndarray,
    updated_prefix: Sequence[AgentPolicy],
    agent: int,
    alpha: float,
    s: int,
) -> float:
    """The mirror value of one candidate row at one state, by enumeration."""
    coef = expected_conditional_q(game, q, joint_policy, updated_prefix, agent, alpha)
    cand = np.asarray(candidate_row, dtype=np.float64)
    drift_value = drift(game, joint_policy, agent, cand, s, updated_prefix)
    return float(_mirror_values(coef[s], cand, alpha, drift_value))


def _mirror_values(coef, rows, alpha, drift_values):
    """coef . row + alpha * H(row) - drift, for one row or a stack of rows.

    The linear term is a batched matmul, which gives each row the bits of
    ``coef[s] @ row`` (an elementwise product summed over the last axis
    does not).
    """
    linear = (coef[..., None, :] @ rows[..., :, None])[..., 0, 0]
    return linear + alpha * _log_and_entropy(rows)[1] - drift_values


def _kl_regularized_rows(
    coef: np.ndarray, incumbent: AgentPolicy, alpha: float, beta: float
) -> np.ndarray:
    """Closed-form argmax of the mirror value under a KL drift.

    Zero-probability incumbent entries stay at zero: the KL term forces
    absolute continuity of the candidate with respect to the incumbent,
    whose cached log is -inf there.
    """
    if beta == 0.0:
        return boltzmann_rows(coef, alpha)
    z = (beta * incumbent._log_table + coef) / (alpha + beta)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _mirror_rule(
    game: CooperativeMarkovGame,
    drift: DriftFunctional,
    neighborhood: NeighborhoodOperator,
    mode: str,
) -> RowRule:
    """The row rule of the mirror update; rejects a mode it cannot run."""
    if mode not in ("closed_form", "line_search"):
        raise ValueError(f"unknown update mode {mode!r}")
    if mode == "closed_form" and not isinstance(drift, (TrivialDrift, KlDrift)):
        raise ValueError(f"no closed form for drift {drift.name!r}; use mode='line_search'")
    needs_backtrack = mode == "line_search" or not isinstance(neighborhood, FullNeighborhood)

    def rule(joint_policy_old, updated_prefix, agent, coef, alpha):
        incumbent_policy = joint_policy_old.agents[agent]
        incumbent = incumbent_policy.table
        if isinstance(drift, KlDrift):
            target = _kl_regularized_rows(coef, incumbent_policy, alpha, drift.beta)
        else:
            target = boltzmann_rows(coef, alpha)
        if not np.isfinite(target).all():  # unreachable with finite Q
            raise RuntimeError("mirror update produced a non-finite row")
        if not needs_backtrack:
            return AgentPolicy._unchecked(agent, target)

        def mirror_values(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
            drift_values = drift.rows(game, joint_policy_old, agent, rows, states, updated_prefix)
            return _mirror_values(coef[states], rows, alpha, drift_values)

        # Every state backtracks from t = 1 at once; a state leaves the
        # pending set at its first feasible step that does not lower its
        # mirror value, and keeps its incumbent row if none does.
        pending = np.arange(game.n_states)
        base = mirror_values(pending, incumbent)
        rows = incumbent.copy()
        t = 1.0
        while t > _BACKTRACK_FLOOR and pending.size:
            current = incumbent[pending]
            cand = (1.0 - t) * current + t * target[pending]
            feasible = np.flatnonzero(neighborhood.contains_rows(current, cand))
            states = pending[feasible]
            accepted = feasible[mirror_values(states, cand[feasible]) >= base[states]]
            rows[pending[accepted]] = cand[accepted]
            pending = np.delete(pending, accepted)
            t *= 0.5
        # Each row lies on the segment between two finite stochastic rows.
        return AgentPolicy._unchecked(agent, rows)

    return rule


def mehaml_local_update(
    game: CooperativeMarkovGame,
    q_old: SoftQTable,
    joint_policy_old: JointPolicy,
    updated_prefix: Sequence[AgentPolicy],
    agent: int,
    alpha: float,
    drift: DriftFunctional,
    neighborhood: NeighborhoodOperator,
    mode: str = "closed_form",
) -> AgentPolicy:
    """Per-state maximization of the mirror value over the neighborhood.

    ``closed_form`` requires a drift with a known argmax (trivial or KL);
    ``line_search`` backtracks along the mixture path from the incumbent
    toward the closed-form target, accepting the first feasible point
    that does not decrease the mirror value, so the returned row never
    scores below the incumbent's.
    """
    if alpha <= 0:
        raise ValueError(f"temperature must be positive, got {alpha}")
    rule = _mirror_rule(game, drift, neighborhood, mode)
    coef = expected_conditional_q(
        game, q_old, joint_policy_old, updated_prefix, agent, alpha
    )
    return rule(joint_policy_old, updated_prefix, agent, coef, alpha)


def mehaml_solve(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    alpha: float,
    drift: DriftFunctional,
    neighborhood: NeighborhoodOperator,
    state_weighting: Optional[StateWeighting] = None,
    options: Optional[HaspiOptions] = None,
    mode: str = "closed_form",
) -> tuple[JointPolicy, SolveTrace]:
    """Permuted sequential mirror updates until the policy stops moving.

    Shares the outer loop with :func:`maxent_marl.haspi.haspi_solve`, so
    a trivial drift with the full neighborhood reproduces its iterates
    exactly under the same permutation seed. The state weighting is
    validated but does not alter exact per-state updates (any strictly
    positive weighting shares the same argmax).
    """
    if options is None:
        options = HaspiOptions(alpha=alpha)
    elif options.alpha != alpha:
        options = dc_replace(options, alpha=alpha)
    if state_weighting is None:
        state_weighting = uniform_state_weighting(game.n_states)
    if state_weighting.weights.shape != (game.n_states,):
        raise ValueError("state weighting length does not match the game")
    rule = _mirror_rule(game, drift, neighborhood, mode)
    jp, _q, trace = _policy_iteration_loop(game, initial_joint_policy, options, rule)
    return jp, trace


@dataclass(frozen=True)
class HadfCheckReport:
    """Outcome of the drift-functional property probes."""

    nonnegativity_ok: bool
    worst_value: float
    zero_at_identity_ok: bool
    worst_identity_value: float
    zero_gradient_ok: bool
    worst_slope: float
    probes: int

    @property
    def ok(self) -> bool:
        return self.nonnegativity_ok and self.zero_at_identity_ok and self.zero_gradient_ok


def hadf_property_check(
    drift: DriftFunctional,
    game: CooperativeMarkovGame,
    sample_policies: Sequence[JointPolicy],
    epsilons: Sequence[float] = (1e-2, 1e-3, 1e-4),
    n_directions: int = 4,
    seed: int = 0,
) -> HadfCheckReport:
    """Probe a drift for non-negativity, zero at identity and flatness.

    Non-negativity and exact zero at the incumbent are checked on cross
    pairs of the sampled policies. Flatness is checked on directional
    probes row + eps * delta with simplex-tangent unit directions delta:
    the log-log slope of drift value against eps must be at least 1.5
    (a quadratic bowl scores 2, a kinked distance like total variation
    scores 1 and fails). Returns the worst observations, never raises.
    """
    rng = np.random.default_rng(seed)
    epsilons = sorted(float(e) for e in epsilons)
    worst_value = np.inf
    worst_identity = 0.0
    worst_slope = np.inf
    probes = 0

    for jp in sample_policies:
        for agent in range(game.n_agents):
            for s in range(game.n_states):
                own = jp.agents[agent].table[s]
                at_self = drift(game, jp, agent, own, s, ())
                worst_identity = max(worst_identity, abs(at_self))
                for other in sample_policies:
                    cand = other.agents[agent].table[s]
                    value = drift(game, jp, agent, cand, s, ())
                    if np.isfinite(value):
                        worst_value = min(worst_value, value)
                for _ in range(n_directions):
                    g = rng.standard_normal(own.shape[0])
                    delta = g - g.mean()
                    norm = np.linalg.norm(delta)
                    if norm < 1e-12:
                        continue
                    delta /= norm
                    usable = [
                        e for e in epsilons if (own + e * delta).min() >= 0.0
                    ]
                    if len(usable) < 2:
                        continue
                    values = np.array(
                        [drift(game, jp, agent, own + e * delta, s, ()) for e in usable]
                    )
                    probes += 1
                    if np.all(np.abs(values) < 1e-14):
                        continue  # identically flat probe passes vacuously
                    mask = values > 1e-300
                    if mask.sum() < 2:
                        continue
                    slope = np.polyfit(
                        np.log(np.asarray(usable)[mask]), np.log(values[mask]), 1
                    )[0]
                    worst_slope = min(worst_slope, float(slope))

    if not np.isfinite(worst_value):
        worst_value = 0.0
    return HadfCheckReport(
        nonnegativity_ok=worst_value >= -1e-12,
        worst_value=float(worst_value),
        zero_at_identity_ok=worst_identity <= 1e-12,
        worst_identity_value=float(worst_identity),
        zero_gradient_ok=(not np.isfinite(worst_slope)) or worst_slope >= 1.5,
        worst_slope=float(worst_slope) if np.isfinite(worst_slope) else float("inf"),
        probes=probes,
    )
