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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .common import SolveTrace, _boltzmann_rows, _check_argument, _check_index, _is_integer, _is_real
from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    _kl_rows,
    _log_and_entropy,
    _policy_arrays,
    joint_policy_from_rows,
)
from .haspi import (
    Arrays,
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

    A valid drift is non-negative, exactly zero when the candidate equals
    the incumbent row, and flat to first order there. The updated-prefix
    argument lets a drift condition on teammates that moved earlier in the
    sweep; the instances shipped here do not use it.

    A drift has two forms, and a subclass defines either; the base class
    derives the other. ``__call__`` is the per-state definition, on policy
    objects. :meth:`rows`, which the line search reads, takes the solver's
    arrays: ``old`` is the old iterate's :data:`maxent_marl.haspi.Arrays`
    (per agent, in id order, its table, log table and entropy rows), ``new``
    the sweep's arrays so far, and ``prefix`` is ``(updated agents...,
    agent)``. The drifts shipped here define :meth:`rows` alone.
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
        """The drift of one candidate row at one state: the one-row case of :meth:`rows`."""
        if type(self).rows is DriftFunctional.rows:
            raise NotImplementedError(f"{type(self).__name__} defines neither __call__ nor rows")
        arrays = _sweep_arrays(joint_policy, updated_prefix, agent)
        return float(self.rows(game, *arrays, [candidate_row], [state])[0])

    def rows(self, game, old, new, prefix, candidate_rows, states):
        """The drift of agent ``prefix[-1]``'s ``candidate_rows[k]`` at state
        ``states[k]``, for every k.

        Returns shape (len(states),). This default calls ``__call__`` once
        per row, through :meth:`rows_for`.
        """
        return self.rows_for(game, old, new, prefix)(candidate_rows, states)

    def rows_for(self, game, old, new, prefix):
        """:meth:`rows` at these arguments, as a function of
        ``(candidate_rows, states)``, for a caller that asks for many rows
        of one agent update, as the line search's steps do. For a drift
        that defines ``__call__`` alone, the old joint policy and the
        prefix's new policies are built here, once for every call of the
        function.
        """
        if type(self).rows is not DriftFunctional.rows:
            return functools.partial(self.rows, game, old, new, prefix)
        joint_policy, agent = joint_policy_from_rows(old[0]), prefix[-1]
        updated_prefix = [AgentPolicy(i, new[0][i]) for i in prefix[:-1]]

        def rows(candidate_rows, states):
            calls = zip(candidate_rows, states)
            values = [self(game, joint_policy, agent, row, int(s), updated_prefix) for row, s in calls]
            return np.array(values, dtype=np.float64)

        return rows


def _sweep_arrays(
    joint_policy: JointPolicy, updated_prefix: Sequence[AgentPolicy], agent: int
) -> tuple[Arrays, Arrays, tuple[int, ...]]:
    """The ``(old, new, prefix)`` arguments of a row rule, and of a drift's
    ``rows``, for a joint policy, the updated prefix's policies and the agent."""
    mixed = functools.reduce(JointPolicy.replace, updated_prefix, joint_policy)
    prefix = tuple(p.agent_id for p in updated_prefix) + (agent,)
    return _policy_arrays(joint_policy), _policy_arrays(mixed), prefix


class TrivialDrift(DriftFunctional):
    """Identically zero; recovers the plain sequential Boltzmann update."""

    name = "trivial"

    def rows(self, game, old, new, prefix, candidate_rows, states):
        """Zero for every row."""
        return np.zeros(len(states))


@dataclass(frozen=True)
class KlDrift(DriftFunctional):
    """beta * KL(candidate || incumbent row); a soft trust region."""

    beta: float
    name = "kl"

    def __post_init__(self) -> None:
        # Written so that NaN fails the test too.
        if not (_is_real(self.beta) and 0 <= self.beta < math.inf):
            raise ValueError(f"KL drift coefficient must be finite and >= 0, got {self.beta}")

    def rows(self, game, old, new, prefix, candidate_rows, states):
        """beta * KL against the incumbent's row at each state, from its log table."""
        p = np.asarray(candidate_rows, dtype=np.float64)
        return self.beta * _kl_rows(p, old[1][prefix[-1]][states])


def kl_drift(beta_coef: float) -> KlDrift:
    return KlDrift(beta_coef)


def trivial_drift() -> TrivialDrift:
    return TrivialDrift()


class NeighborhoodOperator:
    """Feasible region around an incumbent row; must contain it.

    A subclass defines ``contains``, the one-row test, or
    :meth:`contains_rows`, which the line search reads; the base class
    derives the other. The neighborhoods shipped here define
    :meth:`contains_rows` alone.
    """

    name = "base"

    def contains(self, current_row: np.ndarray, candidate_row: np.ndarray) -> bool:
        """Whether one candidate row is feasible: the one-row case of :meth:`contains_rows`."""
        if type(self).contains_rows is NeighborhoodOperator.contains_rows:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither contains nor contains_rows"
            )
        return bool(self.contains_rows([current_row], [candidate_row])[0])

    def contains_rows(self, current_rows: np.ndarray, candidate_rows: np.ndarray) -> np.ndarray:
        """Whether ``candidate_rows[k]`` is feasible around ``current_rows[k]``, for every k.

        Returns a boolean array of shape (len(candidate_rows),). This
        default calls ``contains`` once per pair.
        """
        pairs = zip(current_rows, candidate_rows)
        return np.array([bool(self.contains(c, x)) for c, x in pairs], dtype=bool)


class FullNeighborhood(NeighborhoodOperator):
    """No constraint: the whole simplex is feasible."""

    name = "full"

    def contains_rows(self, current_rows, candidate_rows):
        """True for every row."""
        return np.ones(len(candidate_rows), dtype=bool)


@dataclass(frozen=True)
class KlBall(NeighborhoodOperator):
    """Rows with KL(candidate || current) at most ``radius``."""

    radius: float
    name = "kl_ball"

    def __post_init__(self) -> None:
        if not (_is_real(self.radius) and 0 < self.radius < math.inf):
            raise ValueError(f"KL ball radius must be finite and positive, got {self.radius}")

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
    """The mirror value of one candidate row at one state, by enumeration.

    A state outside the game, or a row whose length is not the agent's
    action count, raises a ValueError.
    """
    coef = expected_conditional_q(game, q, joint_policy, updated_prefix, agent, alpha)
    s = _check_index("state", s, game.n_states, "s")
    cand, n = np.asarray(candidate_row, dtype=np.float64), game.action_counts[agent]
    if cand.shape != (n,):
        raise ValueError(f"agent {agent}'s candidate row must have shape ({n},), got {cand.shape}")
    drift_value = drift(game, joint_policy, agent, cand, s, updated_prefix)
    return float(_mirror_values(coef[s], cand, alpha, drift_value))


def _mirror_values(coef, rows, alpha, drift_values, entropy=None):
    """coef . row + alpha * H(row) - drift, for one row or a stack of rows.

    The linear term is a batched matmul, which gives each row the bits of
    ``coef[s] @ row`` (an elementwise product summed over the last axis
    does not). ``entropy``, when given, is H of the rows.
    """
    linear = (coef[..., None, :] @ rows[..., :, None])[..., 0, 0]
    if entropy is None:
        entropy = _log_and_entropy(rows)[1]
    return linear + alpha * entropy - drift_values


def _kl_regularized_rows(
    coef: np.ndarray, incumbent_log: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Closed-form argmax of the mirror value under a KL drift: the softmax
    of (beta * log q + c) at temperature alpha + beta.

    Zero-probability incumbent entries stay at zero: the KL term forces
    absolute continuity of the candidate with respect to the incumbent,
    whose log ``incumbent_log`` is -inf there (beta = 0 keeps them out).
    """
    if beta == 0.0:
        return _boltzmann_rows(coef, alpha)
    return _boltzmann_rows(beta * incumbent_log + coef, alpha + beta)


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

    def rule(old, new, prefix, coef, alpha):
        agent = prefix[-1]
        incumbent = old[0][agent]
        if isinstance(drift, KlDrift):
            target = _kl_regularized_rows(coef, old[1][agent], alpha, drift.beta)
        else:
            target = _boltzmann_rows(coef, alpha)
        if not np.logical_and.reduce(np.isfinite(target), axis=None):  # unreachable with finite Q
            raise RuntimeError("mirror update produced a non-finite row")
        if not needs_backtrack:
            return target
        drift_rows = drift.rows_for(game, old, new, prefix)  # one for every backtracking step

        def mirror_values(states, rows, entropy=None):
            return _mirror_values(coef[states], rows, alpha, drift_rows(rows, states), entropy)

        # Every state backtracks from t = 1 at once; a state leaves the
        # pending set at its first feasible step that does not lower its
        # mirror value, and keeps its incumbent row if none does.
        pending = np.arange(game.n_states)
        base = mirror_values(pending, incumbent, old[2][agent])
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
        return rows

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
    _check_argument("temperature", alpha, "alpha")
    rule = _mirror_rule(game, drift, neighborhood, mode)
    coef = expected_conditional_q(
        game, q_old, joint_policy_old, updated_prefix, agent, alpha
    )
    rows = rule(*_sweep_arrays(joint_policy_old, updated_prefix, agent), coef, alpha)
    return AgentPolicy(agent, rows)


def mehaml_solve(
    game: CooperativeMarkovGame,
    initial_joint_policy: JointPolicy,
    alpha: float,
    drift: DriftFunctional,
    neighborhood: NeighborhoodOperator,
    options: Optional[HaspiOptions] = None,
    mode: str = "closed_form",
) -> tuple[JointPolicy, SolveTrace]:
    """Permuted sequential mirror updates until the policy stops moving.

    Shares the outer loop with :func:`maxent_marl.haspi.haspi_solve`, so
    a trivial drift with the full neighborhood reproduces its iterates
    exactly under the same permutation seed. ``options`` defaults to
    ``HaspiOptions(alpha)``; given, its ``alpha`` must equal ``alpha``, or a
    ValueError names both.
    """
    _check_argument("temperature", alpha, "alpha")
    if options is None:
        options = HaspiOptions(alpha)
    elif options.alpha != alpha:
        raise ValueError(f"alpha={alpha!r} differs from options.alpha={options.alpha!r}")
    rule = _mirror_rule(game, drift, neighborhood, mode)
    jp, _q, trace = _policy_iteration_loop(game, [initial_joint_policy], [options], rule)[0]
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
    scores 1 and fails); with no usable probe, flatness is not shown and
    the check fails. A drift that breaks a property is reported in the
    returned worst observations, not raised. Arguments that would leave
    the probes undefined raise a ValueError naming the argument.
    """
    # Written so that NaN fails the test too.
    if len(set(epsilons)) < 2 or not all(_is_real(e) and 0 < e < math.inf for e in epsilons):
        raise ValueError(f"epsilons need 2+ distinct finite values > 0, got epsilons={epsilons}")
    epsilons = sorted({float(e) for e in epsilons})
    if not (_is_integer(n_directions) and n_directions >= 1):
        raise ValueError(f"n_directions must be an integer >= 1, got n_directions={n_directions}")
    if not sample_policies:
        raise ValueError("sample_policies must hold at least one joint policy")
    rng = np.random.default_rng(seed)
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
                    usable = np.array([e for e in epsilons if (own + e * delta).min() >= 0.0])
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
                    slope = np.polyfit(np.log(usable[mask]), np.log(values[mask]), 1)[0]
                    worst_slope = min(worst_slope, float(slope))

    if not np.isfinite(worst_value):
        worst_value = 0.0
    return HadfCheckReport(
        nonnegativity_ok=worst_value >= -1e-12,
        worst_value=float(worst_value),
        zero_at_identity_ok=worst_identity <= 1e-12,
        worst_identity_value=float(worst_identity),
        zero_gradient_ok=probes > 0 and worst_slope >= 1.5,
        worst_slope=float(worst_slope),
        probes=probes,
    )
