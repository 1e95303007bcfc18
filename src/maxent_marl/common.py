"""Definitions the solvers share: what a valid argument is, the Boltzmann
row rule, the gap of a policy to its logit response, and the solve trace.

A leaf module: it imports nothing from the package, so the sequential
solvers, the oracle, the baselines and the spec layer all import from it
without a cycle. The public names are re-exported by the modules that
documented them first (:mod:`maxent_marl.haspi` and
:mod:`maxent_marl.qre_oracle`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["boltzmann_rows", "IterationRecord", "SolveTrace"]

def _is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool; numpy's numbers are."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool; numpy's integers are."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# What a valid argument is, by kind: a test that NaN fails, and the rule a
# failure names. Every kind is a real number and not a bool first (see
# _check_argument). The evaluations of :mod:`maxent_marl.soft_dp` take any
# finite temperature (alpha = 0 gives the unregularized values); the
# solvers, the Boltzmann rows and the logit functions need a positive one.
_ARGUMENT_RULES = {
    "temperature": (
        lambda x: 0 < x < math.inf, "temperature must be finite and strictly positive"
    ),
    "evaluation temperature": (lambda x: -math.inf < x < math.inf, "temperature must be finite"),
    "tolerance": (lambda x: 0 < x < math.inf, "tolerances must be finite and positive"),
    "iteration cap": (
        lambda x: isinstance(x, numbers.Integral) and x >= 1,
        "an iteration cap must be an integer, and iteration caps must be at least 1",
    ),
    # What numpy's seeding takes.
    "seed": (
        lambda x: isinstance(x, numbers.Integral) and x >= 0, "a seed must be a non-negative integer"
    ),
    # A grid step of at most the simplex's own width.
    "grid resolution": (lambda x: 0 < x <= 1, "a grid resolution must be finite and in (0, 1]"),
    "damping": (lambda x: 0 < x <= 1, "damping must lie in (0, 1]"),
}


def _check_argument(kind: str, value, name: str) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a valid ``kind``."""
    test, rule = _ARGUMENT_RULES[kind]
    if not (_is_real(value) and test(value)):
        raise ValueError(f"{rule}, got {name}={value if _is_real(value) else repr(value)}")


def _check_index(kind: str, value, count: int, name: str) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is an
    integer in [0, count) and not a bool, the rule for a state or an action
    of a game."""
    if not (_is_integer(value) and 0 <= value < count):
        raise ValueError(f"{kind} must be an integer in [0, {count}), got {name}={value!r}")
    return int(value)


def _agent_id(value, name: str) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is an
    integer and not a bool. Whether it is one of a game's agents is the
    caller's rule."""
    if not _is_integer(value):
        raise ValueError(f"an agent id must be an integer, got {name}={value!r}")
    return int(value)


def _agent_ids(ids, name: str) -> tuple[int, ...]:
    """A sequence of agent ids as a tuple of ints, each checked by
    :func:`_agent_id` and named by its position in ``name``."""
    return tuple(_agent_id(i, f"{name}[{k}]") for k, i in enumerate(ids))


def boltzmann_rows(coefficients: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise softmax of coefficients / alpha with max-shift stabilization.

    Constant offsets per row (such as other agents' entropy bonuses)
    cancel exactly in the normalization. Any leading axes are batch axes:
    each last-axis row is normalized on its own, with the same bits as a
    call on that row alone.
    """
    _check_argument("temperature", alpha, "alpha")
    return _boltzmann_rows(coefficients, alpha)


def _boltzmann_rows(coefficients: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`boltzmann_rows` at a temperature the caller has checked: the
    solvers check theirs once per solve, not once per table of rows."""
    z = coefficients / alpha
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _logit_responses(
    tables: Sequence[np.ndarray], coefficients: Sequence[np.ndarray], alpha: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """Every agent's logit rows and their sup-norm gap to its policy table.

    Per agent, ``tables`` and ``coefficients`` may carry leading batch
    axes, such as the iterates of a solve stacked on axis 0; the gap then
    has one entry per batch member, with the bits of an unbatched call.
    """
    responses = [_boltzmann_rows(coef, alpha) for coef in coefficients]
    gaps = [_sup_norm(r - t, axis=(-2, -1)) for r, t in zip(responses, tables)]
    return responses, functools.reduce(np.maximum, gaps)


def _sup_norm(difference: np.ndarray, axis=None) -> np.ndarray:
    """max |difference| over ``axis``, all axes by default; overwrites the
    difference, which the caller made for it. NaN if any entry is NaN."""
    np.abs(difference, out=difference)
    return np.maximum.reduce(difference, axis=axis)


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """State of the solve after one outer iteration.

    Record 0 describes the initial policy (no permutation, no change).
    ``values`` is the per-state soft value vector and ``policies`` the
    per-agent row tables of the policy this record describes.
    """

    iteration: int
    permutation: Optional[tuple[int, ...]]
    policy_change: float
    maxent_return: float
    values: np.ndarray
    qre_residual: float
    policies: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class SolveTrace:
    """Per-iteration records plus the final status.

    ``sweeps`` counts the outer iterations that followed the initial
    iterate (sweeps, oracle relaxation steps or baseline updates), whether
    or not they were recorded; with records it equals
    ``len(iterations) - 1``.
    """

    iterations: list[IterationRecord]
    status: str  # "converged" | "max_iters"; the QRE oracle also "cycle"
    sweeps: int

    @property
    def returns(self) -> list[float]:
        return [rec.maxent_return for rec in self.iterations]
