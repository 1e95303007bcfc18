"""Exact tabular solvers for entropy-regularized cooperative Markov games.

The package covers the full pipeline: game and policy data model
(:mod:`maxent_marl.game_core`), soft dynamic programming
(:mod:`maxent_marl.soft_dp`), sequential and simultaneous Boltzmann
policy iteration (:mod:`maxent_marl.haspi`), the generalized
drift/neighborhood template (:mod:`maxent_marl.mehaml`), expected-update
baselines (:mod:`maxent_marl.baselines`), an independent quantal
response oracle (:mod:`maxent_marl.qre_oracle`), and a file-driven CLI
(:mod:`maxent_marl.cli`).
"""

from .game_core import (
    AgentPolicy,
    CooperativeMarkovGame,
    JointPolicy,
    Permutation,
    joint_action_prob,
    joint_action_table,
    joint_policy_from_rows,
    new_matrix_game,
    policy_entropy,
    random_game,
    sup_policy_distance,
    uniform_joint_policy,
    validate_game,
)
from .soft_dp import (
    EvaluationNotConverged,
    MultiAgentSoftQ,
    SoftQTable,
    SoftValueTable,
    evaluate_policy_exact,
    evaluate_policy_iterative,
    maxent_return,
    multiagent_soft_advantage,
    multiagent_soft_q,
    soft_bellman_backup,
    soft_value,
)
from .haspi import (
    HaspiOptions,
    IterationRecord,
    SolveTrace,
    boltzmann_local_update,
    cyclic_order,
    fixed_order,
    haspi_solve,
    haspi_solve_many,
    haspi_step,
    masac_solve,
    masac_solve_many,
    masac_step,
    random_order,
)
from .mehaml import (
    FullNeighborhood,
    HadfCheckReport,
    KlBall,
    KlDrift,
    TrivialDrift,
    full_neighborhood,
    hadf_property_check,
    kl_ball,
    kl_drift,
    mehaml_local_update,
    mehaml_solve,
    mehamo_eval,
    trivial_drift,
)
from .baselines import BaselineOptions, baseline_run, baseline_step, surrogate_coefficients
from .qre_oracle import (
    QreSolution,
    enumerate_pure_nash,
    joint_kl_objective,
    logit_response,
    qre_fixed_point,
    qre_residual,
    unilateral_deviation_gain,
)
from .specs import (
    ExperimentSpec,
    GameValidationError,
    ResultRecord,
    bundled_game_path,
    load_experiment,
    load_game,
    save_game,
)
from .cli import replicate_appendix_b, run_experiment, sweep_alpha

__version__ = "0.1.0"
