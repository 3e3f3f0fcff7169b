"""Graphon mean-field subsampling for cooperative multi-agent RL."""

__version__ = "0.3.0"

from .graphon import Graphon, LatentAssignment, WeightMatrix, build_weights, evaluate
from .histograms import (
    Alphabet,
    Histogram,
    HistogramIndex,
    enumerate_histograms,
    fiber,
    fiber_size,
    marginal,
    nearest_histogram,
    nearest_histograms,
    num_histograms,
    tv_distance,
)
from .env import (
    Environment,
    StochasticRewardEnv,
    linear_env,
    load_tabular_env,
    local_reward,
    make_env,
    rewards,
    sample_reward,
    step_distribution,
    team_reward,
    transitions,
    warehouse_env,
)
from .sampler import (
    HTEstimate,
    NeighborSample,
    empirical_joint,
    empirical_marginal,
    exact_aggregate,
    exact_state_aggregate,
    exact_state_aggregates,
    ht_estimate,
    sample_neighbors,
    stacked_alias,
    tv_concentration_bound,
)
from .bellman import (
    OffPolicyConfig,
    QTable,
    empirical_operator,
    exact_operator,
    expand_surrogate,
    fiber_backup,
    load_qtable,
    off_policy_learn,
    off_policy_update,
    sample_budget,
    save_qtable,
    surrogate_step,
    table_size,
    value_iteration,
    value_iteration_stochastic,
)
from .execution import EpisodeResult, Policy, act, evaluate_policy, run_episode
from .harness import ExperimentConfig, SweepReport, parse_config, run_diagnostics, run_sweep
from .errors import BudgetError, ConfigError, FormatError, GmfsError
