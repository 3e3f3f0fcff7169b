"""Graphon mean-field subsampling for cooperative multi-agent RL."""

__version__ = "0.6.0"

from .graphon import Graphon, LatentAssignment, WeightMatrix, build_weights
from .histograms import HistogramIndex, nearest_histograms, num_histograms, tv_distance
from .env import (
    Environment,
    linear_env,
    load_tabular_env,
    local_reward,
    make_env,
    rewards,
    step_distribution,
    team_reward,
    transitions,
    warehouse_env,
)
from .sampler import (
    HTEstimate,
    exact_aggregate,
    exact_state_aggregates,
    ht_estimate,
    tv_concentration_bound,
)
from .bellman import (
    OffPolicyConfig,
    QTable,
    load_qtable,
    off_policy_learn,
    sample_budget,
    save_qtable,
    table_size,
    value_iteration,
)
from .execution import EpisodeResult, Policy, evaluate_policies, evaluate_policy
from .harness import ExperimentConfig, SweepReport, parse_config, run_diagnostics, run_sweep
from .errors import BudgetError, ConfigError, FormatError, GmfsError
