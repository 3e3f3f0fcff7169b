"""Online decentralized execution on the full n-agent system.

Every time step each agent draws a fresh kappa-sample of neighbors, forms its
empirical state histogram, and acts greedily from the learned table. Stage
rewards and transitions use the true graphon-weighted aggregates; feeding the
sampled aggregates into the reward instead is available as an ablation, and a
diagnostic mode feeds the policy exact aggregates rounded to the histogram
grid (the no-sampling baseline).

The simulator steps a batch of episodes at once as whole-population arrays
of shape (episodes, n, ...); a single episode is a batch of one.

Determinism: one stream per episode, one block per step. Each episode draws
from its own generator ``stream(seed, "exec")``, created once, and takes one
(n, 2 kappa + 1) block of uniforms per step: row i holds agent i's kappa
bucket uniforms, then its kappa accept uniforms for the alias draws, then
its transition uniform. The block is drawn whether or not the policy samples
neighbors, so an episode's values depend only on its seed, never on which
other episodes share its batch or on any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bellman import QTable, fiber_max
from .env import Environment, team_reward, transitions
from .errors import GmfsError
from .graphon import WeightMatrix
from .histograms import Histogram, get_index, nearest_histograms
from .rng import stream
from .sampler import exact_state_aggregates, stacked_alias


@dataclass
class Policy:
    """Greedy decision rule induced by a learned Q-table.

    Marginal mode reads the argmax action directly; joint mode maximizes
    jointly over the action and every completion of the observed marginal,
    then discards the completion. Ties break to the lowest index.
    """

    table: QTable
    _greedy: np.ndarray | None = field(default=None, repr=False)

    @property
    def kappa(self) -> int:
        return self.table.kappa

    @property
    def n_states(self) -> int:
        return self.table.n_states

    def greedy_table(self) -> np.ndarray:
        """(S, G) action lookup on the marginal-histogram grid."""
        if self._greedy is None:
            t = self.table
            self._greedy = fiber_max(t.values, t.mode, t.kappa).argmax(axis=1)
        return self._greedy


def act(policy: Policy, s: int, g_hat) -> int:
    """Greedy action at local state s and observed neighborhood histogram."""
    if isinstance(g_hat, Histogram):
        if g_hat.kappa != policy.kappa:
            raise ValueError(
                f"histogram denominator {g_hat.kappa} does not match the "
                f"policy's kappa {policy.kappa}"
            )
        g_rank = get_index(policy.n_states, policy.kappa).rank(g_hat)
    else:
        g_rank = int(g_hat)
    return int(policy.greedy_table()[s, g_rank])


@dataclass(frozen=True)
class EpisodeResult:
    discounted_return: float
    stage_rewards: np.ndarray
    seed: int
    trajectory: list | None = None


def read_init(init, n: int, n_states: int):
    """(states, pmf): ``init`` read as a single state id or one state per
    agent (the (n,) initial states, pmf None), or as a pmf over states
    (states None); a length-n_states vector summing to 1 is read as a pmf.
    Any other value, or a state outside [0, n_states) or a negative pmf
    entry, is a ValueError."""
    if isinstance(init, (int, np.integer)):
        if not 0 <= init < n_states:
            raise ValueError(f"initial state {init} is outside [0, {n_states})")
        return np.full(n, int(init), dtype=np.int64), None
    arr = np.asarray(init, dtype=np.float64)
    if arr.shape == (n_states,) and abs(arr.sum() - 1.0) <= 1e-9:
        if np.any(arr < 0):
            raise ValueError("the initial pmf has a negative entry")
        return None, arr
    if arr.shape == (n,) and np.all(arr == np.round(arr)):
        if np.any((arr < 0) | (arr >= n_states)):
            raise ValueError(f"a per-agent initial state is outside [0, {n_states})")
        return arr.astype(np.int64), None
    raise ValueError(f"init must be a state id, a pmf over the {n_states} states, "
                     f"or one state per agent ({n} ids)")


def _initial_states(init, n: int, n_states: int, rng: np.random.Generator) -> np.ndarray:
    """The (n,) initial states of ``init`` (see ``read_init``), pmf entries
    drawn i.i.d. from ``rng``."""
    states, pmf = read_init(init, n, n_states)
    if pmf is None:
        return states
    cdf = np.cumsum(pmf / pmf.sum())
    u = rng.random(n)
    return np.minimum(np.searchsorted(cdf, u, side="right"), n_states - 1).astype(np.int64)


@dataclass(frozen=True)
class _Batch:
    """What ``_simulate`` returns for a batch of E episodes."""

    discounted: np.ndarray  # (E,)
    stage_rewards: np.ndarray  # (E, horizon)
    trajectory: list | None  # per step, (states, actions) of shape (E, n)


def _simulate(env: Environment, weights: WeightMatrix, policy: Policy, n: int,
              kappa: int, horizon: int, gamma: float, seeds, init, *,
              reward_aggregates: str, policy_inputs: str,
              record_trajectory: bool) -> _Batch:
    """Step one episode per seed together, as (episodes, n, ...) arrays."""
    if policy.kappa != kappa:
        raise ValueError(f"policy kappa {policy.kappa} does not match requested {kappa}")
    if weights.n != n:
        raise ValueError(f"weight matrix is for {weights.n} agents, not {n}")
    if (policy.n_states, policy.table.n_actions) != (env.n_states, env.n_actions):
        raise GmfsError(
            f"q-table has |S|={policy.n_states}, |A|={policy.table.n_actions} but "
            f"environment {env.name!r} has |S|={env.n_states}, |A|={env.n_actions}")
    if reward_aggregates not in ("exact", "sampled"):
        raise ValueError("reward_aggregates must be 'exact' or 'sampled'")
    if policy_inputs not in ("sampled", "exact"):
        raise ValueError("policy_inputs must be 'sampled' or 'exact'")
    S = env.n_states
    E = len(seeds)
    g_index = get_index(S, kappa)
    greedy = policy.greedy_table()
    alias = stacked_alias(weights)
    states = np.stack([_initial_states(init, n, S, stream(sd, "exec-init")) for sd in seeds])
    generators = [stream(sd, "exec") for sd in seeds]
    blocks = np.empty((E, n, 2 * kappa + 1))
    # offsets that give every (episode, agent) its own S histogram cells
    cell_offset = (np.arange(E * n) * S).reshape(E, n, 1)
    discounted = np.zeros(E)
    coeff = 1.0
    stage_rewards = np.empty((E, horizon))
    trajectory = [] if record_trajectory else None

    for t in range(horizon):
        exact_g = exact_state_aggregates(weights, states, S)  # (E, n, S)
        for e, gen in enumerate(generators):
            gen.random(out=blocks[e])
        if policy_inputs == "exact":
            counts = nearest_histograms(exact_g, kappa)
        else:
            ids = alias.sample_from_uniforms(blocks[..., :kappa], blocks[..., kappa:2 * kappa])
            neighbor_states = np.take_along_axis(states, ids.reshape(E, n * kappa), axis=1)
            cells = cell_offset + neighbor_states.reshape(E, n, kappa)
            counts = np.bincount(cells.ravel(), minlength=E * n * S).reshape(E, n, S)
        ranks = g_index.rank_rows(counts.reshape(E * n, S)).reshape(E, n)
        actions = greedy[states, ranks]

        reward_g = exact_g if reward_aggregates == "exact" else counts / kappa
        stage = team_reward(env, states, actions, reward_g)

        if record_trajectory:
            trajectory.append((states.copy(), actions.copy()))

        cdf = np.cumsum(transitions(env, states, actions, exact_g), axis=-1)
        # counting cdf entries <= u is searchsorted(cdf, u, side="right")
        next_states = (blocks[..., 2 * kappa, None] >= cdf).sum(axis=-1)

        stage_rewards[:, t] = stage
        discounted += coeff * stage
        coeff *= gamma
        states = np.minimum(next_states, S - 1)

    return _Batch(discounted=discounted, stage_rewards=stage_rewards, trajectory=trajectory)


def run_episode(env: Environment, weights: WeightMatrix, policy: Policy, n: int,
                kappa: int, horizon: int, gamma: float, init=0, seed: int = 0, *,
                reward_aggregates: str = "exact",
                policy_inputs: str = "sampled",
                record_trajectory: bool = False) -> EpisodeResult:
    """Simulate one episode and return the discounted team return.

    reward_aggregates: "exact" scores stages at the true graphon aggregates
    (default); "sampled" is the ablation that scores at the agents' own
    subsampled histograms. policy_inputs: "sampled" draws kappa neighbors per
    agent per step; "exact" rounds the true aggregate onto the histogram grid
    (the full-information baseline).
    """
    batch = _simulate(env, weights, policy, n, kappa, horizon, gamma, (int(seed),), init,
                      reward_aggregates=reward_aggregates, policy_inputs=policy_inputs,
                      record_trajectory=record_trajectory)
    trajectory = None
    if record_trajectory:
        trajectory = [(s[0], a[0]) for s, a in batch.trajectory]
    return EpisodeResult(discounted_return=float(batch.discounted[0]),
                         stage_rewards=batch.stage_rewards[0], seed=seed,
                         trajectory=trajectory)


@dataclass(frozen=True)
class PolicyEvaluation:
    mean: float
    std_error: float
    returns: np.ndarray
    seeds: tuple
    tail_bound: float


def evaluate_policy(env: Environment, weights: WeightMatrix, policy: Policy, n: int,
                    kappa: int, horizon: int, gamma: float, seeds, init=0, *,
                    reward_aggregates: str = "exact",
                    policy_inputs: str = "sampled") -> PolicyEvaluation:
    """Run one episode per seed, all seeds as one batch, and summarize.

    The tail bound gamma^horizon * reward_bound / (1 - gamma) quantifies the
    truncation of the infinite-horizon objective.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seed list must be non-empty")
    returns = _simulate(env, weights, policy, n, kappa, horizon, gamma, seeds, init,
                        reward_aggregates=reward_aggregates, policy_inputs=policy_inputs,
                        record_trajectory=False).discounted
    mean = float(returns.mean())
    std_error = float(returns.std(ddof=1) / math.sqrt(len(seeds))) if len(seeds) > 1 else 0.0
    tail = gamma ** horizon * env.reward_bound / (1.0 - gamma) if gamma < 1 else math.inf
    return PolicyEvaluation(mean=mean, std_error=std_error, returns=returns,
                            seeds=seeds, tail_bound=tail)
