"""Online decentralized execution on the full n-agent system.

Every time step each agent draws a fresh kappa-sample of neighbors, forms its
empirical state histogram, and acts greedily from the learned table. Stage
rewards and transitions use the true graphon-weighted aggregates; feeding the
sampled aggregates into the reward instead is available as an ablation, and a
diagnostic mode feeds the policy exact aggregates rounded to the histogram
grid (the no-sampling baseline).

The simulator steps a batch of policies, each on the same seeds, as one
population of shape (policies * episodes, n, ...); a single policy, or a
single episode, is a batch of one. Once per step, for the whole batch: the
exact aggregates ``W_bar @ onehot(states)``, every agent's kappa neighbor
states, the stage reward and the inverse-cdf transition at the exact
aggregates, one call of each kernel, whose values are checked there (a pmf
row that is no pmf or a non-finite reward is a ValueError). A neighbor
drawn with probability w_bar[i, j] (w_bar[i, i] = 0) is in state x with
probability g_i(x), the agent's exact aggregate, so each neighbor state is
drawn by ``inverse_cdf``'s rule on the agent's row of the exact aggregates,
every policy's slots in one pass (``_sampled_codes``); no neighbor id and
no alias table is formed. A draw past threshold x adds the difference of
the additive cell codes of states x + 1 and x, so an agent's kappa draws
sum to its histogram's code. Per policy, since these depend on kappa: the
index's one code -> rank map ranks the codes, so no count vector is built,
and the greedy actions are ``greedy[states, ranks]``. The sampled-reward
ablation reads its histograms back by rank (``counts_by_rank``), and the
exact-input baseline ranks the rounded aggregates by their codes too. A
policy whose (|S|, kappa) codes pass 64 bits is a BudgetError before any
episode (``check_policy``).

Determinism: one stream per episode, (n, kappa + 1) uniforms per step.
Each episode draws from its own generator ``stream(seed, "exec")``, created
once, and reads one (n, kappa + 1) block of uniforms per step: row i holds
agent i's kappa neighbor-state uniforms in slot order, then its transition
uniform. The block is drawn whether or not the policy samples neighbors.
An episode draws the blocks of several steps in one call, and consecutive
draws from one generator are the draws of one call, so the number of steps
per call changes no output. The policies draw one after another into one
buffer, each keeping its slot and transition uniforms before the next
draws; a call covers as many steps as keep that buffer and every policy's
kept uniforms within ``_EXEC_BLOCK`` values, or one step where that needs
more. Initial states come from ``stream(seed, "exec-init")``, drawn once per
seed and shared by every policy. So an episode's values depend only on its
policy and seed, never on which other episodes or policies share its batch
or on any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bellman import QTable, fiber_max
from .env import Environment, refuse_invalid_pmfs, team_reward, transitions
from .errors import GmfsError
from .graphon import WeightMatrix
from .histograms import get_index, nearest_histograms
from .rng import stream
from .sampler import exact_state_aggregates, inverse_cdf

REWARD_AGGREGATES = ("exact", "sampled")
# what the policy reads under each baseline: kappa sampled neighbors (none),
# or the exact aggregates rounded onto the histogram grid
BASELINE_POLICY_INPUTS = {"none": "sampled", "exact": "exact"}


@dataclass(frozen=True)
class Policy:
    """Greedy decision rule induced by a learned Q-table.

    Marginal mode reads the argmax action directly; joint mode maximizes
    jointly over the action and every completion of the observed marginal,
    then discards the completion. Ties break to the lowest index.
    """

    table: QTable

    @property
    def kappa(self) -> int:
        return self.table.kappa

    @property
    def n_states(self) -> int:
        return self.table.n_states

    def greedy_table(self) -> np.ndarray:
        """(S, G) action lookup on the marginal-histogram grid."""
        t = self.table
        return fiber_max(t.values, t.mode, t.kappa).argmax(axis=1)


@dataclass(frozen=True)
class EpisodeResult:
    discounted_return: float
    stage_rewards: np.ndarray
    seed: int


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
    return inverse_cdf(pmf / pmf.sum(), rng.random(n))


_EXEC_BLOCK = 1 << 15  # values a draw block holds, over the whole batch (256 KB)


def check_policy(env: Environment, weights: WeightMatrix, policy: Policy, n: int) -> None:
    """Refuse a policy that the simulator cannot run on ``env`` and the n
    agents of ``weights``: a weight matrix for another n (ValueError), a
    table of other dimensions than ``env`` (GmfsError) or histogram codes
    past 64 bits (BudgetError)."""
    if weights.n != n:
        raise ValueError(f"weight matrix is for {weights.n} agents, not {n}")
    if (policy.n_states, policy.table.n_actions) != (env.n_states, env.n_actions):
        raise GmfsError(
            f"q-table has |S|={policy.n_states}, |A|={policy.table.n_actions} but "
            f"environment {env.name!r} has |S|={env.n_states}, |A|={env.n_actions}")
    get_index(env.n_states, policy.kappa).cell_codes()


@dataclass(frozen=True)
class _Batch:
    """What ``_simulate`` returns for K policies and E episodes each."""

    discounted: np.ndarray  # (K, E)
    stage_rewards: np.ndarray  # (K, E, horizon)


class _PolicyStep:
    """One policy of a batch: its lookups, the rows ``rows`` of its episodes
    in the batch and their generators."""

    def __init__(self, policy: Policy, n_states: int, rows: slice, seeds):
        kappa = policy.kappa
        index = get_index(n_states, kappa)
        self.kappa, self.width, self.rows = kappa, kappa + 1, rows
        self.cell_codes = index.cell_codes()
        self.code_rank = index.code_ranker
        self.greedy = policy.greedy_table()
        self.rank_g = index.counts_by_rank / kappa  # the sampled histogram of each rank
        self.generators = [stream(sd, "exec") for sd in seeds]

    def draw(self, scratch: np.ndarray, steps: int, n: int) -> np.ndarray:
        """The next ``steps`` steps' uniforms of every episode, (E, steps, n,
        kappa + 1), drawn into the front of the flat ``scratch``."""
        shape = (len(self.generators), steps, n, self.width)
        out = scratch[:math.prod(shape)].reshape(shape)
        for e, gen in enumerate(self.generators):
            gen.random(out=out[e])
        return out


def _sampled_codes(pmf: np.ndarray, slots: np.ndarray, sizes: np.ndarray,
                   starts: np.ndarray, code_steps: np.ndarray) -> np.ndarray:
    """(R,) histogram codes of inverse-cdf draws: row r of ``pmf`` ((R, S))
    draws a state for each of its ``sizes[r]`` uniforms, the run of
    ``slots`` from ``starts[r]``, by ``inverse_cdf``'s rule, and each draw
    past threshold x adds ``code_steps[x, r]``. Rows may draw different
    numbers of uniforms, so every policy's kappa takes the same pass, where
    ``inverse_cdf`` would need one call per kappa."""
    cdf = np.zeros(len(pmf))
    codes = np.zeros(len(pmf), dtype=np.int64)
    for x in range(pmf.shape[1] - 1):
        cdf += pmf[:, x]
        passed = np.add.reduceat(slots >= cdf.repeat(sizes), starts, dtype=np.int64)
        codes += passed * code_steps[x]
    return codes


def _simulate(env: Environment, weights: WeightMatrix, policies, n: int, horizon: int,
              gamma: float, seeds, init, *, reward_aggregates: str,
              policy_inputs: str) -> _Batch:
    """Step one episode per (policy, seed) together, as (K * E, n, ...) arrays:
    batch row k * E + e is policy k on seed e."""
    if reward_aggregates not in REWARD_AGGREGATES:
        raise ValueError(f"reward_aggregates must be one of {REWARD_AGGREGATES}")
    if policy_inputs not in BASELINE_POLICY_INPUTS.values():
        raise ValueError(f"policy_inputs must be one of {tuple(BASELINE_POLICY_INPUTS.values())}")
    for policy in policies:
        check_policy(env, weights, policy, n)  # every refusal comes before any episode
    S = env.n_states
    K, E = len(policies), len(seeds)
    # per step a block holds the uniforms of the widest policy, which draw one
    # policy at a time, and every policy's slot and transition uniforms
    widest = max(p.kappa + 1 for p in policies)
    per_step = E * n * (widest + sum(p.kappa + 1 for p in policies))
    block = max(1, min(horizon, _EXEC_BLOCK // per_step))
    steppers = [_PolicyStep(p, S, slice(k * E, (k + 1) * E), seeds)
                for k, p in enumerate(policies)]
    initial = np.stack([_initial_states(init, n, S, stream(sd, "exec-init")) for sd in seeds])
    states = np.tile(initial, (K, 1))
    actions = np.empty((K * E, n), dtype=np.int64)
    reward_g = np.empty((K * E, n, S)) if reward_aggregates == "sampled" else None
    scratch = np.empty(E * block * n * widest)
    u_next = np.empty((block, K * E, n))
    # every agent's slot uniforms, policy after policy, in batch-row order
    sizes = np.repeat([ps.kappa for ps in steppers], E * n)
    starts = np.cumsum(sizes) - sizes
    code_steps = np.repeat([np.diff(ps.cell_codes) for ps in steppers], E * n, axis=0).T
    slot_ends = np.cumsum([E * n * ps.kappa for ps in steppers])
    slots = np.empty((block, slot_ends[-1])) if policy_inputs == "sampled" else None
    discounted = np.zeros(K * E)
    coeff = 1.0
    stage_rewards = np.empty((K * E, horizon))

    for t0 in range(0, horizon, block):
        steps = min(block, horizon - t0)
        for ps, end in zip(steppers, slot_ends):
            kappa = ps.kappa
            uni = ps.draw(scratch, steps, n)
            u_next[:steps, ps.rows] = uni[..., kappa].transpose(1, 0, 2)
            if slots is not None:
                slots[:steps, end - E * n * kappa:end] = (
                    uni[..., :kappa].transpose(1, 0, 2, 3).reshape(steps, -1))
        for t in range(steps):
            exact_g = exact_state_aggregates(weights, states, S)  # (K * E, n, S)
            if slots is not None:
                # each slot draws a neighbor state from its agent's exact aggregate
                codes = _sampled_codes(exact_g.reshape(-1, S), slots[t], sizes, starts,
                                       code_steps).reshape(K * E, n)
            for ps in steppers:
                own = states[ps.rows]
                if slots is None:
                    ranks = ps.code_rank(
                        nearest_histograms(exact_g[ps.rows], ps.kappa) @ ps.cell_codes)
                else:
                    ranks = ps.code_rank(codes[ps.rows])
                actions[ps.rows] = ps.greedy[own, ranks]
                if reward_g is not None:
                    reward_g[ps.rows] = ps.rank_g[ranks]
            stage = team_reward(env, states, actions,
                                exact_g if reward_g is None else reward_g)
            stage_rewards[:, t0 + t] = stage
            discounted += coeff * stage
            coeff *= gamma
            # the exact aggregates lie off the histogram grid that tabulate checks
            pmf = transitions(env, states, actions, exact_g)
            refuse_invalid_pmfs(pmf, states, actions, exact_g)
            states = inverse_cdf(pmf, u_next[t])

    return _Batch(discounted=discounted.reshape(K, E),
                  stage_rewards=stage_rewards.reshape(K, E, horizon))


def run_episode(env: Environment, weights: WeightMatrix, policy: Policy, n: int,
                horizon: int, gamma: float, init=0, seed: int = 0, *,
                reward_aggregates: str = "exact",
                policy_inputs: str = "sampled") -> EpisodeResult:
    """Simulate one episode and return the discounted team return.

    reward_aggregates: "exact" scores stages at the true graphon aggregates
    (default); "sampled" is the ablation that scores at the agents' own
    subsampled histograms. policy_inputs: "sampled" draws kappa neighbors per
    agent per step; "exact" rounds the true aggregate onto the histogram grid
    (the full-information baseline).
    """
    batch = _simulate(env, weights, (policy,), n, horizon, gamma, (int(seed),), init,
                      reward_aggregates=reward_aggregates, policy_inputs=policy_inputs)
    return EpisodeResult(discounted_return=float(batch.discounted[0, 0]),
                         stage_rewards=batch.stage_rewards[0, 0], seed=seed)


@dataclass(frozen=True)
class PolicyEvaluation:
    mean: float
    std_error: float
    returns: np.ndarray
    seeds: tuple
    tail_bound: float


def evaluate_policies(env: Environment, weights: WeightMatrix, policies, n: int,
                      horizon: int, gamma: float, seeds, init=0, *,
                      reward_aggregates: str = "exact",
                      policy_inputs: str = "sampled") -> list:
    """Run one episode per policy and seed, all of them as one batch, and
    summarize each policy, in the order given.

    The tail bound gamma^horizon * reward_bound / (1 - gamma) quantifies the
    truncation of the infinite-horizon objective.
    """
    seeds, policies = tuple(int(s) for s in seeds), tuple(policies)
    if not seeds:
        raise ValueError("seed list must be non-empty")
    if not policies:
        raise ValueError("policy list must be non-empty")
    discounted = _simulate(env, weights, policies, n, horizon, gamma, seeds, init,
                           reward_aggregates=reward_aggregates,
                           policy_inputs=policy_inputs).discounted
    tail = gamma ** horizon * env.reward_bound / (1.0 - gamma) if gamma < 1 else math.inf
    evaluations = []
    for returns in discounted:
        std_error = (float(returns.std(ddof=1) / math.sqrt(len(seeds)))
                     if len(seeds) > 1 else 0.0)
        evaluations.append(PolicyEvaluation(mean=float(returns.mean()), std_error=std_error,
                                            returns=returns, seeds=seeds, tail_bound=tail))
    return evaluations


def evaluate_policy(env: Environment, weights: WeightMatrix, policy: Policy, n: int,
                    horizon: int, gamma: float, seeds, init=0, *,
                    reward_aggregates: str = "exact",
                    policy_inputs: str = "sampled") -> PolicyEvaluation:
    """Run one episode per seed, all seeds as one batch, and summarize: the
    one-policy case of ``evaluate_policies``."""
    return evaluate_policies(env, weights, (policy,), n, horizon, gamma, seeds, init,
                             reward_aggregates=reward_aggregates,
                             policy_inputs=policy_inputs)[0]
