"""Learning core: surrogate dynamics, Bellman operators, value iteration.

The Q-function is a dense table Q(s, a, h) where h ranks either a joint
(state, action) histogram ("joint" mode) or its state marginal ("marginal"
mode) with denominator kappa. Marginal mode is only legal when the
environment declares that rewards and transitions depend on neighbors solely
through the state marginal; joint mode is always legal.

Surrogate one-step dynamics for an entry (s, a, h): the focal agent
transitions through P(. | s, a, g_h); each of the kappa neighbors transitions
through P(. | x_m, u_m, g_m), where g_m is either the leave-one-out aggregate
over the other kappa agents (focal included, neighbor m excluded, weight
1/kappa each) or the shared marginal g_h, selected by ``aggregate_rule``.
Neighbor actions u_m come from the joint histogram in joint mode; in marginal
mode they are assigned by ``neighbor_action_rule``: "greedy" picks the argmax
action of the current Q at (x_m, g_m), "uniform" draws uniformly over actions.
Every backup reads only the neighbors' next state marginal g'.

One tabulated surrogate model (``tabulate``: kernel and reward at the
histogram points, leave-one-out ranks, neighbor slots) feeds every learner,
and one engine runs value iteration with either Bellman operator in both
modes. The empirical operator freezes per-entry sample sets across sweeps,
drawn from one stream keyed by seed and kappa: the m neighbor samples of
each (state, histogram) key once, shared by its entries of every focal
action, then each entry's own m focal transitions.
The exact operator takes the expectation instead: per entry, the focal
next-state pmf and the law of g', the kappa neighbor laws convolved over
histogram ranks. Under the uniform rule, in joint mode and with the exact
operator the operator is fixed, so the iteration is a gamma-contraction and
the residual decays geometrically to its fixed point. The greedy rule reads
the neighbor actions off the current Q, so its operator changes from sweep
to sweep and need not contract: the greedy actions can cycle and the run
end at its sweep cap with a residual far above epsilon. For the same reason
the exact operator runs under the uniform rule (or in joint mode) only.
``surrogate_step`` and ``empirical_operator`` work per entry; they are the
reference the engine is tested against bit for bit.
"""

from __future__ import annotations

import io
import math
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .env import (Environment, invalid_pmfs, local_reward, rewards as env_rewards,
                  step_distribution, transitions)
from .errors import BudgetError, FormatError, GmfsError
from .histograms import HistogramIndex, get_index, num_histograms
from .rng import stream
from .sampler import inverse_cdf

MODES = ("joint", "marginal")
AGGREGATE_RULES = ("leave_one_out", "shared")
ACTION_RULES = ("greedy", "uniform")
OPERATORS = ("empirical", "exact")

DEFAULT_EPSILON = 1e-4
DEFAULT_ITERATIONS = 250
MAX_TABLE_ENTRIES = 50_000_000
_OFF_POLICY_BLOCK = 1024  # uniform rows per list conversion
# frozen uniforms per engine build block, and the most backups a sweep
# gathers at once (256 KB)
_FROZEN_BLOCK = 1 << 15


# ---------------------------------------------------------------------------
# Q-table
# ---------------------------------------------------------------------------


@dataclass
class QTable:
    mode: str
    kappa: int
    n_states: int
    n_actions: int
    values: np.ndarray  # (S, A, n_histograms)
    gamma: float
    env_name: str = ""
    seed: int = 0
    iterations: int = 0
    residual: float = float("inf")
    residual_history: list = field(default_factory=list, repr=False, compare=False)
    sup_history: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        expected = (self.n_states, self.n_actions, self.histogram_count())
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != {expected}")
        self.values = values

    def alphabet_size(self) -> int:
        return histogram_alphabet(self.mode, self.n_states, self.n_actions)

    def histogram_count(self) -> int:
        return num_histograms(self.alphabet_size(), self.kappa)

    def index(self) -> HistogramIndex:
        return get_index(self.alphabet_size(), self.kappa)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    @staticmethod
    def zeros(mode: str, kappa: int, n_states: int, n_actions: int, gamma: float,
              env_name: str = "", seed: int = 0) -> "QTable":
        entries = table_size(mode, kappa, n_states, n_actions)
        if entries > MAX_TABLE_ENTRIES:
            raise BudgetError(
                f"table with {entries} entries exceeds the memory budget "
                f"({MAX_TABLE_ENTRIES})"
            )
        return QTable(mode, kappa, n_states, n_actions,
                      np.zeros(entries).reshape(n_states, n_actions, -1), gamma,
                      env_name=env_name, seed=seed)


def histogram_alphabet(mode: str, n_states: int, n_actions: int) -> int:
    """Cells of a histogram: (state, action) pairs in joint mode, states in marginal mode."""
    return n_states * n_actions if mode == "joint" else n_states


def table_size(mode: str, kappa: int, n_states: int, n_actions: int) -> int:
    alphabet = histogram_alphabet(mode, n_states, n_actions)
    return n_states * n_actions * num_histograms(alphabet, kappa)


# ---------------------------------------------------------------------------
# Fibers and the backup M Q(s, g) = max over actions and completions
# ---------------------------------------------------------------------------


def _slots(counts: np.ndarray) -> np.ndarray:
    """(rows, kappa) cell of each agent of each count row, cell-major."""
    rows, cells = counts.shape
    return np.repeat(np.tile(np.arange(cells), rows), counts.ravel()).reshape(rows, -1)


class JointLayout(NamedTuple):
    """Every joint histogram of (n_states, n_actions, kappa) and its fiber.

    ``fibers[g]`` holds the joint ranks of all completions of the marginal of
    rank g, ascending, padded to the widest fiber with the row's first rank
    (a max over the row is then the max over the fiber).
    """

    counts: np.ndarray  # (Z, S * A), by joint rank
    marginal_rank: np.ndarray  # (Z,) rank of each state marginal
    fibers: np.ndarray  # (G, max_fiber)
    sizes: np.ndarray  # (G,)


@lru_cache(maxsize=None)
def joint_layout(n_states: int, n_actions: int, kappa: int) -> JointLayout:
    """Built once per (n_states, n_actions, kappa) and cached."""
    z_index = get_index(n_states * n_actions, kappa)
    g_index = get_index(n_states, kappa)
    counts = z_index.counts_by_rank
    g_rank = g_index.rank_rows(counts.reshape(-1, n_states, n_actions).sum(axis=2))
    by_marginal = np.argsort(g_rank, kind="stable")
    sizes = np.bincount(g_rank, minlength=g_index.total)
    col = np.arange(sizes.max())
    pos = (np.cumsum(sizes) - sizes)[:, None] + np.where(col < sizes[:, None], col, 0)
    return JointLayout(counts, g_rank, by_marginal[pos], sizes)


def fiber_ranks(n_states: int, n_actions: int, kappa: int, g_rank: int) -> np.ndarray:
    """Ranks (joint index) of all completions of the marginal of rank g_rank,
    sorted ascending so ties break toward the lowest joint rank."""
    layout = joint_layout(n_states, n_actions, kappa)
    return layout.fibers[g_rank, : layout.sizes[g_rank]]


def fiber_max(values: np.ndarray, mode: str, kappa: int) -> np.ndarray:
    """(S, A, G): per action, the max of a table over every completion of
    each state marginal; in marginal mode the table itself."""
    if mode == "marginal":
        return values
    n_states, n_actions, _ = values.shape
    return values[:, :, joint_layout(n_states, n_actions, kappa).fibers].max(axis=3)


def fiber_backup(q: QTable, s_next: int, g_next) -> float:
    """max over a' (and, in joint mode, all completions z' of g') of Q, at
    the state count row g_next."""
    g_rank = get_index(q.n_states, q.kappa).rank(g_next)
    if q.mode == "marginal":
        return float(q.values[s_next, :, g_rank].max())
    ranks = fiber_ranks(q.n_states, q.n_actions, q.kappa, g_rank)
    return float(q.values[s_next, :, ranks].max())


def fiber_argmax(q: QTable, s: int, g_rank: int) -> int:
    """Greedy action at (s, g); ties break to the lowest (a, rank z) pair."""
    if q.mode == "marginal":
        return int(np.argmax(q.values[s, :, g_rank]))
    ranks = fiber_ranks(q.n_states, q.n_actions, q.kappa, g_rank)
    best_a, best_v = 0, -math.inf
    for a in range(q.n_actions):
        v = float(q.values[s, a, ranks].max())
        if v > best_v:
            best_a, best_v = a, v
    return best_a


# ---------------------------------------------------------------------------
# Surrogate one-step dynamics and the empirical operator, per entry (the
# reference for the engine)
# ---------------------------------------------------------------------------


def expand_surrogate(counts, n_actions: int | None = None):
    """Deterministic cell-major expansion of a count row into its kappa
    agents: (states, actions) arrays whose pair tally reproduces the row.
    A joint row (cells s * n_actions + a) needs ``n_actions``; a state row
    carries states only (actions None)."""
    cells = np.repeat(np.arange(len(counts)), counts)
    if n_actions is None:
        return cells, None
    return cells // n_actions, cells % n_actions


def _state_counts(env: Environment, counts: np.ndarray) -> np.ndarray:
    """The state counts of a count row: a row of |S| cells is a state
    marginal, one of |S| |A| cells a joint histogram, state-major, which
    collapses over actions. With one action the two readings coincide. A row
    with a negative count or no agent is no histogram: a ValueError."""
    S, A = env.n_states, env.n_actions
    if counts.shape not in ((S,), (S * A,)):
        raise ValueError(f"count row of shape {counts.shape} fits neither {S} states "
                         f"nor {S * A} (state, action) cells")
    if (counts < 0).any():
        raise ValueError(f"count row {counts.tolist()} has a negative count")
    if counts.sum() == 0:
        raise ValueError(f"count row {counts.tolist()} has no agent: kappa must be >= 1")
    return counts if counts.shape == (S,) else counts.reshape(S, A).sum(axis=1)


def _neighbor_marginal(counts: np.ndarray, focal_state: int, x: int,
                       aggregate_rule: str) -> np.ndarray:
    """Counts of the aggregate seen by a neighbor in state x."""
    if aggregate_rule == "shared":
        return counts
    out = counts.copy()
    out[x] -= 1
    out[focal_state] += 1
    return out


def _greedy_action(q: QTable, x: int, gm_counts: np.ndarray) -> int:
    return fiber_argmax(q, x, get_index(q.n_states, q.kappa).rank(gm_counts))


def surrogate_step(env: Environment, s: int, a: int, counts,
                   rng: np.random.Generator, *, neighbor_rng: np.random.Generator | None = None,
                   q: QTable | None = None, neighbor_action_rule: str = "uniform",
                   aggregate_rule: str = "leave_one_out"):
    """One draw of the (kappa+1)-agent surrogate transition from the count
    row of the kappa neighbors: |S| state counts, or |S| |A| joint counts
    that fix the neighbors' current actions; kappa is the row's sum.

    Returns (s_next, g_next): the focal agent's next state and the state
    count row of the neighbors' next states, for either input.

    Draw order is fixed: one uniform from ``rng`` for the focal transition,
    then one per neighbor in state-major histogram order from
    ``neighbor_rng`` (``rng`` where None; the uniform action rule draws from
    the action-mixture law, so it also consumes one uniform per neighbor);
    this makes outcomes replayable from frozen uniform blocks.
    """
    if aggregate_rule not in AGGREGATE_RULES:
        raise ValueError(f"aggregate_rule must be one of {AGGREGATE_RULES}")
    if neighbor_action_rule not in ACTION_RULES:
        raise ValueError(f"neighbor_action_rule must be one of {ACTION_RULES}")
    counts = np.asarray(counts, dtype=np.int64)
    g_counts = _state_counts(env, counts)
    kappa = int(g_counts.sum())
    joint = counts.shape != (env.n_states,)
    nb_states, nb_actions = expand_surrogate(counts, env.n_actions if joint else None)
    g_probs = g_counts / kappa

    if nb_actions is None and neighbor_action_rule == "greedy" and q is None:
        raise ValueError("greedy neighbor actions need the current Q-table")

    u_focal = rng.random()
    uniforms = (rng if neighbor_rng is None else neighbor_rng).random(kappa)
    focal_pmf = step_distribution(env, s, a, g_probs)
    s_next = int(np.searchsorted(np.cumsum(focal_pmf), u_focal, side="right"))
    s_next = min(s_next, env.n_states - 1)

    next_states = np.empty(kappa, dtype=np.int64)
    for m in range(kappa):
        x = int(nb_states[m])
        gm = _neighbor_marginal(g_counts, s, x, aggregate_rule)
        known = None if nb_actions is None else int(nb_actions[m])
        pmf = _neighbor_pmf(env, q, x, gm, kappa, neighbor_action_rule, known_action=known)
        nxt = int(np.searchsorted(np.cumsum(pmf), uniforms[m], side="right"))
        next_states[m] = min(nxt, env.n_states - 1)

    return s_next, np.bincount(next_states, minlength=env.n_states)


def empirical_operator(env: Environment, q: QTable, s: int, a: int, counts,
                       m: int, rng: np.random.Generator, *,
                       neighbor_rng: np.random.Generator | None = None,
                       neighbor_action_rule: str = "uniform",
                       aggregate_rule: str = "leave_one_out") -> float:
    """Reward plus gamma times the mean of m fiber backups at i.i.d.
    surrogate outcomes, each drawn by ``surrogate_step`` from ``rng`` and
    ``neighbor_rng``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    g_counts = _state_counts(env, np.asarray(counts, dtype=np.int64))
    r = local_reward(env, s, a, g_counts / g_counts.sum())
    if q.gamma == 0.0:
        return r
    backups = np.empty(m)
    for ell in range(m):
        s_next, g_next = surrogate_step(
            env, s, a, counts, rng, neighbor_rng=neighbor_rng, q=q,
            neighbor_action_rule=neighbor_action_rule, aggregate_rule=aggregate_rule,
        )
        backups[ell] = fiber_backup(q, s_next, g_next)
    return r + q.gamma * float(np.mean(backups))


def _neighbor_pmf(env: Environment, q: QTable, x: int, gm_counts: np.ndarray,
                  kappa: int, neighbor_action_rule: str,
                  known_action: int | None = None) -> np.ndarray:
    """Per-neighbor next-state law, marginalized over the action rule."""
    gm_probs = gm_counts / kappa
    if known_action is not None:
        return step_distribution(env, x, known_action, gm_probs)
    if neighbor_action_rule == "uniform":
        acc = np.zeros(env.n_states)
        for u in range(env.n_actions):
            acc += step_distribution(env, x, u, gm_probs)
        return acc / env.n_actions
    return step_distribution(env, x, _greedy_action(q, x, gm_counts), gm_probs)


def exact_operator(env: Environment, q: QTable, s: int, a: int, counts,
                   **rules) -> float:
    """Exact expectation of the sampled backup at the entry of the count row
    ``counts`` in q's mode: a read of ``exact_sweep``, which computes the
    whole table."""
    return float(exact_sweep(env, q, **rules)[s, a, q.index().rank(counts)])


# ---------------------------------------------------------------------------
# The tabulated surrogate model and the value-iteration engine
# ---------------------------------------------------------------------------


class SurrogateModel(NamedTuple):
    """Surrogate kernel and reward tabulated at the marginal histogram
    points g = 0..G-1, shared by every learner.

    ``pmf[s, a, g]`` is P(. | s, a, g / kappa) and ``rewards[s, a, g]`` the
    local reward; ``gm_rank[g, s, x]`` ranks the aggregate a neighbor in
    state x sees next to a focal agent in state s (0 where g has no agent in
    x); ``slot_states[g]`` lists the kappa neighbor states in state-major
    order. The histogram of rank g counts ``index.counts_by_rank[g]``.
    """

    index: HistogramIndex
    pmf: np.ndarray  # (S, A, G, S)
    rewards: np.ndarray  # (S, A, G)
    gm_rank: np.ndarray  # (G, S, S)
    slot_states: np.ndarray  # (G, kappa)


def tabulate(env: Environment, kappa: int, aggregate_rule: str) -> SurrogateModel:
    """Tabulate the surrogate model of ``env`` at subsample size kappa."""
    if aggregate_rule not in AGGREGATE_RULES:
        raise ValueError(f"aggregate_rule must be one of {AGGREGATE_RULES}")
    S, A = env.n_states, env.n_actions
    index = get_index(S, kappa)
    index.cell_codes()  # codes past 64 bits: a BudgetError before the kernel runs
    G = index.total
    hist_counts = index.counts_by_rank
    s_grid, a_grid, _ = np.indices((S, A, G))
    g_grid = np.broadcast_to(hist_counts / kappa, (S, A, G, S))
    pmf = transitions(env, s_grid, a_grid, g_grid)
    rewards = env_rewards(env, s_grid, a_grid, g_grid)
    if pmf.shape != (S, A, G, S) or rewards.shape != (S, A, G):
        raise ValueError("environment kernel returned a malformed table")
    for invalid, what in ((invalid_pmfs(pmf), "transition kernel returned an invalid pmf"),
                          (~np.isfinite(rewards), "reward kernel returned a non-finite reward")):
        if invalid.any():
            s, a, g = np.argwhere(invalid)[0]
            raise ValueError(f"{what} at (s={s}, a={a}), g = {hist_counts[g]} / {kappa}")

    gm = np.broadcast_to(hist_counts[:, None, None, :], (G, S, S, S)).copy()  # [g, s, x]
    if aggregate_rule == "leave_one_out":
        xs = np.arange(S)
        gm[:, :, xs, xs] -= 1  # the neighbor leaves ...
        gm[:, xs, :, xs] += 1  # ... and the focal agent joins
    present = np.broadcast_to((hist_counts > 0)[:, None, :], (G, S, S))
    gm_rank = np.zeros((G, S, S), dtype=np.int64)
    gm_rank[present] = index.rank_rows(gm[present])
    return SurrogateModel(index, pmf, rewards, gm_rank, _slots(hist_counts))


class _FrozenEngine:
    """Value iteration with either Bellman operator, in joint and in
    marginal mode.

    Entries e = (s * A + a) * H + h range over the table's histogram ranks h:
    state marginals, or joint histograms whose neighbor slots take state and
    action from the histogram in cell-major order. The neighbor slots' laws
    depend on the key k = s * H + h and never on the focal action a, so the
    A entries of a key share its neighbor draws (common random numbers across
    actions) and each entry draws only its own focal transitions; every
    entry's m samples are still i.i.d. from its surrogate law. The empirical
    operator reads its uniforms from one ``stream(seed, "vi-frozen", kappa)``:
    first every key's m kappa neighbor uniforms, key by key (sample-major,
    slot order), then every entry's m focal uniforms, entry by entry. So key
    k's neighbor draws start at k m kappa and entry e's focal draws at
    S H m kappa + e m, where the reference ``empirical_operator`` reads them
    from two copies of that stream advanced to those offsets. The build
    reads the stream in two passes, in blocks of whole keys and then of
    whole entries, and reduces each block to its frozen indices or codes
    before it draws the next. Consecutive draws from one generator are the
    draws of one call, so the block size changes no output. A block holds at
    most ``_FROZEN_BLOCK`` uniforms, or one key or entry where that needs
    more, and forms the states and laws of its keys' neighbor slots, which
    no sweep reads; so the build needs about 256 KB of draws and their slot
    arrays above the arrays the engine keeps, whatever m. The exact
    operator holds per entry the focal next-state pmf and per key the law of
    the neighbors' next marginal, which it convolves from every slot law at
    once. A sweep is then a gather over the current table, bit-reproducible
    for any worker count.

    The empirical operator reads each sample's next marginal as a sum of
    additive slot codes (``HistogramIndex.cell_codes``), which the index's
    one code -> rank map (``HistogramIndex.code_ranker``) turns into a rank.
    The build never materializes a drawn state: the inverse transform
    (``sampler.inverse_cdf``) adds the code step ``codes[x + 1] - codes[x]``
    for each cdf threshold x that a slot's uniform passes, and a step of G
    for each that the focal uniform passes. Where the slot laws are
    static, every sample's backup sits at one frozen flat index
    ``s' * G + rank`` of the (S, G) backup table: the first pass writes each
    key's ranks into its A entries' rows, the second adds the focal offsets.
    A sweep gathers the E m backups at once and takes numpy's row mean where
    they fit in ``_FROZEN_BLOCK``; past that the indices are kept
    sample-major, (m, E), and the sweep sums each entry's backups eight
    samples at a time in the same pairwise order (``_sample_mean``), so it
    never holds all E m of them. Under the greedy rule every slot in state x
    sees the aggregate ``gm_rank[g, s, x]``, so all the slots of one state
    take the same greedy action in every sweep. Each (key, state, action)
    keeps, per sample, the sum of the codes its state's slots draw under
    that action: S H S A m codes, not S H kappa A m (a state without slots
    keeps zeros). A sweep gathers the row of each state's current greedy
    action, sums the rows over the states, ranks the sums per key and adds
    them to each of the key's entries' focal offsets; integer sums are exact
    in any order, so every rank is the one the per-slot codes give.
    """

    def __init__(self, env: Environment, kappa: int, m: int, seed: int, *, mode: str,
                 neighbor_action_rule: str, aggregate_rule: str,
                 operator: str = "empirical"):
        if neighbor_action_rule not in ACTION_RULES:
            raise ValueError(f"neighbor_action_rule must be one of {ACTION_RULES}")
        S, A = env.n_states, env.n_actions
        self.mode, self.kappa = mode, kappa
        # only marginal mode lets the current table pick neighbor actions
        self.greedy = mode == "marginal" and neighbor_action_rule == "greedy"
        self.exact = operator == "exact"
        self.n_entries = E = table_size(mode, kappa, S, A)
        if self.exact:
            if self.greedy:
                raise GmfsError("the greedy neighbor rule makes the exact operator's law "
                                "depend on Q; use the uniform rule or the empirical operator")
            # a sweep forms the (E, G) continuations of every entry's law
            law_entries = E * num_histograms(S, kappa)
            if law_entries > MAX_TABLE_ENTRIES:
                raise BudgetError(
                    f"exact operator law with {law_entries} entries exceeds the memory "
                    f"budget ({MAX_TABLE_ENTRIES}); use the empirical operator")
        elif m < 1:
            raise ValueError("m must be >= 1")
        else:
            # the kept samples: flat, and next_codes (S H S A m) under the greedy rule
            kept = E * m * (1 + S * self.greedy)
            if kept > MAX_TABLE_ENTRIES:
                raise BudgetError(
                    f"{kept} kept frozen samples exceed the memory budget "
                    f"({MAX_TABLE_ENTRIES}); lower m")
            cell_codes = get_index(S, kappa).cell_codes()
            # a code sum is at most kappa (kappa+1)^(S-2)
            code_dtype = _int_dtype(kappa * cell_codes[-1])
        model = tabulate(env, kappa, aggregate_rule)
        G = model.index.total
        if mode == "joint":
            layout = joint_layout(S, A, kappa)
            h_marginal = layout.marginal_rank
        else:
            h_marginal = np.arange(G)
        H = h_marginal.size
        K = S * H

        # entry e = (s * A + a) * H + h of the (S, A, H) table, key k = s * H + h
        self.rewards = model.rewards[:, :, h_marginal].reshape(-1)
        if mode == "marginal" and not self.greedy:
            uniform_pmf = model.pmf.mean(axis=1)  # (S, G, S): uniform neighbor actions

        def entry_keys(lo, hi):
            """The state, action and marginal rank of the entries lo..hi - 1."""
            e = np.arange(lo, hi)
            return e // (H * A), e // H % A, h_marginal[e % H]

        def key_parts(lo, hi):
            """The state, histogram rank and marginal rank of the keys lo..hi - 1."""
            s, h = np.divmod(np.arange(lo, hi), H)
            return s, h, h_marginal[h]

        def slot_laws(s, h, g):
            """The neighbor slots of the keys (s, h, g): their states
            (B, kappa) and next-state laws (B, kappa, S), or (B, kappa, A, S)
            per candidate action under the greedy rule. No sweep reads them."""
            states = model.slot_states[g]
            gm_rank = model.gm_rank[g[:, None], s[:, None], states]
            if self.greedy:
                # advanced indices split by a slice land in front
                return states, model.pmf[states, :, gm_rank]
            if mode == "joint":
                return states, model.pmf[states, _slots(layout.counts[h]) % A, gm_rank]
            return states, uniform_pmf[states, gm_rank]

        if self.greedy:
            # state-major (S, K) lookups: a sweep's row gather comes out
            # (S, K, m), and its sum over the states adds whole blocks
            s, _, g = key_parts(0, K)
            self.slot_key = (np.arange(S) * G + model.gm_rank[g, s]).T.copy()
            self.slot_base = (np.arange(S)[:, None] + np.arange(K) * S) * A
            # the summed coupled inverse-CDF outcome codes of each state's
            # slots under each candidate action, one row of m samples per
            # (key, state, action); a state without slots sums to 0
            next_codes = np.zeros((K, S, A, m), dtype=code_dtype)
        elif self.exact:
            # the slot laws are static, and each key's law of the next
            # marginal convolves all of its slots' laws at once
            s, a, g = entry_keys(0, E)
            self.focal_pmf = model.pmf[s, a, g]  # (E, S)
            self.law = _marginal_law(slot_laws(*key_parts(0, K))[1]).reshape(S, 1, H, G)
            return
        code_rank = model.index.code_ranker
        steps = np.diff(cell_codes)
        focal_steps, focal_dtype = np.full(S - 1, G), _int_dtype((S - 1) * G)
        # the next focal state's offset s' * G in the flat (S, G) backup table,
        # plus, where the slot laws are static, the rank of the next marginal;
        # sample-major where a sweep sums it slab by slab, written through its
        # transpose; self.flat is (m, E) either way
        self.by_slab = not self.greedy and E * m > _FROZEN_BLOCK
        flat = (np.zeros((m, E), dtype=np.int64).T if self.by_slab
                else np.zeros((E, m), dtype=np.int64))
        by_key = flat.reshape(S, A, H, m)  # a view: key (s, h) owns rows [s, :, h]
        frozen = stream(seed, "vi-frozen", kappa)
        # pass 1, whole keys per block (at most _FROZEN_BLOCK uniforms, and at
        # most 2M uniform-threshold comparisons per cdf threshold): per
        # sample, one uniform per neighbor slot
        block = max(1, min(_FROZEN_BLOCK // (m * kappa), 2_000_000 // (m * kappa * A)))
        for lo in range(0, K, block):
            hi = min(lo + block, K)
            s, h, g = key_parts(lo, hi)
            slot_states, slot_pmf = slot_laws(s, h, g)
            uni = frozen.random((hi - lo, m, kappa))
            if self.greedy:
                slot_uni = uni.transpose(0, 2, 1)[:, :, None, :]
                codes = inverse_cdf(slot_pmf[:, :, :, None, :], slot_uni,
                                    steps, code_dtype)                # (B, kappa, A, m)
                # each slot's codes go to its state's rows; one slot index
                # names one state per key, so no row is added twice
                by_state, at = next_codes[lo:hi], np.arange(hi - lo)
                for k in range(kappa):
                    by_state[at, slot_states[:, k]] += codes[:, k]
            else:
                # each sample's code sums the codes its slots draw; the
                # key's A entries share its ranks
                codes = inverse_cdf(slot_pmf[:, None], uni, steps, code_dtype)
                by_key[s, :, h] = code_rank(codes.sum(axis=2, dtype=code_dtype))[:, None]
        # pass 2, whole entries per block: m focal uniforms each, and a step
        # of G per cdf threshold the focal uniform passes
        block = max(1, _FROZEN_BLOCK // m)
        for lo in range(0, E, block):
            hi = min(lo + block, E)
            s, a, g = entry_keys(lo, hi)
            flat[lo:hi] += inverse_cdf(model.pmf[s, a, g][:, None, :],
                                       frozen.random((hi - lo, m)), focal_steps, focal_dtype)
        if self.greedy:
            self.next_codes = next_codes.reshape(-1, m)
            self.focal_offset, self.code_rank = by_key, code_rank
        else:
            self.flat = flat.T

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Continuation vector: the expected (exact operator) or mean frozen
        (empirical operator) fiber backup per entry under the current table."""
        m_values = fiber_max(values, self.mode, self.kappa).max(axis=1)  # (S, G)
        if self.exact:
            S, _, H, G = self.law.shape
            cont = (self.focal_pmf @ m_values).reshape(S, -1, H, G)  # (S, A, H, G)
            return (cont * self.law).sum(axis=3).ravel()
        if self.greedy:
            greedy = np.argmax(values, axis=1).ravel().take(self.slot_key)  # (S, K)
            codes = self.next_codes.take(self.slot_base + greedy, axis=0)  # (S, K, m)
            ranks = self.code_rank(codes.sum(axis=0, dtype=codes.dtype))   # (K, m)
            S, _, H, m = self.focal_offset.shape
            flat = (self.focal_offset + ranks.reshape(S, 1, H, m)).reshape(-1, m)
        elif self.by_slab:
            return _sample_mean(m_values.ravel(), self.flat)
        else:
            flat = self.flat.T
        # the row mean of the (E, m) backups, as .mean(axis=1) computes it
        return np.add.reduce(m_values.ravel().take(flat), axis=1) / flat.shape[1]


def _int_dtype(bound: int):
    """The smallest signed integer dtype that holds ``bound``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _sample_mean(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``table.take(idx.T).mean(axis=1)`` for sample-major indices ``idx``
    ((m, E) -> (E,)), bit for bit, holding eight samples at a time. The sum
    runs in numpy's pairwise order along a row: eight running sums over
    blocks of eight samples, added as a tree, then the rest one at a time;
    past 128 samples, the sums of two halves split at a multiple of eight.
    Starting from +0.0 as numpy does makes a sum of -0.0s +0.0."""
    return (0.0 + _pairwise_sum(table, idx)) / len(idx)


def _pairwise_sum(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    n = len(idx)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(table, idx[:half]) + _pairwise_sum(table, idx[half:])
    if n < 8:
        total, rest = table.take(idx[0]), idx[1:]
    else:
        sums = table.take(idx[:8])
        for lo in range(8, n - n % 8, 8):
            sums += table.take(idx[lo:lo + 8])
        while len(sums) > 1:  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            sums = sums[0::2] + sums[1::2]
        total, rest = sums[0], idx[n - n % 8:]
    for row in rest:
        total += table.take(row)
    return total


def _marginal_law(slot_pmf: np.ndarray) -> np.ndarray:
    """(E, G) law of the histogram of kappa independent draws, draw k from
    ``slot_pmf[:, k]`` ((E, kappa, S)), by rank. One draw at a time: the
    mass of each histogram of k draws moves, per state x, to the histogram
    of k + 1 draws with one more agent in x."""
    E, kappa, S = slot_pmf.shape
    counts = np.zeros((1, S), dtype=np.int64)  # the one histogram of no draws
    law = np.ones((E, 1))
    for k in range(kappa):
        grown_index = get_index(S, k + 1)
        grown = (counts[:, None, :] + np.eye(S, dtype=np.int64)).reshape(-1, S)
        ranks = grown_index.rank_rows(grown).reshape(-1, S)
        counts = grown_index.counts_by_rank
        nxt = np.zeros((E, grown_index.total))
        for x in range(S):  # adding one agent in x is injective
            nxt[:, ranks[:, x]] += law * slot_pmf[:, k, x, None]
        law = nxt
    return law


# ---------------------------------------------------------------------------
# Value iteration (offline learning)
# ---------------------------------------------------------------------------


def exact_sweep(env: Environment, q: QTable, *, neighbor_action_rule: str = "uniform",
                aggregate_rule: str = "leave_one_out") -> np.ndarray:
    """The exact operator applied to every entry of ``q``."""
    # m and seed are unused by the exact operator
    engine = _FrozenEngine(env, q.kappa, 1, 0, mode=q.mode, operator="exact",
                           neighbor_action_rule=neighbor_action_rule,
                           aggregate_rule=aggregate_rule)
    return (engine.rewards + q.gamma * engine.sweep(q.values)).reshape(q.values.shape)


def value_iteration(env: Environment, kappa: int, m: int, iterations: int = DEFAULT_ITERATIONS,
                    seed: int = 0, *, mode: str = "marginal", gamma: float | None = None,
                    epsilon: float = DEFAULT_EPSILON,
                    neighbor_action_rule: str = "uniform",
                    aggregate_rule: str = "leave_one_out",
                    operator: str = "empirical",
                    reward_noise: float = 0.0, xi: int = 1) -> QTable:
    """Synchronous value iteration from zero initialization.

    Runs at most ``iterations`` sweeps, recording the residual
    ||Q_{t+1} - Q_t||_inf per sweep, and stops early once the residual drops
    below ``epsilon``. ``operator`` selects the frozen-sample empirical
    operator (default; m samples per entry) or the exact expectation (m is
    unused; refused under the greedy rule in marginal mode, and when its
    law exceeds the table budget). Both run on the same vectorized engine.

    Stochastic rewards: with ``reward_noise`` > 0, each sweep replaces the
    reward of every entry with the mean of ``xi`` fresh draws, uniform within
    ``reward_noise`` of it, from the stream keyed by ``seed`` and the sweep.
    The transition samples stay frozen, so zero noise reproduces the
    deterministic trajectory bit for bit.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if operator not in OPERATORS:
        raise ValueError(f"operator must be one of {OPERATORS}")
    if xi < 1:
        raise ValueError("xi must be >= 1")
    if not 0 <= reward_noise < math.inf:
        raise ValueError("reward_noise must be a finite half-width >= 0")
    if mode == "marginal" and not env.marginal_sufficient:
        raise GmfsError(
            f"environment {env.name!r} does not declare marginal sufficiency; "
            "marginal mode is not valid"
        )
    gamma = env.discount if gamma is None else float(gamma)
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    q = QTable.zeros(mode, kappa, env.n_states, env.n_actions, gamma,
                     env_name=env.name, seed=seed)
    engine = _FrozenEngine(env, kappa, m, seed, mode=mode, operator=operator,
                           neighbor_action_rule=neighbor_action_rule,
                           aggregate_rule=aggregate_rule)
    for t in range(iterations):
        r_t = engine.rewards
        if reward_noise > 0:
            u = stream(seed, "reward-noise", kappa, t).random((engine.n_entries, xi))
            r_t = r_t + reward_noise * (2.0 * u - 1.0).mean(axis=1)
        new_values = (r_t + gamma * engine.sweep(q.values)).reshape(q.values.shape)
        residual = float(np.abs(new_values - q.values).max())
        q.values = new_values
        q.iterations = t + 1
        q.residual = residual
        q.residual_history.append(residual)
        q.sup_history.append(q.sup_norm())
        if residual < epsilon:
            break
    return q


# ---------------------------------------------------------------------------
# Off-policy learning (historical data / stochastic approximation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffPolicyConfig:
    """Learning-rate schedule plus the exploration policy.

    behavior_policy maps (state, marginal rank) to an action pmf; None means
    uniform. It must be strictly positive on every action so the induced
    chain visits all entries.
    """

    learning_rate: float = 0.05
    decay: float = 0.0  # alpha_t = learning_rate / (1 + decay * t)
    behavior_policy: object = None

    def alpha(self, t):
        """The rate at step t, or elementwise at an integer array of steps
        (the same float operations, so the same values)."""
        return self.learning_rate / (1.0 + self.decay * t)

    def action_pmf(self, s: int, g_rank: int, n_actions: int) -> np.ndarray:
        if self.behavior_policy is None:
            return np.full(n_actions, 1.0 / n_actions)
        pmf = np.asarray(self.behavior_policy(s, g_rank), dtype=np.float64)
        if pmf.shape != (n_actions,) or np.any(pmf <= 0.0):
            raise ValueError("behavior policy must be strictly positive on every action")
        return pmf / pmf.sum()

    def __post_init__(self):
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning rate must lie in (0, 1]")
        if not 0 <= self.decay < np.inf:  # nan fails too
            raise ValueError("decay must be finite and >= 0")


def off_policy_learn(env: Environment, kappa: int, steps: int, seed: int = 0, *,
                     gamma: float | None = None, config: OffPolicyConfig | None = None,
                     aggregate_rule: str = "leave_one_out") -> QTable:
    """Q-learning along one surrogate-system trajectory.

    The focal agent explores with the configured behavior policy (uniform by
    default); surrogate neighbors act uniformly, matching the ergodic
    behavior-policy assumption, so the learned table approximates the fixed
    point of the uniform-rule sampled operator.
    """
    config = config or OffPolicyConfig()
    gamma = env.discount if gamma is None else float(gamma)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    q = QTable.zeros("marginal", kappa, env.n_states, env.n_actions, gamma,
                     env_name=env.name, seed=seed)
    S, A = env.n_states, env.n_actions
    model = tabulate(env, kappa, aggregate_rule)
    G = model.index.total
    # The trajectory never reads Q, so each step is a few scalar lookups in
    # Python-list tables indexed by the chain state x = s * G + g. Every cdf
    # row drops its last entry: bisect_right on the rest counts the entries
    # <= u, capped at S - 1, exactly as min(searchsorted(row, u,
    # side="right"), S - 1) does.
    x_s, x_g = np.divmod(np.arange(S * G), G)
    focal_cdf = np.cumsum(model.pmf[x_s, :, x_g], axis=2)[..., :-1].tolist()  # [x][a]
    rewards = model.rewards[x_s, :, x_g].tolist()               # [x][a]
    x_slots = model.slot_states[x_g]                            # (S G, kappa)
    nb_cdf = np.cumsum(model.pmf.mean(axis=1), axis=2)          # uniform actions
    nb_rows = nb_cdf[..., :-1][
        x_slots, model.gm_rank[x_g[:, None], x_s[:, None], x_slots]].tolist()
    # per x, each neighbor slot's uniform column (after the action's and the
    # focal agent's) and cdf row
    nb_slots = [list(enumerate(rows, 2)) for rows in nb_rows]  # [x][slot]
    # a next chain state x' = s' * G + g' by its code s' * span plus the
    # cell-code sum of g', a Python int
    cell_code = model.index.cell_codes().tolist()
    span = kappa * cell_code[-1] + 1  # past every cell-code sum
    focal_code = [s * span for s in range(S)]
    x_of = {s * span + code: s * G + g for s in range(S)
            for g, code in enumerate((model.index.counts_by_rank @ cell_code).tolist())}
    behavior_cdf = None
    if config.behavior_policy is not None:
        behavior_cdf = [np.cumsum(config.action_pmf(s, g, A))[:-1].tolist()
                        for s, g in zip(x_s.tolist(), x_g.tolist())]  # [x]
    values = [[0.0] * A for _ in range(S * G)]                  # [x][a]

    rng = stream(seed, "off-policy", kappa)
    x = int(rng.integers(0, S)) * G + int(rng.integers(0, G))
    t = 0
    while t < steps:
        # the same rows whatever the block length; short blocks keep the
        # list copies small
        block = rng.random((min(_OFF_POLICY_BLOCK, steps - t), kappa + 2))
        alphas = config.alpha(np.arange(t, t + len(block))).tolist()
        # per row: the action under the uniform behavior policy, which is
        # min(int(u * A), A - 1) by the same float product, else the uniform
        # the behavior policy reads
        first = (np.minimum((block[:, 0] * A).astype(np.int64), A - 1)
                 if behavior_cdf is None else block[:, 0]).tolist()
        for a, u, alpha in zip(first, block.tolist(), alphas):
            if behavior_cdf is not None:
                a = bisect_right(behavior_cdf[x], a)
            code = focal_code[bisect_right(focal_cdf[x][a], u[1])]
            for j, row in nb_slots[x]:
                code += cell_code[bisect_right(row, u[j])]
            xn = x_of[code]
            entry = values[x]
            entry[a] += alpha * (rewards[x][a] + gamma * max(values[xn]) - entry[a])
            x = xn
        t += len(block)
    q.values = np.array(values).reshape(S, G, A).transpose(0, 2, 1).copy()
    q.iterations = steps
    q.residual = float("nan")
    return q


# ---------------------------------------------------------------------------
# Sample budget (how many Monte-Carlo draws per backup the theory asks for)
# ---------------------------------------------------------------------------


def sample_budget(kappa: int, gamma: float, reward_bound: float,
                  n_states: int, n_actions: int) -> int:
    """Theoretical per-entry sample count
    m* = 25 kappa^2 gamma^2 / (1-gamma)^4 * B^2 * ln(200 |S|^2 |A|^2 kappa^{|S||A|}),
    returned as max(1, ceil(m*))."""
    if kappa < 1 or n_states < 1 or n_actions < 1 or reward_bound <= 0:
        raise ValueError("inputs must be positive")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    log_term = (math.log(200.0) + 2.0 * math.log(n_states) + 2.0 * math.log(n_actions)
                + n_states * n_actions * math.log(kappa))
    value = (25.0 * kappa ** 2 * gamma ** 2 / (1.0 - gamma) ** 4
             * reward_bound ** 2 * log_term)
    if not math.isfinite(value):
        raise OverflowError("sample budget overflows floating point range")
    return max(1, math.ceil(value))


# ---------------------------------------------------------------------------
# Q-table file format: little-endian, magic "GMFSQT01", CRC32 trailer
# ---------------------------------------------------------------------------

MAGIC = b"GMFSQT01"
_MODE_CODES = {"joint": 0, "marginal": 1}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}


def save_qtable(q: QTable, path) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    name = q.env_name.encode("utf-8")
    buf.write(struct.pack("<BIII", _MODE_CODES[q.mode], q.n_states, q.n_actions, q.kappa))
    buf.write(struct.pack("<ddQ", q.gamma, q.residual, q.seed))
    buf.write(struct.pack("<I", len(name)))
    buf.write(name)
    payload = np.ascontiguousarray(q.values.reshape(-1), dtype="<f8")
    buf.write(payload.tobytes())
    data = buf.getvalue()
    crc = zlib.crc32(data) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(struct.pack("<I", crc))


def load_qtable(path) -> QTable:
    """Read a q-table file; any damage to it is a FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4:
        raise FormatError("q-table file is truncated")
    data, crc_bytes = blob[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(data) & 0xFFFFFFFF != stored_crc:
        raise FormatError("q-table file failed its checksum; the file is corrupt")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(
            f"unrecognized q-table format (expected magic {MAGIC!r}); "
            "enumeration-order version mismatch"
        )
    off = len(MAGIC)
    try:
        mode_code, n_states, n_actions, kappa = struct.unpack_from("<BIII", data, off)
        off += struct.calcsize("<BIII")
        gamma, residual, seed = struct.unpack_from("<ddQ", data, off)
        off += struct.calcsize("<ddQ")
        (name_len,) = struct.unpack_from("<I", data, off)
        off += 4
        env_name = data[off : off + name_len].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"q-table header is truncated or malformed: {exc}") from exc
    off += name_len
    if mode_code not in _MODE_NAMES:
        raise FormatError(f"unknown mode code {mode_code}")
    mode = _MODE_NAMES[mode_code]
    if min(n_states, n_actions, kappa) < 1:
        raise FormatError(f"q-table header dims |S|={n_states}, |A|={n_actions}, "
                          f"kappa={kappa} must all be >= 1")
    alphabet = histogram_alphabet(mode, n_states, n_actions)
    payload = data[off:]
    # the histogram count is bounded by the payload through its logarithm
    # before it is computed, so that no header builds a huge integer
    log_count = math.lgamma(kappa + alphabet) - math.lgamma(kappa + 1) - math.lgamma(alphabet)
    count = num_histograms(alphabet, kappa) if log_count <= math.log(len(payload) + 1) else None
    if count is None or len(payload) != n_states * n_actions * count * 8:
        need = "more" if count is None else n_states * n_actions * count
        raise FormatError(
            f"q-table payload holds {len(payload) // 8} values but the header "
            f"dims |S|={n_states}, |A|={n_actions}, kappa={kappa} require {need}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(n_states, n_actions, count).copy()
    return QTable(mode, kappa, n_states, n_actions, values, gamma,
                  env_name=env_name, seed=seed, residual=residual)
