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

One tabulated surrogate model (``tabulate``: kernel, cdf and reward at the
histogram points, leave-one-out ranks, neighbor slots) feeds every learner,
and one engine runs value iteration with either Bellman operator in both
modes. The empirical operator freezes per-entry sample sets (streams keyed by
seed and entry rank) across sweeps, so the iteration is a fixed
gamma-contraction and the residual decays geometrically to the
sample-operator fixed point. The exact operator takes the expectation
instead: per entry, the focal next-state pmf and the law of g', the kappa
neighbor laws convolved over histogram ranks. The greedy rule makes that law
depend on Q, so the exact operator runs under the uniform rule (or in joint
mode) only. ``surrogate_step`` and ``empirical_operator`` work per entry;
they are the reference the engine is tested against bit for bit.
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

from .env import Environment, StochasticRewardEnv, local_reward, step_distribution
from .errors import BudgetError, FormatError, GmfsError
from .histograms import (
    Histogram,
    HistogramIndex,
    get_index,
    marginal as hist_marginal,
    num_histograms,
)
from .rng import stream

MODES = ("joint", "marginal")
AGGREGATE_RULES = ("leave_one_out", "shared")
ACTION_RULES = ("greedy", "uniform")
OPERATORS = ("empirical", "exact")

DEFAULT_EPSILON = 1e-4
DEFAULT_ITERATIONS = 250
MAX_TABLE_ENTRIES = 50_000_000
_OFF_POLICY_BLOCK = 4096  # uniform rows per list conversion


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
        return self.n_states * self.n_actions if self.mode == "joint" else self.n_states

    def histogram_count(self) -> int:
        return num_histograms(self.alphabet_size(), self.kappa)

    def index(self) -> HistogramIndex:
        return get_index(self.alphabet_size(), self.kappa)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    @staticmethod
    def zeros(mode: str, kappa: int, n_states: int, n_actions: int, gamma: float,
              env_name: str = "", seed: int = 0) -> "QTable":
        alphabet = n_states * n_actions if mode == "joint" else n_states
        count = num_histograms(alphabet, kappa)
        entries = n_states * n_actions * count
        if entries > MAX_TABLE_ENTRIES:
            raise BudgetError(
                f"table with {entries} entries exceeds the memory budget "
                f"({MAX_TABLE_ENTRIES})"
            )
        return QTable(mode, kappa, n_states, n_actions,
                      np.zeros((n_states, n_actions, count)), gamma,
                      env_name=env_name, seed=seed)


def table_size(mode: str, kappa: int, n_states: int, n_actions: int) -> int:
    alphabet = n_states * n_actions if mode == "joint" else n_states
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
    counts = np.array([z_index.unrank_counts(z) for z in range(z_index.total)], dtype=np.int64)
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
    """max over a' (and, in joint mode, all completions z' of g') of Q."""
    if isinstance(g_next, Histogram):
        g_rank = get_index(q.n_states, q.kappa).rank(g_next)
    else:
        g_rank = int(g_next)
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


def expand_surrogate(hist: Histogram):
    """Deterministic cell-major expansion of a histogram into its kappa
    agents: (states, actions) arrays whose pair tally reproduces the
    histogram. Marginal histograms carry states only (actions None)."""
    cells = np.repeat(np.arange(hist.alphabet_size), hist.counts_array())
    if hist.joint_shape is None:
        return cells, None
    n_actions = hist.joint_shape[1]
    return cells // n_actions, cells % n_actions


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
    g_rank = get_index(q.n_states, q.kappa).rank_rows(gm_counts[None, :])[0]
    return fiber_argmax(q, x, int(g_rank))


def surrogate_step(env: Environment, s: int, a: int, hist: Histogram,
                   rng: np.random.Generator, *, q: QTable | None = None,
                   neighbor_action_rule: str = "uniform",
                   aggregate_rule: str = "leave_one_out"):
    """One draw of the (kappa+1)-agent surrogate transition.

    Returns (s_next, g_next): the focal agent's next state and the histogram
    of the neighbors' next states, for marginal and for joint input alike
    (joint input fixes the neighbors' current actions).

    Draw order is fixed: one uniform for the focal transition, then one per
    neighbor in state-major histogram order (the uniform action rule draws
    from the action-mixture law, so it also consumes one uniform per
    neighbor); this makes outcomes replayable from a frozen uniform block.
    """
    if aggregate_rule not in AGGREGATE_RULES:
        raise ValueError(f"aggregate_rule must be one of {AGGREGATE_RULES}")
    if neighbor_action_rule not in ACTION_RULES:
        raise ValueError(f"neighbor_action_rule must be one of {ACTION_RULES}")
    kappa = hist.kappa
    nb_states, nb_actions = expand_surrogate(hist)
    g_counts = (hist_marginal(hist) if hist.joint_shape else hist).counts_array()
    g_probs = g_counts / kappa

    if nb_actions is None and neighbor_action_rule == "greedy" and q is None:
        raise ValueError("greedy neighbor actions need the current Q-table")

    uniforms = rng.random(kappa + 1)
    focal_pmf = step_distribution(env, s, a, g_probs)
    s_next = int(np.searchsorted(np.cumsum(focal_pmf), uniforms[0], side="right"))
    s_next = min(s_next, env.n_states - 1)

    next_states = np.empty(kappa, dtype=np.int64)
    for m in range(kappa):
        x = int(nb_states[m])
        gm = _neighbor_marginal(g_counts, s, x, aggregate_rule)
        known = None if nb_actions is None else int(nb_actions[m])
        pmf = _neighbor_pmf(env, q, x, gm, kappa, neighbor_action_rule, known_action=known)
        nxt = int(np.searchsorted(np.cumsum(pmf), uniforms[1 + m], side="right"))
        next_states[m] = min(nxt, env.n_states - 1)

    counts = np.bincount(next_states, minlength=env.n_states)
    return s_next, Histogram(tuple(int(c) for c in counts), kappa)


def empirical_operator(env: Environment, q: QTable, s: int, a: int, hist: Histogram,
                       m: int, rng: np.random.Generator, *,
                       neighbor_action_rule: str = "uniform",
                       aggregate_rule: str = "leave_one_out") -> float:
    """Reward plus gamma times the mean of m fiber backups at i.i.d.
    surrogate outcomes."""
    if m < 1:
        raise ValueError("m must be >= 1")
    g_probs = (hist_marginal(hist) if hist.joint_shape else hist).probs
    r = local_reward(env, s, a, g_probs)
    if q.gamma == 0.0:
        return r
    backups = np.empty(m)
    for ell in range(m):
        s_next, g_next = surrogate_step(
            env, s, a, hist, rng, q=q,
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


def exact_operator(env: Environment, q: QTable, s: int, a: int, hist: Histogram,
                   **rules) -> float:
    """Exact expectation of the sampled backup at one entry: a read of
    ``exact_sweep``, which computes the whole table."""
    return float(exact_sweep(env, q, **rules)[s, a, q.index().rank(hist)])


# ---------------------------------------------------------------------------
# The tabulated surrogate model and the value-iteration engine
# ---------------------------------------------------------------------------


class SurrogateModel(NamedTuple):
    """Surrogate kernel and reward tabulated at the marginal histogram
    points g = 0..G-1, shared by every learner.

    ``pmf[s, a, g]``/``cdf[s, a, g]`` are P(. | s, a, g / kappa) and
    ``rewards[s, a, g]`` the local reward; ``gm_rank[g, s, x]`` ranks the
    aggregate a neighbor in state x sees next to a focal agent in state s
    (0 where g has no agent in x); ``slot_states[g]`` lists the kappa
    neighbor states in state-major order.
    """

    index: HistogramIndex
    hist_counts: np.ndarray  # (G, S)
    pmf: np.ndarray  # (S, A, G, S)
    cdf: np.ndarray  # (S, A, G, S)
    rewards: np.ndarray  # (S, A, G)
    gm_rank: np.ndarray  # (G, S, S)
    slot_states: np.ndarray  # (G, kappa)

    def uniform_cdf(self) -> np.ndarray:
        """(S, G, S) neighbor next-state cdf under uniformly drawn actions."""
        return np.cumsum(self.pmf.mean(axis=1), axis=2)


def tabulate(env: Environment, kappa: int, aggregate_rule: str) -> SurrogateModel:
    """Tabulate the surrogate model of ``env`` at subsample size kappa."""
    if aggregate_rule not in AGGREGATE_RULES:
        raise ValueError(f"aggregate_rule must be one of {AGGREGATE_RULES}")
    S, A = env.n_states, env.n_actions
    index = get_index(S, kappa)
    G = index.total
    hist_counts = np.array([index.unrank_counts(g) for g in range(G)], dtype=np.int64)
    hist_probs = hist_counts / kappa
    pmf = np.empty((S, A, G, S))
    rewards = np.empty((S, A, G))
    for s in range(S):
        for a in range(A):
            for g in range(G):
                pmf[s, a, g] = step_distribution(env, s, a, hist_probs[g])
                rewards[s, a, g] = local_reward(env, s, a, hist_probs[g])

    gm = np.broadcast_to(hist_counts[:, None, None, :], (G, S, S, S)).copy()  # [g, s, x]
    if aggregate_rule == "leave_one_out":
        xs = np.arange(S)
        gm[:, :, xs, xs] -= 1  # the neighbor leaves ...
        gm[:, xs, :, xs] += 1  # ... and the focal agent joins
    present = np.broadcast_to((hist_counts > 0)[:, None, :], (G, S, S))
    gm_rank = np.zeros((G, S, S), dtype=np.int64)
    gm_rank[present] = index.rank_rows(gm[present])
    return SurrogateModel(index, hist_counts, pmf, np.cumsum(pmf, axis=3), rewards,
                          gm_rank, _slots(hist_counts))


class _FrozenEngine:
    """Value iteration with either Bellman operator, in joint and in
    marginal mode.

    Entries e = (s * A + a) * H + h range over the table's histogram ranks h:
    state marginals, or joint histograms whose neighbor slots take state and
    action from the histogram in cell-major order. The empirical operator
    draws per-entry uniforms once from the stream the reference
    ``empirical_operator`` reads, ``stream(seed, "vi-frozen", kappa, e)``;
    the exact operator holds per entry the focal next-state pmf and the law
    of the neighbors' next marginal. A sweep is then a gather over the
    current table, which keeps the iteration an exact contraction and
    bit-reproducible for any worker count.
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
        self.n_entries = table_size(mode, kappa, S, A)
        if self.exact:
            if self.greedy:
                raise GmfsError("the greedy neighbor rule makes the exact operator's law "
                                "depend on Q; use the uniform rule or the empirical operator")
            law_entries = self.n_entries * num_histograms(S, kappa)
            if law_entries > MAX_TABLE_ENTRIES:
                raise BudgetError(
                    f"exact operator law with {law_entries} entries exceeds the memory "
                    f"budget ({MAX_TABLE_ENTRIES}); use the empirical operator")
        elif m < 1:
            raise ValueError("m must be >= 1")
        model = tabulate(env, kappa, aggregate_rule)
        self.index = model.index
        if mode == "joint":
            layout = joint_layout(S, A, kappa)
            h_marginal = layout.marginal_rank
        else:
            h_marginal = np.arange(model.index.total)
        H = h_marginal.size

        entries = np.arange(self.n_entries)
        e_h = entries % H
        e_a = entries // H % A
        e_s = entries // H // A
        e_g = h_marginal[e_h]
        self.rewards = model.rewards[e_s, e_a, e_g]
        self.slot_states = model.slot_states[e_g]                      # (E, kappa)
        self.slot_gm_rank = model.gm_rank[e_g[:, None], e_s[:, None], self.slot_states]

        if not self.exact:
            uni = _frozen_uniforms(seed, kappa, self.n_entries, m)
            self.next_focal = _searchsorted_rows(model.cdf[e_s, e_a, e_g][:, None, :],
                                                 uni[:, :, 0])
            slot_uni = uni[:, :, 1:].transpose(0, 2, 1)               # (E, kappa, m)
            chunk = max(1, 2_000_000 // max(1, m * kappa * A))  # entries per lookup
        if self.greedy:
            # coupled inverse-CDF outcome of each slot under each candidate
            # action, one row of m samples per (entry, slot, action); advanced
            # indices split by a slice land in front: (E, kappa, A, S)
            slot_cdf = model.cdf[self.slot_states, :, self.slot_gm_rank][:, :, :, None]
            next_rows = _chunked_searchsorted(
                slot_cdf, slot_uni[:, :, None], chunk, np.int8)       # (E, kappa, A, m)
            self.next_rows = next_rows.reshape(-1, m)
            self.slot_base = np.arange(self.n_entries * kappa).reshape(-1, kappa) * A
            return
        # otherwise the law of every slot is static, and so are the next marginals
        if mode == "joint":
            slot_actions = _slots(layout.counts)[e_h] % A
            slot_pmf = model.pmf[self.slot_states, slot_actions, self.slot_gm_rank]
        else:
            slot_pmf = model.pmf.mean(axis=1)[self.slot_states, self.slot_gm_rank]
        if self.exact:
            self.focal_pmf = model.pmf[e_s, e_a, e_g]                  # (E, S)
            self.law = _marginal_law(slot_pmf, model.index)            # (E, G)
            return
        # in place, so the build peaks with one (E, kappa, S) array, not two
        slot_cdf = np.cumsum(slot_pmf, axis=2, out=slot_pmf)
        nxt = _chunked_searchsorted(slot_cdf[:, :, None], slot_uni, chunk, np.int64)
        self.next_g_rank = self._ranks_from_states(nxt)

    def _ranks_from_states(self, next_states: np.ndarray) -> np.ndarray:
        """(E, m) marginal ranks of (E, kappa, m) neighbor next states."""
        S = self.index.alphabet_size
        E, _, m = next_states.shape
        counts = np.empty((E, m, S), dtype=np.int64)
        for x in range(S):
            counts[:, :, x] = (next_states == x).sum(axis=1)
        return self.index.rank_rows(counts.reshape(E * m, S)).reshape(E, m)

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Continuation vector: the expected (exact operator) or mean frozen
        (empirical operator) fiber backup per entry under the current table."""
        m_values = fiber_max(values, self.mode, self.kappa).max(axis=1)  # (S, G)
        if self.exact:
            return ((self.focal_pmf @ m_values) * self.law).sum(axis=1)
        if self.greedy:
            greedy = np.argmax(values, axis=1)                         # (S, G)
            slot_actions = greedy[self.slot_states, self.slot_gm_rank]  # (E, kappa)
            ranks = self._ranks_from_states(self.next_rows[self.slot_base + slot_actions])
        else:
            ranks = self.next_g_rank
        backups = m_values[self.next_focal, ranks]                     # (E, m)
        return backups.mean(axis=1)


def _marginal_law(slot_pmf: np.ndarray, index: HistogramIndex) -> np.ndarray:
    """(E, G) law of the histogram of kappa independent draws, draw k from
    ``slot_pmf[:, k]`` ((E, kappa, S)), by rank of ``index``. One draw at a
    time: the mass of each histogram of k draws moves, per state x, to the
    histogram of k + 1 draws with one more agent in x."""
    E, kappa, S = slot_pmf.shape
    counts = np.zeros((1, S), dtype=np.int64)  # the one histogram of no draws
    law = np.ones((E, 1))
    for k in range(kappa):
        grown = (counts[:, None, :] + np.eye(S, dtype=np.int64)).reshape(-1, S)
        ranks = index.rank_rows(grown).reshape(-1, S)  # ranks among histograms of k + 1
        counts = np.empty((num_histograms(S, k + 1), S), dtype=np.int64)
        counts[ranks.ravel()] = grown
        nxt = np.zeros((E, counts.shape[0]))
        for x in range(S):  # adding one agent in x is injective
            nxt[:, ranks[:, x]] += law * slot_pmf[:, k, x, None]
        law = nxt
    return law


def _frozen_uniforms(seed: int, kappa: int, n_entries: int, m: int) -> np.ndarray:
    """(E, m, kappa + 1) uniforms: per sample, the focal one, then one per
    neighbor."""
    uni = np.empty((n_entries, m, kappa + 1))
    for e in range(n_entries):
        uni[e] = stream(seed, "vi-frozen", kappa, e).random((m, kappa + 1))
    return uni


def _chunked_searchsorted(cdf: np.ndarray, u: np.ndarray, chunk: int, dtype) -> np.ndarray:
    """``_searchsorted_rows`` over ``chunk`` entries (the first axis) at a
    time, which bounds the size of its intermediates."""
    out = np.empty(np.broadcast_shapes(u.shape, cdf.shape[:-1]), dtype=dtype)
    for lo in range(0, u.shape[0], chunk):
        out[lo:lo + chunk] = _searchsorted_rows(cdf[lo:lo + chunk], u[lo:lo + chunk])
    return out


def _searchsorted_rows(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup matching min(searchsorted(row, u, side="right"),
    S - 1) on non-decreasing rows: the count of the first S - 1 cdf entries
    <= u, broadcast over leading axes; the last cdf axis is the state axis."""
    out = np.zeros(np.broadcast_shapes(u.shape, cdf.shape[:-1]), dtype=np.int64)
    for x in range(cdf.shape[-1] - 1):
        out += u >= cdf[..., x]
    return out


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
                    reward_noise=None) -> QTable:
    """Synchronous value iteration from zero initialization.

    Runs at most ``iterations`` sweeps, recording the residual
    ||Q_{t+1} - Q_t||_inf per sweep, and stops early once the residual drops
    below ``epsilon``. ``operator`` selects the frozen-sample empirical
    operator (default; m samples per entry) or the exact expectation (m is
    unused; refused under the greedy rule in marginal mode, and when its
    law exceeds the table budget). Both run on the same vectorized engine.

    ``reward_noise`` is used by the stochastic-reward variant: a callable
    (iteration, engine) -> per-entry reward perturbation vector.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if operator not in OPERATORS:
        raise ValueError(f"operator must be one of {OPERATORS}")
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
        if reward_noise is not None:
            r_t = r_t + reward_noise(t, engine)
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


def value_iteration_stochastic(env: StochasticRewardEnv, kappa: int, m: int,
                               iterations: int = DEFAULT_ITERATIONS, xi: int = 1,
                               seed: int = 0, noise_seed: int | None = None,
                               **kwargs) -> QTable:
    """Offline learning with stochastic rewards.

    Each sweep replaces the deterministic reward with the mean of xi fresh
    draws per entry; the frozen transition samples are shared across the xi
    evaluations, so degenerate noise with xi=1 reproduces the deterministic
    trajectory bit for bit. ``noise_seed`` keys the reward noise separately
    (defaults to ``seed``) for paired-transition comparisons.
    """
    if xi < 1:
        raise ValueError("xi must be >= 1")
    base = env.base
    noise_key = seed if noise_seed is None else noise_seed

    if env.noise == "degenerate" or env.half_width == 0.0:
        noise_fn = None
    else:
        def noise_fn(t, engine):
            rng = stream(noise_key, "reward-noise", kappa, t)
            u = rng.random((engine.n_entries, xi))
            return env.half_width * (2.0 * u - 1.0).mean(axis=1)

    return value_iteration(base, kappa, m, iterations, seed,
                           reward_noise=noise_fn, **kwargs)


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
    trajectory_length: int = 100_000
    behavior_policy: object = None

    def alpha(self, t: int) -> float:
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
        if self.decay < 0:
            raise ValueError("decay must be >= 0")
        if self.trajectory_length < 1:
            raise ValueError("trajectory_length must be >= 1")


def off_policy_update(q: QTable, transition, alpha: float) -> float:
    """One tabular update from a logged transition (s, a, h, r, s', g').

    Returns the new entry value; only that entry changes. alpha in (0, 1) per
    the schedule contract; alpha = 1 is tolerated for boundary tests.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    s, a, hist, reward, s_next, g_next = transition
    h_rank = q.index().rank(hist) if isinstance(hist, Histogram) else int(hist)
    backup = reward + q.gamma * fiber_backup(q, s_next, g_next)
    new_value = (1.0 - alpha) * q.values[s, a, h_rank] + alpha * backup
    q.values[s, a, h_rank] = new_value
    return float(new_value)


def off_policy_learn(env: Environment, kappa: int, steps: int | None = None,
                     seed: int = 0, *,
                     gamma: float | None = None, config: OffPolicyConfig | None = None,
                     mode: str = "marginal",
                     neighbor_action_rule: str = "uniform",
                     aggregate_rule: str = "leave_one_out") -> QTable:
    """Q-learning along one surrogate-system trajectory.

    The focal agent explores with the configured behavior policy (uniform by
    default); surrogate neighbors act uniformly, matching the ergodic
    behavior-policy assumption, so the learned table approximates the fixed
    point of the uniform-rule sampled operator.
    """
    if mode != "marginal":
        raise GmfsError("off-policy learning is implemented for marginal mode")
    if neighbor_action_rule != "uniform":
        raise GmfsError("surrogate neighbors explore uniformly in off-policy mode")
    config = config or OffPolicyConfig()
    if steps is None:
        steps = config.trajectory_length
    gamma = env.discount if gamma is None else float(gamma)
    q = QTable.zeros(mode, kappa, env.n_states, env.n_actions, gamma,
                     env_name=env.name, seed=seed)
    S, A = env.n_states, env.n_actions
    model = tabulate(env, kappa, aggregate_rule)
    G = model.index.total
    # The trajectory never reads Q, so each step is a few scalar lookups in
    # Python-list tables. Every cdf row drops its last entry: bisect_right
    # on the rest counts the entries <= u, capped at S - 1, exactly as
    # min(searchsorted(row, u, side="right"), S - 1) does.
    cdf = model.cdf[..., :-1].tolist()                         # [s][a][g]
    rewards = model.rewards.tolist()                           # [s][a][g]
    nb_cdf = model.uniform_cdf()[..., :-1]
    nb_rows = [[[nb_cdf[x, model.gm_rank[g, s, x]].tolist() for x in model.slot_states[g]]
                for s in range(S)] for g in range(G)]           # [g][s][slot]
    rank_of = {tuple(c): g for g, c in enumerate(model.hist_counts.tolist())}
    behavior_cdf = None
    if config.behavior_policy is not None:
        behavior_cdf = [[np.cumsum(config.action_pmf(s, g, A))[:-1].tolist()
                         for g in range(G)] for s in range(S)]
    values = [[[0.0] * A for _ in range(G)] for _ in range(S)]  # [s][g][a]

    rng = stream(seed, "off-policy", kappa)
    s_cur = int(rng.integers(0, S))
    g_cur = int(rng.integers(0, G))
    t = 0
    while t < steps:
        # the same rows whatever the block length; short blocks keep the
        # list copy small
        block = rng.random((min(_OFF_POLICY_BLOCK, steps - t), kappa + 2)).tolist()
        for u in block:
            if behavior_cdf is None:
                a = min(int(u[0] * A), A - 1)
            else:
                a = bisect_right(behavior_cdf[s_cur][g_cur], u[0])
            s_next = bisect_right(cdf[s_cur][a][g_cur], u[1])
            counts = [0] * S
            for j, row in enumerate(nb_rows[g_cur][s_cur], 2):
                counts[bisect_right(row, u[j])] += 1
            g_next = rank_of[tuple(counts)]
            backup = rewards[s_cur][a][g_cur] + gamma * max(values[s_next][g_next])
            entry = values[s_cur][g_cur]
            entry[a] += config.alpha(t) * (backup - entry[a])
            s_cur, g_cur = s_next, g_next
            t += 1
    q.values = np.array(values).transpose(0, 2, 1).copy()
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
    alphabet = n_states * n_actions if mode == "joint" else n_states
    count = num_histograms(alphabet, kappa)
    expected = n_states * n_actions * count * 8
    payload = data[off:]
    if len(payload) != expected:
        raise FormatError(
            f"q-table payload holds {len(payload) // 8} values but the header "
            f"dims |S|={n_states}, |A|={n_actions}, kappa={kappa} require "
            f"{expected // 8}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(n_states, n_actions, count).copy()
    return QTable(mode, kappa, n_states, n_actions, values, gamma,
                  env_name=env_name, seed=seed, residual=residual)
