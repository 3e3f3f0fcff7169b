"""Graphon-weighted neighbor subsampling and neighborhood aggregates.

Each agent i draws kappa neighbor ids i.i.d. from the normalized weight row
w_bar[i, .] on [n] \\ {i} by the alias method: a row's table takes O(n) to
build and a draw takes O(1), so online execution can afford fresh samples
for every agent at every time step. Execution draws for the whole population
at once from the n row tables stacked into (n, n-1) arrays, built once per
weight matrix; the uniforms come from keyed streams, so results are
schedule-independent.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .graphon import WeightMatrix


class AliasTable:
    """Vose alias method for a fixed categorical distribution.

    Draws consume exactly two uniforms each, which keeps sampling replayable
    from frozen uniform blocks.
    """

    def __init__(self, probs: np.ndarray, support: np.ndarray | None = None):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty vector")
        if np.any(probs < 0):
            raise ValueError("probs must be non-negative")
        total = float(probs.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError("probs must sum to 1")
        k = probs.size
        self.support = np.arange(k) if support is None else np.asarray(support)
        scaled = probs * k / total
        self.prob = np.ones(k)
        self.alias = np.arange(k)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s, l = small.pop(), large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            (small if scaled[l] < 1.0 else large).append(l)
        for rest in (small, large):
            for i in rest:
                self.prob[i] = 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random((2, size))
        return self.sample_from_uniforms(u[0], u[1])

    def sample_from_uniforms(self, u_bucket: np.ndarray, u_accept: np.ndarray) -> np.ndarray:
        k = self.prob.size
        buckets = np.minimum((u_bucket * k).astype(np.int64), k - 1)
        chosen = np.where(u_accept < self.prob[buckets], buckets, self.alias[buckets])
        return self.support[chosen]


def row_alias(weights: WeightMatrix, i: int) -> AliasTable:
    """Alias table for row i of the normalized weights."""
    others = np.concatenate([np.arange(i), np.arange(i + 1, weights.n)])
    return AliasTable(weights.normalized[i, others], support=others)


@dataclass(frozen=True)
class StackedAlias:
    """All n row alias tables of one weight matrix as (n, n-1) arrays.

    ``keep_ids[i, b]`` is the agent id of bucket b in row i and
    ``alias_ids[i, b]`` the id of its alias, so a draw needs no second
    lookup through the row's support.
    """

    prob: np.ndarray
    keep_ids: np.ndarray
    alias_ids: np.ndarray

    def sample_from_uniforms(self, u_bucket: np.ndarray, u_accept: np.ndarray) -> np.ndarray:
        """Neighbor ids for uniforms of shape (..., n, kappa), row i of the
        agent axis drawing from agent i's table with ``AliasTable``'s rule."""
        k = self.prob.shape[1]
        buckets = np.minimum((u_bucket * k).astype(np.int64), k - 1)
        rows = np.arange(self.prob.shape[0])[:, None]
        return np.where(u_accept < self.prob[rows, buckets],
                        self.keep_ids[rows, buckets], self.alias_ids[rows, buckets])


_STACKED_CACHE: "weakref.WeakKeyDictionary[WeightMatrix, StackedAlias]" = (
    weakref.WeakKeyDictionary())


def stacked_alias(weights: WeightMatrix) -> StackedAlias:
    """The row alias tables of every agent, stacked once per weight matrix."""
    stacked = _STACKED_CACHE.get(weights)
    if stacked is None:
        n = weights.n
        stacked = StackedAlias(prob=np.empty((n, n - 1)),
                               keep_ids=np.empty((n, n - 1), dtype=np.int64),
                               alias_ids=np.empty((n, n - 1), dtype=np.int64))
        for i in range(n):
            table = row_alias(weights, i)
            stacked.prob[i] = table.prob
            stacked.keep_ids[i] = table.support
            stacked.alias_ids[i] = table.support[table.alias]
        _STACKED_CACHE[weights] = stacked
    return stacked


def exact_aggregate(weights: WeightMatrix, i: int, states, actions,
                    n_states: int, n_actions: int) -> np.ndarray:
    """The kappa -> infinity target: sum_j w_bar[i, j] at cell (s_j, a_j)."""
    states = np.asarray(states)
    actions = np.asarray(actions)
    if len(states) != weights.n or len(actions) != weights.n:
        raise ValueError("states and actions must have length n")
    cells = states * n_actions + actions
    out = np.zeros(n_states * n_actions)
    np.add.at(out, cells, weights.normalized[i])
    return out


def exact_state_aggregates(weights: WeightMatrix, states, n_states: int) -> np.ndarray:
    """All agents' exact state aggregates at once: row i is g_i. ``states``
    may carry leading batch axes before the agent axis."""
    states = np.asarray(states)
    return weights.normalized @ np.eye(n_states)[states]


@dataclass(frozen=True)
class HTEstimate:
    """Importance-weighted neighborhood estimate under a proposal: the
    per-draw ratios and the estimate, which is unbiased for the exact
    aggregate but may leave the probability simplex pointwise."""

    ratios: np.ndarray
    estimate: np.ndarray


def ht_estimate(weights: WeightMatrix, i: int, proposal, kappa: int,
                states, actions, n_states: int, n_actions: int,
                rng: np.random.Generator) -> HTEstimate:
    """Horvitz-Thompson estimate of the joint aggregate from proposal draws.

    Draws J_1..J_kappa i.i.d. from the proposal over [n] \\ {i} and weights
    each indicator by rho = w_bar[i, J] / q(J).
    """
    proposal = np.asarray(proposal, dtype=np.float64)
    if proposal.shape != (weights.n,):
        raise ValueError("proposal must be a pmf over all n agents")
    if proposal[i] != 0.0:
        raise ValueError("proposal must place zero mass on the focal agent")
    if not math.isclose(float(proposal.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("proposal must sum to 1")
    row = weights.normalized[i]
    if np.any((row > 0) & (proposal <= 0)):
        raise ValueError("proposal must be positive wherever w_bar[i, .] is positive")
    states = np.asarray(states)
    actions = np.asarray(actions)

    others = np.concatenate([np.arange(i), np.arange(i + 1, weights.n)])
    table = AliasTable(proposal[others], support=others)
    draws = table.sample(rng, kappa)
    ratios = row[draws] / proposal[draws]
    cells = states[draws] * n_actions + actions[draws]
    est = np.zeros(n_states * n_actions)
    np.add.at(est, cells, ratios / kappa)
    return HTEstimate(ratios=ratios, estimate=est)


def tv_concentration_bound(n_states: int, kappa: int, delta: float) -> float:
    """High-probability TV radius for a kappa-sample empirical distribution
    on a finite alphabet: sqrt((|S| ln 2 + ln(2/delta)) / (2 kappa))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt((n_states * math.log(2.0) + math.log(2.0 / delta)) / (2.0 * kappa))
