"""Graphon-weighted neighbor subsampling and neighborhood aggregates.

Agent i's neighbors are drawn i.i.d. from the normalized weight row
w_bar[i, .] on [n] \\ {i}. A neighbor so drawn is in state x with
probability g_i(x), the agent's exact aggregate (``exact_state_aggregates``),
so execution draws the kappa neighbor states of every agent straight from
its aggregate by ``inverse_cdf``'s rule and never forms a neighbor id. Where
the ids themselves are needed (the concentration diagnostic, the
Horvitz-Thompson estimator's proposal) they are drawn by the alias method:
``alias_table`` builds a pmf's table in O(k) and a draw takes O(1), and
``row_alias`` gives agent i's table. Callers draw the uniforms, two per
alias draw, from keyed streams, so results are schedule-independent; the
Horvitz-Thompson estimator likewise takes one block of uniforms for all its
replications.

Every other draw uses the inverse transform (``inverse_cdf``): the
surrogate's focal and neighbor draws in offline learning, and each agent's
transition and initial state in execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphon import WeightMatrix


class AliasTable(NamedTuple):
    """Vose alias table of one categorical pmf, as (k,) arrays.

    ``keep_ids[b]`` is the outcome id of bucket b and ``alias_ids[b]`` the
    id of its alias, so a draw needs no second lookup. A draw consumes
    exactly two uniforms, which keeps sampling replayable from frozen
    uniform blocks.
    """

    prob: np.ndarray
    keep_ids: np.ndarray
    alias_ids: np.ndarray

    def sample_from_uniforms(self, u_bucket: np.ndarray, u_accept: np.ndarray) -> np.ndarray:
        """One id per pair of bucket and accept uniforms, in their shape."""
        k = self.prob.size
        bucket = np.minimum((u_bucket * k).astype(np.int64), k - 1)
        return np.where(u_accept < self.prob.take(bucket),
                        self.keep_ids.take(bucket), self.alias_ids.take(bucket))


def inverse_cdf(pmf: np.ndarray, u: np.ndarray, steps=None, dtype=np.int64) -> np.ndarray:
    """Inverse-transform draws from the pmfs on the last axis of ``pmf``, one
    per uniform of ``u``, which broadcasts against ``pmf[..., 0]``.

    A uniform draws the number of cdf thresholds ``cumsum(pmf, axis=-1)`` at
    or below it among the first S - 1, that is min(searchsorted(cdf, u,
    side="right"), S - 1): a tail that rounds below 1 needs no cap. Each
    threshold is a running sum in cumsum's order, so it is cumsum's bit for
    bit, and each step is one whole-array operation where cumsum would loop
    over the rows. With ``steps`` ((S - 1,)), passing threshold x adds
    ``steps[x]`` instead of 1; the differences of additive cell codes then
    give the code of the drawn state. The draws must fit ``dtype``.
    """
    out = np.zeros(np.broadcast_shapes(np.shape(u), pmf.shape[:-1]), dtype=dtype)
    cdf = np.zeros(pmf.shape[:-1])
    for x in range(pmf.shape[-1] - 1):
        cdf += pmf[..., x]
        if steps is None:
            out += u >= cdf
        else:
            out += (u >= cdf) * dtype(steps[x])
    return out


def alias_table(probs, support=None) -> AliasTable:
    """The table of a categorical pmf over the ids ``support`` (default
    0..k-1), built by Vose's method."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a non-empty vector")
    if np.any(probs < 0):
        raise ValueError("probs must be non-negative")
    total = float(probs.sum())
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError("probs must sum to 1")
    k = probs.size
    support = np.arange(k) if support is None else np.asarray(support)
    scaled = probs * k / total
    prob = np.ones(k)
    alias = np.arange(k)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        s, l = small.pop(), large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        (small if scaled[l] < 1.0 else large).append(l)
    for rest in (small, large):
        for i in rest:
            prob[i] = 1.0
    return AliasTable(prob, support, support[alias])


def row_alias(weights: WeightMatrix, i: int) -> AliasTable:
    """Alias table for row i of the normalized weights."""
    others = np.concatenate([np.arange(i), np.arange(i + 1, weights.n)])
    return alias_table(weights.normalized[i, others], support=others)


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
    """Importance-weighted neighborhood estimates under a proposal: the
    per-draw ratios (..., kappa) and the estimates (..., |S| |A|), each
    unbiased for the exact aggregate but free to leave the probability
    simplex pointwise."""

    ratios: np.ndarray
    estimate: np.ndarray


def ht_estimate(weights: WeightMatrix, i: int, proposal, states, actions,
                n_states: int, n_actions: int, uniforms) -> HTEstimate:
    """Horvitz-Thompson estimates of the joint aggregate from proposal draws.

    Each (2, kappa) block of ``uniforms`` ((..., 2, kappa)) draws
    J_1..J_kappa i.i.d. from the proposal over [n] \\ {i} (bucket uniforms,
    then accept uniforms) and weights each indicator by
    rho = w_bar[i, J] / q(J); the leading axes index independent estimates.
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
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim < 2 or u.shape[-2] != 2 or u.shape[-1] < 1:
        raise ValueError("uniforms must have shape (..., 2, kappa) with kappa >= 1")
    states = np.asarray(states)
    actions = np.asarray(actions)

    others = np.concatenate([np.arange(i), np.arange(i + 1, weights.n)])
    table = alias_table(proposal[others], support=others)
    draws = table.sample_from_uniforms(u[..., 0, :], u[..., 1, :])
    batch, kappa = draws.shape[:-1], draws.shape[-1]
    count, width = math.prod(batch), n_states * n_actions
    ratios = row[draws] / proposal[draws]
    # each estimate owns a run of ``width`` cells; bincount adds in draw order
    cells = (states[draws] * n_actions + actions[draws]
             + width * np.arange(count).reshape(batch + (1,)))
    est = np.bincount(cells.ravel(), weights=(ratios / kappa).ravel(), minlength=count * width)
    return HTEstimate(ratios=ratios, estimate=est.reshape(batch + (width,)))


def tv_concentration_bound(n_states: int, kappa: int, delta: float) -> float:
    """High-probability TV radius for a kappa-sample empirical distribution
    on a finite alphabet: sqrt((|S| ln 2 + ln(2/delta)) / (2 kappa))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt((n_states * math.log(2.0) + math.log(2.0 / delta)) / (2.0 * kappa))
