"""Property suites runnable from the CLI: contraction, concentration,
Lipschitz gap, Horvitz-Thompson unbiasedness, off-policy agreement.

Each suite checks a structural guarantee at desk scale and reports measured
constants next to its pass/fail verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bellman import (
    QTable,
    exact_sweep,
    off_policy_learn,
    value_iteration,
)
from .env import Environment, linear_env, transitions, warehouse_env
from .graphon import Graphon, LatentAssignment, build_weights
from .histograms import get_index, tv_distance
from .rng import stream
from .sampler import (
    exact_aggregate,
    ht_estimate,
    row_alias,
    tv_concentration_bound,
)


@dataclass
class DiagnosticResult:
    name: str
    passed: bool
    columns: tuple
    rows: list
    detail: str = ""


def small_env(gamma: float = 0.9) -> Environment:
    """2-state 2-action linear-in-g instance used by the brute-force suites."""
    # action 0 drifts home to state 0, action 1 pushes toward state 1;
    # congestion (mass on state 1) slows action 1 down and taxes its reward
    kernel = np.array([
        [  # s = 0
            [[0.9, 0.1], [0.7, 0.3]],  # a = 0, neighbor state 0 / 1
            [[0.3, 0.7], [0.5, 0.5]],  # a = 1
        ],
        [  # s = 1
            [[0.8, 0.2], [0.6, 0.4]],  # a = 0
            [[0.2, 0.8], [0.4, 0.6]],  # a = 1
        ],
    ])
    rewards = np.array([
        [[1.0, 0.6], [2.0, 0.8]],  # s = 0: r(s, a, delta_x)
        [[0.8, 0.5], [1.6, 0.4]],  # s = 1
    ])
    return linear_env("small", kernel, rewards, discount=gamma)


def contraction_suite(*, pairs: int = 100, gamma: float = 0.9,
                      kappa: int = 2, seed: int = 0) -> DiagnosticResult:
    """sup-norm contraction of the exact sampled operator on random table
    pairs, in joint mode and in marginal mode with the uniform action rule
    (fixed kernels; the greedy rule makes the map policy-dependent and is not
    covered by the contraction guarantee)."""
    env = small_env(gamma)
    rng = stream(seed, "diag-contraction")
    rows = []
    worst = 0.0
    for mode, rule in (("joint", "uniform"), ("marginal", "uniform")):
        q = QTable.zeros(mode, kappa, env.n_states, env.n_actions, gamma, env_name=env.name)
        scale = env.reward_bound / (1.0 - gamma)
        max_ratio = 0.0
        for _ in range(pairs):
            q1 = QTable(mode, kappa, env.n_states, env.n_actions,
                        rng.uniform(-scale, scale, q.values.shape), gamma)
            q2 = QTable(mode, kappa, env.n_states, env.n_actions,
                        rng.uniform(-scale, scale, q.values.shape), gamma)
            t1 = exact_sweep(env, q1, neighbor_action_rule=rule)
            t2 = exact_sweep(env, q2, neighbor_action_rule=rule)
            num = float(np.abs(t1 - t2).max())
            den = float(np.abs(q1.values - q2.values).max())
            if den > 0:
                max_ratio = max(max_ratio, num / den)
        rows.append((mode, rule, pairs, gamma, max_ratio,
                     "pass" if max_ratio <= gamma + 1e-12 else "fail"))
        worst = max(worst, max_ratio)
    return DiagnosticResult(
        name="contraction",
        passed=worst <= gamma + 1e-12,
        columns=("mode", "rule", "pairs", "gamma", "max_ratio", "status"),
        rows=rows,
        detail=f"max contraction ratio {worst:.6f} vs gamma {gamma}",
    )


def concentration_suite(*, kappas=(10, 50, 200), delta: float = 0.05,
                        trials: int = 10_000, n: int = 300, n_states: int = 3,
                        seed: int = 0) -> DiagnosticResult:
    """Empirical-vs-exact TV against the finite-alphabet bound, sampling
    neighbors from a heterogeneous graphon row."""
    weights = build_weights(Graphon.expdecay_graphon(2.0), LatentAssignment.sequential(n))
    states = stream(seed, "diag-conc-states").integers(0, n_states, size=n)
    exact = np.zeros(n_states)
    np.add.at(exact, states, weights.normalized[0])
    table = row_alias(weights, 0)
    rows = []
    passed = True
    for kappa in kappas:
        bound = tv_concentration_bound(n_states, kappa, delta)
        u = stream(seed, "diag-conc", kappa).random((2, trials, kappa))
        ids = table.sample_from_uniforms(u[0], u[1])  # (trials, kappa)
        cells = states[ids] + n_states * np.arange(trials)[:, None]
        counts = np.bincount(cells.ravel(), minlength=trials * n_states).reshape(trials, n_states)
        tvs = 0.5 * np.abs(counts / kappa - exact).sum(axis=1)
        violation = float((tvs > bound).mean())
        quantile = float(np.quantile(tvs, 1.0 - delta))
        sigma = (delta * (1 - delta) / trials) ** 0.5
        passed = passed and violation <= delta + 3 * sigma
        rows.append((kappa, delta, bound, quantile, violation))
    return DiagnosticResult(
        name="concentration", passed=passed,
        columns=("kappa", "delta", "bound", "empirical_quantile", "violation_rate"),
        rows=rows,
        detail=f"violation rates {[f'{r[4]:.4f}' for r in rows]} vs delta {delta}",
    )


def measured_kernel_lipschitz(env: Environment, samples: int = 2000, seed: int = 0) -> float:
    """sup of TV(P(.|s,a,g), P(.|s,a,g')) / TV(g, g') over random pairs."""
    rng = stream(seed, "diag-lp")
    s, a = np.indices((env.n_states, env.n_actions))
    worst = 0.0
    for _ in range(samples):
        g = rng.dirichlet(np.ones(env.n_states))
        g2 = rng.dirichlet(np.ones(env.n_states))
        dgg = tv_distance(g, g2)
        if dgg < 1e-9:
            continue
        # TV between the next-state pmfs of every (s, a) pair at once
        dpp = 0.5 * np.abs(transitions(env, s, a, np.broadcast_to(g, s.shape + g.shape))
                           - transitions(env, s, a, np.broadcast_to(g2, s.shape + g2.shape))
                           ).sum(axis=-1)
        worst = max(worst, float((dpp / dgg).max()))
    return worst


def lipschitz_suite(*, kappa_full: int = 3, kappa_sub: int = 2,
                    gamma: float = 0.9, sweeps: int = 60, seed: int = 0) -> DiagnosticResult:
    """Iterate-gap diagnostic between the full operator (kappa = n-1) and a
    subsampled operator on the warehouse kernel, both exactly computable.

    Asserts gap <= (4 B / (1-gamma)) L_P TV(g, g_hat) on marginal pairs with
    TV > 0 and supp(g_hat) inside supp(g); pairs with TV = 0 measure the pure
    histogram-granularity floor and are reported, not bounded (the continuum
    statement collapses both kappas onto one mixing measure there, which the
    discrete surrogates cannot do).
    """
    env = warehouse_env(discount=gamma)
    lp = max(1.0, measured_kernel_lipschitz(env, seed=seed))
    const = 4.0 * env.reward_bound / (1.0 - gamma) * lp
    q_full = value_iteration(env, kappa_full, 1, sweeps, seed, mode="marginal",
                             gamma=gamma, epsilon=0.0, operator="exact",
                             neighbor_action_rule="uniform")
    q_sub = value_iteration(env, kappa_sub, 1, sweeps, seed, mode="marginal",
                            gamma=gamma, epsilon=0.0, operator="exact",
                            neighbor_action_rule="uniform")
    max_ratio = 0.0
    granularity_floor = 0.0
    for gf, cf in enumerate(get_index(env.n_states, kappa_full).counts_by_rank):
        pf = cf / kappa_full
        for gs, cs in enumerate(get_index(env.n_states, kappa_sub).counts_by_rank):
            if np.any((cs > 0) & (cf == 0)):
                continue  # not a realizable draw from the full marginal
            tv = 0.5 * float(np.abs(pf - cs / kappa_sub).sum())
            gap = float(np.abs(q_full.values[:, :, gf] - q_sub.values[:, :, gs]).max())
            if tv < 1e-12:
                granularity_floor = max(granularity_floor, gap)
            else:
                max_ratio = max(max_ratio, gap / tv)
    ok = max_ratio <= const * (1 + 1e-9)
    rows = [(kappa_full, kappa_sub, lp, const, max_ratio, granularity_floor,
             "pass" if ok else "fail")]
    return DiagnosticResult(
        name="lipschitz", passed=ok,
        columns=("kappa_full", "kappa_sub", "measured_lp", "bound_constant",
                 "max_gap_over_tv", "granularity_floor", "status"),
        rows=rows,
        detail=f"max gap/TV {max_ratio:.3f} vs bound constant {const:.3f}",
    )


def ht_suite(*, n: int = 10, kappa: int = 5, replications: int = 100_000,
             n_states: int = 2, n_actions: int = 2, seed: int = 0) -> DiagnosticResult:
    """Cell-wise unbiasedness of the Horvitz-Thompson estimator under a
    uniform proposal against non-uniform graphon weights, at 5 sigma."""
    weights = build_weights(Graphon.expdecay_graphon(2.0), LatentAssignment.sequential(n))
    rng_cfg = stream(seed, "diag-ht-setup")
    states = rng_cfg.integers(0, n_states, size=n)
    actions = rng_cfg.integers(0, n_actions, size=n)
    i = 0
    exact = exact_aggregate(weights, i, states, actions, n_states, n_actions)
    proposal = np.full(n, 1.0 / (n - 1))
    proposal[i] = 0.0
    uniforms = stream(seed, "diag-ht").random((replications, 2, kappa))
    est = ht_estimate(weights, i, proposal, states, actions, n_states, n_actions,
                      uniforms).estimate
    cells = n_states * n_actions
    mean = est.sum(axis=0) / replications
    var = np.maximum((est * est).sum(axis=0) / replications - mean**2, 0.0)
    se = np.sqrt(var / replications)
    rows = []
    passed = True
    for c in range(cells):
        tol = 5.0 * se[c]
        dev = abs(mean[c] - exact[c])
        ok = dev <= tol or (se[c] == 0.0 and dev == 0.0)
        passed = passed and ok
        rows.append((c, float(exact[c]), float(mean[c]), float(se[c]), float(dev),
                     "pass" if ok else "fail"))
    return DiagnosticResult(
        name="ht_unbiasedness", passed=passed,
        columns=("cell", "exact", "mean", "std_error", "abs_dev", "status"),
        rows=rows,
    )


def offpolicy_suite(*, steps: int = 200_000, alpha: float = 0.05,
                    kappa: int = 2, gamma: float = 0.9, tolerance: float = 0.05,
                    seed: int = 0) -> DiagnosticResult:
    """Constant-step Q-learning along a uniform-behavior trajectory against
    the exact-operator fixed point of the same surrogate kernel."""
    from .bellman import OffPolicyConfig

    env = small_env(gamma)
    fixed = value_iteration(env, kappa, 1, 2000, seed, mode="marginal", gamma=gamma,
                            epsilon=1e-13, operator="exact",
                            neighbor_action_rule="uniform")
    learned = off_policy_learn(env, kappa, steps, seed, gamma=gamma,
                               config=OffPolicyConfig(learning_rate=alpha))
    gap = float(np.abs(learned.values - fixed.values).max())
    norm = float(np.abs(fixed.values).max())
    ok = gap <= tolerance * norm
    rows = [(steps, alpha, gap, norm, gap / norm, tolerance, "pass" if ok else "fail")]
    return DiagnosticResult(
        name="offpolicy", passed=ok,
        columns=("steps", "alpha", "sup_gap", "fixed_point_norm", "relative_gap",
                 "tolerance", "status"),
        rows=rows,
        detail=f"relative gap {gap / norm:.4f} vs tolerance {tolerance}",
    )


SUITES = {
    "contraction": contraction_suite,
    "concentration": concentration_suite,
    "lipschitz": lipschitz_suite,
    "ht_unbiasedness": ht_suite,
    "offpolicy": offpolicy_suite,
}
