import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from gmfs.bellman import (
    OffPolicyConfig,
    QTable,
    _FrozenEngine,
    empirical_operator,
    exact_operator,
    exact_sweep,
    fiber_backup,
    fiber_argmax,
    fiber_ranks,
    load_qtable,
    off_policy_learn,
    off_policy_update,
    sample_budget,
    save_qtable,
    surrogate_step,
    table_size,
    tabulate,
    value_iteration,
    value_iteration_stochastic,
)
from gmfs.env import StochasticRewardEnv, linear_env, step_distribution
from gmfs.errors import BudgetError, FormatError, GmfsError
from gmfs.histograms import Alphabet, Histogram, enumerate_histograms, fiber, get_index, marginal
from gmfs.rng import stream


def surrogate_outcome_oracle(env, s, a, counts, kappa, aggregate_rule="leave_one_out"):
    """Brute-force law of (s', g'-counts) for the entry (s, a, h) with h given
    by its counts: a state marginal (neighbors act under the uniform action
    rule) or a joint (state, action) histogram (neighbor actions known).
    Plain nested loops over every neighbor outcome, independent of the
    bellman module's tabulation and convolution."""
    S, A = env.n_states, env.n_actions
    joint = len(counts) == S * A
    cells = [c for c in range(len(counts)) for _ in range(counts[c])]
    neighbors = [divmod(c, A) if joint else (c, None) for c in cells]
    g_counts = np.zeros(S)
    for x, _ in neighbors:
        g_counts[x] += 1
    focal = step_distribution(env, s, a, g_counts / kappa)
    per_neighbor = []
    for x, u in neighbors:
        gm = g_counts.copy()
        if aggregate_rule == "leave_one_out":
            gm[x] -= 1
            gm[s] += 1
        actions = range(A) if u is None else (u,)
        pmf = sum(step_distribution(env, x, b, gm / kappa) for b in actions)
        per_neighbor.append(pmf / len(actions))
    law = {}
    for s_next in range(S):
        for combo in itertools.product(range(S), repeat=kappa):
            p = focal[s_next]
            for m, x_next in enumerate(combo):
                p *= per_neighbor[m][x_next]
            if p == 0.0:
                continue
            key = (s_next, tuple(np.bincount(combo, minlength=S)))
            law[key] = law.get(key, 0.0) + p
    return law


@lru_cache(maxsize=None)
def completion_ranks(mode, n_actions, g_counts, kappa):
    """Table ranks of every completion of the marginal g: its joint
    histograms, enumerated by brute force, or g itself."""
    g = Histogram(g_counts, kappa)
    if mode == "marginal":
        return [get_index(len(g_counts), kappa).rank(g)]
    idx = get_index(len(g_counts) * n_actions, kappa)
    return [idx.rank(z) for z in fiber(g, Alphabet(n_actions))]


def exact_backup_oracle(env, q, s, a, counts, kappa, aggregate_rule="leave_one_out"):
    """r + gamma * E[max over a' and the fiber of g' of Q(s', a', .)] from
    the oracle law above."""
    S = env.n_states
    g = np.zeros(S)
    for c, n in enumerate(counts):
        g[c // q.n_actions if q.mode == "joint" else c] += n / kappa
    r = env.reward(s, a, g)
    law = surrogate_outcome_oracle(env, s, a, counts, kappa, aggregate_rule)
    cont = 0.0
    for (s_next, g_next), p in law.items():
        ranks = completion_ranks(q.mode, q.n_actions, g_next, kappa)
        cont += p * q.values[s_next][:, ranks].max()
    return r + q.gamma * cont


def engine_and_reference(env, q, m, seed, rule, agg):
    """One engine sweep of q, and the per-entry empirical operator on the
    same frozen streams, both as (S, A, H) tables."""
    eng = _FrozenEngine(env, q.kappa, m, seed, mode=q.mode, neighbor_action_rule=rule,
                        aggregate_rule=agg)
    fast = (eng.rewards + q.gamma * eng.sweep(q.values)).reshape(q.values.shape)
    joint_shape = (q.n_states, q.n_actions) if q.mode == "joint" else None
    hists = list(enumerate_histograms(q.alphabet_size(), q.kappa, joint_shape=joint_shape))
    ref = np.empty_like(q.values)
    e = 0
    for s in range(q.n_states):
        for a in range(q.n_actions):
            for h, hist in enumerate(hists):
                ref[s, a, h] = empirical_operator(
                    env, q, s, a, hist, m, stream(seed, "vi-frozen", q.kappa, e),
                    neighbor_action_rule=rule, aggregate_rule=agg)
                e += 1
    return fast, ref


def off_policy_oracle(env, kappa, steps, seed=0, *, gamma=None, config=None,
                      aggregate_rule="leave_one_out"):
    """The per-step numpy Q-learning loop that ``off_policy_learn`` replaced:
    one searchsorted per draw, one rank_rows call per step, Q as an array."""
    config = config or OffPolicyConfig()
    gamma = env.discount if gamma is None else float(gamma)
    q = QTable.zeros("marginal", kappa, env.n_states, env.n_actions, gamma,
                     env_name=env.name, seed=seed)
    S, A = env.n_states, env.n_actions
    model = tabulate(env, kappa, aggregate_rule)
    index, cdf, rewards, gm_rank = model.index, model.cdf, model.rewards, model.gm_rank
    slot_states, nb_cdf = model.slot_states, model.uniform_cdf()
    G = index.total

    uniform_behavior = config.behavior_policy is None
    behavior_cdf = None
    if not uniform_behavior:
        behavior_cdf = np.empty((S, G, A))
        for s in range(S):
            for g in range(G):
                behavior_cdf[s, g] = np.cumsum(config.action_pmf(s, g, A))

    rng = stream(seed, "off-policy", kappa)
    s_cur = int(rng.integers(0, S))
    g_cur = int(rng.integers(0, G))
    values = q.values
    block_len = max(1, 4_000_000 // (kappa + 2))  # bound the pre-drawn block
    t = 0
    while t < steps:
        take = min(block_len, steps - t)
        uniforms = rng.random((take, kappa + 2))
        for row_idx in range(take):
            u = uniforms[row_idx]
            if uniform_behavior:
                a = min(int(u[0] * A), A - 1)
            else:
                a = min(int(np.searchsorted(behavior_cdf[s_cur, g_cur], u[0],
                                            side="right")), A - 1)
            r = rewards[s_cur, a, g_cur]
            row = cdf[s_cur, a, g_cur]
            s_next = min(int(np.searchsorted(row, u[1], side="right")), S - 1)
            counts = np.zeros(S, dtype=np.int64)
            for j, x in enumerate(slot_states[g_cur]):
                nb_row = nb_cdf[x, gm_rank[g_cur, s_cur, x]]
                nxt = min(int(np.searchsorted(nb_row, u[2 + j], side="right")), S - 1)
                counts[nxt] += 1
            g_next = int(index.rank_rows(counts[None, :])[0])
            alpha = config.alpha(t + row_idx)
            backup = r + gamma * values[s_next, :, g_next].max()
            values[s_cur, a, g_cur] += alpha * (backup - values[s_cur, a, g_cur])
            s_cur, g_cur = s_next, g_next
        t += take
    q.iterations = steps
    return q


class TestSurrogateStep:
    def test_deterministic_kernel(self):
        # point-mass transitions: outcome fully determined by inputs
        kernel = np.zeros((2, 2, 2, 2))
        kernel[:, 0, :, 0] = 1.0  # action 0 always lands in state 0
        kernel[:, 1, :, 1] = 1.0  # action 1 always lands in state 1
        env = linear_env("det", kernel, np.zeros((2, 2, 2)), discount=0.9)
        z = Histogram((0, 1, 1, 0), 2, joint_shape=(2, 2))  # neighbors (0,1), (1,0)
        for trial in range(5):
            s_next, g_next = surrogate_step(env, 0, 1, z, stream(trial, "sur"),
                                            neighbor_action_rule="uniform")
            assert s_next == 1
            # joint input gives the next state marginal: neighbor with
            # action 1 -> state 1, neighbor with action 0 -> state 0
            assert g_next.joint_shape is None
            assert g_next.counts == (1, 1)

    def test_warehouse_congested_work_crowd(self, warehouse):
        # kappa=2 neighbors all at (working, work-action), g(2)=1: each stays
        # in working w.p. max(0.1, 0.9-0.8) = 0.1
        z = Histogram((0,) * 8 + (2,), 2, joint_shape=(3, 3))
        stays = 0
        trials = 40_000
        gen = stream(17, "sur")
        for _ in range(trials):
            _, g_next = surrogate_step(warehouse, 0, 0, z, gen,
                                       neighbor_action_rule="uniform",
                                       aggregate_rule="shared")
            stays += g_next.counts[2]
        p_hat = stays / (2 * trials)
        se = math.sqrt(0.1 * 0.9 / (2 * trials))
        assert abs(p_hat - 0.1) <= 5 * se

    def test_tally_reproduces_histogram(self, small, rng):
        q = QTable.zeros("marginal", 3, 2, 2, 0.9)
        for trial in range(20):
            counts = rng.multinomial(3, [0.5, 0.5])
            g = Histogram(tuple(counts), 3)
            _, agg = surrogate_step(small, 0, 1, g, stream(trial, "sur"), q=q,
                                    neighbor_action_rule="greedy")
            assert sum(agg.counts) == 3 and agg.joint_shape is None

    def test_surrogate_expansion_tally(self, rng):
        from gmfs.bellman import expand_surrogate

        for trial in range(20):
            counts = rng.multinomial(5, np.ones(6) / 6)
            z = Histogram(tuple(counts), 5, joint_shape=(2, 3))
            states, actions = expand_surrogate(z)
            assert states.shape == actions.shape == (5,)
            tally = np.zeros(6, dtype=int)
            for x, u in zip(states, actions):
                tally[x * 3 + u] += 1
            assert tuple(tally) == z.counts
            states, actions = expand_surrogate(marginal(z))
            assert actions is None
            assert tuple(np.bincount(states, minlength=2)) == marginal(z).counts

    def test_monte_carlo_matches_brute_force_oracle(self, small):
        kappa, trials = 2, 100_000
        g_counts = (1, 1)
        oracle = surrogate_outcome_oracle(small, 0, 1, g_counts, kappa)
        gen = stream(23, "sur-mc")
        freq = {}
        for _ in range(trials):
            s_next, agg = surrogate_step(small, 0, 1, Histogram(g_counts, kappa), gen,
                                         neighbor_action_rule="uniform")
            key = (s_next, agg.counts)
            freq[key] = freq.get(key, 0) + 1
        tv = 0.5 * sum(abs(oracle.get(k, 0.0) - freq.get(k, 0) / trials)
                       for k in set(oracle) | set(freq))
        assert tv <= 0.01

    def test_greedy_needs_table(self, small):
        with pytest.raises(ValueError):
            surrogate_step(small, 0, 0, Histogram((2, 0), 2), stream(0, "sur"),
                           neighbor_action_rule="greedy")


class TestFiberBackup:
    def test_single_action_singleton_fiber(self):
        q = QTable.zeros("joint", 2, 2, 1, 0.9)
        q.values[1, 0, :] = np.arange(q.values.shape[2])
        g = Histogram((2, 0), 2)
        z_rank = get_index(2, 2).rank(Histogram((2, 0), 2))  # only completion
        assert fiber_backup(q, 1, g) == q.values[1, 0, z_rank]

    def test_marginal_equals_joint_when_fiber_constant(self, rng):
        ns, na, kappa = 2, 2, 2
        qj = QTable.zeros("joint", kappa, ns, na, 0.9)
        qm = QTable.zeros("marginal", kappa, ns, na, 0.9)
        g_idx = get_index(ns, kappa)
        z_idx = get_index(ns * na, kappa)
        for g_rank in range(g_idx.total):
            g = g_idx.unrank(g_rank)
            for a in range(na):
                v = rng.normal(size=(ns,))
                for s in range(ns):
                    qm.values[s, a, g_rank] = v[s]
                    for z in fiber(g, Alphabet(na)):
                        qj.values[s, a, z_idx.rank(z)] = v[s]
        for g_rank in range(g_idx.total):
            g = g_idx.unrank(g_rank)
            for s in range(ns):
                assert fiber_backup(qj, s, g) == pytest.approx(fiber_backup(qm, s, g))

    def test_matches_exhaustive_scan(self, rng):
        ns, na, kappa = 2, 3, 3
        q = QTable.zeros("joint", kappa, ns, na, 0.9)
        q.values = rng.normal(size=q.values.shape)
        z_idx = get_index(ns * na, kappa)
        for g in enumerate_histograms(ns, kappa):
            for s in range(ns):
                brute = max(
                    q.values[s, a, z_idx.rank(z)]
                    for a in range(na)
                    for z in fiber(g, Alphabet(na))
                )
                assert fiber_backup(q, s, g) == pytest.approx(brute)

    def test_vectorized_greedy_table_matches_fiber_argmax(self, rng):
        from gmfs.execution import Policy

        for ns, na, kappa in ((2, 2, 2), (3, 3, 2), (2, 3, 3)):
            q = QTable.zeros("joint", kappa, ns, na, 0.9)
            q.values = rng.integers(0, 3, q.values.shape).astype(float)  # full of ties
            greedy = Policy(q).greedy_table()
            g_total = get_index(ns, kappa).total
            assert greedy.shape == (ns, g_total)
            for s in range(ns):
                for g in range(g_total):
                    assert greedy[s, g] == fiber_argmax(q, s, g)

    def test_fiber_ranks_are_the_fiber(self):
        z_idx = get_index(6, 3)
        for g in enumerate_histograms(2, 3):
            want = sorted(z_idx.rank(z) for z in fiber(g, Alphabet(3)))
            got = fiber_ranks(2, 3, 3, get_index(2, 3).rank(g))
            assert got.tolist() == want

    def test_argmax_tie_breaks_low(self):
        q = QTable.zeros("marginal", 2, 2, 3, 0.9)
        q.values[0, :, 0] = [1.0, 1.0, 0.5]
        assert fiber_argmax(q, 0, 0) == 0


class TestOperators:
    def test_zero_table_returns_reward(self, small):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        h = Histogram((1, 1), 2)
        got = empirical_operator(small, q, 0, 1, h, 20, stream(0, "op"))
        assert got == pytest.approx(small.reward(0, 1, np.array([0.5, 0.5])))

    def test_gamma_zero_ignores_table(self, small, rng):
        q = QTable.zeros("marginal", 2, 2, 2, 0.0)
        q.values = rng.normal(size=q.values.shape)
        h = Histogram((2, 0), 2)
        got = empirical_operator(small, q, 1, 0, h, 5, stream(1, "op"))
        assert got == pytest.approx(small.reward(1, 0, np.array([1.0, 0.0])))

    def test_exact_matches_independent_oracle(self, small, action_blind, rng):
        kernel = rng.dirichlet(np.ones(3), size=(3, 2, 3))
        rand3 = linear_env("rand3", kernel, rng.uniform(-3, 3, (3, 2, 3)), discount=0.9)
        for env in (small, action_blind, rand3):
            S, A = env.n_states, env.n_actions
            for mode, kappa, agg in itertools.product(
                    ("marginal", "joint"), (1, 2, 3), ("leave_one_out", "shared")):
                q = QTable.zeros(mode, kappa, S, A, 0.9)
                q.values = rng.uniform(-3, 3, size=q.values.shape)
                got = exact_sweep(env, q, aggregate_rule=agg)
                idx = q.index()
                for s, a, h in itertools.product(range(S), range(A), range(idx.total)):
                    want = exact_backup_oracle(env, q, s, a, tuple(idx.unrank_counts(h)),
                                               kappa, agg)
                    assert abs(got[s, a, h] - want) <= 1e-12, (env.name, mode, kappa, agg)

    def test_exact_operator_reads_the_sweep(self, small, rng):
        q = QTable.zeros("joint", 2, 2, 2, 0.9)
        q.values = rng.uniform(-3, 3, size=q.values.shape)
        table = exact_sweep(small, q, aggregate_rule="shared")
        for h, z in enumerate(enumerate_histograms(4, 2, joint_shape=(2, 2))):
            assert exact_operator(small, q, 1, 0, z, aggregate_rule="shared") == table[1, 0, h]

    def test_empirical_converges_to_exact(self, small, rng):
        kappa, m = 2, 40_000
        q = QTable.zeros("marginal", kappa, 2, 2, 0.9)
        q.values = rng.uniform(-2, 2, size=q.values.shape)
        h = Histogram((1, 1), kappa)
        exact = exact_operator(small, q, 0, 0, h, neighbor_action_rule="uniform")
        emp = empirical_operator(small, q, 0, 0, h, m, stream(3, "op"),
                                 neighbor_action_rule="uniform")
        span = 2.0 * small.reward_bound / (1.0 - 0.9)
        assert abs(emp - exact) <= 3.0 * span / math.sqrt(m)

    def test_contraction_random_pairs(self, small, rng):
        kappa, gamma = 2, 0.9
        for mode in ("joint", "marginal"):
            q = QTable.zeros(mode, kappa, 2, 2, gamma)
            for _ in range(20):
                q1 = QTable(mode, kappa, 2, 2, rng.uniform(-20, 20, q.values.shape), gamma)
                q2 = QTable(mode, kappa, 2, 2, rng.uniform(-20, 20, q.values.shape), gamma)
                t1, t2 = exact_sweep(small, q1), exact_sweep(small, q2)
                lhs = np.abs(t1 - t2).max()
                rhs = gamma * np.abs(q1.values - q2.values).max()
                assert lhs <= rhs + 1e-12

    def test_monotonicity(self, small, rng):
        kappa = 2
        q1 = QTable.zeros("marginal", kappa, 2, 2, 0.9)
        q1.values = rng.uniform(-5, 5, q1.values.shape)
        q2 = QTable("marginal", kappa, 2, 2, q1.values + rng.uniform(0, 3, q1.values.shape), 0.9)
        assert np.all(exact_sweep(small, q1) <= exact_sweep(small, q2) + 1e-12)

    def test_law_budget_is_checked_before_tabulating(self, warehouse, monkeypatch):
        from gmfs import bellman

        def refuse(*args, **kwargs):
            raise AssertionError("tabulate reached")

        monkeypatch.setattr(bellman, "tabulate", refuse)
        # kappa 70: G = 2556 marginals, a table of 9 G = 23 004 entries (inside
        # the table budget) and a law of 9 G^2 = 58.8M entries (over it)
        assert table_size("marginal", 70, 3, 3) * 2556 > bellman.MAX_TABLE_ENTRIES
        with pytest.raises(BudgetError, match="exact operator law"):
            value_iteration(warehouse, 70, 1, 1, operator="exact")
        with pytest.raises(BudgetError, match="exact operator law"):
            exact_sweep(warehouse, QTable.zeros("marginal", 70, 3, 3, 0.95))

    def test_greedy_rule_is_refused_by_the_exact_operator(self, small):
        with pytest.raises(GmfsError, match="greedy"):
            value_iteration(small, 2, 1, 3, operator="exact", neighbor_action_rule="greedy")
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        with pytest.raises(GmfsError, match="greedy"):
            exact_sweep(small, q, neighbor_action_rule="greedy")


class TestValueIteration:
    def test_zero_sweeps_gives_zero_table(self, warehouse):
        q = value_iteration(warehouse, 2, 5, 0, seed=0)
        assert np.all(q.values == 0.0) and q.iterations == 0

    def test_fast_engine_matches_reference_sweep(self, warehouse, rng):
        # marginal mode at kappa 3 and 4; joint mode at kappa 2 (405 entries)
        cases = [("marginal", 3, rule, "leave_one_out") for rule in ("uniform", "greedy")]
        # more slots than states: the greedy gather meets repeated slot states
        cases += [("marginal", 4, "greedy", agg) for agg in ("leave_one_out", "shared")]
        cases += [("joint", 2, rule, agg) for rule in ("uniform", "greedy")
                  for agg in ("leave_one_out", "shared")]
        for mode, kappa, rule, agg in cases:
            m, seed = 7, 11
            q = QTable.zeros(mode, kappa, 3, 3, 0.95, env_name="warehouse")
            q.values = rng.uniform(-5, 5, q.values.shape)
            fast, ref = engine_and_reference(warehouse, q, m, seed, rule, agg)
            assert np.array_equal(fast, ref), (mode, rule, agg)

    def test_fast_engine_matches_reference_on_random_envs(self, rng):
        # equivalence must hold for arbitrary kernels, not just the benchmark
        # instance
        from gmfs.env import linear_env

        for trial in range(8):
            mode = ("marginal", "joint")[trial // 4]
            S, A = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            kernel = rng.dirichlet(np.ones(S), size=(S, A, S))
            rewards = rng.uniform(-3, 3, size=(S, A, S))
            env = linear_env(f"rand{trial}", kernel, rewards, discount=0.9)
            kappa = int(rng.integers(2, 5 if mode == "marginal" else 3))
            rule = ("uniform", "greedy")[trial % 2]
            agg = ("leave_one_out", "shared")[trial // 2 % 2]
            q = QTable.zeros(mode, kappa, S, A, 0.9)
            q.values = rng.uniform(-9, 9, q.values.shape)
            fast, ref = engine_and_reference(env, q, 5, 100 + trial, rule, agg)
            assert np.array_equal(fast, ref), (mode, S, A, kappa, rule, agg)

    def test_joint_mode_never_reaches_the_per_entry_path(self, small, monkeypatch):
        from gmfs import bellman

        def refuse(*args, **kwargs):
            raise AssertionError("per-entry path reached")

        monkeypatch.setattr(bellman, "empirical_operator", refuse)
        monkeypatch.setattr(bellman, "surrogate_step", refuse)
        for rule in ("uniform", "greedy"):
            q = value_iteration(small, 2, 4, 5, seed=0, mode="joint", gamma=0.9,
                                neighbor_action_rule=rule)
            assert q.iterations == 5 and np.all(np.isfinite(q.values))

    def test_boundedness_invariant(self, warehouse):
        q = value_iteration(warehouse, 3, 20, 80, seed=1)
        bound = warehouse.reward_bound / (1.0 - 0.95)
        assert max(q.sup_history) <= bound + 1e-9

    def test_frozen_samples_converge_under_epsilon(self, warehouse):
        q = value_iteration(warehouse, 3, 20, 250, seed=2, epsilon=1e-4)
        assert q.residual < 1e-4
        assert q.iterations <= 250

    def test_geometric_residual_decay_exact_operator(self, small):
        q = value_iteration(small, 2, 1, 200, seed=0, mode="marginal", gamma=0.9,
                            epsilon=0.0, operator="exact", neighbor_action_rule="uniform")
        r = q.residual_history
        for t in range(len(r) - 1):
            if r[t] <= 1e-10:
                break
            assert r[t + 1] <= 0.9 * r[t] + 1e-12

    def test_marginal_mode_requires_sufficiency(self, small):
        env = linear_env("opaque", np.broadcast_to(
            np.eye(2), (2, 2, 2, 2)).copy(), np.zeros((2, 2, 2)),
            marginal_sufficient=False)
        with pytest.raises(GmfsError):
            value_iteration(env, 2, 3, 5, seed=0, mode="marginal")

    def test_joint_mode_runs_on_any_env(self, small):
        q = value_iteration(small, 2, 4, 30, seed=0, mode="joint", gamma=0.9,
                            neighbor_action_rule="uniform")
        assert q.mode == "joint"
        assert q.values.shape == (2, 2, get_index(4, 2).total)
        assert max(q.sup_history) <= small.reward_bound / 0.1 + 1e-9

    def test_fiber_constant_fixed_point_on_action_blind_env(self, action_blind):
        # kernel ignores the acting agent's own action, so the joint-mode
        # fixed point collapses across each fiber and matches marginal mode
        kappa = 2
        qj = value_iteration(action_blind, kappa, 1, 300, seed=0, mode="joint",
                             gamma=0.9, epsilon=1e-12, operator="exact",
                             neighbor_action_rule="uniform")
        qm = value_iteration(action_blind, kappa, 1, 300, seed=0, mode="marginal",
                             gamma=0.9, epsilon=1e-12, operator="exact",
                             neighbor_action_rule="uniform")
        z_idx = get_index(4, kappa)
        g_idx = get_index(2, kappa)
        for g_rank in range(g_idx.total):
            g = g_idx.unrank(g_rank)
            for z in fiber(g, Alphabet(2)):
                spread = qj.values[:, :, z_idx.rank(z)] - qm.values[:, :, g_rank]
                assert np.abs(spread).max() <= 1e-6


class TestStochasticValueIteration:
    def test_degenerate_noise_bitwise_equal(self, warehouse):
        det = value_iteration(warehouse, 2, 10, 40, seed=3)
        wrapped = StochasticRewardEnv(warehouse, noise="degenerate")
        sto = value_iteration_stochastic(wrapped, 2, 10, 40, xi=1, seed=3)
        assert np.array_equal(det.values, sto.values)
        assert det.residual_history == sto.residual_history

    def test_degenerate_noise_bitwise_equal_in_joint_mode(self, small):
        det = value_iteration(small, 2, 6, 25, seed=3, mode="joint")
        wrapped = StochasticRewardEnv(small, noise="degenerate")
        sto = value_iteration_stochastic(wrapped, 2, 6, 25, xi=1, seed=3, mode="joint")
        assert np.array_equal(det.values, sto.values)
        assert det.residual_history == sto.residual_history

    def test_reward_noise_reaches_joint_mode(self, small):
        det = value_iteration(small, 2, 6, 25, seed=3, mode="joint")
        wrapped = StochasticRewardEnv(small, noise="uniform", half_width=0.5)
        sto = value_iteration_stochastic(wrapped, 2, 6, 25, xi=3, seed=3, mode="joint")
        assert sto.values.shape == det.values.shape
        assert 0.0 < np.abs(sto.values - det.values).max() < 0.5 / (1 - 0.9) + 1e-9

    def test_degenerate_noise_bitwise_equal_with_the_exact_operator(self, small):
        for mode in ("marginal", "joint"):
            det = value_iteration(small, 2, 1, 40, seed=3, mode=mode, operator="exact")
            wrapped = StochasticRewardEnv(small, noise="degenerate")
            sto = value_iteration_stochastic(wrapped, 2, 1, 40, xi=1, seed=3, mode=mode,
                                             operator="exact")
            assert np.array_equal(det.values, sto.values)
            assert det.residual_history == sto.residual_history

    def test_reward_noise_reaches_the_exact_operator(self, small):
        det = value_iteration(small, 2, 1, 25, seed=3, operator="exact")
        wrapped = StochasticRewardEnv(small, noise="uniform", half_width=0.5)
        sto = value_iteration_stochastic(wrapped, 2, 1, 25, xi=3, seed=3, operator="exact")
        assert 0.0 < np.abs(sto.values - det.values).max() < 0.5 / (1 - 0.9) + 1e-9

    def test_zero_half_width_equals_deterministic(self, warehouse):
        det = value_iteration(warehouse, 2, 10, 30, seed=4)
        wrapped = StochasticRewardEnv(warehouse, noise="uniform", half_width=0.0)
        sto = value_iteration_stochastic(wrapped, 2, 10, 30, xi=5, seed=4)
        assert np.array_equal(det.values, sto.values)

    def test_averaging_shrinks_error(self, warehouse):
        det = value_iteration(warehouse, 2, 10, 60, seed=5)
        errs = {}
        for xi in (1, 25):
            gaps = []
            for seed in range(6):
                wrapped = StochasticRewardEnv(warehouse, noise="uniform", half_width=1.0)
                sto = value_iteration_stochastic(wrapped, 2, 10, 60, xi=xi, seed=5,
                                                 noise_seed=seed)
                gaps.append(np.abs(sto.values - det.values).max())
            errs[xi] = float(np.median(gaps))
        assert errs[25] < errs[1]


class TestOffPolicy:
    def test_update_arithmetic(self, small):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        idx = get_index(2, 2)
        g = Histogram((1, 1), 2)
        q.values[0, 1, idx.rank(g)] = 10.0
        q.values[1, :, 0] = 0.0
        new = off_policy_update(q, (0, 1, g, 20.0 * (1 - 0.9 * 0), 1, 0), alpha=0.5)
        assert new == pytest.approx(0.5 * 10.0 + 0.5 * 20.0)

    def test_alpha_one_boundary(self, small):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        g = Histogram((2, 0), 2)
        backup_target = 7.0
        new = off_policy_update(q, (1, 0, g, backup_target, 0, 0), alpha=1.0)
        assert new == pytest.approx(backup_target + 0.9 * 0.0)

    def test_alpha_out_of_range(self, small):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        with pytest.raises(ValueError):
            off_policy_update(q, (0, 0, Histogram((2, 0), 2), 1.0, 0, 0), alpha=0.0)

    def test_only_target_entry_changes(self, small, rng):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        q.values = rng.normal(size=q.values.shape)
        before = q.values.copy()
        g = Histogram((0, 2), 2)
        g_rank = get_index(2, 2).rank(g)
        off_policy_update(q, (0, 0, g, 1.0, 1, 1), alpha=0.1)
        mask = np.ones_like(before, dtype=bool)
        mask[0, 0, g_rank] = False
        assert np.array_equal(q.values[mask], before[mask])

    def test_custom_behavior_policy(self, small):
        fixed = value_iteration(small, 2, 1, 1200, seed=0, mode="marginal", gamma=0.9,
                                epsilon=1e-13, operator="exact",
                                neighbor_action_rule="uniform")
        skewed = OffPolicyConfig(learning_rate=0.05,
                                 behavior_policy=lambda s, g: (0.75, 0.25))
        learned = off_policy_learn(small, 2, 150_000, seed=1, gamma=0.9, config=skewed)
        # still converges to the same optimal table: Q-learning is off-policy
        gap = np.abs(learned.values - fixed.values).max()
        assert gap <= 0.08 * np.abs(fixed.values).max()

    def test_behavior_policy_must_be_positive(self, small):
        cfg = OffPolicyConfig(behavior_policy=lambda s, g: (1.0, 0.0))
        with pytest.raises(ValueError):
            off_policy_learn(small, 2, 100, seed=0, gamma=0.9, config=cfg)

    def test_steps_default_to_trajectory_length(self, small):
        cfg = OffPolicyConfig(learning_rate=0.2, trajectory_length=500)
        q = off_policy_learn(small, 2, seed=0, gamma=0.9, config=cfg)
        assert q.iterations == 500

    def test_decaying_schedule(self):
        cfg = OffPolicyConfig(learning_rate=0.5, decay=0.1)
        assert cfg.alpha(0) == 0.5
        assert cfg.alpha(10) == pytest.approx(0.25)

    @pytest.mark.parametrize("env_name, kappa, steps, seed, kwargs", [
        ("small", 2, 3000, 0, {}),
        ("small", 2, 3000, 1, {"config": OffPolicyConfig(
            behavior_policy=lambda s, g: (0.75 if g % 2 else 0.1, 0.25))}),
        ("small", 3, 3000, 2, {"aggregate_rule": "shared"}),
        ("small", 2, 3000, 3, {"config": OffPolicyConfig(learning_rate=0.5, decay=0.01)}),
        ("warehouse", 3, 2 * 4096 + 811, 4, {"config": OffPolicyConfig(
            learning_rate=0.2, behavior_policy=lambda s, g: (1.0, 2.0, 0.5 + s))}),
        ("warehouse", 4, 1, 5, {}),
    ])
    def test_matches_the_per_step_numpy_oracle(self, request, env_name, kappa, steps,
                                               seed, kwargs):
        env = request.getfixturevalue(env_name)
        got = off_policy_learn(env, kappa, steps, seed, **kwargs)
        want = off_policy_oracle(env, kappa, steps, seed, **kwargs)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.iterations == steps
        assert np.any(got.values != 0.0)

    def test_learning_approaches_fixed_point(self, small):
        fixed = value_iteration(small, 2, 1, 1200, seed=0, mode="marginal", gamma=0.9,
                                epsilon=1e-13, operator="exact",
                                neighbor_action_rule="uniform")
        learned = off_policy_learn(small, 2, 150_000, seed=0, gamma=0.9,
                                   config=OffPolicyConfig(learning_rate=0.05))
        gap = np.abs(learned.values - fixed.values).max()
        assert gap <= 0.05 * np.abs(fixed.values).max()


class TestSampleBudget:
    def test_reference_value(self):
        assert sample_budget(1, 0.5, 1.0, 1, 1) == 530

    def test_monotone_in_kappa(self):
        prev = 0
        for kappa in range(1, 12):
            cur = sample_budget(kappa, 0.9, 5.0, 3, 3)
            assert cur >= prev
            prev = cur

    def test_gamma_zero_floor(self):
        assert sample_budget(4, 0.0, 10.0, 3, 3) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_budget(0, 0.9, 1.0, 2, 2)


class TestQTableIO:
    def test_round_trip_identity(self, tmp_path, rng):
        q = QTable.zeros("marginal", 4, 3, 3, 0.95, env_name="warehouse", seed=42)
        q.values = rng.normal(size=q.values.shape)
        q.residual = 3.25e-5
        path = tmp_path / "q.bin"
        save_qtable(q, path)
        loaded = load_qtable(path)
        assert np.array_equal(loaded.values, q.values)
        assert (loaded.mode, loaded.kappa, loaded.n_states, loaded.n_actions) == \
               ("marginal", 4, 3, 3)
        assert loaded.gamma == q.gamma
        assert loaded.residual == q.residual
        assert loaded.seed == 42
        assert loaded.env_name == "warehouse"

    def test_joint_round_trip(self, tmp_path, rng):
        q = QTable.zeros("joint", 2, 2, 2, 0.9, env_name="small", seed=7)
        q.values = rng.normal(size=q.values.shape)
        path = tmp_path / "qj.bin"
        save_qtable(q, path)
        assert np.array_equal(load_qtable(path).values, q.values)

    def test_corruption_detected(self, tmp_path):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        path = tmp_path / "q.bin"
        save_qtable(q, path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum"):
            load_qtable(path)

    def test_truncated_payload_reports_dimensions(self, tmp_path):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        path = tmp_path / "q.bin"
        save_qtable(q, path)
        blob = path.read_bytes()
        # drop one f8 value and re-checksum
        import struct
        import zlib
        body = blob[:-4]
        body = body[:-8]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="dims"):
            load_qtable(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "not_q.bin"
        import struct
        import zlib
        body = b"NOTGMFS0" + b"\x00" * 16
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="magic"):
            load_qtable(path)

    def test_every_damaged_file_is_a_format_error(self, tmp_path):
        import struct
        import zlib

        q = QTable.zeros("marginal", 2, 2, 2, 0.9, env_name="small")
        path = tmp_path / "q.bin"
        save_qtable(q, path)
        body = path.read_bytes()[:-4]

        def sealed(data):
            return data + struct.pack("<I", zlib.crc32(data) & 0xFFFFFFFF)

        damaged = {
            "truncated": body[:5],
            "checksum": body[:-1] + bytes([body[-1] ^ 0x01]) + path.read_bytes()[-4:],
            "magic": sealed(b"GMFSQT02" + body[8:]),
            "mode code": sealed(body[:8] + b"\x07" + body[9:]),
            "truncated or malformed": sealed(body[:14]),
            "must all be >= 1": sealed(body[:13] + struct.pack("<I", 0) + body[17:]),
            "values but the header": sealed(body + b"\x00" * 8),
        }
        for match, blob in damaged.items():
            path.write_bytes(blob)
            with pytest.raises(FormatError, match=match):
                load_qtable(path)

    def test_header_residual_matches_recorded(self, tmp_path, warehouse):
        q = value_iteration(warehouse, 2, 5, 30, seed=9)
        path = tmp_path / "q.bin"
        save_qtable(q, path)
        assert load_qtable(path).residual == q.residual

    def test_table_size_formula(self):
        assert table_size("marginal", 24, 3, 3) == 9 * 325 == 2925
        assert table_size("joint", 2, 2, 2) == 4 * 10
