import dataclasses
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfs.bellman import (
    _OFF_POLICY_BLOCK,
    MODES,
    OffPolicyConfig,
    QTable,
    _FrozenEngine,
    _sample_mean,
    empirical_operator,
    expand_surrogate,
    exact_operator,
    exact_sweep,
    fiber_backup,
    fiber_argmax,
    fiber_ranks,
    load_qtable,
    off_policy_learn,
    sample_budget,
    save_qtable,
    surrogate_step,
    table_size,
    tabulate,
    value_iteration,
)
from gmfs.env import linear_env, local_reward, step_distribution
from gmfs.errors import BudgetError, FormatError, GmfsError
from gmfs.histograms import get_index
from gmfs.rng import stream
from oracles import chi2_upper, enumerate_histograms, fiber


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
    if mode == "marginal":
        return [get_index(len(g_counts), kappa).rank(g_counts)]
    idx = get_index(len(g_counts) * n_actions, kappa)
    return [idx.rank(z) for z in fiber(g_counts, n_actions)]


def exact_backup_oracle(env, q, s, a, counts, kappa, aggregate_rule="leave_one_out"):
    """r + gamma * E[max over a' and the fiber of g' of Q(s', a', .)] from
    the oracle law above."""
    S = env.n_states
    g = np.zeros(S)
    for c, n in enumerate(counts):
        g[c // q.n_actions if q.mode == "joint" else c] += n / kappa
    r = local_reward(env, s, a, g)
    law = surrogate_outcome_oracle(env, s, a, counts, kappa, aggregate_rule)
    cont = 0.0
    for (s_next, g_next), p in law.items():
        ranks = completion_ranks(q.mode, q.n_actions, g_next, kappa)
        cont += p * q.values[s_next][:, ranks].max()
    return r + q.gamma * cont


def frozen_stream(seed, kappa, m, e, n_states, n_actions, n_hists):
    """Two copies of the engine's frozen stream for entry e = (s * A + a) * H
    + h: one advanced to the entry's focal draws, past every key's m kappa
    neighbor draws and the m focal draws of entries 0..e-1, and one to the
    neighbor draws of its key k = s * H + h, past those of keys 0..k-1."""
    keys = n_states * n_hists
    key = e // (n_actions * n_hists) * n_hists + e % n_hists
    focal, neighbor = stream(seed, "vi-frozen", kappa), stream(seed, "vi-frozen", kappa)
    focal.bit_generator.advance(keys * m * kappa + e * m)
    neighbor.bit_generator.advance(key * m * kappa)
    return focal, neighbor


def pairwise_sum_oracle(values):
    """numpy's pairwise summation along a contiguous row, one Python float at
    a time: below 8 values a running sum from -0.0; up to 128, eight running
    sums over blocks of eight, added as a tree, then the rest; past 128, the
    sums of two halves split at a multiple of eight."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum_oracle(values[:half]) + pairwise_sum_oracle(values[half:])
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    r = list(values[:8])
    for i in range(8, n - n % 8):
        r[i % 8] += values[i]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[n - n % 8:]:
        total += v
    return total


def engine_and_reference(env, q, m, seed, rule, agg):
    """One engine sweep of q, and the per-entry empirical operator on the
    same frozen draws, both as (S, A, H) tables."""
    eng = _FrozenEngine(env, q.kappa, m, seed, mode=q.mode, neighbor_action_rule=rule,
                        aggregate_rule=agg)
    return engine_sweep(eng, q), reference_sweep(env, q, m, seed, rule, agg)


def engine_sweep(eng, q):
    return (eng.rewards + q.gamma * eng.sweep(q.values)).reshape(q.values.shape)


def reference_sweep(env, q, m, seed, rule, agg):
    """The per-entry empirical operator at every entry of q, entry e on the
    frozen stream advanced to its focal and to its key's neighbor draws."""
    hists = list(enumerate_histograms(q.alphabet_size(), q.kappa))
    ref = np.empty_like(q.values)
    e = 0
    for s in range(q.n_states):
        for a in range(q.n_actions):
            for h, hist in enumerate(hists):
                focal, neighbor = frozen_stream(seed, q.kappa, m, e, q.n_states,
                                                q.n_actions, len(hists))
                ref[s, a, h] = empirical_operator(
                    env, q, s, a, hist, m, focal, neighbor_rng=neighbor,
                    neighbor_action_rule=rule, aggregate_rule=agg)
                e += 1
    return ref


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
    index, rewards, gm_rank = model.index, model.rewards, model.gm_rank
    cdf = np.cumsum(model.pmf, axis=3)
    slot_states, nb_cdf = model.slot_states, np.cumsum(model.pmf.mean(axis=1), axis=2)
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


def random_linear_env(seed=3, S=3):
    rng = np.random.default_rng(seed)
    return linear_env("random", rng.dirichlet(np.ones(S), size=(S, 2, S)),
                      rng.normal(size=(S, 2, S)))


@pytest.fixture(scope="module")
def four_state():
    """A random 4-state 2-action linear env: at kappa 2 it has 10 marginals."""
    return random_linear_env(seed=4, S=4)


class TestTabulate:
    @pytest.mark.parametrize("aggregate_rule", ["leave_one_out", "shared"])
    @pytest.mark.parametrize("kappa", [1, 2, 5])
    @pytest.mark.parametrize("env_name", ["warehouse", "small", "action_blind", "random"])
    def test_matches_per_entry_reads_bitwise(self, request, env_name, kappa, aggregate_rule):
        env = random_linear_env() if env_name == "random" else request.getfixturevalue(env_name)
        model = tabulate(env, kappa, aggregate_rule)
        S, A, G = env.n_states, env.n_actions, model.index.total
        pmf = np.empty((S, A, G, S))
        rewards = np.empty((S, A, G))
        for s, a, g in itertools.product(range(S), range(A), range(G)):
            point = model.index.counts_by_rank[g] / kappa
            pmf[s, a, g] = step_distribution(env, s, a, point)
            rewards[s, a, g] = local_reward(env, s, a, point)
        assert model.pmf.tobytes() == pmf.tobytes()
        assert model.rewards.tobytes() == rewards.tobytes()

    @pytest.mark.parametrize("breakage", [
        lambda pmf: 1.1 * pmf,  # sums to 1.1
        lambda pmf: pmf + np.array([-1.0, 1.0]),  # sums to 1, one entry negative
        # abs(nan - 1) > 1e-12 and nan < 0 are both False
        lambda pmf: np.where(np.arange(2) == 0, np.nan, pmf),
    ], ids=["unnormalized", "negative", "nan"])
    def test_invalid_pmf_at_one_point_is_refused(self, small, breakage):
        def kernel(s, a, g):
            pmf = small.transition(s, a, g)
            broken = (s == 1) & (a == 0) & (g[..., 1] == 0.5)
            return np.where(broken[..., None], breakage(pmf), pmf)

        env = dataclasses.replace(small, transition=kernel)
        with pytest.raises(ValueError, match=r"invalid pmf at \(s=1, a=0\)"):
            step_distribution(env, 1, 0, np.array([0.5, 0.5]))
        step_distribution(env, 1, 0, np.array([1.0, 0.0]))
        tabulate(env, 1, "leave_one_out")  # kappa 1 has no histogram at g = (0.5, 0.5)
        for rule in ("leave_one_out", "shared"):
            with pytest.raises(ValueError, match=r"invalid pmf at \(s=1, a=0\)"):
                tabulate(env, 2, rule)
        for mode, operator in (("marginal", "empirical"), ("joint", "empirical"),
                               ("marginal", "exact")):
            with pytest.raises(ValueError, match=r"invalid pmf at \(s=1, a=0\)"):
                value_iteration(env, 2, 5, 3, mode=mode, operator=operator)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_reward_is_refused(self, small, value):
        def reward(s, a, g):
            r = small.reward(s, a, g)
            return np.where((s == 1) & (a == 0) & (g[..., 1] == 0.5), value, r)

        env = dataclasses.replace(small, reward=reward)
        with pytest.raises(ValueError, match=r"non-finite reward at \(s=1, a=0\), g = \[0.5 0.5\]"):
            local_reward(env, 1, 0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"non-finite reward at \(s=1, a=0\), g = \[1 1\] / 2"):
            tabulate(env, 2, "shared")
        with pytest.raises(ValueError, match=r"non-finite reward at \(s=1, a=0\)"):
            value_iteration(env, 2, 5, 3)

    def test_codes_past_64_bits_are_refused_before_the_kernel(self, monkeypatch):
        from gmfs import bellman

        def refuse(*args, **kwargs):
            raise AssertionError("kernel reached")

        monkeypatch.setattr(bellman, "transitions", refuse)
        monkeypatch.setattr(bellman, "env_rewards", refuse)
        S = 65  # kappa 1: the largest code, 2^63, exceeds 64 bits
        env = linear_env("long", np.broadcast_to(np.eye(S), (S, 1, S, S)).copy(),
                         np.zeros((S, 1, S)))
        with pytest.raises(BudgetError, match="codes"):
            tabulate(env, 1, "leave_one_out")


class TestSurrogateStep:
    def test_deterministic_kernel(self):
        # point-mass transitions: outcome fully determined by inputs
        kernel = np.zeros((2, 2, 2, 2))
        kernel[:, 0, :, 0] = 1.0  # action 0 always lands in state 0
        kernel[:, 1, :, 1] = 1.0  # action 1 always lands in state 1
        env = linear_env("det", kernel, np.zeros((2, 2, 2)), discount=0.9)
        z = (0, 1, 1, 0)  # joint counts: neighbors (0,1), (1,0)
        for trial in range(5):
            s_next, g_next = surrogate_step(env, 0, 1, z, stream(trial, "sur"),
                                            neighbor_action_rule="uniform")
            assert s_next == 1
            # joint input gives the next state marginal: neighbor with
            # action 1 -> state 1, neighbor with action 0 -> state 0
            assert g_next.tolist() == [1, 1]

    def test_warehouse_congested_work_crowd(self, warehouse):
        # kappa=2 neighbors all at (working, work-action), g(2)=1: each stays
        # in working w.p. max(0.1, 0.9-0.8) = 0.1. Under the shared aggregate
        # every focal (s, a) entry of that histogram gives its neighbors the
        # same slot laws, so the joint engine's frozen next marginals of those
        # entries pool into one sample; engine and per-entry reference agree
        # bit for bit (TestValueIteration)
        kappa, samples = 2, 40_000  # 80 000 neighbor draws
        pairs = warehouse.n_states * warehouse.n_actions
        eng = _FrozenEngine(warehouse, kappa, -(-samples // pairs), 17, mode="joint",
                            neighbor_action_rule="uniform", aggregate_rule="shared")
        z_index, g_index = get_index(9, kappa), get_index(3, kappa)
        z = z_index.rank((0,) * 8 + (2,))
        # eng.flat is sample-major (m, E): entry e's samples are column e
        flat = eng.flat[:, np.arange(pairs) * z_index.total + z].T.ravel()[:samples]
        working = g_index.counts_by_rank[:, 2]
        p_hat = working[flat % g_index.total].sum() / (2 * samples)
        se = math.sqrt(0.1 * 0.9 / (2 * samples))
        assert abs(p_hat - 0.1) <= 5 * se

    def test_tally_reproduces_histogram(self, small, rng):
        q = QTable.zeros("marginal", 3, 2, 2, 0.9)
        for trial in range(20):
            counts = rng.multinomial(3, [0.5, 0.5])
            _, agg = surrogate_step(small, 0, 1, counts, stream(trial, "sur"), q=q,
                                    neighbor_action_rule="greedy")
            assert agg.shape == (2,) and agg.sum() == 3

    def test_surrogate_expansion_tally(self, rng):
        from gmfs.bellman import expand_surrogate

        for trial in range(20):
            z = rng.multinomial(5, np.ones(6) / 6)
            states, actions = expand_surrogate(z, 3)
            assert states.shape == actions.shape == (5,)
            tally = np.zeros(6, dtype=int)
            for x, u in zip(states, actions):
                tally[x * 3 + u] += 1
            assert np.array_equal(tally, z)
            g = z.reshape(2, 3).sum(axis=1)
            states, actions = expand_surrogate(g)
            assert actions is None
            assert np.array_equal(np.bincount(states, minlength=2), g)

    def test_monte_carlo_matches_brute_force_oracle(self, small):
        # the engine's frozen outcomes of one entry; engine and per-entry
        # reference agree bit for bit on the same streams (TestValueIteration)
        kappa, trials = 2, 100_000
        s, a, g_counts = 0, 1, (1, 1)
        oracle = surrogate_outcome_oracle(small, s, a, g_counts, kappa)
        eng = _FrozenEngine(small, kappa, trials, 23, mode="marginal",
                            neighbor_action_rule="uniform", aggregate_rule="leave_one_out")
        index = get_index(2, kappa)
        e = (s * small.n_actions + a) * index.total + index.rank(g_counts)
        outcomes, tally = np.unique(eng.flat[:, e], return_counts=True)
        rows = index.counts_by_rank[outcomes % index.total].tolist()
        freq = {(int(f) // index.total, tuple(row)): int(c)
                for f, row, c in zip(outcomes, rows, tally)}
        tv = 0.5 * sum(abs(oracle.get(k, 0.0) - freq.get(k, 0) / trials)
                       for k in set(oracle) | set(freq))
        assert tv <= 0.01

    def test_row_of_neither_length_rejected(self, small):
        # small has 2 states and 4 (state, action) cells
        with pytest.raises(ValueError, match="fits neither"):
            surrogate_step(small, 0, 0, (1, 1, 0), stream(0, "sur"))

    def test_greedy_needs_table(self, small):
        with pytest.raises(ValueError):
            surrogate_step(small, 0, 0, (2, 0), stream(0, "sur"),
                           neighbor_action_rule="greedy")

    @pytest.mark.parametrize("counts, message", [
        ((3, -1), r"count row \[3, -1\] has a negative count"),
        ((0, 0), r"count row \[0, 0\] has no agent"),
        ((2, 1, -1, 0), r"count row \[2, 1, -1, 0\] has a negative count"),
        ((0, 0, 0, 0), r"count row \[0, 0, 0, 0\] has no agent"),
    ], ids=["negative", "empty", "joint-negative", "joint-empty"])
    def test_row_that_is_no_histogram_rejected(self, small, counts, message):
        with pytest.raises(ValueError, match=message):
            surrogate_step(small, 0, 0, counts, stream(0, "sur"))
        q = QTable.zeros("joint" if len(counts) == 4 else "marginal", 2, 2, 2, 0.9)
        with pytest.raises(ValueError, match=message):
            empirical_operator(small, q, 0, 0, counts, 3, stream(0, "sur"))


class TestFiberBackup:
    def test_single_action_singleton_fiber(self):
        q = QTable.zeros("joint", 2, 2, 1, 0.9)
        q.values[1, 0, :] = np.arange(q.values.shape[2])
        g = (2, 0)
        z_rank = get_index(2, 2).rank(g)  # only completion
        assert fiber_backup(q, 1, g) == q.values[1, 0, z_rank]

    def test_marginal_equals_joint_when_fiber_constant(self, rng):
        ns, na, kappa = 2, 2, 2
        qj = QTable.zeros("joint", kappa, ns, na, 0.9)
        qm = QTable.zeros("marginal", kappa, ns, na, 0.9)
        g_idx = get_index(ns, kappa)
        z_idx = get_index(ns * na, kappa)
        for g_rank in range(g_idx.total):
            g = g_idx.counts_by_rank[g_rank]
            for a in range(na):
                v = rng.normal(size=(ns,))
                for s in range(ns):
                    qm.values[s, a, g_rank] = v[s]
                    for z in fiber(g, na):
                        qj.values[s, a, z_idx.rank(z)] = v[s]
        for g_rank in range(g_idx.total):
            g = g_idx.counts_by_rank[g_rank]
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
                    for z in fiber(g, na)
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
            want = sorted(z_idx.rank(z) for z in fiber(g, 3))
            got = fiber_ranks(2, 3, 3, get_index(2, 3).rank(g))
            assert got.tolist() == want

    def test_argmax_tie_breaks_low(self):
        q = QTable.zeros("marginal", 2, 2, 3, 0.9)
        q.values[0, :, 0] = [1.0, 1.0, 0.5]
        assert fiber_argmax(q, 0, 0) == 0


class TestOperators:
    def test_zero_table_returns_reward(self, small):
        q = QTable.zeros("marginal", 2, 2, 2, 0.9)
        h = (1, 1)
        got = empirical_operator(small, q, 0, 1, h, 20, stream(0, "op"))
        assert got == pytest.approx(local_reward(small, 0, 1, np.array([0.5, 0.5])))

    def test_joint_row_reads_its_state_marginal(self, small):
        # cells state-major: (0,0)=2, (0,1)=1, (1,0)=1, (1,1)=0, so states (3, 1)
        q = QTable.zeros("joint", 4, 2, 2, 0.0)
        got = empirical_operator(small, q, 1, 0, (2, 1, 1, 0), 1, stream(0, "op"))
        assert got == local_reward(small, 1, 0, np.array([0.75, 0.25]))

    def test_gamma_zero_ignores_table(self, small, rng):
        q = QTable.zeros("marginal", 2, 2, 2, 0.0)
        q.values = rng.normal(size=q.values.shape)
        h = (2, 0)
        got = empirical_operator(small, q, 1, 0, h, 5, stream(1, "op"))
        assert got == pytest.approx(local_reward(small, 1, 0, np.array([1.0, 0.0])))

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
                    want = exact_backup_oracle(env, q, s, a, idx.counts_by_rank[h].tolist(),
                                               kappa, agg)
                    assert abs(got[s, a, h] - want) <= 1e-12, (env.name, mode, kappa, agg)

    def test_exact_operator_reads_the_sweep(self, small, rng):
        q = QTable.zeros("joint", 2, 2, 2, 0.9)
        q.values = rng.uniform(-3, 3, size=q.values.shape)
        table = exact_sweep(small, q, aggregate_rule="shared")
        for h, z in enumerate(enumerate_histograms(4, 2)):
            assert exact_operator(small, q, 1, 0, z, aggregate_rule="shared") == table[1, 0, h]

    def test_empirical_converges_to_exact(self, small, rng):
        kappa, m = 2, 40_000
        q = QTable.zeros("marginal", kappa, 2, 2, 0.9)
        q.values = rng.uniform(-2, 2, size=q.values.shape)
        h = (1, 1)
        exact = exact_operator(small, q, 0, 0, h, neighbor_action_rule="uniform")
        eng = _FrozenEngine(small, kappa, m, 3, mode="marginal",
                            neighbor_action_rule="uniform", aggregate_rule="leave_one_out")
        e = q.index().rank(h)  # entry (s, a, h) = (0, 0, h)
        emp = eng.rewards[e] + q.gamma * eng.sweep(q.values)[e]
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
        # the greedy rule at up to 5 states and at kappa 1 and 8
        for trial, (S, A, kappa) in enumerate([(5, 2, 1), (5, 2, 2), (4, 3, 3),
                                               (2, 3, 8), (3, 2, 8)]):
            kernel = rng.dirichlet(np.ones(S), size=(S, A, S))
            env = linear_env(f"greedy{trial}", kernel, rng.uniform(-3, 3, size=(S, A, S)),
                             discount=0.9)
            agg = ("leave_one_out", "shared")[trial % 2]
            q = QTable.zeros("marginal", kappa, S, A, 0.9)
            q.values = rng.uniform(-9, 9, q.values.shape)
            fast, ref = engine_and_reference(env, q, 5, 200 + trial, "greedy", agg)
            assert np.array_equal(fast, ref), (S, A, kappa, agg)

    def test_fast_engine_matches_reference_with_one_action(self, rng):
        # with one action a joint count row has the length of a marginal one
        S, kappa = 3, 3
        env = linear_env("one-action", rng.dirichlet(np.ones(S), size=(S, 1, S)),
                         rng.uniform(-3, 3, size=(S, 1, S)), discount=0.9)
        for trial, (mode, rule, agg) in enumerate(itertools.product(
                MODES, ("uniform", "greedy"), ("leave_one_out", "shared"))):
            q = QTable.zeros(mode, kappa, S, 1, 0.9)
            q.values = rng.uniform(-9, 9, q.values.shape)
            fast, ref = engine_and_reference(env, q, 5, 300 + trial, rule, agg)
            assert np.array_equal(fast, ref), (mode, rule, agg)

    def test_one_build_draws_its_frozen_uniforms_in_one_call(self, warehouse, monkeypatch):
        from gmfs import bellman

        keys = []

        def counted(*key):
            keys.append(key)
            return stream(*key)

        monkeypatch.setattr(bellman, "stream", counted)
        for mode, rule in (("marginal", "uniform"), ("marginal", "greedy"), ("joint", "uniform")):
            keys.clear()
            _FrozenEngine(warehouse, 2, 3, 7, mode=mode, neighbor_action_rule=rule,
                          aggregate_rule="leave_one_out")
            assert keys == [(7, "vi-frozen", 2)], (mode, rule)

    @pytest.mark.parametrize("mode, kappa, rule", [("marginal", 3, "uniform"),
                                                   ("marginal", 3, "greedy"),
                                                   ("joint", 2, "uniform")])
    def test_block_boundaries_change_no_draw(self, warehouse, rng, monkeypatch,
                                             mode, kappa, rule):
        from gmfs import bellman

        m, seed = 7, 13
        per_key = m * kappa
        q = QTable.zeros(mode, kappa, 3, 3, 0.95, env_name="warehouse")
        q.values = rng.uniform(-5, 5, q.values.shape)
        ref = reference_sweep(warehouse, q, m, seed, rule, "leave_one_out")
        rows = []

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def random(self, shape):
                rows.append(shape)
                return self.gen.random(shape)

        monkeypatch.setattr(bellman, "stream", lambda *key: Counted(stream(*key)))
        arrays = ("flat", "next_codes", "focal_offset")
        single = None
        # (block size, keys per block, entries per block): one block per
        # pass; a constant that ends inside the third key's neighbor draws,
        # so two whole keys per block; one below a single key's draws, so
        # one key per block; one below a single entry's focal draws, so one
        # key and one entry per block
        E = table_size(mode, kappa, 3, 3)
        K = E // 3
        for size, k, e in ((10**9, K, E), (2 * per_key + per_key // 2, 2, 2 * kappa + kappa // 2),
                           (per_key - 1, 1, kappa - 1), (m - 1, 1, 1)):
            monkeypatch.setattr(bellman, "_FROZEN_BLOCK", size)
            rows.clear()
            eng = _FrozenEngine(warehouse, kappa, m, seed, mode=mode, neighbor_action_rule=rule,
                                aggregate_rule="leave_one_out")
            # m kappa neighbor uniforms per key, then m focal ones per entry:
            # K m kappa + E m in all
            assert rows == ([(min(k, K - lo), m, kappa) for lo in range(0, K, k)]
                            + [(min(e, E - lo), m) for lo in range(0, E, e)]), size
            assert np.array_equal(engine_sweep(eng, q), ref), size
            built = {name: getattr(eng, name) for name in arrays if hasattr(eng, name)}
            assert set(built) == ({"next_codes", "focal_offset"} if rule == "greedy"
                                  else {"flat"})
            if single is None:
                single = built
            for name, array in built.items():
                assert array.dtype == single[name].dtype, (size, name)
                assert np.array_equal(array, single[name]), (size, name)

    def test_build_memory_does_not_grow_with_m(self, warehouse):
        import tracemalloc

        def build(m):
            return _FrozenEngine(warehouse, 24, m, 1, mode="marginal",
                                 neighbor_action_rule="uniform", aggregate_rule="leave_one_out")

        def peak_and_excess(m):
            """The build's tracemalloc peak, and that peak less the arrays
            the engine keeps."""
            tracemalloc.start()
            try:
                eng = build(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))
            return peak, peak - held

        build(1)  # the cached histogram index, code ranker and model tables
        _, excess_50 = peak_and_excess(50)
        peak_250, excess_250 = peak_and_excess(250)
        # one (E, m, kappa + 1) block of every frozen uniform is 146 MB at m 250
        assert peak_250 < 24 * 2**20
        assert excess_250 < excess_50 + 2**20

    @pytest.mark.parametrize("mode, rule, kappa", [
        ("marginal", "uniform", 24), ("marginal", "greedy", 24), ("joint", "uniform", 6)])
    def test_build_holds_little_beyond_what_the_engine_keeps(self, warehouse, mode, rule,
                                                             kappa):
        import tracemalloc

        def build(m):
            return _FrozenEngine(warehouse, kappa, m, 1, mode=mode, neighbor_action_rule=rule,
                                 aggregate_rule="leave_one_out")

        build(1)  # the cached histogram index, code ranker and joint layout
        tracemalloc.start()
        try:
            eng = build(50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))
        # the whole-table slot states, ranks and laws, which no sweep reads,
        # used to add 5.2, 5.2 and 10.6 MB here; a joint build's whole-table
        # entry keys, another 1.0 MiB
        assert peak - held < (2**20 if mode == "joint" else 2 * 2**20)

    def test_codes_past_the_int16_range_match_the_reference(self, rng):
        # the largest code sum, kappa (kappa + 1)^(S - 2) = 3 * 4^7, needs int32
        S, A, kappa = 9, 2, 3
        assert kappa * (kappa + 1) ** (S - 2) > np.iinfo(np.int16).max
        env = linear_env("wide", rng.dirichlet(np.ones(S), size=(S, A, S)),
                         rng.uniform(-3, 3, size=(S, A, S)), discount=0.9)
        q = QTable.zeros("marginal", kappa, S, A, 0.9)
        q.values = rng.uniform(-9, 9, q.values.shape)
        for rule in ("greedy", "uniform"):
            fast, ref = engine_and_reference(env, q, 1, 5, rule, "leave_one_out")
            assert np.array_equal(fast, ref), rule

    def test_codes_past_64_bits_are_refused_at_build(self, monkeypatch):
        from gmfs import bellman

        def refuse(*args, **kwargs):
            raise AssertionError("tabulation reached")

        monkeypatch.setattr(bellman, "tabulate", refuse)
        S = 42  # kappa 2: the largest code, 2 * 3^40, exceeds 64 bits
        env = linear_env("long", np.broadcast_to(np.eye(S), (S, 1, S, S)).copy(),
                         np.zeros((S, 1, S)))
        for rule in ("uniform", "greedy"):
            with pytest.raises(BudgetError, match="codes"):
                value_iteration(env, 2, 1, 1, neighbor_action_rule=rule)

    # kappa 2, m 10: 12 entries keep 120 samples, plus 240 codes under greedy
    # (6 keys, 2 states, 2 actions)
    @pytest.mark.parametrize("rule, kept", [("uniform", 120), ("greedy", 360)])
    def test_kept_frozen_samples_are_refused_before_the_draws(self, small, monkeypatch,
                                                              rule, kept):
        from gmfs import bellman

        def refuse(*args, **kwargs):
            raise AssertionError("frozen draws reached")

        monkeypatch.setattr(bellman, "MAX_TABLE_ENTRIES", kept - 1)
        monkeypatch.setattr(bellman, "stream", refuse)
        with pytest.raises(BudgetError, match="frozen samples"):
            value_iteration(small, 2, 10, 1, neighbor_action_rule=rule)
        monkeypatch.setattr(bellman, "MAX_TABLE_ENTRIES", kept)
        with pytest.raises(AssertionError, match="frozen draws reached"):
            value_iteration(small, 2, 10, 1, neighbor_action_rule=rule)

    @pytest.mark.parametrize("mode, rule", [("marginal", "uniform"), ("marginal", "greedy"),
                                            ("joint", "uniform")])
    @pytest.mark.parametrize("env_seed", [5, 6])
    def test_threshold_codes_match_per_slot_lookups(self, mode, rule, env_seed):
        rng = np.random.default_rng(env_seed)
        S, A, kappa, m, seed = 4, 2, 3, 6, 9
        env = linear_env("random", rng.dirichlet(np.ones(S), size=(S, A, S)),
                         rng.normal(size=(S, A, S)))
        eng = _FrozenEngine(env, kappa, m, seed, mode=mode, neighbor_action_rule=rule,
                            aggregate_rule="leave_one_out")
        model = tabulate(env, kappa, "leave_one_out")
        index, cdf = model.index, np.cumsum(model.pmf, axis=3)
        uniform_cdf = np.cumsum(model.pmf.mean(axis=1), axis=2)
        codes = index.cell_codes()

        def lookup(cdf_row, u):
            return min(int(np.searchsorted(cdf_row, u, side="right")), S - 1)

        joint = mode == "joint"
        hists = list(enumerate_histograms(S * A if joint else S, kappa))
        E, K = eng.n_entries, S * len(hists)
        # every key's m kappa neighbor uniforms, then every entry's m focal ones
        uni = stream(seed, "vi-frozen", kappa).random(K * m * kappa + E * m)
        neighbor_uni = uni[:K * m * kappa].reshape(K, m, kappa)
        focal_uni = uni[K * m * kappa:].reshape(E, m)
        ranks = np.empty((K, m), dtype=np.int64)
        next_codes = np.empty((K, kappa, A, m), dtype=np.int64)
        for key, (s, hist) in enumerate(itertools.product(range(S), hists)):
            g = index.rank(np.reshape(hist, (S, -1)).sum(axis=1))
            slot_states, slot_actions = expand_surrogate(hist, A if joint else None)
            for j in range(m):
                drawn = []
                for k, x in enumerate(slot_states):
                    gm = model.gm_rank[g, s, x]
                    u = neighbor_uni[key, j, k]
                    if rule == "greedy":
                        for b in range(A):
                            next_codes[key, k, b, j] = codes[lookup(cdf[x, b, gm], u)]
                    elif joint:
                        drawn.append(lookup(cdf[x, slot_actions[k], gm], u))
                    else:
                        drawn.append(lookup(uniform_cdf[x, gm], u))
                if rule != "greedy":
                    ranks[key, j] = index.rank(np.bincount(drawn, minlength=S))
        flat = np.empty((E, m), dtype=np.int64)
        for e, (s, a, (h, hist)) in enumerate(itertools.product(range(S), range(A),
                                                                enumerate(hists))):
            g = index.rank(np.reshape(hist, (S, -1)).sum(axis=1))
            for j in range(m):
                flat[e, j] = lookup(cdf[s, a, g], focal_uni[e, j]) * index.total
                if rule != "greedy":
                    flat[e, j] += ranks[s * len(hists) + h, j]
        if rule == "greedy":
            assert np.array_equal(eng.focal_offset.reshape(E, m), flat)
            # the slots of one state share their greedy action, so the
            # engine keeps the sum of their codes per (key, state, action)
            by_state = np.zeros((K, S, A, m), dtype=np.int64)
            for key, (_, hist) in enumerate(itertools.product(range(S), hists)):
                for k, x in enumerate(expand_surrogate(hist, A if joint else None)[0]):
                    by_state[key, x] += next_codes[key, k]
            assert np.array_equal(eng.next_codes, by_state.reshape(-1, m))
        else:
            assert np.array_equal(eng.flat, flat.T)  # kept sample-major

    def test_greedy_codes_are_kept_per_state(self, warehouse):
        # one row of m code sums per (key, state, action): not per slot, and
        # not per focal action, whose entries share their key's neighbor draws
        kappa, m = 24, 50
        eng = _FrozenEngine(warehouse, kappa, m, 3, mode="marginal",
                            neighbor_action_rule="greedy", aggregate_rule="leave_one_out")
        keys = eng.n_entries // 3
        assert eng.next_codes.shape == (keys * 3 * 3, m)
        assert eng.slot_key.shape == eng.slot_base.shape == (3, keys)
        assert eng.next_codes.nbytes <= 0.9e6

    @pytest.mark.parametrize("m", [8, 9, 50, 129])
    @pytest.mark.parametrize("mode, kappa", [("marginal", 3), ("joint", 2)])
    @pytest.mark.parametrize("by_slab", [False, True])
    def test_sample_sums_past_eight_match_the_reference(self, small, rng, monkeypatch,
                                                        mode, kappa, m, by_slab):
        # a sweep takes the row mean of every backup, or, past _FROZEN_BLOCK
        # backups (here forced), sums eight samples at a time and splits past
        # 128; the reference takes np.mean of each entry's m backups
        from gmfs import bellman

        if by_slab:
            monkeypatch.setattr(bellman, "_FROZEN_BLOCK", 0)
        q = QTable.zeros(mode, kappa, 2, 2, 0.9)
        q.values = rng.uniform(-9, 9, q.values.shape)
        eng = _FrozenEngine(small, kappa, m, 31, mode=mode, neighbor_action_rule="uniform",
                            aggregate_rule="leave_one_out")
        assert eng.by_slab == by_slab and eng.flat.shape == (m, eng.n_entries)
        ref = reference_sweep(small, q, m, 31, "uniform", "leave_one_out")
        assert engine_sweep(eng, q).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", [50, 250])
    def test_one_sweep_holds_little_beyond_its_inputs(self, warehouse, rng, m):
        import tracemalloc

        eng = _FrozenEngine(warehouse, 24, m, 1, mode="marginal",
                            neighbor_action_rule="uniform", aggregate_rule="leave_one_out")
        assert eng.by_slab
        values = rng.uniform(-5, 5, (3, 3, eng.n_entries // 9))
        eng.sweep(values)
        tracemalloc.start()
        try:
            eng.sweep(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (E, m) gather of every backup was 1.15 and 5.61 MiB
        assert peak < 2**19

    def test_greedy_rule_need_not_converge(self, warehouse):
        # the greedy slot actions read the current table, so the operator
        # changes from sweep to sweep and is no fixed contraction: here the
        # actions keep cycling and the residual stays far above epsilon
        q = value_iteration(warehouse, 6, 50, 250, seed=5, neighbor_action_rule="greedy")
        assert q.iterations == 250
        assert q.residual > 1.0

    def test_sweeps_never_rank_rows(self, warehouse, monkeypatch):
        from gmfs import histograms

        def refuse(*args, **kwargs):
            raise AssertionError("rank_rows reached")

        for mode, rule in (("marginal", "greedy"), ("marginal", "uniform"), ("joint", "greedy")):
            engine = _FrozenEngine(warehouse, 2 if mode == "joint" else 5, 4, 0, mode=mode,
                                   neighbor_action_rule=rule, aggregate_rule="leave_one_out")
            q = QTable.zeros(mode, engine.kappa, 3, 3, 0.95)
            with monkeypatch.context() as patch:
                patch.setattr(histograms.HistogramIndex, "rank_rows", refuse)
                for _ in range(3):
                    q.values = (engine.rewards + 0.95 * engine.sweep(q.values)).reshape(
                        q.values.shape)
            assert np.all(np.isfinite(q.values))

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
            g = g_idx.counts_by_rank[g_rank]
            for z in fiber(g, 2):
                spread = qj.values[:, :, z_idx.rank(z)] - qm.values[:, :, g_rank]
                assert np.abs(spread).max() <= 1e-6


class TestSharedNeighborDraws:
    """The A entries of a key (s, h) share its m neighbor samples and draw
    their own focal transitions."""

    @pytest.mark.parametrize("mode, kappa", [("marginal", 6), ("joint", 2)])
    def test_a_keys_entries_share_neighbor_ranks_but_not_focal_draws(self, warehouse,
                                                                     mode, kappa):
        m = 50
        eng = _FrozenEngine(warehouse, kappa, m, 4, mode=mode, neighbor_action_rule="uniform",
                            aggregate_rule="leave_one_out")
        flat = eng.flat.T.reshape(3, 3, -1, m)  # (s, a, h, sample)
        G = get_index(3, kappa).total
        ranks, focal = flat % G, flat // G
        # every action's entry reads its key's ranks, sample by sample
        assert np.array_equal(ranks, np.broadcast_to(ranks[:, :1], ranks.shape))
        assert not np.array_equal(focal, np.broadcast_to(focal[:, :1], focal.shape))
        # one focal uniform shared by the actions would rank a key's samples
        # alike under every action (s' is monotone in it): no pair of
        # samples could move in opposite directions under two actions
        moves = focal[..., :, None] - focal[..., None, :]  # (s, a, h, sample, sample)
        discordant = np.zeros((focal.shape[0], focal.shape[2]), dtype=bool)  # (s, h)
        for a, b in itertools.combinations(range(3), 2):
            discordant |= (moves[:, a] * moves[:, b] < 0).any(axis=(2, 3))
        assert discordant.mean() > 0.5, discordant.mean()

    # focal agent in state 0 acting 2, next to one neighbor in each state
    # (marginal), or next to neighbors in states 0 and 1 that both act 2
    @pytest.mark.parametrize("mode, hist", [("marginal", (1, 1, 1)),
                                            ("joint", (0, 0, 1, 0, 0, 1, 0, 0, 0))],
                             ids=["marginal", "joint"])
    def test_pooled_samples_follow_the_exact_law(self, warehouse, mode, hist):
        # one entry's (s', rank) samples over many engine seeds, against the
        # exact operator's focal pmf times its law of the next marginal,
        # which must be the brute-force oracle's law
        s, a, kappa = 0, 2, sum(hist)
        exact = _FrozenEngine(warehouse, kappa, 1, 0, mode=mode, operator="exact",
                              neighbor_action_rule="uniform", aggregate_rule="leave_one_out")
        S, _, H, G = exact.law.shape
        h = get_index(len(hist), kappa).rank(hist)
        e = (s * 3 + a) * H + h
        probs = np.outer(exact.focal_pmf[e], exact.law[s, 0, h]).ravel()
        oracle = np.zeros((S, G))
        for (s_next, g_next), p in surrogate_outcome_oracle(warehouse, s, a, hist,
                                                            kappa).items():
            oracle[s_next, get_index(S, kappa).rank(g_next)] += p
        assert np.allclose(probs, oracle.ravel(), rtol=0, atol=1e-12)

        m, seeds = 50, 200
        samples = np.concatenate([
            _FrozenEngine(warehouse, kappa, m, seed, mode=mode, neighbor_action_rule="uniform",
                          aggregate_rule="leave_one_out").flat[:, e] for seed in range(seeds)])
        observed = np.bincount(samples, minlength=S * G)
        assert observed[probs == 0].sum() == 0
        expected = probs * samples.size
        rare = expected < 5  # pooled into one cell
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
        seen = expected > 0
        statistic = float(((observed - expected)[seen] ** 2 / expected[seen]).sum())
        df = int(seen.sum()) - 1
        assert df >= 5
        assert statistic <= chi2_upper(df), (statistic, df)


magnitudes = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                       st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99),
                       st.integers(-300, 300))


class TestSampleMean:
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]), magnitudes,
                              st.floats(-10.0, 10.0)),
                    max_size=12),
           st.one_of(st.sampled_from(range(1, 18)), st.integers(1, 300),
                     st.sampled_from([8191, 8192, 8193, 20_000])),
           st.sampled_from([1, 3, 257]), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_row_mean_bit_for_bit(self, table, m, E, seed):
        # plus values whose sums round, so that any other order shows
        rng = np.random.default_rng(seed)
        table = np.concatenate([table, rng.standard_normal(8) * 10.0 ** rng.integers(-3, 4, 8)])
        idx = rng.integers(0, len(table), (m, E))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
            got = _sample_mean(table, idx)
            assert got.tobytes() == table.take(idx.T).mean(axis=1).tobytes()
        for e in {0, E - 1}:
            column = table.take(idx[:, e]).tolist()
            want = np.float64((0.0 + pairwise_sum_oracle(column)) / m)
            assert got[e].tobytes() == want.tobytes(), e

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 129])
    def test_a_sum_of_negative_zeros_is_positive_zero(self, m):
        # numpy's row sum starts from +0.0, and so must the slab sum
        got = _sample_mean(np.array([-0.0]), np.zeros((m, 3), dtype=np.int64))
        assert not np.any(np.signbit(got))
        assert got.tobytes() == np.full((3, m), -0.0).mean(axis=1).tobytes()


class TestStochasticValueIteration:
    def test_degenerate_noise_bitwise_equal(self, warehouse):
        det = value_iteration(warehouse, 2, 10, 40, seed=3)
        sto = value_iteration(warehouse, 2, 10, 40, seed=3, reward_noise=0.0, xi=1)
        assert np.array_equal(det.values, sto.values)
        assert det.residual_history == sto.residual_history

    def test_degenerate_noise_bitwise_equal_in_joint_mode(self, small):
        det = value_iteration(small, 2, 6, 25, seed=3, mode="joint")
        sto = value_iteration(small, 2, 6, 25, seed=3, mode="joint", reward_noise=0.0, xi=1)
        assert np.array_equal(det.values, sto.values)
        assert det.residual_history == sto.residual_history

    def test_reward_noise_reaches_joint_mode(self, small):
        det = value_iteration(small, 2, 6, 25, seed=3, mode="joint")
        sto = value_iteration(small, 2, 6, 25, seed=3, mode="joint", reward_noise=0.5, xi=3)
        assert sto.values.shape == det.values.shape
        assert 0.0 < np.abs(sto.values - det.values).max() < 0.5 / (1 - 0.9) + 1e-9

    def test_degenerate_noise_bitwise_equal_with_the_exact_operator(self, small):
        for mode in ("marginal", "joint"):
            det = value_iteration(small, 2, 1, 40, seed=3, mode=mode, operator="exact")
            sto = value_iteration(small, 2, 1, 40, seed=3, mode=mode, operator="exact",
                                  reward_noise=0.0, xi=1)
            assert np.array_equal(det.values, sto.values)
            assert det.residual_history == sto.residual_history

    def test_reward_noise_reaches_the_exact_operator(self, small):
        det = value_iteration(small, 2, 1, 25, seed=3, operator="exact")
        sto = value_iteration(small, 2, 1, 25, seed=3, operator="exact", reward_noise=0.5, xi=3)
        assert 0.0 < np.abs(sto.values - det.values).max() < 0.5 / (1 - 0.9) + 1e-9

    def test_zero_half_width_equals_deterministic(self, warehouse):
        det = value_iteration(warehouse, 2, 10, 30, seed=4)
        sto = value_iteration(warehouse, 2, 10, 30, seed=4, reward_noise=0.0, xi=5)
        assert np.array_equal(det.values, sto.values)

    def test_uniform_noise_mean_and_support(self, warehouse):
        # with gamma = 0 one sweep is the reward plus one noise draw per entry
        det = value_iteration(warehouse, 6, 1, 1, seed=0, gamma=0.0)
        draws = np.concatenate([
            (value_iteration(warehouse, 6, 1, 1, seed=k, gamma=0.0, reward_noise=0.5).values
             - det.values).ravel()
            for k in range(40)])
        assert np.all(np.abs(draws) <= 0.5 + 1e-12)
        # CLT: std of uniform(-0.5, 0.5) is 1/sqrt(12)
        sigma = 0.5 / np.sqrt(3.0) / np.sqrt(draws.size)
        assert abs(draws.mean()) <= 3.0 * sigma
        assert draws.std() == pytest.approx(0.5 / np.sqrt(3.0), rel=0.05)

    @pytest.mark.parametrize("noise", [
        dict(reward_noise=-0.5), dict(reward_noise=math.inf), dict(reward_noise=math.nan),
        dict(xi=0),
    ], ids=["negative", "infinite", "nan", "no-draws"])
    def test_rejects_invalid_noise(self, small, noise):
        with pytest.raises(ValueError):
            value_iteration(small, 2, 1, 1, **noise)

    def test_averaging_shrinks_error(self, warehouse):
        det = {seed: value_iteration(warehouse, 2, 10, 60, seed=seed) for seed in range(6)}
        errs = {}
        for xi in (1, 25):
            gaps = []
            for seed in range(6):
                sto = value_iteration(warehouse, 2, 10, 60, seed=seed, reward_noise=1.0, xi=xi)
                gaps.append(np.abs(sto.values - det[seed].values).max())
            errs[xi] = float(np.median(gaps))
        assert errs[25] < errs[1]


class TestOffPolicy:
    @staticmethod
    def one_step(env, learning_rate):
        """The table after one step from zero, the value of the one entry
        (s, a, g) the step visited, and that entry's reward."""
        q = off_policy_learn(env, 2, 1, seed=0, gamma=0.9,
                             config=OffPolicyConfig(learning_rate=learning_rate))
        (s,), (a,), (g,) = np.nonzero(q.values)
        reward = local_reward(env, int(s), int(a), get_index(2, 2).counts_by_rank[g] / 2)
        return q, q.values[s, a, g], reward

    def test_update_arithmetic(self, small):
        # (1 - alpha) Q + alpha (r + gamma max Q') with Q = Q' = 0
        _, new, reward = self.one_step(small, 0.5)
        assert new == pytest.approx(0.5 * reward)

    def test_alpha_one_boundary(self, small):
        _, new, reward = self.one_step(small, 1.0)
        assert new == pytest.approx(reward)

    def test_alpha_out_of_range(self):
        for learning_rate in (0.0, 1.5):
            with pytest.raises(ValueError):
                OffPolicyConfig(learning_rate=learning_rate)

    def test_only_target_entry_changes(self, small):
        q, _, _ = self.one_step(small, 0.1)
        assert np.count_nonzero(q.values) == 1

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

    def test_steps_are_required(self, small):
        with pytest.raises(TypeError):
            off_policy_learn(small, 2, seed=0, gamma=0.9)
        assert off_policy_learn(small, 2, 500, seed=0, gamma=0.9).iterations == 500

    def test_negative_steps_are_refused(self, small):
        with pytest.raises(ValueError, match="steps"):
            off_policy_learn(small, 2, -5, seed=0, gamma=0.9)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, -0.1])
    def test_gamma_outside_the_unit_interval_is_refused(self, small, gamma):
        with pytest.raises(ValueError, match="gamma must lie in"):
            off_policy_learn(small, 2, 10, seed=0, gamma=gamma)

    def test_decaying_schedule(self):
        cfg = OffPolicyConfig(learning_rate=0.5, decay=0.1)
        assert cfg.alpha(0) == 0.5
        assert cfg.alpha(10) == pytest.approx(0.25)

    @pytest.mark.parametrize("decay", [-0.1, float("nan"), float("inf")])
    def test_decay_outside_the_finite_half_line_is_refused(self, decay):
        # inf gives alpha(0) = rate / (1 + inf * 0), a nan at the first step
        with pytest.raises(ValueError, match="decay"):
            OffPolicyConfig(decay=decay)

    @pytest.mark.parametrize("env_name, kappa, steps, seed, kwargs", [
        ("small", 2, 3000, 0, {}),
        ("small", 2, 3000, 1, {"config": OffPolicyConfig(
            behavior_policy=lambda s, g: (0.75 if g % 2 else 0.1, 0.25))}),
        ("small", 3, 3000, 2, {"aggregate_rule": "shared"}),
        ("small", 2, 3000, 3, {"config": OffPolicyConfig(learning_rate=0.5, decay=0.01)}),
        ("warehouse", 3, 8 * _OFF_POLICY_BLOCK + 811, 4, {"config": OffPolicyConfig(
            learning_rate=0.2, behavior_policy=lambda s, g: (1.0, 2.0, 0.5 + s))}),
        ("warehouse", 4, 1, 5, {}),
        # more chain states x = s * G + g than states, across blocks
        ("warehouse", 6, 4 * _OFF_POLICY_BLOCK + 1500, 6, {}),
        ("four_state", 2, 4000, 7, {"config": OffPolicyConfig(
            behavior_policy=lambda s, g: (1.0 + s, 2.0 + g % 3))}),
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

    def test_huge_header_dims_are_a_format_error(self, tmp_path, huge_header_qtable):
        # |S| = kappa = 2^16 give C(2^17 - 1, 2^16 - 1) histograms, a count of
        # about 39 000 digits; the header is checked against the payload first
        path = tmp_path / "q.bin"
        path.write_bytes(huge_header_qtable)
        with pytest.raises(FormatError, match="values but the header"):
            load_qtable(path)

    def test_header_residual_matches_recorded(self, tmp_path, warehouse):
        q = value_iteration(warehouse, 2, 5, 30, seed=9)
        path = tmp_path / "q.bin"
        save_qtable(q, path)
        assert load_qtable(path).residual == q.residual

    def test_table_size_formula(self):
        assert table_size("marginal", 24, 3, 3) == 9 * 325 == 2925
        assert table_size("joint", 2, 2, 2) == 4 * 10
