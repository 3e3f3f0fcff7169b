import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gmfs.bellman import QTable, value_iteration
from gmfs.env import linear_env, local_reward, step_distribution
from gmfs.errors import BudgetError
from gmfs import execution
from gmfs.execution import (Policy, _initial_states, evaluate_policies, evaluate_policy,
                            run_episode)
from gmfs.graphon import Graphon, LatentAssignment, build_weights
from gmfs.histograms import get_index, nearest_histograms
from gmfs.rng import stream
from gmfs.sampler import exact_state_aggregates, row_alias
from oracles import chi2_upper


@pytest.fixture(scope="module")
def warehouse_weights():
    return build_weights(Graphon.radial_graphon(0.3, latent_dim=2),
                         LatentAssignment.grid(25))


@pytest.fixture(scope="module")
def trained_k6(warehouse):
    return value_iteration(warehouse, 6, 50, 250, seed=0)


def recording(env):
    """``env`` whose transition kernel records the (states, actions) of each
    call, and the list it records into. The simulator calls the kernel once
    per step on the whole batch, so the list is the trajectory."""
    trajectory = []

    def transition(s, a, g):
        trajectory.append((s.copy(), a.copy()))
        return env.transition(s, a, g)

    return replace(env, transition=transition), trajectory


def act(policy, s, g):
    """The greedy action at local state s and neighbor count row g."""
    return int(policy.greedy_table()[s, get_index(policy.n_states, policy.kappa).rank(g)])


class TestAct:
    def test_single_action(self):
        q = QTable.zeros("marginal", 2, 3, 1, 0.9)
        assert act(Policy(q), 1, (1, 1, 0)) == 0

    def test_dominant_action(self):
        q = QTable.zeros("marginal", 2, 2, 3, 0.9)
        q.values[:, 1, :] = 5.0
        assert np.all(Policy(q).greedy_table() == 1)

    def test_congested_warehouse_avoids_working(self, trained_k6):
        # at full perceived congestion the work action is dominated: success
        # probability 0.1 and the utility floor cap the upside
        full_congestion = (0, 0, 6)
        a = act(Policy(trained_k6), 0, full_congestion)
        assert a != 2
        # one-step lookahead agreement: the chosen action's entry dominates
        g_rank = get_index(3, 6).rank(full_congestion)
        assert trained_k6.values[0, a, g_rank] >= trained_k6.values[0, 2, g_rank]

    def test_joint_mode_policy(self, small, rng):
        q = value_iteration(small, 2, 4, 40, seed=0, mode="joint", gamma=0.9,
                            neighbor_action_rule="uniform")
        greedy = Policy(q).greedy_table()
        assert greedy.shape == (2, 3) and np.all((0 <= greedy) & (greedy < 2))


class TestRunEpisode:
    def test_zero_horizon(self, warehouse, warehouse_weights, trained_k6):
        r = run_episode(warehouse, warehouse_weights, Policy(trained_k6), 25,
                        0, 0.95, seed=0)
        assert r.discounted_return == 0.0
        assert len(r.stage_rewards) == 0

    def test_gamma_zero_returns_first_stage(self, warehouse, warehouse_weights, trained_k6):
        r = run_episode(warehouse, warehouse_weights, Policy(trained_k6), 25,
                        7, 0.0, seed=3)
        assert r.discounted_return == pytest.approx(r.stage_rewards[0])

    def test_accounting_identity(self, warehouse, warehouse_weights, trained_k6):
        gamma = 0.95
        r = run_episode(warehouse, warehouse_weights, Policy(trained_k6), 25,
                        50, gamma, seed=5)
        resum = sum(gamma**t * r.stage_rewards[t] for t in range(50))
        assert r.discounted_return == pytest.approx(resum, rel=1e-12)

    def test_deterministic_in_seed(self, warehouse, warehouse_weights, trained_k6):
        a = run_episode(warehouse, warehouse_weights, Policy(trained_k6), 25,
                        30, 0.95, seed=11)
        b = run_episode(warehouse, warehouse_weights, Policy(trained_k6), 25,
                        30, 0.95, seed=11)
        assert a.discounted_return == b.discounted_return
        assert np.array_equal(a.stage_rewards, b.stage_rewards)

    def test_distinct_seeds_vary(self, warehouse, warehouse_weights):
        # an always-work policy keeps the chain stochastic
        q = QTable.zeros("marginal", 6, 3, 3, 0.95)
        q.values[:, 2, :] = 1.0
        rets = {run_episode(warehouse, warehouse_weights, Policy(q), 25,
                            30, 0.95, seed=s).discounted_return for s in range(6)}
        assert len(rets) > 1

    def test_initial_distribution(self, warehouse, warehouse_weights, trained_k6):
        env, trajectory = recording(warehouse)
        run_episode(env, warehouse_weights, Policy(trained_k6), 25, 1, 0.95,
                    init=(0.0, 0.0, 1.0), seed=8)
        (states, _), = trajectory
        assert states.shape == (1, 25) and np.all(states == 2)

    def test_wrong_n_rejected(self, warehouse, warehouse_weights, trained_k6):
        with pytest.raises(ValueError):
            run_episode(warehouse, warehouse_weights, Policy(trained_k6), 24,
                        5, 0.95, seed=0)


class TestEvaluatePolicy:
    def test_single_seed(self, warehouse, warehouse_weights, trained_k6):
        ev = evaluate_policy(warehouse, warehouse_weights, Policy(trained_k6), 25,
                             20, 0.95, seeds=[4])
        single = run_episode(warehouse, warehouse_weights, Policy(trained_k6), 25,
                             20, 0.95, seed=4)
        assert ev.mean == single.discounted_return
        assert ev.std_error == 0.0

    def test_repeated_seed_identical(self, warehouse, warehouse_weights, trained_k6):
        ev = evaluate_policy(warehouse, warehouse_weights, Policy(trained_k6), 25,
                             20, 0.95, seeds=[7, 7, 7])
        assert np.all(ev.returns == ev.returns[0])

    def test_empty_seed_list_rejected(self, warehouse, warehouse_weights, trained_k6):
        with pytest.raises(ValueError):
            evaluate_policy(warehouse, warehouse_weights, Policy(trained_k6), 25,
                            20, 0.95, seeds=[])

    def test_tail_bound(self, warehouse, warehouse_weights, trained_k6):
        ev = evaluate_policy(warehouse, warehouse_weights, Policy(trained_k6), 25,
                             100, 0.95, seeds=[0])
        assert ev.tail_bound == pytest.approx(0.95**100 * 20.0 / 0.05)

    def test_kappa24_matches_full_information_baseline(self, warehouse, warehouse_weights):
        # at kappa = n-1 = 24, subsampled execution agrees with the
        # exact-aggregate baseline within its own seed-to-seed noise
        q24 = value_iteration(warehouse, 24, 50, 250, seed=0)
        seeds = list(range(10))
        sampled = evaluate_policy(warehouse, warehouse_weights, Policy(q24),
                                  25, 50, 0.95, seeds=seeds)
        baseline = evaluate_policy(warehouse, warehouse_weights, Policy(q24),
                                   25, 50, 0.95, seeds=seeds,
                                   policy_inputs="exact")
        pooled = np.hypot(sampled.std_error, baseline.std_error)
        assert abs(sampled.mean - baseline.mean) <= max(pooled, 1e-9)

    def test_exact_inputs_not_dominated(self, warehouse, warehouse_weights, trained_k6):
        # feeding the policy exact aggregates removes sampling noise, so the
        # mean return cannot trail the sampled-input mean by real margin
        seeds = list(range(12))
        sampled = evaluate_policy(warehouse, warehouse_weights, Policy(trained_k6),
                                  25, 40, 0.95, seeds=seeds)
        exact = evaluate_policy(warehouse, warehouse_weights, Policy(trained_k6),
                                25, 40, 0.95, seeds=seeds, policy_inputs="exact")
        pooled = np.hypot(sampled.std_error, exact.std_error)
        assert exact.mean >= sampled.mean - 2.0 * pooled - 1e-9


def reference_episode(env, weights, policy, n, kappa, horizon, gamma, init, seed, *,
                      reward_aggregates, policy_inputs):
    """The simulator's algorithm written one agent at a time: per-agent
    neighbor-state draws from the agent's exact aggregate, histograms, ranks,
    rewards and transitions, on the same per-episode stream and (n, kappa + 1)
    block per step."""
    S = env.n_states
    g_index = get_index(S, kappa)
    greedy = policy.greedy_table()
    states = _initial_states(init, n, S, stream(seed, "exec-init"))
    rng = stream(seed, "exec")
    trajectory, stage_rewards = [], []
    discounted, coeff = 0.0, 1.0
    for _ in range(horizon):
        block = rng.random((n, kappa + 1))
        exact_g = exact_state_aggregates(weights, states, S)
        actions = np.empty(n, dtype=np.int64)
        total = 0.0
        next_states = np.empty(n, dtype=np.int64)
        for i in range(n):
            if policy_inputs == "exact":
                counts = nearest_histograms(exact_g[i], kappa)
            else:
                drawn = np.minimum(np.searchsorted(np.cumsum(exact_g[i]), block[i, :kappa],
                                                   side="right"), S - 1)
                counts = np.bincount(drawn, minlength=S)
            actions[i] = greedy[states[i], g_index.rank(counts)]
            g_reward = exact_g[i] if reward_aggregates == "exact" else counts / kappa
            total += local_reward(env, int(states[i]), int(actions[i]), g_reward)
            pmf = step_distribution(env, int(states[i]), int(actions[i]), exact_g[i])
            nxt = int(np.searchsorted(np.cumsum(pmf), block[i, kappa], side="right"))
            next_states[i] = min(nxt, S - 1)
        trajectory.append((states, actions))
        stage_rewards.append(total / n)
        discounted += coeff * stage_rewards[-1]
        coeff *= gamma
        states = next_states
    return trajectory, np.array(stage_rewards), discounted


def random_policy(env, kappa, seed, mode="marginal"):
    """A greedy policy from a random table, so every action is taken."""
    rng = np.random.default_rng(seed)
    shape = QTable.zeros(mode, kappa, env.n_states, env.n_actions, 0.95).values.shape
    return Policy(QTable(mode, kappa, env.n_states, env.n_actions,
                         rng.standard_normal(shape), 0.95))


@pytest.fixture(scope="module")
def hetero_weights():
    return build_weights(Graphon.expdecay_graphon(2.0), LatentAssignment.sequential(12))


class TestSimulatorOracle:
    @pytest.mark.parametrize("env_name", ["warehouse", "small"])
    @pytest.mark.parametrize("policy_inputs", ["sampled", "exact"])
    @pytest.mark.parametrize("reward_aggregates", ["exact", "sampled"])
    def test_matches_per_agent_reference(self, env_name, policy_inputs, reward_aggregates,
                                         request, hetero_weights):
        env = request.getfixturevalue(env_name)
        kappa, horizon, gamma = 4, 15, 0.9
        init = tuple(np.full(env.n_states, 1.0 / env.n_states))
        policy = random_policy(env, kappa, seed=1)
        for seed in (0, 5):
            recorder, recorded = recording(env)
            got = run_episode(recorder, hetero_weights, policy, 12, horizon, gamma,
                              init=init, seed=seed, reward_aggregates=reward_aggregates,
                              policy_inputs=policy_inputs)
            trajectory, stages, discounted = reference_episode(
                env, hetero_weights, policy, 12, kappa, horizon, gamma, init, seed,
                reward_aggregates=reward_aggregates, policy_inputs=policy_inputs)
            for (s_got, a_got), (s_ref, a_ref) in zip(recorded, trajectory, strict=True):
                assert np.array_equal(s_got, s_ref[None])
                assert np.array_equal(a_got, a_ref[None])
            assert got.stage_rewards == pytest.approx(stages, rel=1e-12)
            assert got.discounted_return == pytest.approx(discounted, rel=1e-12)
        # the chain actually moves, so the comparison covers transitions
        assert len({tuple(s) for s, _ in trajectory}) > 1

    @pytest.mark.parametrize("env_name", ["warehouse", "small"])
    def test_batch_invariance(self, env_name, request, warehouse_weights):
        env = request.getfixturevalue(env_name)
        policy = random_policy(env, 6, seed=2)
        init = tuple(np.full(env.n_states, 1.0 / env.n_states))
        seeds = [3, 7, 3, 11, 7, 0]
        ev = evaluate_policy(env, warehouse_weights, policy, 25, 30, 0.95, seeds, init=init)
        for k, sd in enumerate(seeds):
            single = run_episode(env, warehouse_weights, policy, 25, 30, 0.95,
                                 init=init, seed=sd)
            assert ev.returns[k] == single.discounted_return
        assert len(set(ev.returns.tolist())) == 4

    @pytest.mark.parametrize("policy_inputs", ["sampled", "exact"])
    @pytest.mark.parametrize("reward_aggregates", ["exact", "sampled"])
    def test_simulator_never_ranks_rows(self, warehouse, warehouse_weights, monkeypatch,
                                        policy_inputs, reward_aggregates):
        from gmfs import histograms

        def refuse(*args, **kwargs):
            raise AssertionError("rank_rows reached")

        policy = random_policy(warehouse, 6, seed=3)
        init = (0.3, 0.3, 0.4)
        expected = [run_episode(warehouse, warehouse_weights, policy, 25, 20, 0.95,
                                init=init, seed=sd, reward_aggregates=reward_aggregates,
                                policy_inputs=policy_inputs).discounted_return
                    for sd in (0, 1)]
        monkeypatch.setattr(histograms.HistogramIndex, "rank_rows", refuse)
        ev = evaluate_policy(warehouse, warehouse_weights, policy, 25, 20, 0.95, [0, 1],
                             init=init, reward_aggregates=reward_aggregates,
                             policy_inputs=policy_inputs)
        assert ev.returns.tolist() == expected

    @pytest.mark.parametrize("policy_inputs", ["sampled", "exact"])
    def test_codes_past_64_bits_are_refused_before_the_first_episode(
            self, monkeypatch, policy_inputs):
        from gmfs import execution

        def refuse(*args, **kwargs):
            raise AssertionError("an episode stream was opened")

        S = 42  # kappa 2: the largest code, 2 * 3^40, exceeds 64 bits
        env = linear_env("long", np.broadcast_to(np.eye(S), (S, 1, S, S)).copy(),
                         np.zeros((S, 1, S)))
        weights = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(4))
        policy = Policy(QTable.zeros("marginal", 2, S, 1, 0.9))
        monkeypatch.setattr(execution, "stream", refuse)
        with pytest.raises(BudgetError, match="codes"):
            evaluate_policy(env, weights, policy, 4, 5, 0.9, seeds=[0],
                            policy_inputs=policy_inputs)


def rank_revealing_run(weights, states, kappa, seeds):
    """(len(seeds), n) ranks of the neighbor histograms that the simulator
    draws in one step from the per-agent ``states``: on a 3-state env with
    one action per rank whose greedy action is the rank itself, the actions
    of the first step are the ranks."""
    G = get_index(3, kappa).total
    env = linear_env("ranks", np.broadcast_to(np.eye(3), (3, G, 3, 3)).copy(),
                     np.zeros((3, G, 3)))
    values = np.zeros((3, G, G))
    values[:, np.arange(G), np.arange(G)] = 1.0
    policy = Policy(QTable("marginal", kappa, 3, G, values, 0.9))
    recorder, recorded = recording(env)
    evaluate_policy(recorder, weights, policy, weights.n, 1, 0.9, seeds, init=states)
    (_, ranks), = recorded
    return ranks


def alias_ranks(weights, states, kappa, trials, seed):
    """(trials, n) ranks of neighbor histograms drawn by the rule the
    simulator replaced: kappa ids from each agent's alias row, then
    ``bincount(states[ids])``."""
    index = get_index(3, kappa)
    ranks = np.empty((trials, weights.n), dtype=np.int64)
    for i in range(weights.n):
        u = stream(seed, "alias-law", kappa, i).random((2, trials, kappa))
        ids = row_alias(weights, i).sample_from_uniforms(u[0], u[1])
        counts = np.stack([np.bincount(states[row], minlength=3) for row in ids])
        ranks[:, i] = index.rank_rows(counts)
    return ranks


def homogeneity_chi2(a, b, pool_below=10):
    """(statistic, df) of the chi-square test that two equally sized samples
    of ranks, one column per agent, share each agent's law; per agent the
    cells with fewer than ``pool_below`` draws in both samples together
    pool into one."""
    statistic, df = 0.0, 0
    for col_a, col_b in zip(a.T, b.T, strict=True):
        size = max(col_a.max(), col_b.max()) + 1
        ca, cb = np.bincount(col_a, minlength=size), np.bincount(col_b, minlength=size)
        rare = ca + cb < pool_below
        ca = np.append(ca[~rare], ca[rare].sum())
        cb = np.append(cb[~rare], cb[rare].sum())
        seen = ca + cb > 0
        statistic += float(((ca - cb)[seen] ** 2 / (ca + cb)[seen]).sum())
        df += int(seen.sum()) - 1
    return statistic, df


class TestNeighborLaw:
    @pytest.mark.parametrize("kappa", [1, 6])
    def test_neighbor_histograms_follow_the_alias_row_law(self, kappa):
        # a neighbor drawn from w_bar[i, .] is in state x with probability
        # g_i(x): the simulator's draws from the exact aggregate and draws of
        # neighbor ids from the agent's alias row share one law per agent
        weights = build_weights(Graphon.expdecay_graphon(2.0), LatentAssignment.sequential(10))
        states = np.array([0, 0, 2, 1, 1, 2, 1, 0, 2, 2])
        trials = 3000
        drawn = rank_revealing_run(weights, states, kappa, range(trials))
        statistic, df = homogeneity_chi2(drawn, alias_ranks(weights, states, kappa, trials, 0))
        assert df >= 10 * (2 if kappa == 1 else 10)
        assert statistic <= chi2_upper(df), (statistic, df)


class TestScale:
    def test_simulation_holds_less_than_the_weight_matrix(self, warehouse):
        # no per-agent table over the other agents: an (n, n-1) array would
        # alone pass the (n, n) weights
        n = 900
        weights = build_weights(Graphon.radial_graphon(0.3, latent_dim=2),
                                LatentAssignment.grid(n))
        policy = Policy(QTable.zeros("marginal", 6, 3, 3, 0.95))
        tracemalloc.start()
        try:
            evaluate_policies(warehouse, weights, [policy], n, 2, 0.95, seeds=[0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weights.normalized.nbytes, peak


class TestPolicyBatch:
    @pytest.mark.parametrize("mode", ["marginal", "joint"])
    @pytest.mark.parametrize("policy_inputs", ["sampled", "exact"])
    @pytest.mark.parametrize("reward_aggregates", ["exact", "sampled"])
    def test_batch_matches_each_policy_alone_for_any_draw_block(
            self, warehouse, hetero_weights, monkeypatch, mode, policy_inputs,
            reward_aggregates):
        kappas, seeds, n = (1, 4, 7), [2, 9, 4], hetero_weights.n
        policies = [random_policy(warehouse, k, seed=k, mode=mode) for k in kappas]
        settings = dict(init=(0.5, 0.3, 0.2), reward_aggregates=reward_aggregates,
                        policy_inputs=policy_inputs)
        steps = []
        real_draw = execution._PolicyStep.draw

        def draw(self, scratch, count, n):
            steps.append(count)
            return real_draw(self, scratch, count, n)

        def batch(horizon, budget):
            monkeypatch.setattr(execution, "_EXEC_BLOCK", budget)
            steps.clear()
            out = evaluate_policies(warehouse, hetero_weights, policies, n, horizon, 0.9,
                                    seeds, **settings)
            # each block, every policy draws its steps in turn
            blocks = steps[::len(kappas)]
            assert steps == [b for b in blocks for _ in kappas]
            return out, blocks

        monkeypatch.setattr(execution._PolicyStep, "draw", draw)
        # a step holds the widest policy's uniforms and every policy's slot and
        # transition uniforms
        per_step = len(seeds) * n * (max(kappas) + 1 + sum(k + 1 for k in kappas))
        default = execution._EXEC_BLOCK
        for horizon in (0, 10):
            alone = [evaluate_policy(warehouse, hetero_weights, p, n, horizon, 0.9,
                                     seeds, **settings) for p in policies]
            # one block of every step, one step per block, and blocks of 3, 3, 3, 1
            for budget, blocks in ((default, [10]), (1, [1] * 10), (3 * per_step, [3, 3, 3, 1])):
                together, drawn = batch(horizon, budget)
                assert drawn == (blocks if horizon else []), budget
                for ev, own in zip(together, alone, strict=True):
                    assert ev.returns.tobytes() == own.returns.tobytes(), budget
                    assert (ev.mean, ev.std_error) == (own.mean, own.std_error)
        # the returns differ across seeds and kappas, so the comparison has teeth
        assert len({r for ev in alone for r in ev.returns.tolist()}) == len(kappas) * len(seeds)

    def test_initial_states_are_drawn_once_per_seed(self, warehouse, hetero_weights,
                                                    monkeypatch):
        tags = []
        real_stream = execution.stream

        def count(*key):
            tags.append(key[1])
            return real_stream(*key)

        monkeypatch.setattr(execution, "stream", count)
        policies = [random_policy(warehouse, k, seed=k) for k in (1, 4, 7)]
        evaluate_policies(warehouse, hetero_weights, policies, hetero_weights.n, 3, 0.9,
                          [0, 1], init=(0.5, 0.3, 0.2))
        assert sorted(tags) == ["exec"] * 6 + ["exec-init"] * 2

    def test_a_policy_refused_anywhere_refuses_the_batch_before_any_episode(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an episode stream was opened")

        S = 42  # kappa 1 fits in 64-bit codes; kappa 2 does not
        env = linear_env("long", np.broadcast_to(np.eye(S), (S, 1, S, S)).copy(),
                         np.zeros((S, 1, S)))
        weights = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(4))
        policies = [Policy(QTable.zeros("marginal", k, S, 1, 0.9)) for k in (1, 2)]
        monkeypatch.setattr(execution, "stream", refuse)
        with pytest.raises(BudgetError, match="codes"):
            evaluate_policies(env, weights, policies, 4, 5, 0.9, seeds=[0])

    @pytest.mark.parametrize("kernel, message", [
        ("transition", r"^transition kernel returned an invalid pmf at \(s=\d, a=\d\), g = "),
        ("reward", r"^reward kernel returned a non-finite reward at \(s=\d, a=\d\), g = "),
    ], ids=["transition", "reward"])
    def test_kernel_values_off_the_grid_are_checked(self, small, hetero_weights, kernel,
                                                    message):
        # NaN only off the kappa-2 grid: training, which reads the grid alone,
        # succeeds, and the simulator, which reads the exact aggregates, used
        # to draw state 0 for every NaN pmf and return finite returns
        def on_grid(g):
            return np.isin(g[..., 0], (0.0, 0.5, 1.0))

        nan_off_grid = {
            "transition": lambda s, a, g: np.where(on_grid(g)[..., None],
                                                   small.transition(s, a, g), np.nan),
            "reward": lambda s, a, g: np.where(on_grid(g), small.reward(s, a, g), np.nan),
        }
        env = replace(small, **{kernel: nan_off_grid[kernel]})
        q = value_iteration(env, 2, 4, 20, seed=0)
        with pytest.raises(ValueError, match=message):
            evaluate_policy(env, hetero_weights, Policy(q), hetero_weights.n, 5, 0.9,
                            [0, 1], init=(0.5, 0.5))

    def test_empty_policy_list_rejected(self, warehouse, warehouse_weights):
        with pytest.raises(ValueError, match="policy"):
            evaluate_policies(warehouse, warehouse_weights, [], 25, 5, 0.9, seeds=[0])
