import numpy as np
import pytest

from gmfs.env import (
    linear_env,
    load_tabular_env,
    local_reward,
    make_env,
    rewards,
    step_distribution,
    team_reward,
    transitions,
    warehouse_env,
)
from gmfs.errors import ConfigError
from gmfs.histograms import tv_distance


def g_of(*probs):
    return np.asarray(probs, dtype=np.float64)


class TestWarehouseTransitions:
    def test_work_attempt_no_congestion(self, warehouse):
        pmf = step_distribution(warehouse, 0, 2, g_of(1, 0, 0))
        assert pmf[2] == pytest.approx(0.9)
        assert pmf[1] == pytest.approx(0.1)
        assert pmf[0] == 0.0

    def test_work_attempt_full_congestion(self, warehouse):
        pmf = step_distribution(warehouse, 0, 2, g_of(0, 0, 1))
        assert pmf[2] == pytest.approx(0.1)  # max(0.1, 0.9 - 0.8)
        assert pmf[1] == pytest.approx(0.9)

    def test_move_to_current_state_is_certain(self, warehouse):
        # success lands in 1, failure keeps s=1: both branches coincide
        pmf = step_distribution(warehouse, 1, 1, g_of(0.2, 0.5, 0.3))
        assert pmf[1] == pytest.approx(1.0)

    def test_idle_transit_kernel(self, warehouse):
        pmf = step_distribution(warehouse, 2, 0, g_of(0, 0, 1))
        assert pmf[0] == pytest.approx(0.9)
        assert pmf[2] == pytest.approx(0.1)

    def test_pmf_validity_random_grid(self, warehouse, rng):
        for _ in range(200):
            g = rng.dirichlet(np.ones(3))
            s, a = int(rng.integers(3)), int(rng.integers(3))
            pmf = step_distribution(warehouse, s, a, g)
            assert abs(pmf.sum() - 1.0) <= 1e-12
            assert np.all(pmf >= 0)

    def test_kernel_lipschitz_in_congestion(self, warehouse, rng):
        # affine in g(2) with slope 0.8 before clipping; clipping only shrinks TV
        for _ in range(200):
            g1, g2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            s, a = int(rng.integers(3)), int(rng.integers(3))
            d = tv_distance(step_distribution(warehouse, s, a, g1),
                            step_distribution(warehouse, s, a, g2))
            assert d <= 0.8 * abs(g1[2] - g2[2]) + 1e-12
            assert d <= 0.8 * 2.0 * tv_distance(g1, g2) + 1e-12

    def test_rejects_unnormalized_marginal(self, warehouse):
        with pytest.raises(ValueError):
            step_distribution(warehouse, 0, 0, g_of(0.5, 0.2, 0.1))

    def test_rejects_bad_ids(self, warehouse):
        with pytest.raises(ValueError):
            step_distribution(warehouse, 3, 0, g_of(1, 0, 0))
        with pytest.raises(ValueError):
            local_reward(warehouse, 0, 5, g_of(1, 0, 0))


class TestWarehouseRewards:
    def test_working_no_congestion(self, warehouse):
        assert local_reward(warehouse, 2, 2, g_of(1, 0, 0)) == pytest.approx(15.0)

    def test_working_full_congestion_hits_floor(self, warehouse):
        assert local_reward(warehouse, 2, 2, g_of(0, 0, 1)) == pytest.approx(3.0)

    def test_idle_baseline(self, warehouse):
        assert local_reward(warehouse, 0, 0, g_of(1, 0, 0)) == pytest.approx(10.0)

    def test_bounded_by_declared_bound(self, warehouse, rng):
        assert warehouse.reward_bound == 20.0
        for _ in range(300):
            g = rng.dirichlet(np.ones(3))
            s, a = int(rng.integers(3)), int(rng.integers(3))
            assert abs(local_reward(warehouse, s, a, g)) <= warehouse.reward_bound

    def test_bound_covers_negative_state_values(self):
        from gmfs.bellman import tabulate

        env = warehouse_env(state_values=(-30.0, 5.0, 20.0))
        tabulated = np.abs(tabulate(env, 6, "leave_one_out").rewards)
        # |V(s) u - C(a)| peaks at s = 0, a = 2, u = 1: |-30 - 5|
        assert env.reward_bound == 35.0 == tabulated.max()
        assert warehouse_env().reward_bound == 20.0

    def test_lipschitz_constant_of_a_negative_slope(self):
        assert warehouse_env(congestion_slope=-0.05).lipschitz_p == 0.1
        assert warehouse_env().lipschitz_p == 1.6

    def test_reward_lipschitz_diagnostic(self, warehouse, rng):
        values = (10.0, 5.0, 20.0)
        for _ in range(300):
            g1, g2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            s, a = int(rng.integers(3)), int(rng.integers(3))
            gap = abs(local_reward(warehouse, s, a, g1) - local_reward(warehouse, s, a, g2))
            assert gap <= values[s] * 5.0 * abs(g1[2] - g2[2]) + 1e-12

    def test_override(self):
        env = warehouse_env(congestion_sensitivity=2.0)
        assert local_reward(env, 0, 0, g_of(0.8, 0, 0.2)) == pytest.approx(10 * 0.6)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            warehouse_env(gravity=9.8)


class TestTeamReward:
    def test_single_agent(self, warehouse):
        g = g_of(1, 0, 0)
        assert team_reward(warehouse, [2], [2], [g]) == local_reward(warehouse, 2, 2, g)

    def test_identical_agents(self, warehouse):
        g = g_of(0.5, 0.5, 0)
        r = team_reward(warehouse, [1, 1, 1], [0, 0, 0], [g, g, g])
        assert r == pytest.approx(local_reward(warehouse, 1, 0, g))

    def test_mean_of_two(self, warehouse):
        gs = [g_of(1, 0, 0), g_of(0, 0, 1)]
        r = team_reward(warehouse, [2, 2], [2, 2], gs)
        assert r == pytest.approx((15.0 + 3.0) / 2.0)

    def test_length_mismatch(self, warehouse):
        with pytest.raises(ValueError):
            team_reward(warehouse, [0, 1], [0], [g_of(1, 0, 0)] * 2)


def warehouse_oracle(s: int, a: int, g: np.ndarray):
    """The warehouse's pmf and reward at one point, written out with the
    default parameters of WAREHOUSE_DEFAULTS."""
    pmf = np.zeros(3)
    if a == 2:
        p = max(0.1, 0.9 - 0.8 * g[2])
        pmf[2] += p
        pmf[1] += 1.0 - p
    else:
        pmf[a] += 0.9
        pmf[s] += 1.0 - 0.9
    reward = (10.0, 5.0, 20.0)[s] * max(0.4, 1.0 - 5.0 * g[2]) - (0.0, 0.0, 5.0)[a]
    return pmf, reward


class TestBatchedHooks:
    @staticmethod
    def grid(env, rng, batch=(4, 5)):
        s = rng.integers(0, env.n_states, size=batch)
        a = rng.integers(0, env.n_actions, size=batch)
        g = rng.dirichlet(np.ones(env.n_states), size=batch)
        return s, a, g

    @staticmethod
    def per_agent(oracle, n_states, s, a, g):
        pmfs = np.empty(s.shape + (n_states,))
        rs = np.empty(s.shape)
        for idx in np.ndindex(s.shape):
            pmfs[idx], rs[idx] = oracle(int(s[idx]), int(a[idx]), g[idx])
        return pmfs, rs

    def test_warehouse_hooks_match_per_agent_bitwise(self, warehouse, rng):
        # every (s, a) pair, including a == s and the clipped work branch
        s, a = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        s, a = np.repeat(s[..., None], 40, -1), np.repeat(a[..., None], 40, -1)
        g = rng.dirichlet(np.ones(3), size=s.shape)
        g[..., 0, :] = (0.0, 0.0, 1.0)
        pmfs, rs = self.per_agent(warehouse_oracle, 3, s, a, g)
        assert np.array_equal(transitions(warehouse, s, a, g), pmfs)
        assert np.array_equal(rewards(warehouse, s, a, g), rs)

    def test_linear_hooks_match_per_agent(self, rng):
        kernel = rng.dirichlet(np.ones(3), size=(3, 2, 3))
        reward_table = rng.normal(size=(3, 2, 3))
        env = linear_env("random", kernel, reward_table)

        def oracle(s, a, g):
            return g @ kernel[s, a], g @ reward_table[s, a]

        s, a, g = self.grid(env, rng)
        pmfs, rs = self.per_agent(oracle, 3, s, a, g)
        assert np.allclose(transitions(env, s, a, g), pmfs, rtol=1e-15, atol=1e-15)
        assert np.allclose(rewards(env, s, a, g), rs, rtol=1e-15, atol=1e-15)

    def test_team_reward_over_a_batch(self, warehouse, rng):
        s, a, g = self.grid(warehouse, rng, batch=(3, 7))
        batched = team_reward(warehouse, s, a, g)
        assert batched.shape == (3,)
        for e in range(3):
            assert batched[e] == team_reward(warehouse, s[e], a[e], g[e])


class TestLinearEnv:
    def test_rows_must_be_pmfs(self):
        kernel = np.zeros((2, 1, 2, 2))
        with pytest.raises(ValueError):
            linear_env("bad", kernel, np.zeros((2, 1, 2)))

    def test_rows_must_sum_to_one_within_1e_12(self):
        kernel = np.zeros((2, 1, 2, 2))
        kernel[..., 0] = 1.0
        linear_env("ok", kernel, np.zeros((2, 1, 2)))
        kernel[0, 0, 0] = [0.5, 0.500004]
        with pytest.raises(ValueError, match="pmf"):
            linear_env("bad", kernel, np.zeros((2, 1, 2)))

    def test_mixture_semantics(self, small):
        g = g_of(0.25, 0.75)
        pmf = step_distribution(small, 0, 1, g)
        assert pmf[0] == pytest.approx(0.25 * 0.3 + 0.75 * 0.5)

    def test_load_tabular_round_trip(self):
        text = """
            states 2
            actions 1
            discount 0.8
            kernel 0 0 0 : 1.0 0.0
            kernel 0 0 1 : 0.5 0.5
            kernel 1 0 0 : 0.25 0.75   # comment
            kernel 1 0 1 : 0.0 1.0
            reward 0 0 0 : 2.0
            reward 0 0 1 : -1.0
            reward 1 0 0 : 0.5
            reward 1 0 1 : 1.5
        """
        env = load_tabular_env(text, name="toy")
        assert env.n_states == 2 and env.n_actions == 1
        assert env.discount == 0.8
        g = g_of(0.5, 0.5)
        assert local_reward(env, 0, 0, g) == pytest.approx(0.5)
        assert step_distribution(env, 1, 0, g)[1] == pytest.approx(0.875)

    def test_load_rejects_missing_rows(self):
        with pytest.raises(ConfigError):
            load_tabular_env("states 2\nactions 1\nkernel 0 0 0 : 1 0\n")

    def test_make_env_unknown(self):
        with pytest.raises(ConfigError):
            make_env("citysim")
