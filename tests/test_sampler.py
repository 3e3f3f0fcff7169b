import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfs.graphon import Graphon, LatentAssignment, build_weights
from gmfs.histograms import get_index, tv_distance
from gmfs.rng import stream
from gmfs.sampler import (
    alias_table,
    exact_aggregate,
    exact_state_aggregates,
    ht_estimate,
    inverse_cdf,
    row_alias,
    tv_concentration_bound,
)


def draw_neighbors(weights, kappa, rng):
    """(n, kappa): every agent's neighbor ids, row i drawn from agent i's
    own alias table."""
    u = rng.random((2, weights.n, kappa))
    return np.stack([row_alias(weights, i).sample_from_uniforms(u[0, i], u[1, i])
                     for i in range(weights.n)])


@pytest.fixture(scope="module")
def hetero_weights():
    return build_weights(Graphon.expdecay_graphon(2.0), LatentAssignment.sequential(10))


def draw(table, rng, size):
    """``size`` ids from a table, on uniforms drawn as (2, size)."""
    u = rng.random((2, size))
    return table.sample_from_uniforms(u[0], u[1])


class TestAliasTable:
    def test_matches_distribution(self):
        probs = np.array([0.5, 0.2, 0.05, 0.25])
        draws = draw(alias_table(probs), stream(3, "alias"), 200_000)
        freq = np.bincount(draws, minlength=4) / len(draws)
        se = np.sqrt(probs * (1 - probs) / len(draws))
        assert np.all(np.abs(freq - probs) <= 5 * se + 1e-9)

    def test_zero_mass_never_drawn(self):
        draws = draw(alias_table(np.array([0.0, 1.0, 0.0])), stream(1, "alias"), 10_000)
        assert np.all(draws == 1)

    def test_support_mapping(self):
        table = alias_table(np.array([1.0]), support=np.array([7]))
        assert np.all(draw(table, stream(0, "alias"), 5) == 7)

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5]], [1.5, -0.5], [0.3, 0.3]])
    def test_invalid_pmf_is_refused(self, probs):
        with pytest.raises(ValueError):
            alias_table(np.array(probs))


class TestSampleNeighbors:
    def test_two_agents_forced(self):
        w = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(2))
        ids = draw_neighbors(w, 6, stream(0, "nb"))
        assert np.all(ids[0] == 1) and np.all(ids[1] == 0)

    def test_point_mass_row(self):
        # agents 0 and 3 far apart under a tight radial graphon on a line
        coords = np.array([0.0, 0.5, 0.55, 1.0])
        w = build_weights(Graphon.radial_graphon(0.1, latent_dim=1),
                          LatentAssignment.explicit(coords))
        ids = draw_neighbors(w, 20, stream(0, "nb"))
        assert np.all(ids[1] == 2) and np.all(ids[2] == 1)

    def test_never_contains_focal(self, hetero_weights):
        ids = draw_neighbors(hetero_weights, 500, stream(0, "nb"))
        assert np.all(ids != np.arange(10)[:, None])

    def test_uniform_frequencies_within_5_sigma(self):
        n, draws = 100, 100_000
        w = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(n))
        ids = draw(row_alias(w, 0), stream(11, "nb"), draws)
        freq = np.bincount(ids, minlength=n)[1:] / draws
        p = 1.0 / (n - 1)
        se = np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(freq - p) <= 5 * se)

    def test_reproducible(self, hetero_weights):
        a = draw_neighbors(hetero_weights, 64, stream(5, "nb"))
        b = draw_neighbors(hetero_weights, 64, stream(5, "nb"))
        assert np.array_equal(a, b)


class TestExactAggregate:
    def test_uniform_weights_give_empirical_distribution(self):
        w = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(5))
        states = np.array([0, 1, 1, 0, 1])
        actions = np.array([0, 0, 1, 0, 1])
        agg = exact_aggregate(w, 0, states, actions, 2, 2)
        # other agents: (1,0), (1,1), (0,0), (1,1) each weight 1/4
        assert agg[0] == pytest.approx(0.25)  # (0,0)
        assert agg[2] == pytest.approx(0.25)  # (1,0)
        assert agg[3] == pytest.approx(0.5)   # (1,1)
        assert agg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weighted_tally(self):
        # agent 0 weighs agents 1 and 2 as 0.75 / 0.25
        raw = np.array([[0.0, 0.75, 0.25], [0.75, 0.0, 0.25], [0.25, 0.25, 0.0]])
        w = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(3))
        norm = raw / raw.sum(axis=1, keepdims=True)
        object.__setattr__(w, "raw", raw)
        object.__setattr__(w, "normalized", norm)
        states = np.array([2, 0, 1])
        actions = np.array([0, 1, 0])
        agg = exact_aggregate(w, 0, states, actions, 3, 2)
        g = agg.reshape(3, 2).sum(axis=1)
        assert g[0] == pytest.approx(0.75)
        assert g[1] == pytest.approx(0.25)

    def test_all_agents_stack(self, hetero_weights, rng):
        states = rng.integers(0, 3, size=10)
        stacked = exact_state_aggregates(hetero_weights, states, 3)
        for i in range(10):
            row = np.zeros(3)
            np.add.at(row, states, hetero_weights.normalized[i])
            assert np.allclose(stacked[i], row)
            assert stacked[i].sum() == pytest.approx(1.0, abs=1e-12)


class TestConcentration:
    def test_bound_formula(self):
        got = tv_concentration_bound(3, 24, 0.05)
        expected = np.sqrt((3 * np.log(2) + np.log(2 / 0.05)) / 48)
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("kappa", [10, 50])
    def test_empirical_tv_within_bound(self, hetero_weights, kappa, rng):
        states = rng.integers(0, 3, size=10)
        exact_g = exact_state_aggregates(hetero_weights, states, 3)[0]
        table = row_alias(hetero_weights, 0)
        delta, trials = 0.05, 2000
        bound = tv_concentration_bound(3, kappa, delta)
        violations = 0
        for t in range(trials):
            ids = draw(table, stream(t, "conc", kappa), kappa)
            g_hat = np.bincount(states[ids], minlength=3) / kappa
            if tv_distance(g_hat, exact_g) > bound:
                violations += 1
        sigma = np.sqrt(delta * (1 - delta) / trials)
        assert violations / trials <= delta + 3 * sigma


class TestHTEstimate:
    def test_self_proposal_reduces_to_empirical(self, hetero_weights, rng):
        states = rng.integers(0, 2, size=10)
        actions = rng.integers(0, 2, size=10)
        proposal = hetero_weights.normalized[0].copy()
        est = ht_estimate(hetero_weights, 0, proposal, states, actions, 2, 2,
                          stream(4, "ht").random((2, 25)))
        assert est.ratios.shape == (25,) and est.estimate.shape == (4,)
        assert np.allclose(est.ratios, 1.0)
        assert est.estimate.sum() == pytest.approx(1.0, abs=1e-9)

    def test_two_agents(self):
        w = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(2))
        states, actions = np.array([0, 1]), np.array([1, 0])
        proposal = np.array([0.0, 1.0])
        est = ht_estimate(w, 0, proposal, states, actions, 2, 2, stream(0, "ht").random((2, 5)))
        assert est.estimate[1 * 2 + 0] == pytest.approx(1.0)

    def test_batch_equals_one_block_at_a_time(self, hetero_weights, rng):
        states = rng.integers(0, 2, size=10)
        actions = rng.integers(0, 2, size=10)
        proposal = np.full(10, 1.0 / 9.0)
        proposal[0] = 0.0
        u = rng.random((3, 4, 2, 6))
        batch = ht_estimate(hetero_weights, 0, proposal, states, actions, 2, 2, u)
        assert batch.ratios.shape == (3, 4, 6) and batch.estimate.shape == (3, 4, 4)
        for r, c in np.ndindex(3, 4):
            one = ht_estimate(hetero_weights, 0, proposal, states, actions, 2, 2, u[r, c])
            assert np.array_equal(batch.ratios[r, c], one.ratios)
            assert np.array_equal(batch.estimate[r, c], one.estimate)

    def test_unbiased_under_uniform_proposal(self, hetero_weights, rng):
        states = rng.integers(0, 2, size=10)
        actions = rng.integers(0, 2, size=10)
        exact = exact_aggregate(hetero_weights, 0, states, actions, 2, 2)
        proposal = np.full(10, 1.0 / 9.0)
        proposal[0] = 0.0
        reps = 20_000
        acc = ht_estimate(hetero_weights, 0, proposal, states, actions, 2, 2,
                          stream(9, "ht").random((reps, 2, 5))).estimate
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / np.sqrt(reps)
        for c in range(4):
            assert abs(mean[c] - exact[c]) <= 5 * se[c] + 1e-12

    def test_support_violation_rejected(self, hetero_weights):
        proposal = np.zeros(10)
        proposal[1] = 1.0
        with pytest.raises(ValueError):
            ht_estimate(hetero_weights, 0, proposal, np.zeros(10, int),
                        np.zeros(10, int), 2, 2, stream(0, "ht").random((2, 3)))

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 0)])
    def test_malformed_uniforms_rejected(self, hetero_weights, shape):
        proposal = np.full(10, 1.0 / 9.0)
        proposal[0] = 0.0
        with pytest.raises(ValueError):
            ht_estimate(hetero_weights, 0, proposal, np.zeros(10, int),
                        np.zeros(10, int), 2, 2, np.full(shape, 0.5))


# (pmf batch shape, uniform shape) as the simulator and the engine build pass
# them: initial states, transitions, focal draws (B, 1) x (B, m), static
# slots (B, 1, kappa) x (B, m, kappa), greedy slots (B, kappa, A, 1) x (B, kappa, 1, m)
DRAW_SHAPES = [((), (7,)), ((3, 4), (3, 4)), ((3, 1), (3, 5)), ((3, 1, 2), (3, 5, 2)),
               ((3, 2, 2, 1), (3, 2, 1, 5))]


def capped_searchsorted(pmf, u):
    """min(searchsorted(cumsum(pmf), u, side="right"), S - 1), one pmf row
    and one uniform at a time over their broadcast shape."""
    shape = np.broadcast_shapes(u.shape, pmf.shape[:-1])
    pmf, u = np.broadcast_to(pmf, shape + pmf.shape[-1:]), np.broadcast_to(u, shape)
    out = np.empty(shape, dtype=np.int64)
    for i in np.ndindex(shape):
        out[i] = min(np.searchsorted(np.cumsum(pmf[i]), u[i], side="right"), pmf.shape[-1] - 1)
    return out


class TestInverseCdf:
    def test_a_uniform_past_a_tail_below_one_draws_the_last_state(self):
        pmf = np.array([0.7, 0.2, 0.1])
        tail = np.cumsum(pmf)[-1]
        assert tail < 1.0  # 0.9999999999999999
        u = np.array([tail, np.nextafter(tail, 1.0)])
        assert np.array_equal(inverse_cdf(pmf, u), [2, 2])
        assert np.array_equal(np.searchsorted(np.cumsum(pmf), u, side="right"), [3, 3])

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from(DRAW_SHAPES))
    @settings(max_examples=150, deadline=None)
    def test_matches_capped_searchsorted(self, S, seed, shapes):
        rng = np.random.default_rng(seed)
        pmf_shape, u_shape = shapes
        # every row is one of three pmfs, so a uniform set to a threshold of
        # one of them often ties its own row's threshold
        sparse = rng.dirichlet(np.ones(S)) * (rng.random(S) < 0.5)
        sparse[rng.integers(S)] += 1.0 - sparse.sum()  # some cells exactly 0
        tail_below_one = next(p for p in rng.dirichlet(np.ones(S), size=1000)
                              if S == 1 or np.cumsum(p)[-1] < 1.0)
        rows = np.stack([rng.dirichlet(np.ones(S)), sparse, tail_below_one])
        pmf = rows[rng.integers(3, size=pmf_shape)]
        # uniforms at, just below and just past every threshold, at and past
        # a tail below 1, and the largest uniform below 1
        cdf = np.cumsum(rows, axis=1)
        edges = np.concatenate([cdf.ravel(), np.nextafter(cdf.ravel(), 0.0),
                                np.nextafter(cdf.ravel(), 1.0), [1.0 - 2.0 ** -53, 0.0]])
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        u = np.where(rng.random(u_shape) < 0.5, rng.choice(edges, size=u_shape),
                     rng.random(u_shape))
        draws = capped_searchsorted(pmf, u)
        assert np.array_equal(inverse_cdf(pmf, u), draws)
        assert inverse_cdf(pmf, u).dtype == np.int64
        # with the steps of additive cell codes, each draw reads its cell's code
        codes = get_index(S, 3).cell_codes()
        coded = inverse_cdf(pmf, u, np.diff(codes), np.int16)
        assert coded.dtype == np.int16
        assert np.array_equal(coded, codes[draws])
