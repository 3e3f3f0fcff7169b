import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfs import histograms
from gmfs.bellman import fiber_ranks
from gmfs.errors import BudgetError
from gmfs.histograms import (
    HistogramIndex,
    get_index,
    nearest_histograms,
    num_histograms,
    tv_distance,
)
from oracles import enumerate_histograms, fiber


def brute_force_histograms(d, kappa):
    """Independent enumeration oracle: filter the full integer grid."""
    return [c for c in itertools.product(range(kappa + 1), repeat=d) if sum(c) == kappa]


class TestHistogram:
    def test_counts_must_sum_to_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            get_index(2, 3).rank((1, 1))

    def test_negative_counts_rejected(self):
        # the code of each row lands on no histogram's code
        for d, counts in ((2, (4, -1)), (3, (-1, 2, 2)), (3, (1, -1, 3))):
            with pytest.raises(ValueError, match="non-negative"):
                get_index(d, 3).rank(counts)


class TestTVDistance:
    def test_identity(self):
        p = np.array([2, 3]) / 5
        assert tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_half_quarter(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([0.75, 0.25])) == pytest.approx(0.25)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(np.ones(2) / 2, np.ones(3) / 3)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, d, data):
        vecs = [
            np.array(data.draw(st.lists(st.floats(0.01, 1), min_size=d, max_size=d)))
            for _ in range(3)
        ]
        p, q, r = [v / v.sum() for v in vecs]
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-12)
        assert tv_distance(p, p) == 0.0
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


class TestEnumeration:
    def test_binary_alphabet(self):
        got = list(enumerate_histograms(2, 2))
        assert got == [(2, 0), (1, 1), (0, 2)]

    def test_single_cell(self):
        got = list(enumerate_histograms(1, 7))
        assert got == [(7,)]

    def test_benchmark_count(self):
        assert sum(1 for _ in enumerate_histograms(3, 24)) == 325

    def test_benchmark_count_formula(self):
        # kappa=24 over 3 states: C(26, 2) = 325 marginal histograms
        assert num_histograms(3, 24) == math.comb(26, 2) == 325

    @pytest.mark.parametrize("d,kappa", [(2, 5), (3, 4), (4, 3), (6, 2), (5, 12)])
    def test_matches_brute_force_and_unique(self, d, kappa):
        got = list(enumerate_histograms(d, kappa))
        assert len(set(got)) == len(got)
        assert set(got) == set(brute_force_histograms(d, kappa))
        assert len(got) == num_histograms(d, kappa)

    def test_colex_order(self):
        got = list(enumerate_histograms(3, 2))
        assert got == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


class TestRankUnrank:
    def test_first_is_zero(self):
        idx = get_index(4, 5)
        first = next(iter(enumerate_histograms(4, 5)))
        assert idx.rank(first) == 0

    def test_listing_position(self):
        idx = get_index(2, 2)
        assert idx.rank((0, 2)) == 2

    def test_rank_matches_enumeration_order(self):
        for d, kappa in [(2, 6), (3, 5), (4, 4)]:
            idx = get_index(d, kappa)
            for pos, h in enumerate(enumerate_histograms(d, kappa)):
                assert idx.rank(h) == pos
                assert tuple(idx.counts_by_rank[pos]) == h

    def test_round_trip_benchmark_size(self):
        idx = get_index(3, 24)
        assert idx.total == 325
        for r in range(idx.total):
            assert idx.rank(idx.counts_by_rank[r]) == r

    @given(st.integers(2, 6), st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, d, kappa, data):
        idx = get_index(d, kappa)
        r = data.draw(st.integers(0, idx.total - 1))
        assert idx.rank(idx.counts_by_rank[r]) == r

    def test_rank_rows_vectorized(self, rng):
        idx = get_index(4, 9)
        ranks = rng.integers(0, idx.total, size=64)
        counts = idx.counts_by_rank[ranks]
        assert np.array_equal(idx.rank_rows(counts), ranks)

    def test_other_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            get_index(3, 3).rank((1, 2))

    def test_overflow_reported(self):
        with pytest.raises(BudgetError):
            HistogramIndex(40, 200)

    @given(st.integers(2, 6), st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_cell_code_order_is_rank_order(self, d, kappa):
        idx = get_index(d, kappa)
        counts = np.array(list(enumerate_histograms(d, kappa)))
        assert np.array_equal(idx.rank_rows(counts), np.arange(idx.total))
        assert np.array_equal(idx.counts_by_rank, counts)
        codes = counts @ idx.cell_codes()
        assert np.all(np.diff(codes) > 0)

    @given(st.integers(2, 6), st.integers(1, 15), st.data())
    @settings(max_examples=60, deadline=None)
    def test_code_ranker_matches_enumeration(self, d, kappa, data):
        # random count rows: d - 1 sorted cut points split kappa into d cells
        cuts = data.draw(st.lists(st.lists(st.integers(0, kappa), min_size=d - 1,
                                           max_size=d - 1), min_size=1, max_size=30))
        counts = np.diff(np.column_stack([np.zeros(len(cuts), dtype=np.int64),
                                          np.sort(cuts, axis=1),
                                          np.full(len(cuts), kappa)]), axis=1)
        position = {h: pos for pos, h in enumerate(enumerate_histograms(d, kappa))}
        ranks = np.array([position[tuple(row)] for row in counts.tolist()])
        idx = get_index(d, kappa)
        codes = counts @ idx.cell_codes()
        assert np.array_equal(idx.code_ranker(codes), ranks)
        assert np.array_equal(idx.rank_rows(counts), ranks)
        # a dense table and a binary search, whichever the shared map uses
        for limit in (0, 1 << 62):
            with mock.patch.object(histograms, "_DENSE_CODES", limit):
                assert np.array_equal(HistogramIndex(d, kappa).code_ranker(codes), ranks)

    @pytest.mark.parametrize("d, kappa", [(41, 2), (64, 1)])
    def test_cell_codes_refused_past_64_bits(self, d, kappa):
        # the largest code is kappa (kappa + 1)^(d - 2)
        assert kappa * (kappa + 1) ** (d - 2) <= np.iinfo(np.int64).max
        assert HistogramIndex(d, kappa).cell_codes()[-1] == (kappa + 1) ** (d - 2)
        with pytest.raises(BudgetError, match="codes"):
            HistogramIndex(d + 1, kappa).cell_codes()


class TestFiber:
    def test_single_action_fiber_is_singleton(self):
        assert list(fiber((2, 1), 1)) == [(2, 1)]

    def test_two_state_two_action(self):
        members = list(fiber((2, 0), 2))
        assert len(members) == 3  # action split of 2 units in state 0
        assert set(members) == {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}

    def test_fiber_size_formula(self):
        g = (2, 1, 3)
        size = math.prod(c + 1 for c in g)  # c + 1 splits over two actions
        assert size == len(list(fiber(g, 2)))
        assert fiber_ranks(3, 2, 6, get_index(3, 6).rank(g)).size == size

    def test_fibers_partition_joint_space(self):
        ns, na, kappa = 2, 3, 3
        joint = set(enumerate_histograms(ns * na, kappa))
        seen = set()
        total = 0
        for g in enumerate_histograms(ns, kappa):
            for z in fiber(g, na):
                assert tuple(np.reshape(z, (ns, na)).sum(axis=1)) == g
                assert z not in seen
                seen.add(z)
                total += 1
        assert seen == joint
        assert total == num_histograms(ns * na, kappa)


class TestNearestHistogram:
    def test_exact_grid_point(self):
        assert tuple(nearest_histograms(np.array([0.5, 0.25, 0.25]), 4)) == (2, 1, 1)

    def test_sums_to_kappa(self, rng):
        for _ in range(100):
            pmf = rng.dirichlet(np.ones(4))
            counts = nearest_histograms(pmf, 7)
            assert counts.sum() == 7
            assert np.all(counts >= 0)

    def test_deterministic_tie_break(self):
        assert tuple(nearest_histograms(np.array([0.5, 0.5]), 3)) == (2, 1)

    def test_rows_round_independently(self, rng):
        pmfs = rng.dirichlet(np.ones(3), size=(4, 6))
        pmfs[0, :3] = ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])
        got = nearest_histograms(pmfs, 5)
        assert got.shape == (4, 6, 3)
        for idx in np.ndindex(4, 6):
            assert tuple(got[idx]) == tuple(nearest_histograms(pmfs[idx], 5))
        assert [tuple(c) for c in got[0, :3]] == [(3, 2, 0), (0, 3, 2), (2, 2, 1)]

    @given(st.integers(2, 4), st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_l1_optimal_rounding(self, d, kappa, data):
        # largest-remainder rounding minimizes sum |c/kappa - p| over the
        # whole histogram grid (checked against exhaustive enumeration)
        weights = [data.draw(st.floats(0.01, 1.0)) for _ in range(d)]
        pmf = np.array(weights) / sum(weights)
        got = nearest_histograms(pmf, kappa)
        got_err = np.abs(got / kappa - pmf).sum()
        best = min(np.abs(np.array(h) / kappa - pmf).sum()
                   for h in enumerate_histograms(d, kappa))
        assert got_err <= best + 1e-12
