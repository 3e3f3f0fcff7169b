"""Empirical distributions with a fixed integer denominator.

A histogram with denominator ``kappa`` over an alphabet of size ``d`` is a
length-``d`` vector of non-negative integer counts summing to ``kappa``; the
cell probabilities are ``counts / kappa``. These index the third axis of the
Q-table, so enumeration order must be stable: we use colexicographic order on
the count vectors. One definition serves every rank: the index lists its
count rows in that order (``counts_by_rank``), and a histogram's additive
cell code, which ascends with its rank, maps back to its position.

Counts are always integers (never floats) so the denominator constraint is
exact; probabilities are derived views.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import BudgetError

_INT64_MAX = np.iinfo(np.int64).max
_DENSE_CODES = 1 << 16  # the largest dense code -> rank table, in entries


def num_histograms(alphabet_size: int, kappa: int) -> int:
    """Stars-and-bars count C(kappa + alphabet_size - 1, alphabet_size - 1)."""
    if alphabet_size < 1 or kappa < 1:
        raise ValueError("alphabet_size and kappa must be >= 1")
    return math.comb(kappa + alphabet_size - 1, alphabet_size - 1)


def tv_distance(p, q) -> float:
    """Total variation distance 0.5 * sum |p - q| between two pmfs on the
    same alphabet."""
    pv, qv = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if pv.ndim != 1:
        raise ValueError("expected a 1-d probability vector")
    if pv.shape != qv.shape:
        raise ValueError(f"alphabet mismatch: {pv.shape} vs {qv.shape}")
    return 0.5 * float(np.abs(pv - qv).sum())


class HistogramIndex:
    """Bijective rank between histograms, as count rows, and [0, total).

    Rank order is colexicographic on count vectors: vectors compare by their
    last differing coordinate. ``counts_by_rank`` lists the count rows in
    that order, and ``code_ranker`` maps a histogram's additive cell code
    back to its rank. Codes past 64 bits are a BudgetError, so no rank wraps
    silently.
    """

    def __init__(self, alphabet_size: int, kappa: int):
        self.alphabet_size = int(alphabet_size)
        self.kappa = int(kappa)
        total = num_histograms(self.alphabet_size, self.kappa)
        if total > _INT64_MAX:
            raise BudgetError(
                f"histogram count {total} for alphabet {alphabet_size}, "
                f"kappa {kappa} exceeds 64-bit range"
            )
        self.total = total

    def rank(self, counts) -> int:
        """Position of one count row in the colex enumeration; a row that is
        no histogram of this index is a ValueError."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.alphabet_size,):
            raise ValueError("histogram does not match this index's alphabet")
        if (counts < 0).any():
            raise ValueError("histogram counts must be non-negative")
        if counts.sum() != self.kappa:
            raise ValueError("histogram does not match this index's kappa")
        return int(self.rank_rows(counts[None, :])[0])

    def rank_rows(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized rank of each row of an (m, alphabet_size) count matrix."""
        return self.code_ranker(np.asarray(counts, dtype=np.int64) @ self.cell_codes())

    @cached_property
    def counts_by_rank(self) -> np.ndarray:
        """(total, alphabet_size) read-only count rows in rank order.

        Built one cell at a time: the tails over cells 1..j in colex order
        are, for each last count c = 0..kappa, the tails over cells 1..j-1
        that leave room for c, in their own order; cell 0 takes the rest.
        """
        kappa = self.kappa
        tails = np.zeros((1, 0), dtype=np.int64)
        for _ in range(1, self.alphabet_size):
            room = kappa - tails.sum(axis=1)
            tails = np.concatenate([
                np.column_stack([tails[room >= c], np.full(int((room >= c).sum()), c)])
                for c in range(kappa + 1)])
        counts = np.column_stack([kappa - tails.sum(axis=1), tails])
        counts.setflags(write=False)
        return counts

    def cell_codes(self) -> np.ndarray:
        """Additive code of one agent per cell: 0 in cell 0, (kappa+1)^(x-1)
        in cell x >= 1.

        A histogram's code, the sum over its agents, reads ``counts[1:]`` in
        base kappa + 1 with the last cell most significant; that is colex
        order, so codes ascend strictly with rank. Codes past 64 bits are a
        BudgetError.
        """
        d, base = self.alphabet_size, self.kappa + 1
        codes = [0] + [base ** (x - 1) for x in range(1, d)]
        if self.kappa * codes[-1] > _INT64_MAX:
            raise BudgetError(
                f"histogram codes for alphabet {d}, kappa {self.kappa} exceed 64-bit range"
            )
        return np.array(codes, dtype=np.int64)

    @cached_property
    def code_ranker(self):
        """The one code -> rank map of this index: rank of each histogram
        code in an integer array, same shape. A dense table where it holds
        at most ``_DENSE_CODES`` entries, else a binary search over the
        codes by rank; codes ascend with rank, so both give the same ranks."""
        codes_by_rank = self.counts_by_rank @ self.cell_codes()
        size = int(codes_by_rank[-1]) + 1
        if size > _DENSE_CODES:
            return partial(np.searchsorted, codes_by_rank)
        table = np.zeros(size, dtype=np.int64)
        table[codes_by_rank] = np.arange(self.total)
        return table.take


@lru_cache(maxsize=None)
def get_index(alphabet_size: int, kappa: int) -> HistogramIndex:
    """Shared read-only index cache."""
    return HistogramIndex(alphabet_size, kappa)


def nearest_histograms(pmfs: np.ndarray, kappa: int) -> np.ndarray:
    """Round each pmf along the last axis to the closest kappa-denominator
    count vector.

    Largest-remainder rounding; ties go to the lowest cell index so the
    result is deterministic.
    """
    scaled = np.asarray(pmfs, dtype=np.float64) * kappa
    base = np.floor(scaled).astype(np.int64)
    shortfall = kappa - base.sum(axis=-1, keepdims=True)
    order = np.argsort(base - scaled, axis=-1, kind="stable")
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(order.shape[-1]), axis=-1)
    return base + (position < shortfall)

