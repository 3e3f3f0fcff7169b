"""Slow, obviously correct oracles that the tests check the program against.

The program never calls these: it ranks histograms through
``HistogramIndex`` codes, reaches fibers through ``bellman.fiber_ranks``
and materializes a graphon for all agent pairs at once in
``graphon.build_weights``. Each oracle here does the same job one item at a
time. ``chi2_upper`` is the quantile the law tests bound their chi-square
statistics by.
"""

from __future__ import annotations

import numpy as np

from gmfs.graphon import Graphon


def enumerate_histograms(alphabet_size: int, kappa: int):
    """Yield the count tuple of every histogram once, in rank (colex) order:
    the weak compositions of ``kappa`` into ``alphabet_size`` parts."""
    if alphabet_size == 1:
        yield (kappa,)
        return
    for last in range(kappa + 1):
        for prefix in enumerate_histograms(alphabet_size - 1, kappa - last):
            yield prefix + (last,)


def fiber(g, n_actions: int):
    """The count tuples, state-major, of all joint S x A histograms whose
    state marginal is the count row ``g``.

    Per state s the g[s] units are distributed freely over actions, so the
    fiber size is the product of per-state stars-and-bars counts.
    """
    per_state = [list(enumerate_histograms(n_actions, int(c))) for c in g]

    def rec(s, acc):
        if s == len(per_state):
            yield acc
            return
        for comp in per_state[s]:
            yield from rec(s + 1, acc + comp)

    yield from rec(0, ())


def _check_point(graphon: Graphon, x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.shape != (graphon.latent_dim,):
        raise ValueError(
            f"latent point of dimension {arr.shape} does not match "
            f"graphon latent_dim {graphon.latent_dim}"
        )
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("latent coordinates must lie in [0, 1]")
    return arr


def _block_index(boundaries: np.ndarray, x: float) -> int:
    # intervals [0,b1), [b1,b2), ..., [bk,1]: half-open, last closed
    return int(np.searchsorted(boundaries, x, side="right"))


def evaluate(graphon: Graphon, x, y) -> float:
    """W(x, y); symmetric in its arguments and always inside [0, 1]."""
    xa, ya = _check_point(graphon, x), _check_point(graphon, y)
    if graphon.kind == "uniform":
        return 1.0
    if graphon.kind == "radial":
        return 1.0 if float(np.linalg.norm(xa - ya)) <= graphon.radius else 0.0
    if graphon.kind == "expdecay":
        return float(np.exp(-graphon.beta * abs(xa[0] - ya[0])))
    b = np.asarray(graphon.boundaries)
    v = np.asarray(graphon.block_values)
    return float(v[_block_index(b, xa[0]), _block_index(b, ya[0])])


def normalized_weight(graphon: Graphon, coords, i: int, j: int) -> float:
    """Entry (i, j) of the row-normalized weights, read one pair at a time:
    W(alpha_i, alpha_j) over the row's sum without the diagonal, or
    1 / (n - 1) off the diagonal of a row whose sum is zero."""
    if i == j:
        return 0.0
    n = len(coords)
    row_sum = sum(evaluate(graphon, coords[i], coords[k]) for k in range(n) if k != i)
    if row_sum == 0.0:
        return 1.0 / (n - 1)
    return evaluate(graphon, coords[i], coords[j]) / row_sum


def chi2_upper(df, z=3.29):
    """Wilson-Hilferty approximation of the chi-square quantile at standard
    normal z (3.29: one-sided level 0.0005)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * np.sqrt(c)) ** 3
