"""Slow, obviously correct oracles that the tests check the program against.

The program never calls these: it ranks histograms through
``HistogramIndex`` codes, reaches fibers through ``bellman.fiber_ranks``
and materializes a graphon for all agent pairs at once in
``graphon.build_weights``. Each oracle here does the same job one item at a
time.
"""

from __future__ import annotations

import numpy as np

from gmfs.graphon import Graphon
from gmfs.histograms import Histogram


def _compositions(parts: int, total: int):
    """All weak compositions of ``total`` into ``parts``, colex ascending."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for prefix in _compositions(parts - 1, total - last):
            yield prefix + (last,)


def enumerate_histograms(alphabet_size: int, kappa: int, joint_shape=None):
    """Yield every histogram once, in rank (colex) order."""
    for counts in _compositions(alphabet_size, kappa):
        yield Histogram(counts, kappa, joint_shape=joint_shape)


def fiber(g: Histogram, n_actions: int):
    """All joint S x A histograms whose state marginal equals ``g``.

    Per state s the g.counts[s] units are distributed freely over actions, so
    the fiber size is the product of per-state stars-and-bars counts.
    """
    ns = g.alphabet_size
    per_state = [list(_compositions(n_actions, c)) for c in g.counts]

    def rec(s, acc):
        if s == ns:
            yield Histogram(tuple(acc), g.kappa, joint_shape=(ns, n_actions))
            return
        for comp in per_state[s]:
            yield from rec(s + 1, acc + list(comp))

    yield from rec(0, [])


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
