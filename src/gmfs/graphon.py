"""Graphon models, latent coordinates, and normalized interaction weights.

A graphon is a symmetric function W: [0,1]^2 -> [0,1] (2-d latent squares for
the radial kind) giving pairwise interaction intensity. Materializing it on n
latent points yields the weights w_ij = W(alpha_i, alpha_j) with a zero
diagonal, kept only row-normalized as sampling weights. Rows whose weights
sum to zero fall back to the uniform distribution over the other agents, so
degenerate graphons never abort a run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

KINDS = ("radial", "expdecay", "block", "uniform")


@dataclass(frozen=True)
class Graphon:
    kind: str
    radius: float | None = None
    beta: float | None = None
    boundaries: tuple | None = None
    block_values: tuple | None = None
    latent_dim: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown graphon kind {self.kind!r}")
        if self.latent_dim not in (1, 2):
            raise ValueError("latent_dim must be 1 or 2")
        if self.latent_dim == 2 and self.kind != "radial":
            raise ValueError("only the radial graphon supports 2-d latent points")
        if self.kind == "radial":
            if self.radius is None or not 0 < self.radius <= 1:
                raise ValueError("radial graphon needs radius in (0, 1]")
        elif self.kind == "expdecay":
            if self.beta is None or self.beta <= 0:
                raise ValueError("expdecay graphon needs beta > 0")
        elif self.kind == "block":
            b = np.asarray(self.boundaries, dtype=np.float64)
            if b.ndim != 1 or np.any(b <= 0) or np.any(b >= 1) or np.any(np.diff(b) <= 0):
                raise ValueError("block boundaries must be sorted and inside (0, 1)")
            v = np.asarray(self.block_values, dtype=np.float64)
            k = len(b) + 1
            if v.shape != (k, k):
                raise ValueError(f"block_values must be {k}x{k} for {len(b)} boundaries")
            if not np.array_equal(v, v.T):
                raise ValueError("block_values must be symmetric")
            if np.any(v < 0) or np.any(v > 1):
                raise ValueError("block values must lie in [0, 1]")
            object.__setattr__(self, "boundaries", tuple(float(x) for x in b))
            object.__setattr__(self, "block_values", tuple(tuple(float(x) for x in row) for row in v))

    @staticmethod
    def radial_graphon(radius: float, latent_dim: int = 2) -> "Graphon":
        return Graphon("radial", radius=radius, latent_dim=latent_dim)

    @staticmethod
    def expdecay_graphon(beta: float) -> "Graphon":
        return Graphon("expdecay", beta=beta)

    @staticmethod
    def block_graphon(boundaries, block_values) -> "Graphon":
        return Graphon("block", boundaries=tuple(boundaries),
                       block_values=tuple(tuple(row) for row in block_values))

    @staticmethod
    def uniform_graphon() -> "Graphon":
        return Graphon("uniform")


@dataclass(frozen=True)
class LatentAssignment:
    """Explicit latent coordinates for n agents.

    Coordinates are stored as arrays (not closures) so one assignment can
    serve several graphons and be serialized with experiment configs.
    """

    n: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        expected = (self.n,) if coords.ndim == 1 else (self.n, 2)
        if coords.shape != expected:
            raise ValueError(f"coords shape {coords.shape} does not match n={self.n}")
        if np.any(coords < 0) or np.any(coords > 1):
            raise ValueError("latent coordinates must lie in the unit interval/square")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def latent_dim(self) -> int:
        return 1 if self.coords.ndim == 1 else 2

    @staticmethod
    def sequential(n: int) -> "LatentAssignment":
        """alpha_i = i/n for agents i = 1..n."""
        return LatentAssignment(n, np.arange(1, n + 1) / n)

    @staticmethod
    def grid(n: int) -> "LatentAssignment":
        """Row-major k x k lattice in the unit square; n must be a square."""
        k = round(n ** 0.5)
        if k * k != n:
            raise ValueError(f"grid assignment needs a square agent count, got n={n}")
        if k == 1:
            coords = np.array([[0.5, 0.5]])
        else:
            axis = np.linspace(0.0, 1.0, k)
            rows, cols = np.divmod(np.arange(n), k)
            coords = np.column_stack([axis[rows], axis[cols]])
        return LatentAssignment(n, coords)

    @staticmethod
    def explicit(coords) -> "LatentAssignment":
        coords = np.asarray(coords, dtype=np.float64)
        return LatentAssignment(coords.shape[0], coords)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Row-normalized interaction weights for n agents.

    Row i of normalized is w_ij = W(alpha_i, alpha_j) over its sum, with an
    exactly zero diagonal, so each row sums to 1; a row whose weights are
    all zero is uniform over the other agents. Immutable after construction
    and safe to share across workers.
    """

    n: int
    normalized: np.ndarray

    def __post_init__(self):
        self.normalized.setflags(write=False)


def build_weights(graphon: Graphon, assign: LatentAssignment) -> WeightMatrix:
    """Materialize w_ij = W(alpha_i, alpha_j), w_ii = 0, and normalize each
    row in place.

    Deterministic: identical inputs give bit-identical matrices.
    """
    n = assign.n
    if n < 2:
        raise ValueError("need at least 2 agents to build interaction weights")
    # the uniform graphon reads no coordinates, so any assignment serves it
    if graphon.kind != "uniform" and assign.latent_dim != graphon.latent_dim:
        raise ValueError(
            f"assignment latent_dim {assign.latent_dim} does not match "
            f"graphon latent_dim {graphon.latent_dim}"
        )
    coords = assign.coords
    if graphon.kind == "uniform":
        w = np.ones((n, n))
    elif graphon.kind == "radial":
        # the squared distances summed an axis at a time into one (n, n)
        # array: the bits of a sum over an (n, n, d) array, without its memory
        pts = coords if coords.ndim == 2 else coords[:, None]
        dist, diff = np.zeros((n, n)), np.empty((n, n))
        for axis in pts.T:
            np.subtract(axis[:, None], axis[None, :], out=diff)
            diff *= diff
            dist += diff
        del diff
        np.sqrt(dist, out=dist)
        w = (dist <= graphon.radius).astype(np.float64)
    elif graphon.kind == "expdecay":
        w = np.exp(-graphon.beta * np.abs(coords[:, None] - coords[None, :]))
    else:
        b = np.asarray(graphon.boundaries)
        v = np.asarray(graphon.block_values)
        idx = np.searchsorted(b, coords, side="right")
        w = v[idx[:, None], idx[None, :]]
    np.fill_diagonal(w, 0.0)

    row_sums = w.sum(axis=1)
    degenerate = row_sums == 0.0
    # an all-zero row divided by 1 stays zero until its fallback below
    w /= np.where(degenerate, 1.0, row_sums)[:, None]
    if np.any(degenerate):
        logger.warning(
            "%d agent(s) have zero total interaction weight; "
            "falling back to uniform neighbor sampling", int(degenerate.sum())
        )
        for i in np.flatnonzero(degenerate):
            w[i] = 1.0 / (n - 1)
            w[i, i] = 0.0
    return WeightMatrix(n=n, normalized=w)
