"""Graphon models, latent coordinates, and normalized interaction weights.

A graphon is a symmetric function W: [0,1]^2 -> [0,1] (2-d latent squares for
the radial kind) giving pairwise interaction intensity. Materializing it on n
latent points yields the raw weight matrix w_ij = W(alpha_i, alpha_j) with a
zero diagonal, and row-normalized sampling weights. Rows whose raw sum is zero
fall back to the uniform distribution over the other agents, so degenerate
graphons never abort a run.
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
    """Raw and row-normalized interaction weights for n agents.

    raw is symmetric with an exactly zero diagonal; each row of normalized
    sums to 1 (uniform fallback over the other agents when a raw row is all
    zero). Immutable after construction and safe to share across workers.
    """

    n: int
    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        for m in (self.raw, self.normalized):
            m.setflags(write=False)


def build_weights(graphon: Graphon, assign: LatentAssignment) -> WeightMatrix:
    """Materialize w_ij = W(alpha_i, alpha_j), w_ii = 0, and the normalized rows.

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
        raw = np.ones((n, n))
    elif graphon.kind == "radial":
        pts = coords if coords.ndim == 2 else coords[:, None]
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        raw = (dist <= graphon.radius).astype(np.float64)
    elif graphon.kind == "expdecay":
        raw = np.exp(-graphon.beta * np.abs(coords[:, None] - coords[None, :]))
    else:
        b = np.asarray(graphon.boundaries)
        v = np.asarray(graphon.block_values)
        idx = np.searchsorted(b, coords, side="right")
        raw = v[idx[:, None], idx[None, :]]
    np.fill_diagonal(raw, 0.0)

    normalized = np.zeros_like(raw)
    row_sums = raw.sum(axis=1)
    degenerate = row_sums == 0.0
    if np.any(degenerate):
        logger.warning(
            "%d agent(s) have zero total interaction weight; "
            "falling back to uniform neighbor sampling", int(degenerate.sum())
        )
    ok = ~degenerate
    normalized[ok] = raw[ok] / row_sums[ok, None]
    if np.any(degenerate):
        fallback = np.full(n, 1.0 / (n - 1))
        for i in np.flatnonzero(degenerate):
            normalized[i] = fallback
            normalized[i, i] = 0.0
    return WeightMatrix(n=n, raw=raw, normalized=normalized)
