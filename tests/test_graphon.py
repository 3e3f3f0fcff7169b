import math

import numpy as np
import pytest

from gmfs.graphon import Graphon, LatentAssignment, build_weights
from oracles import evaluate, normalized_weight


class TestEvaluate:
    def test_radial_within_radius(self):
        g = Graphon.radial_graphon(0.3, latent_dim=2)
        assert evaluate(g, (0.5, 0.5), (0.5, 0.7)) == 1.0

    def test_radial_outside_radius(self):
        g = Graphon.radial_graphon(0.3, latent_dim=2)
        assert evaluate(g, (0.0, 0.0), (0.5, 0.5)) == 0.0

    def test_self_value(self):
        assert evaluate(Graphon.radial_graphon(0.3, latent_dim=2), (0.2, 0.2), (0.2, 0.2)) == 1.0
        assert evaluate(Graphon.expdecay_graphon(2.0), 0.4, 0.4) == 1.0
        assert evaluate(Graphon.uniform_graphon(), 0.1, 0.1) == 1.0

    def test_expdecay_value(self):
        g = Graphon.expdecay_graphon(2.0)
        assert evaluate(g, 0.1, 0.6) == pytest.approx(math.exp(-1.0))

    def test_symmetry(self, rng):
        graphons = [
            Graphon.radial_graphon(0.4, latent_dim=2),
            Graphon.expdecay_graphon(1.5),
            Graphon.block_graphon((0.5,), ((0.9, 0.1), (0.1, 0.6))),
            Graphon.uniform_graphon(),
        ]
        for g in graphons:
            for _ in range(25):
                if g.latent_dim == 2:
                    x, y = rng.random(2), rng.random(2)
                else:
                    x, y = float(rng.random()), float(rng.random())
                assert evaluate(g, x, y) == evaluate(g, y, x)
                assert 0.0 <= evaluate(g, x, y) <= 1.0

    def test_dimension_mismatch(self):
        g = Graphon.radial_graphon(0.3, latent_dim=2)
        with pytest.raises(ValueError):
            evaluate(g, 0.5, 0.7)

    def test_block_boundaries_half_open(self):
        g = Graphon.block_graphon((0.5,), ((1.0, 0.0), (0.0, 0.5)))
        # 0.5 belongs to the upper block; 1.0 stays in the last block
        assert evaluate(g, 0.5, 0.5) == 0.5
        assert evaluate(g, 1.0, 1.0) == 0.5
        assert evaluate(g, 0.0, 0.49) == 1.0

    def test_block_requires_symmetric_values(self):
        with pytest.raises(ValueError):
            Graphon.block_graphon((0.5,), ((0.9, 0.2), (0.1, 0.6)))


class TestLatentAssignment:
    def test_sequential(self):
        a = LatentAssignment.sequential(4)
        assert np.allclose(a.coords, [0.25, 0.5, 0.75, 1.0])

    def test_grid_is_square_lattice(self):
        a = LatentAssignment.grid(25)
        assert a.coords.shape == (25, 2)
        axis = np.linspace(0, 1, 5)
        assert np.allclose(np.unique(a.coords[:, 0]), axis)
        # row-major: first row of the lattice comes first
        assert np.allclose(a.coords[0], [0.0, 0.0])
        assert np.allclose(a.coords[4], [0.0, 1.0])
        assert np.allclose(a.coords[24], [1.0, 1.0])

    def test_grid_rejects_non_square(self):
        with pytest.raises(ValueError):
            LatentAssignment.grid(24)

    def test_coordinates_in_unit_box(self):
        with pytest.raises(ValueError):
            LatentAssignment.explicit(np.array([0.2, 1.3]))


class TestBuildWeights:
    def test_uniform_n4(self):
        w = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(4))
        off_diag = w.normalized[~np.eye(4, dtype=bool)]
        assert np.allclose(off_diag, 1.0 / 3.0)
        assert np.all(np.diag(w.normalized) == 0.0)

    def test_grid_corner_sparser_than_center(self):
        # 5x5 grid spaced 0.25 apart: within radius 0.3 only axis neighbors
        w = build_weights(Graphon.radial_graphon(0.3, latent_dim=2), LatentAssignment.grid(25))
        corner = int((w.normalized[0] > 0).sum())
        center = int((w.normalized[12] > 0).sum())
        assert corner == 2
        assert center == 4
        assert corner < center

    def test_zero_graphon_uniform_fallback(self):
        g = Graphon.block_graphon((0.5,), ((0.0, 0.0), (0.0, 0.0)))
        w = build_weights(g, LatentAssignment.sequential(3))
        for i in range(3):
            row = np.delete(w.normalized[i], i)
            assert np.allclose(row, 0.5)
            assert w.normalized[i, i] == 0.0

    def test_row_sums_and_nonnegativity(self, rng):
        for g, dim in [
            (Graphon.radial_graphon(0.5, latent_dim=2), 2),
            (Graphon.expdecay_graphon(3.0), 1),
            (Graphon.block_graphon((0.3, 0.7), ((0.8, 0.2, 0.1), (0.2, 0.5, 0.3), (0.1, 0.3, 0.9))), 1),
        ]:
            n = 30
            coords = rng.random((n, 2)) if dim == 2 else rng.random(n)
            w = build_weights(g, LatentAssignment.explicit(coords))
            assert np.allclose(w.normalized.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(w.normalized >= 0.0)
            assert np.all(np.diag(w.normalized) == 0.0)

    def test_normalized_matches_pointwise_evaluate(self, rng):
        # the vectorized build against W read one pair at a time
        for g, coords in [
            (Graphon.radial_graphon(0.4, latent_dim=2), rng.random((12, 2))),
            (Graphon.expdecay_graphon(1.5), rng.random(12)),
            (Graphon.block_graphon((0.5,), ((0.9, 0.1), (0.1, 0.6))), np.linspace(0, 1, 12)),
            (Graphon.uniform_graphon(), rng.random(12)),
        ]:
            w = build_weights(g, LatentAssignment.explicit(coords))
            for i, j in np.ndindex(12, 12):
                want = normalized_weight(g, coords, i, j)
                assert w.normalized[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_normalized_rows_of_a_symmetric_kernel_are_reversible(self, rng):
        # row-normalizing a symmetric W gives a reversible chain: the support
        # is symmetric and, by Kolmogorov's criterion, every 3-cycle has the
        # same weight product in both directions
        for g, coords in [
            (Graphon.expdecay_graphon(2.0), rng.random(20)),
            (Graphon.radial_graphon(0.5, latent_dim=2), rng.random((20, 2))),
        ]:
            p = build_weights(g, LatentAssignment.explicit(coords)).normalized
            assert np.array_equal(p > 0, (p > 0).T)
            fwd = np.einsum("ij,jk,ki->ijk", p, p, p)
            assert np.allclose(fwd, fwd.transpose(0, 2, 1), rtol=1e-12, atol=0.0)

    def test_deterministic(self):
        g = Graphon.radial_graphon(0.3, latent_dim=2)
        a = LatentAssignment.grid(25)
        w1, w2 = build_weights(g, a), build_weights(g, a)
        assert np.array_equal(w1.normalized, w2.normalized)

    def test_radial_distances_are_those_of_the_stacked_sum(self, rng):
        # distances summed an axis at a time give the bits of one (n, n, d)
        # sum of squared differences
        for coords, radius in ((LatentAssignment.grid(900).coords, 0.3),
                               (rng.random((300, 2)), 0.2), (rng.random(400), 0.05)):
            pts = coords if coords.ndim == 2 else coords[:, None]
            diff = pts[:, None, :] - pts[None, :, :]
            w = (np.sqrt((diff * diff).sum(axis=2)) <= radius).astype(np.float64)
            np.fill_diagonal(w, 0.0)
            w /= np.where(w.sum(axis=1) == 0.0, 1.0, w.sum(axis=1))[:, None]
            graphon = Graphon.radial_graphon(radius, latent_dim=pts.shape[1])
            got = build_weights(graphon, LatentAssignment.explicit(coords)).normalized
            assert np.array_equal(got, w)

    def test_radial_build_peak_memory(self):
        # the build holds its kept matrix and a few (n, n) temporaries, never
        # an (n, n, 2) array of coordinate differences
        import tracemalloc

        n = 900
        assignment = LatentAssignment.grid(n)
        tracemalloc.start()
        try:
            build_weights(Graphon.radial_graphon(0.3, latent_dim=2), assignment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 8

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(1))

    def test_latent_dim_mismatch(self):
        with pytest.raises(ValueError):
            build_weights(Graphon.radial_graphon(0.3, latent_dim=2),
                          LatentAssignment.sequential(5))

    def test_immutable(self):
        w = build_weights(Graphon.uniform_graphon(), LatentAssignment.sequential(3))
        with pytest.raises(ValueError):
            w.normalized[0, 1] = 0.9
