"""Pairwise, set-to-set and adaptive point-to-set distance tests.

The distance constants below were computed with a 50-digit arbitrary-precision
evaluation of the closed-form geodesic distance on the two fixed sets
A = {(0.1, 0), (0.5, 0)} and B = {(-0.2, 0)} at c = 1, then rounded to the
nearest float64.
"""

import numpy as np
import pytest

from gyroshot import autodiff as ad
from gyroshot.errors import DomainError, ShapeError
from gyroshot.geometry import BallConfig, flat_distance, geodesic_distance
from gyroshot.metrics import adaptive_combine, pairwise_matrix, s2s_learned
from gyroshot.netmods import ModelConfig, S2SNetwork

C1 = BallConfig(c=1.0)
C07 = BallConfig(c=0.7)

SET_A = np.array([[0.1, 0.0], [0.5, 0.0]])
SET_B = np.array([[-0.2, 0.0]])
D_A0_B0 = 0.60613580357031554
D_A1_B0 = 1.5040773967762741


def sample_sets(rng, n_sets, p, dim, cfg):
    r = cfg.radius * 0.75
    x = rng.standard_normal((n_sets, p, dim))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    return x * (r * rng.random((n_sets, p, 1)))


class TestPairwiseMatrix:
    def test_matches_per_pair_loop_exactly(self):
        rng = np.random.default_rng(11)
        q = sample_sets(rng, 1, 4, 3, C07)[0]
        s = sample_sets(rng, 1, 5, 3, C07)[0]
        D = pairwise_matrix(q, s, C07)
        assert D.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert D[i, j] == float(geodesic_distance(q[i], s[j], C07))

    def test_frozen_values(self):
        D = pairwise_matrix(SET_A, SET_B, C1)
        np.testing.assert_allclose(D[:, 0], [D_A0_B0, D_A1_B0], rtol=0, atol=1e-15)

    def test_batched_broadcast_shape(self):
        rng = np.random.default_rng(12)
        q = sample_sets(rng, 6, 4, 3, C07).reshape(2, 3, 1, 1, 4, 3)
        s = sample_sets(rng, 10, 4, 3, C07).reshape(1, 1, 5, 2, 4, 3)
        D = pairwise_matrix(q, s, C07)
        assert D.shape == (2, 3, 5, 2, 4, 4)
        # one entry cross-checked against the unbatched call
        d_single = pairwise_matrix(q[1, 2, 0, 0], s[0, 0, 3, 1], C07)
        assert np.array_equal(D[1, 2, 3, 1], d_single)

    def test_width_mismatch_raises(self):
        with pytest.raises(ShapeError):
            pairwise_matrix(np.zeros((3, 2)), np.zeros((3, 4)), C1)

    @pytest.mark.parametrize("dist_fn,op", [(None, "geodesic_distance"),
                                            (flat_distance, "flat_distance")])
    def test_width_mismatch_raised_by_the_distance(self, dist_fn, op):
        with pytest.raises(ShapeError, match=f"{op}: coordinate widths differ"):
            pairwise_matrix(np.zeros((3, 2)), np.zeros((3, 4)), C1, dist_fn=dist_fn)

    def test_empty_set_rejected(self):
        with pytest.raises(ShapeError):
            pairwise_matrix([], SET_B, C1)

    def test_custom_dist_fn(self):
        D = pairwise_matrix(SET_A, SET_B, C1, dist_fn=lambda a, b: np.linalg.norm(a - b, axis=-1))
        np.testing.assert_allclose(D[:, 0], [0.3, 0.7], atol=1e-15)


class TestSetToSet:
    def test_learned_width_check(self):
        net = S2SNetwork(ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            s2s_learned(np.zeros((2, 3, 3)), net)

    def test_learned_output_shape(self):
        net = S2SNetwork(ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4), np.random.default_rng(0))
        D = np.random.default_rng(1).random((3, 5, 4, 4))
        out = s2s_learned(D, net)
        assert out.shape == (3, 5)

    def test_learned_sensitive_to_matrix_permutation(self):
        # flat mean ignores entry order; the learned reduction must not
        net = S2SNetwork(ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4), np.random.default_rng(0))
        rng = np.random.default_rng(2)
        D = rng.random((2, 4, 4))
        perm = D[:, ::-1, :].copy()
        assert np.array_equal(D.mean(axis=(-2, -1)), perm.mean(axis=(-2, -1)))
        assert not np.allclose(s2s_learned(D, net), s2s_learned(perm, net))


class TestAdaptiveCombine:
    def test_uniform_weights_give_plain_mean(self):
        vals = np.array([1.0, 2.0, 4.0])
        w = np.full(3, 1.0 / 3.0)
        assert adaptive_combine(vals, w) == pytest.approx(vals.mean(), rel=1e-15)

    def test_scale_invariant_in_weights(self):
        rng = np.random.default_rng(16)
        vals, w = rng.random(5), rng.random(5) + 0.1
        np.testing.assert_allclose(
            adaptive_combine(vals, w), adaptive_combine(vals, 10.0 * w), rtol=1e-14
        )

    def test_result_bounded_by_extremes(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vals, w = rng.random(6), rng.random(6) + 1e-3
            out = adaptive_combine(vals, w)
            assert vals.min() - 1e-12 <= out <= vals.max() + 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            adaptive_combine(np.ones(3), np.array([0.5, -0.1, 0.6]))

    def test_vanishing_weights_rejected(self):
        with pytest.raises(DomainError):
            adaptive_combine(np.ones(3), np.zeros(3))

    def test_batched_rows(self):
        rng = np.random.default_rng(18)
        vals, w = rng.random((4, 3)), rng.random((4, 3)) + 0.1
        out = adaptive_combine(vals, w)
        for i in range(4):
            assert out[i] == pytest.approx(float(adaptive_combine(vals[i], w[i])), rel=1e-15)


class TestAdaptiveP2S:
    """pairwise_matrix -> s2s_learned -> adaptive_combine, as episode_forward runs them."""

    def setup_method(self):
        rng = np.random.default_rng(19)
        self.q = sample_sets(rng, 1, 4, 3, C07)  # (1, HW, C)
        self.maps = sample_sets(rng, 5, 4, 3, C07)  # (K, HW, C)
        self.w = rng.random(5) + 0.1

    def test_convex_bound_with_learned_net(self):
        net = S2SNetwork(ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4), np.random.default_rng(3))
        svals = s2s_learned(pairwise_matrix(self.q, self.maps, C07), net)
        out = adaptive_combine(svals, self.w)
        assert svals.shape == (5,)
        assert svals.min() - 1e-12 <= float(out) <= svals.max() + 1e-12

    def test_gradient_through_full_pipeline(self):
        net = S2SNetwork(ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4), np.random.default_rng(4))

        def f(qvar):
            svals = s2s_learned(pairwise_matrix(qvar, self.maps, C07), net)
            return adaptive_combine(svals, self.w)

        report = ad.finite_diff_check(f, self.q)
        assert report.passed, report

