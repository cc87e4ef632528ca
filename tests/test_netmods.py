"""Network module tests: shapes, invariances, normalization, checkpoint IO."""

import json

import numpy as np
import pytest

from gyroshot import autodiff as ad
from gyroshot import netmods
from gyroshot.errors import ConfigError, DataFormatError, ShapeError
from gyroshot.geometry import BallConfig, geodesic_distance, in_ball, log_map
from gyroshot.netmods import (
    CHECKPOINT_FORMAT,
    Encoder,
    ModelBundle,
    ModelConfig,
    RelationGenerator,
    S2SNetwork,
    SignatureGenerator,
    batch_norm,
    dropout,
    layer_norm,
    load_checkpoint,
    project_support,
    relation_scores,
    save_checkpoint,
    sinusoidal_grid_encoding,
)

BALL = BallConfig(c=0.7)
CFG = ModelConfig(in_dim=5, grid=(2, 3), feat_dim=4, enc_hidden=6, relation_filters=4)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestModelConfig:
    def test_valid(self):
        assert CFG.hw == 6

    def test_odd_feat_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(in_dim=3, grid=(2, 2), feat_dim=5)

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(in_dim=3, grid=(0, 2), feat_dim=4)

    def test_feature_scale_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4, feature_scale=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4, feature_scale=0.0)


class TestPositionalEncoding:
    def test_shape_and_bounds(self):
        pe = sinusoidal_grid_encoding(3, 4, 8)
        assert pe.shape == (12, 8)
        assert np.all(np.abs(pe) <= 1.0)

    def test_rows_distinct_per_position(self):
        pe = sinusoidal_grid_encoding(3, 3, 8)
        for i in range(9):
            for j in range(i + 1, 9):
                assert not np.allclose(pe[i], pe[j])

    def test_row_half_depends_only_on_row(self):
        h, w, c = 3, 4, 8
        pe = sinusoidal_grid_encoding(h, w, c).reshape(h, w, c)
        # first c//2 channels encode the row index: constant along columns
        np.testing.assert_array_equal(pe[:, 0, : c // 2], pe[:, 2, : c // 2])
        # last channels encode the column index: constant along rows
        np.testing.assert_array_equal(pe[0, :, c // 2 :], pe[2, :, c // 2 :])

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigError):
            sinusoidal_grid_encoding(2, 2, 3)


class TestDropout:
    def test_identity_without_rng(self):
        x = rng(1).random((4, 5))
        assert dropout(x, 0.5, None) is x
        assert dropout(x, 0.0, rng(0)) is x

    def test_mask_and_scale(self):
        x = np.ones((200, 50))
        y = dropout(x, 0.5, rng(2))
        vals = np.unique(y)
        np.testing.assert_array_equal(vals, [0.0, 2.0])
        assert abs((y == 0).mean() - 0.5) < 0.02

    def test_seeded_determinism(self):
        x = rng(3).random((6, 6))
        a = dropout(x, 0.5, np.random.default_rng(9))
        b = dropout(x, 0.5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestNormalization:
    def test_layer_norm_standardizes_rows(self):
        x = rng(4).random((3, 8)) * 5 + 2
        y = layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_batch_norm_train_standardizes_and_updates_buffers(self):
        x = rng(5).random((40, 3)) * 2 + 1
        mean_buf, var_buf = np.zeros(3), np.ones(3)
        y = batch_norm(x, np.ones(3), np.zeros(3), mean_buf, var_buf, train=True)
        np.testing.assert_allclose(np.asarray(y).mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.asarray(y).std(axis=0), 1.0, atol=1e-3)
        np.testing.assert_allclose(mean_buf, 0.1 * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(var_buf, 0.9 + 0.1 * x.var(axis=0), rtol=1e-12)

    def test_batch_norm_eval_uses_buffers_only(self):
        x = rng(6).random((4, 3))
        mean_buf, var_buf = np.full(3, 0.5), np.full(3, 2.0)
        y = batch_norm(x, np.ones(3), np.zeros(3), mean_buf, var_buf, train=False)
        expect = (x - 0.5) / np.sqrt(2.0 + 1e-5)
        np.testing.assert_allclose(y, expect, rtol=1e-12)
        np.testing.assert_array_equal(mean_buf, 0.5)  # eval must not touch buffers

    def test_missing_beta_records_no_shift(self):
        x = rng(8).random((4, 3))
        for norm in (
            lambda v, beta: layer_norm(v, np.ones(3), beta),
            lambda v, beta: batch_norm(v, np.ones(3), beta, np.zeros(3), np.ones(3), True),
        ):
            counts, outs = [], []
            for beta in (None, np.zeros(3)):
                tape = ad.Tape()
                outs.append(ad.val(norm(tape.var(x), beta)))
                counts.append(len(tape.nodes))
            assert counts[0] + 1 == counts[1]
            np.testing.assert_array_equal(outs[0], outs[1])

    @staticmethod
    def _composite_layer_norm(x, gamma, beta, eps=1e-5):
        mu = ad.mean(x, axis=-1, keepdims=True)
        d = x - mu
        var = ad.mean(d * d, axis=-1, keepdims=True)
        return gamma * (d / ad.sqrt(var + eps)) + beta

    @staticmethod
    def _composite_batch_norm(x, gamma, beta, eps=1e-5):
        axes = tuple(range(np.ndim(ad.val(x)) - 1))
        mu = ad.mean(x, axis=axes, keepdims=True)
        d = x - mu
        var = ad.mean(d * d, axis=axes, keepdims=True)
        return gamma * (d / ad.sqrt(var + eps)) + beta, mu, var

    def test_fused_forms_equal_composites_bit_for_bit(self):
        r = rng(9)
        for shape in ((7, 3), (4, 5, 3)):
            x = r.normal(size=shape) * 3.0 + 1.5
            gamma, beta = r.normal(size=3), r.normal(size=3)
            np.testing.assert_array_equal(layer_norm(x, gamma, beta),
                                          self._composite_layer_norm(x, gamma, beta))
            mean_buf, var_buf = np.zeros(3), np.ones(3)
            y = batch_norm(x, gamma, beta, mean_buf, var_buf, train=True)
            expect, mu, var = self._composite_batch_norm(x, gamma, beta)
            np.testing.assert_array_equal(y, expect)
            np.testing.assert_array_equal(mean_buf, 0.1 * mu.reshape(-1))
            np.testing.assert_array_equal(var_buf, 0.9 + 0.1 * var.reshape(-1))

    def test_fused_gradients_match_composites(self):
        r = rng(10)
        x0 = r.normal(size=(6, 4)) * 2.0
        gamma, beta, w = r.normal(size=4), r.normal(size=4), r.normal(size=(6, 4))
        for fused, composite in (
            (lambda v: layer_norm(v, gamma, beta), lambda v: self._composite_layer_norm(v, gamma, beta)),
            (lambda v: batch_norm(v, gamma, beta, np.zeros(4), np.ones(4), True),
             lambda v: self._composite_batch_norm(v, gamma, beta)[0]),
        ):
            grads = []
            for f in (fused, composite):
                tape = ad.Tape()
                x = tape.var(x0)
                ad.backward(ad.sum(f(x) * w))
                grads.append(x.grad)
            np.testing.assert_allclose(grads[0], grads[1], rtol=1e-10, atol=1e-13)

    def test_batch_norm_normalizes_over_all_leading_axes(self):
        x = rng(7).random((4, 5, 3))
        y = batch_norm(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), train=True)
        np.testing.assert_allclose(np.asarray(y).mean(axis=(0, 1)), 0.0, atol=1e-12)


class TestEncoder:
    def test_output_in_ball(self):
        enc = Encoder(CFG, rng(8))
        x = rng(9).standard_normal((7, CFG.hw, CFG.in_dim)) * 3
        z = enc(x, BALL)
        assert z.shape == (7, CFG.hw, CFG.feat_dim)
        assert in_ball(z, BALL)

    def test_zero_weights_map_to_origin(self):
        enc = Encoder(CFG, rng(10))
        for k in enc.params:
            enc.params[k] = np.zeros_like(enc.params[k])
        z = enc(np.ones((2, CFG.hw, CFG.in_dim)), BALL)
        np.testing.assert_array_equal(z, 0.0)

    def test_wrong_width_rejected(self):
        enc = Encoder(CFG, rng(11))
        with pytest.raises(ShapeError):
            enc(np.zeros((2, CFG.hw, CFG.in_dim + 1)), BALL)


class TestSignatureGenerator:
    def test_refine_shape(self):
        sig = SignatureGenerator(CFG, rng(14))
        proj = rng(15).standard_normal((5, 3, CFG.hw, CFG.feat_dim)) * 0.1
        out = sig.refine(proj)
        assert np.shape(out) == proj.shape

    def test_refine_equivariant_under_map_permutation(self):
        sig = SignatureGenerator(CFG, rng(16))
        proj = rng(17).standard_normal((4, CFG.hw, CFG.feat_dim)) * 0.1
        perm = np.array([2, 0, 3, 1])
        out = np.asarray(sig.refine(proj))
        out_perm = np.asarray(sig.refine(proj[perm]))
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_maps_interact_through_attention(self):
        sig = SignatureGenerator(CFG, rng(18))
        proj = rng(19).standard_normal((3, CFG.hw, CFG.feat_dim)) * 0.1
        changed = proj.copy()
        changed[0] += 0.5
        out, out2 = np.asarray(sig.refine(proj)), np.asarray(sig.refine(changed))
        # map 0 changed, so maps 1 and 2 must see a different attention mix
        assert not np.allclose(out[1], out2[1])
        assert not np.allclose(out[2], out2[2])

    def test_bad_shape_rejected(self):
        sig = SignatureGenerator(CFG, rng(20))
        with pytest.raises(ShapeError):
            sig.refine(np.zeros((3, CFG.hw + 1, CFG.feat_dim)))


class TestProjectSupport:
    def test_matches_pointwise_log_map(self):
        r = rng(22)
        base = r.standard_normal(4) * 0.1
        support = r.standard_normal((3, 5, 4)) * 0.1
        out = project_support(support, base, BALL)
        assert out.shape == (3, 5, 4)
        for i in range(3):
            for j in range(5):
                expect = log_map(base, support[i, j], BALL)
                np.testing.assert_array_equal(out[i, j], expect)

    def test_zero_at_base(self):
        base = np.full(4, 0.05)
        support = np.broadcast_to(base, (2, 3, 4)).copy()
        out = project_support(support, base, BALL)
        np.testing.assert_array_equal(out, 0.0)

    def test_norm_recovers_distance(self):
        r = rng(23)
        base = r.standard_normal(4) * 0.1
        point = r.standard_normal(4) * 0.1
        out = project_support(point[None, :], base, BALL)[0]
        lam = 2.0 / (1.0 - BALL.c * base @ base)
        d = lam * np.linalg.norm(out)
        assert d == pytest.approx(float(geodesic_distance(base, point, BALL)), rel=1e-12)


class TestRelationGenerator:
    def test_kernel_sizes_collapse_grid(self):
        for grid in [(2, 2), (3, 3), (2, 3), (5, 4), (1, 1)]:
            cfg = ModelConfig(in_dim=3, grid=grid, feat_dim=4, relation_filters=2)
            rel = RelationGenerator(cfg, rng(24))
            assert rel.k1[0] + rel.k2[0] == grid[0] + 1
            assert rel.k1[1] + rel.k2[1] == grid[1] + 1

    def test_scores_in_unit_interval(self):
        rel = RelationGenerator(CFG, rng(25))
        g = rng(26).standard_normal((7, 2, 3, 2 * CFG.feat_dim))
        s = np.asarray(rel(g[..., :CFG.feat_dim], g[..., CFG.feat_dim:]))
        assert s.shape == (7,)
        assert np.all((s > 0) & (s < 1))

    def test_bad_input_shape_rejected(self):
        rel = RelationGenerator(CFG, rng(27))
        with pytest.raises(ShapeError):
            rel(np.zeros((2, 3, 3, CFG.feat_dim)), np.zeros((2, 3, 3, CFG.feat_dim)))

    def test_relation_scores_sum_to_one(self):
        rel = RelationGenerator(CFG, rng(28))
        proj = rng(29).standard_normal((2, 5, CFG.hw, CFG.feat_dim)) * 0.1
        sig = proj.mean(axis=-3)
        w = np.asarray(relation_scores(proj, sig, rel))
        assert w.shape == (2, 5)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-12)

    def test_identical_maps_get_uniform_weights(self):
        rel = RelationGenerator(CFG, rng(30))
        one = rng(31).standard_normal((CFG.hw, CFG.feat_dim)) * 0.1
        proj = np.broadcast_to(one, (4, CFG.hw, CFG.feat_dim)).copy()
        w = np.asarray(relation_scores(proj, one, rel))
        np.testing.assert_allclose(w, 0.25, rtol=1e-12)


def _joint_kernel(rel):
    """The relation net's first kernel as one (kh, kw, 2C, F) array: the
    map half, then the signature half, on the channel axis."""
    return np.concatenate([rel.params["conv1_map_w"], rel.params["conv1_sig_w"]], axis=2)


def _concat_relation(rel, maps, sig, train=False, rng=None, params=None):
    """The relation net on explicit pairs: each (B, K, H, W, C) map is
    concatenated channel-wise with its (B, H, W, C) signature, and the
    first conv reads all 2C channels at once with the joint kernel
    `conv1_w`. Maps and signatures are plain arrays; `params` may hold
    Vars."""
    p = params if params is not None else dict(rel.params, conv1_w=_joint_kernel(rel))
    shape = maps.shape
    pairs = np.concatenate([maps, np.broadcast_to(sig[:, None], shape)], axis=-1)
    g = pairs.reshape((-1,) + shape[2:-1] + (2 * shape[-1],))
    x = batch_norm(ad.conv2d(g, p["conv1_w"]), p["bn1_g"], p["bn1_b"],
                   rel.buffers["bn1_mean"], rel.buffers["bn1_var"], train)
    x = dropout(ad.relu(x), 0.5, rng if train else None)
    x = batch_norm(ad.conv2d(x, p["conv2_w"]), p["bn2_g"], p["bn2_b"],
                   rel.buffers["bn2_mean"], rel.buffers["bn2_var"], train)
    return ad.reshape(ad.sigmoid(x), shape[:2])


def _relation_case(seed=40):
    """Default model shape: 75 (query, class) pairs of 5 maps on a 3x3 grid,
    C = 16, 64 filters, as projected maps and signatures of the ball."""
    cfg = ModelConfig(in_dim=8, grid=(3, 3))
    r = rng(seed)
    maps = r.standard_normal((75, 5, 3, 3, 16)) * 0.3
    sig = maps.mean(axis=1) + r.standard_normal((75, 3, 3, 16)) * 0.05
    return cfg, maps, sig


class TestFactoredRelation:
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_matches_the_concatenated_input(self, train):
        """Scores, weights and the BN buffers a call leaves behind."""
        cfg, maps, sig = _relation_case()

        def net():
            out = RelationGenerator(cfg, rng(41))
            out.buffers["bn1_mean"] += 0.1  # nontrivial running statistics
            out.buffers["bn1_var"] *= 1.5
            return out

        def drop():
            return rng(42) if train else None

        nets = [net() for _ in range(4)]
        factored = nets[0](maps, sig[:, None], train=train, rng=drop())
        pairs = _concat_relation(nets[1], maps, sig, train=train, rng=drop())
        weights = relation_scores(maps.reshape(15, 5, 5, 9, 16), sig.reshape(15, 5, 9, 16),
                                  nets[2], train=train, rng=drop())
        pair_weights = ad.softmax(_concat_relation(nets[3], maps, sig, train=train, rng=drop()))
        np.testing.assert_allclose(factored, pairs, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights.reshape(75, 5), pair_weights, rtol=0, atol=1e-15)
        for name, buf in nets[0].buffers.items():
            for other in nets[1:]:
                np.testing.assert_allclose(buf, other.buffers[name], rtol=0, atol=1e-15,
                                           err_msg=name)

    def test_conv1_gradient_matches_the_concatenated_input(self):
        cfg, maps, sig = _relation_case(43)
        w = rng(44).standard_normal((75, 5))
        net = RelationGenerator(cfg, rng(45))
        tape = ad.Tape()
        params = {k: tape.var(v) for k, v in net.params.items()}
        ad.backward(ad.sum(net(maps, sig[:, None], train=True, params=params) * w))
        factored = np.concatenate([params["conv1_map_w"].grad, params["conv1_sig_w"].grad],
                                  axis=2)
        net = RelationGenerator(cfg, rng(45))
        tape = ad.Tape()
        params = {k: tape.var(v) for k, v in net.params.items()}
        params["conv1_w"] = tape.var(_joint_kernel(net))
        ad.backward(ad.sum(_concat_relation(net, maps, sig, train=True, params=params) * w))
        joint = params["conv1_w"].grad
        rel_err = np.max(np.abs(factored - joint)) / np.max(np.abs(joint))
        assert rel_err < 1e-12

    def test_signature_half_runs_once_per_signature(self):
        """No node broadcasts or concatenates the signature: the signature
        conv sees (75, 1, 3, 3, 16), and nothing on the tape is above 5-D."""
        cfg, maps, sig = _relation_case(46)
        net = RelationGenerator(cfg, rng(47))
        tape = ad.Tape()
        params = {k: tape.var(v) for k, v in net.params.items()}
        relation_scores(tape.var(maps.reshape(15, 5, 5, 9, 16)),
                        tape.var(sig.reshape(15, 5, 9, 16)), net, params=params)
        ops = [n.op for n in tape.nodes]
        assert "broadcast" not in ops and "concat" not in ops
        assert max(n.value.ndim for n in tape.nodes) == 5
        convs = [n for n in tape.nodes if n.op == "conv2d"]
        assert [c.parents[0].value.shape for c in convs[:2]] == [(75, 5, 3, 3, 16),
                                                                 (75, 1, 3, 3, 16)]
        # each half of the first kernel enters its conv as a leaf, uncut
        assert [c.parents[1] for c in convs[:2]] == [params["conv1_map_w"],
                                                     params["conv1_sig_w"]]

    def test_first_kernel_is_drawn_whole_and_stored_as_halves(self):
        """One (kh, kw, 2C, F) draw, as before the split, then conv2_w from
        the same stream; each half is its own contiguous array."""
        cfg = _relation_case()[0]
        net = RelationGenerator(cfg, rng(50))
        r = rng(50)
        joint = netmods._conv_init(r, *net.k1, 2 * cfg.feat_dim, cfg.relation_filters)
        np.testing.assert_array_equal(_joint_kernel(net), joint)
        np.testing.assert_array_equal(net.params["conv2_w"],
                                      netmods._conv_init(r, *net.k2, cfg.relation_filters, 1))
        for name in ("conv1_map_w", "conv1_sig_w"):
            assert net.params[name].flags.c_contiguous and net.params[name].flags.owndata

    def test_signature_must_broadcast_against_the_maps(self):
        cfg, maps, sig = _relation_case(48)
        net = RelationGenerator(cfg, rng(49))
        for bad in (np.zeros((75, 2, 3, 3, 16)), np.zeros((2, 75, 1, 3, 3, 16))):
            with pytest.raises(ShapeError):
                net(maps, bad)
        with pytest.raises(ShapeError):
            net(maps[:, :1], np.zeros((75, 5, 3, 3, 16)))


class TestS2SNetwork:
    def test_output_shape(self):
        net = S2SNetwork(CFG, rng(32))
        assert net.in_width == CFG.hw ** 2
        out = net(rng(33).random((5, net.in_width)))
        assert np.shape(out) == (5,)

    def test_train_updates_buffers(self):
        net = S2SNetwork(CFG, rng(34))
        before = net.buffers["bn1_mean"].copy()
        net(rng(35).random((8, net.in_width)) + 3.0, train=True)
        assert not np.array_equal(net.buffers["bn1_mean"], before)

    def test_wrong_width_rejected(self):
        net = S2SNetwork(CFG, rng(36))
        with pytest.raises(ShapeError):
            net(np.zeros((2, net.in_width + 1)))


class TestModelBundle:
    def test_seeded_init_deterministic(self):
        a, b = ModelBundle(CFG, seed=5), ModelBundle(CFG, seed=5)
        for k, v in a.state_dict().items():
            np.testing.assert_array_equal(v, b.state_dict()[k])

    def test_different_seeds_differ(self):
        a, b = ModelBundle(CFG, seed=5), ModelBundle(CFG, seed=6)
        assert not np.array_equal(a.encoder.params["w1"], b.encoder.params["w1"])

    def test_module_prefixes(self):
        bundle = ModelBundle(CFG, seed=0)
        keys = set(bundle.named_params())
        assert "encoder.w1" in keys and "relation.conv1_map_w" in keys
        assert "relation.conv1_sig_w" in keys and "relation.conv1_w" not in keys
        assert "relation.bn1_mean" in bundle.named_buffers()

    def test_save_load_roundtrip(self, tmp_path):
        bundle = ModelBundle(CFG, seed=7)
        bundle.relation.buffers["bn1_mean"] += 0.25  # nontrivial buffer state
        path = tmp_path / "ckpt.bin"
        bundle.save(path)
        restored = ModelBundle.load(path, CFG, seed=99)
        for k, v in bundle.state_dict().items():
            np.testing.assert_array_equal(v, restored.state_dict()[k], err_msg=k)

    def test_load_state_rejects_key_mismatch(self):
        bundle = ModelBundle(CFG, seed=0)
        state = bundle.copy_state()
        state.pop("encoder.w1")
        with pytest.raises(DataFormatError, match="encoder.w1"):
            bundle.load_state(state)
        state = bundle.copy_state()
        state["bogus"] = np.zeros(1)
        with pytest.raises(DataFormatError, match="bogus"):
            bundle.load_state(state)

    def test_load_state_rejects_shape_mismatch(self):
        bundle = ModelBundle(CFG, seed=0)
        state = bundle.copy_state()
        state["encoder.w1"] = np.zeros((1, 1))
        with pytest.raises(DataFormatError, match="shape"):
            bundle.load_state(state)

    def test_copy_state_detached(self):
        bundle = ModelBundle(CFG, seed=0)
        snap = bundle.copy_state()
        bundle.encoder.params["w1"] += 1.0
        assert not np.array_equal(snap["encoder.w1"], bundle.encoder.params["w1"])


class TestCheckpointFile:
    def tensors(self):
        r = rng(37)
        return {"a": r.random((2, 3)), "b": r.random(4), "c": np.array(2.5)}

    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "t.bin"
        t = self.tensors()
        save_checkpoint(path, t)
        back = load_checkpoint(path)
        assert set(back) == set(t)
        for k in t:
            np.testing.assert_array_equal(back[k], t[k])
            assert back[k].shape == t[k].shape

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(DataFormatError, match="header"):
            load_checkpoint(path)

    def test_bad_json_header(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"{not json\n" + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="header"):
            load_checkpoint(path)
        path.write_bytes(b"[1, 2]\n" + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="header"):
            load_checkpoint(path)
        entry = {"name": "a", "shape": [1], "dtype": "<f8"}
        for tensors in (5, [dict(entry, shape=[2.5])], [dict(entry, shape="ab")],
                        [dict(entry, shape=[-1])], [dict(entry, shape=[True])],
                        [dict(entry, name=["a"])], [entry, entry]):
            header = json.dumps({"format_version": CHECKPOINT_FORMAT, "tensors": tensors})
            path.write_bytes(header.encode() + b"\n" + b"\x00" * 16)  # [entry, entry] fits
            with pytest.raises(DataFormatError, match="header"):
                load_checkpoint(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "t.bin"
        header = {"format_version": CHECKPOINT_FORMAT,
                  "tensors": [{"name": "a", "shape": [1], "dtype": "<f4"}]}
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 4)
        with pytest.raises(DataFormatError, match="dtype"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [None, 1, 2, 4])
    def test_other_format_version_rejected(self, tmp_path, version):
        path = tmp_path / "t.bin"
        save_checkpoint(path, self.tensors())
        raw = path.read_bytes()
        header, body = raw.split(b"\n", 1)
        header = json.loads(header)
        if version is None:
            del header["format_version"]
        else:
            header["format_version"] = version
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        expected = f"format_version {version}, expected {CHECKPOINT_FORMAT}"
        with pytest.raises(DataFormatError, match=expected):
            load_checkpoint(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.bin"
        save_checkpoint(path, self.tensors())
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.bin"
        save_checkpoint(path, self.tensors())
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(path)
