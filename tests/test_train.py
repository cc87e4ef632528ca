"""Training loop tests: forward recomposition, variants, optimizer, eval."""

import csv
import gc
import itertools
import logging
import tracemalloc

import numpy as np
import pytest

import importlib

from gyroshot import autodiff as ad
from gyroshot import geometry, metrics, netmods
from gyroshot.cli import RunConfig

# the package re-exports the train() function under the submodule's name,
# so the module itself must be fetched explicitly
tr = importlib.import_module("gyroshot.train")
from gyroshot.episodes import EpisodeSpec, SyntheticConfig, generate_synthetic, sample_episode
from gyroshot.errors import ConfigError, InsufficientDataError, TrainingDivergedError
from gyroshot.geometry import BallConfig, einstein_midpoint, geodesic_distance
from gyroshot.netmods import ModelBundle, ModelConfig

BALL = BallConfig(c=0.5)
MODEL = ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4, enc_hidden=6, relation_filters=4)


def tiny_dataset(seed=0):
    cfg = SyntheticConfig(
        n_classes=5, samples_per_class=8, patch_dim=3, grid=(2, 2), n_modes=1, seed=seed
    )
    return generate_synthetic(cfg, BALL)


def tiny_cfg(**kw):
    base = dict(ball=BALL, n_way=2, k_shot=2, n_query=2, epochs=1,
                tasks_per_epoch=3, val_fraction=0.0, seed=1)
    base.update(kw)
    return tr.TrainConfig(**base)


def tiny_episode(cfg, seed=4):
    ds = tiny_dataset()
    return sample_episode(ds, cfg.episode_spec(seed=seed)), ds


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            tiny_cfg(variant_name="ap2s")
        with pytest.raises(ConfigError):
            tiny_cfg(temperature=0.0)
        with pytest.raises(ConfigError):
            tiny_cfg(val_fraction=1.0)
        with pytest.raises(ConfigError, match="val_tasks"):
            tiny_cfg(val_tasks=0)
        with pytest.raises(ConfigError, match="weight_decay"):
            tiny_cfg(weight_decay=-1.0)
        tiny_cfg(weight_decay=0.0)

    def test_variant_switches(self):
        cfg = tiny_cfg()
        assert cfg.variant_name == "app2s"
        assert len(tr.VARIANTS) == 6
        for name, spec in tr.VARIANTS.items():
            v = cfg.variant(name)
            assert isinstance(v, tr.TrainConfig)
            assert v.variant_name == name and v.spec is spec
            assert v.spec.prototype == (name == "prototype")
            assert v.spec.flat == (name == "euclidean_ap2s")
            assert v.ball == cfg.ball

    def test_variant_resets_previous_overrides(self):
        assert tiny_cfg(variant_name="p2s_uniform").variant("app2s") == tiny_cfg()
        assert tiny_cfg(variant_name="euclidean_ap2s").variant("app2s") == tiny_cfg()

    def test_euclidean_variant_same_on_every_path(self):
        ball = BallConfig(c=0.5, eps=1e-4)
        built = tr.TrainConfig(ball=ball, variant_name="euclidean_ap2s")
        derived = tr.TrainConfig(ball=ball).variant("euclidean_ap2s")
        cli = RunConfig({"c": 0.5, "eps": 1e-4, "variant": "euclidean_ap2s"}).train_cfg()
        assert built == derived == cli
        assert built.ball == derived.ball == cli.ball == ball

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            tiny_cfg().variant("unknown")

    def test_trainable_modules(self):
        def modules(name):
            return tr.trainable_modules(tiny_cfg(variant_name=name))

        full = ("encoder", "relation", "signature", "s2s")
        assert modules("prototype") == ("encoder",)
        assert modules("app2s") == full
        assert modules("euclidean_ap2s") == full
        assert modules("p2s_uniform") == ("encoder", "s2s")
        assert modules("p2s_relation") == ("encoder", "relation", "s2s")
        assert modules("ap2s_mean_s2s") == ("encoder", "relation", "signature")


class TestEpisodeForward:
    def test_full_pipeline_recomposition(self):
        """The batched forward must equal a per-query manual recomposition."""
        cfg = tiny_cfg()
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=2)
        _, info = tr.episode_forward(episode, bundle, cfg)

        n, k_eff, hw, _ = episode.support.shape
        feat = MODEL.feat_dim
        enc_s = bundle.encoder(episode.support.reshape(-1, hw, 3), BALL)
        enc_q = bundle.encoder(episode.query.reshape(-1, hw, 3), BALL)
        s_cls = np.asarray(enc_s).reshape(n, k_eff, hw, feat)
        for m in range(enc_q.shape[0]):
            qbar = einstein_midpoint(enc_q[m], BALL)
            proj = netmods.project_support(enc_s, qbar, BALL)  # (n*k_eff, hw, feat)
            refined = bundle.signature.refine(proj)
            sig = np.asarray(refined).reshape(n, k_eff, hw, feat).mean(axis=-3)
            proj5 = proj.reshape(n, k_eff, hw, feat)
            w = np.asarray(netmods.relation_scores(proj5, sig, bundle.relation))
            D = metrics.pairwise_matrix(enc_q[m][None], s_cls, BALL)
            svals = metrics.s2s_learned(D, bundle.s2s)
            d = metrics.adaptive_combine(svals, w)
            np.testing.assert_allclose(info["weights"][m], w, atol=1e-12)
            np.testing.assert_allclose(info["s2s"][m], np.asarray(svals), atol=1e-12)
            np.testing.assert_allclose(info["distances"][m], np.asarray(d), atol=1e-12)

    def test_loss_matches_cross_entropy_of_distances(self):
        cfg = tiny_cfg(temperature=2.0)
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=3)
        loss, info = tr.episode_forward(episode, bundle, cfg)
        logits = -info["distances"] / 2.0
        logz = np.log(np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(axis=-1))
        logp = logits - logits.max(axis=-1, keepdims=True) - logz[:, None]
        expect = -logp[np.arange(len(info["labels"])), info["labels"]].mean()
        assert float(loss) == pytest.approx(expect, rel=1e-12)
        assert info["loss"] == pytest.approx(expect, rel=1e-12)

    def test_loss_is_var_on_tape(self):
        cfg = tiny_cfg()
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=4)
        tape = ad.Tape()
        pvars = {"encoder": {k: tape.var(v) for k, v in bundle.encoder.params.items()}}
        loss, _ = tr.episode_forward(episode, bundle, cfg, params=pvars)
        assert isinstance(loss, ad.Var)
        ad.backward(loss)
        assert any(np.any(v.grad != 0) for v in pvars["encoder"].values())

    def test_uniform_weights_without_fphi(self):
        cfg = tiny_cfg(variant_name="p2s_uniform")
        episode, _ = tiny_episode(cfg)
        _, info = tr.episode_forward(episode, ModelBundle(MODEL, seed=5), cfg)
        np.testing.assert_array_equal(info["weights"], 0.5)

    def test_mean_s2s_without_fzeta(self):
        cfg = tiny_cfg(variant_name="ap2s_mean_s2s")
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=6)
        _, info = tr.episode_forward(episode, bundle, cfg)
        enc_q = bundle.encoder(episode.query.reshape(-1, 4, 3), BALL)
        enc_s = bundle.encoder(episode.support.reshape(-1, 4, 3), BALL)
        n, k_eff = episode.support.shape[:2]
        s_cls = np.asarray(enc_s).reshape(n, k_eff, 4, MODEL.feat_dim)
        D = metrics.pairwise_matrix(enc_q[0], s_cls[1, 0], BALL)
        assert info["s2s"][0, 1, 0] == pytest.approx(float(np.mean(D)), rel=1e-12)

    def test_prototype_objective_recomposition(self):
        cfg = tiny_cfg(variant_name="prototype")
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=7)
        _, info = tr.episode_forward(episode, bundle, cfg)
        assert info["s2s"] is None and info["weights"] is None
        n, k_eff, hw, _ = episode.support.shape
        enc_s = bundle.encoder(episode.support.reshape(-1, hw, 3), BALL)
        enc_q = bundle.encoder(episode.query.reshape(-1, hw, 3), BALL)
        emb_s = einstein_midpoint(enc_s, BALL).reshape(n, k_eff, -1)
        for m in range(enc_q.shape[0]):
            q_emb = einstein_midpoint(enc_q[m], BALL)
            for j in range(n):
                proto = einstein_midpoint(emb_s[j], BALL)
                expect = float(geodesic_distance(q_emb, proto, BALL))
                assert info["distances"][m, j] == pytest.approx(expect, rel=1e-12)

    def test_euclidean_mode_uses_flat_distance(self):
        cfg = tiny_cfg(variant_name="euclidean_ap2s")
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=8)
        _, info = tr.episode_forward(episode, bundle, cfg)
        n, k_eff, hw, _ = episode.support.shape
        enc_s = bundle.encoder(episode.support.reshape(-1, hw, 3), cfg.ball)
        enc_q = bundle.encoder(episode.query.reshape(-1, hw, 3), cfg.ball)
        s_cls = enc_s.reshape(n, k_eff, hw, -1)
        flat = 2.0 * np.linalg.norm(enc_q[0][:, None, :] - s_cls[1, 0][None, :, :], axis=-1)
        expect = bundle.s2s(flat.reshape(1, -1))[0]
        assert info["s2s"][0, 1, 0] == pytest.approx(float(expect), rel=1e-12)

    def test_every_variant_gives_a_different_forward(self):
        cfg = tiny_cfg()
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=8)
        dists = {
            name: tr.episode_forward(episode, bundle, cfg.variant(name))[1]["distances"]
            for name in tr.VARIANTS
        }
        for a, b in itertools.combinations(dists, 2):
            assert not np.allclose(dists[a], dists[b], rtol=1e-6, atol=0), (a, b)

    def test_predictions_are_argmin(self):
        cfg = tiny_cfg()
        episode, _ = tiny_episode(cfg)
        _, info = tr.episode_forward(episode, ModelBundle(MODEL, seed=9), cfg)
        np.testing.assert_array_equal(info["predictions"], info["distances"].argmin(axis=-1))
        assert info["accuracy"] == np.mean(info["predictions"] == info["labels"])

    def test_gradient_with_dropout_mask_fixed(self):
        """FD check through the train-mode path (dropout active, same mask)
        of both halves of the relation net's first kernel."""
        cfg = tiny_cfg()
        episode, _ = tiny_episode(cfg)
        bundle = ModelBundle(MODEL, seed=11)

        for name in ("conv1_map_w", "conv1_sig_w"):
            def f(w1):
                params = {"relation": dict(bundle.relation.params)}
                params["relation"][name] = w1
                return tr.episode_forward(
                    episode, bundle, cfg, params=params, train=True,
                    rng=np.random.default_rng(99),
                )[0]

            report = ad.finite_diff_check(f, bundle.relation.params[name], tol=1e-3)
            assert report.passed, (name, report)


class TestOptimizers:
    def test_adam_first_step_is_signed_lr(self):
        opt = tr.Adam(lr=0.01)
        p = {"a": np.array([1.0, -1.0])}
        opt.step(p, {"a": np.array([3.0, -0.2])}, scale=1.0)
        # bias-corrected first step ~ lr * sign(g)
        np.testing.assert_allclose(p["a"], [1.0 - 0.01, -1.0 + 0.01], atol=1e-6)

    def test_adam_state_per_parameter(self):
        opt = tr.Adam(lr=0.01)
        p = {"a": np.zeros(2), "b": np.zeros(3)}
        opt.step(p, {"a": np.ones(2), "b": np.ones(3)})
        assert set(opt.m) == {"a", "b"}
        assert opt.m["b"].shape == (3,)

    def test_adam_scale_multiplies_the_step(self):
        full, scaled = tr.Adam(lr=0.01), tr.Adam(lr=0.01)
        p, q = {"a": np.array([1.0])}, {"a": np.array([1.0])}
        full.step(p, {"a": np.array([3.0])})
        scaled.step(q, {"a": np.array([3.0])}, scale=0.1)
        np.testing.assert_allclose(1.0 - q["a"], 0.1 * (1.0 - p["a"]), rtol=1e-12)


class TestTrainLoop:
    def test_deterministic_repeat(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(epochs=2, tasks_per_epoch=2)
        a = tr.train(ds, cfg, MODEL)
        b = tr.train(ds, cfg, MODEL)
        for k, v in a.bundle.state_dict().items():
            np.testing.assert_array_equal(v, b.bundle.state_dict()[k], err_msg=k)
        assert a.metrics_rows == b.metrics_rows
        assert a.val_history == b.val_history

    def test_warm_start_from_state(self):
        ds = tiny_dataset()
        cfg = tiny_cfg()
        base = tr.train(ds, cfg, MODEL)
        state = base.bundle.state_dict()
        a = tr.train(ds, cfg, MODEL, init_state=state)
        b = tr.train(ds, cfg, MODEL, init_state=state)
        for k, v in a.bundle.state_dict().items():
            np.testing.assert_array_equal(v, b.bundle.state_dict()[k], err_msg=k)
        assert a.metrics_rows == b.metrics_rows
        # the continuation actually trains on from the loaded weights
        assert any(
            not np.array_equal(v, state[k]) for k, v in a.bundle.named_params().items()
        )
        fresh = tr.train(ds, cfg, MODEL)
        assert any(
            not np.array_equal(v, fresh.bundle.state_dict()[k])
            for k, v in a.bundle.named_params().items()
        )

    def test_metrics_rows_layout(self):
        result = tr.train(tiny_dataset(), tiny_cfg(epochs=2, tasks_per_epoch=3), MODEL)
        assert [(e, t) for e, t, _, _ in result.metrics_rows] == [
            (e, t) for e in range(2) for t in range(3)
        ]

    def test_on_episode_hook(self):
        seen = []
        tr.train(tiny_dataset(), tiny_cfg(), MODEL, on_episode=seen.append)
        assert len(seen) == 3
        assert {"distances", "s2s", "weights", "accuracy", "loss"} <= set(seen[0])

    def test_best_accuracy_is_max_of_history(self):
        result = tr.train(tiny_dataset(), tiny_cfg(epochs=3, tasks_per_epoch=2), MODEL)
        assert result.best_val_accuracy == max(result.val_history)

    def test_parameters_change(self):
        ds = tiny_dataset()
        cfg = tiny_cfg()
        init = ModelBundle(MODEL, seed=cfg.seed).state_dict()
        result = tr.train(ds, cfg, MODEL)
        assert any(
            not np.array_equal(v, init[k]) for k, v in result.bundle.named_params().items()
        )

    def test_prototype_variant_trains_encoder_only(self):
        ds = tiny_dataset()
        cfg = tiny_cfg().variant("prototype")
        init = ModelBundle(MODEL, seed=cfg.seed).state_dict()
        result = tr.train(ds, cfg, MODEL)
        final = result.bundle.state_dict()
        assert not np.array_equal(final["encoder.w1"], init["encoder.w1"])
        np.testing.assert_array_equal(final["s2s.w1"], init["s2s.w1"])
        for name in ("relation.conv1_map_w", "relation.conv1_sig_w"):
            np.testing.assert_array_equal(final[name], init[name])

    def test_divergence_raises(self, monkeypatch):
        def exploding(*args, **kwargs):
            return None, {"loss": float("nan"), "accuracy": 0.0}

        monkeypatch.setattr(tr, "episode_forward", exploding)
        with pytest.raises(TrainingDivergedError, match="nan"):
            tr.train(tiny_dataset(), tiny_cfg(), MODEL)

    def test_non_finite_gradient_names_the_parameter(self, monkeypatch):
        def nan_relu(x):
            out = np.maximum(ad.val(x), 0.0)
            if not isinstance(x, ad.Var):
                return out
            return ad.record(out, [(x, lambda g: np.full(g.shape, np.nan))], x.tape, "relu")

        monkeypatch.setattr(ad, "relu", nan_relu)
        seen = []
        with pytest.raises(TrainingDivergedError, match=r"non-finite gradient for encoder\.w1"):
            tr.train(tiny_dataset(), tiny_cfg(), MODEL, on_episode=seen.append)
        assert seen == []   # the loss was finite; no optimizer step was taken

    def test_no_tape_outlives_training(self):
        gc.collect()
        gc.disable()
        try:
            tr.train(tiny_dataset(), tiny_cfg(tasks_per_epoch=3), MODEL)
            alive = sum(isinstance(o, ad.Tape) for o in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0

    def test_validation_split_used(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(val_fraction=0.4, val_tasks=2)  # 5 classes -> 2 held out
        train_ds, val_ds = tr.split_classes(ds, cfg)
        np.testing.assert_array_equal(train_ds.classes, [0, 1, 2])
        np.testing.assert_array_equal(val_ds.classes, [3, 4])
        result = tr.train(ds, cfg, MODEL)
        assert len(result.val_history) == cfg.epochs
        assert result.accuracy_kind == "validation"

    def test_no_validation_selects_on_training_accuracy(self):
        result = tr.train(tiny_dataset(), tiny_cfg(epochs=2), MODEL)
        assert result.accuracy_kind == "training"
        assert result.val_history == [
            float(np.mean([r[2] for r in result.metrics_rows if r[0] == epoch]))
            for epoch in range(2)
        ]

    def test_split_raises_when_too_few_classes(self):
        ds = tiny_dataset()
        for fraction, n_val in ((0.1, 0), (0.8, 4)):
            with pytest.raises(InsufficientDataError) as err:
                tr.split_classes(ds, tiny_cfg(val_fraction=fraction))
            assert (f"val_fraction {fraction:g} of 5 classes leaves {n_val} validation and "
                    f"{5 - n_val} training classes, and 2-way episodes need 2 on each side"
                    ) in str(err.value)
            assert "val_fraction 0 trains without validation" in str(err.value)
            with pytest.raises(InsufficientDataError):
                tr.train(ds, tiny_cfg(val_fraction=fraction), MODEL)

    def test_default_val_fraction_splits_twenty_classes_15_5(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=20, samples_per_class=2), BALL)
        train_ds, val_ds = tr.split_classes(ds, tr.TrainConfig())
        np.testing.assert_array_equal(train_ds.classes, np.arange(15))
        np.testing.assert_array_equal(val_ds.classes, np.arange(15, 20))

    def test_every_epoch_validates_on_the_same_episodes(self, monkeypatch):
        cfg = tiny_cfg(val_fraction=0.4, val_tasks=3, epochs=3, tasks_per_epoch=2)
        sample, drawn = tr.sample_episode, []

        def recorded(dataset, spec, index=0):
            drawn.append((spec.seed, index))
            return sample(dataset, spec, index)

        monkeypatch.setattr(tr, "sample_episode", recorded)
        tr.train(tiny_dataset(), cfg, MODEL)
        val_pairs = [d for d in drawn if d[0] != cfg.seed]
        expect = [(cfg.seed + 2**32, i) for i in range(cfg.val_tasks)]
        assert val_pairs == expect * cfg.epochs

    def test_no_warning_when_validation_not_requested(self, caplog):
        with caplog.at_level(logging.WARNING, logger="gyroshot"):
            tr.split_classes(tiny_dataset(), tiny_cfg(val_fraction=0.0))
        assert caplog.text == ""


class TestEvaluate:
    def test_report_shape_and_determinism(self):
        ds = tiny_dataset()
        cfg = tiny_cfg()
        bundle = ModelBundle(MODEL, seed=12)
        a = tr.evaluate(ds, bundle, cfg, n_epochs=2, tasks_per_epoch=3)
        b = tr.evaluate(ds, bundle, cfg, n_epochs=2, tasks_per_epoch=3)
        assert a.n_tasks == 6
        np.testing.assert_array_equal(a.per_task, b.per_task)
        np.testing.assert_array_equal(a.per_task_loss, b.per_task_loss)
        assert 0.0 <= a.mean_accuracy <= 1.0
        assert a.mean_loss == pytest.approx(a.per_task_loss.mean())

    @pytest.mark.parametrize("n_epochs,tasks_per_epoch", [(0, 3), (2, 0), (1, -3)])
    def test_nonpositive_counts_rejected(self, n_epochs, tasks_per_epoch):
        with pytest.raises(ConfigError, match="must be positive"):
            tr.evaluate(tiny_dataset(), ModelBundle(MODEL, seed=12), tiny_cfg(),
                        n_epochs=n_epochs, tasks_per_epoch=tasks_per_epoch)

    def test_explicit_seed_changes_stream(self):
        ds = tiny_dataset()
        cfg = tiny_cfg()
        bundle = ModelBundle(MODEL, seed=12)
        a = tr.evaluate(ds, bundle, cfg, n_epochs=1, tasks_per_epoch=4, seed=1)
        b = tr.evaluate(ds, bundle, cfg, n_epochs=1, tasks_per_epoch=4, seed=2)
        assert not np.array_equal(a.per_task_loss, b.per_task_loss)

    def test_summarize(self):
        assert tr.summarize([]) == (0.0, 0.0)
        assert tr.summarize([0.7]) == (0.7, 0.0)
        mean, ci = tr.summarize([0.0, 1.0])
        assert mean == 0.5
        assert ci == pytest.approx(1.96 * np.std([0.0, 1.0], ddof=1) / np.sqrt(2))

    def test_chance_accuracy_on_unstructured_data(self):
        # all classes share one center, so labels carry no information and
        # any model (trained or not) scores at chance on 5-way tasks
        synth = SyntheticConfig(
            n_classes=6, samples_per_class=10, patch_dim=3, grid=(2, 2),
            n_modes=1, class_spread=0.0, mode_spread=0.0, within_spread=0.4,
            seed=3,
        )
        ds = generate_synthetic(synth, BALL)
        cfg = tiny_cfg(n_way=5)
        bundle = ModelBundle(MODEL, seed=21)
        report = tr.evaluate(ds, bundle, cfg, n_epochs=1, tasks_per_epoch=60, seed=5)
        assert 0.08 <= report.mean_accuracy <= 0.32

    def test_outlier_episodes_flow_through(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(n_way=2)
        bundle = ModelBundle(MODEL, seed=13)
        report = tr.evaluate(ds, bundle, cfg, n_epochs=1, tasks_per_epoch=2, n_outliers=2)
        assert report.n_tasks == 2


class TestRobustness:
    def test_empty_variants_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            tr.run_robustness(tiny_dataset(), {})

    def test_grid_rows(self):
        ds = tiny_dataset()
        cfg = tiny_cfg()
        variants = {
            "app2s": (ModelBundle(MODEL, seed=14), cfg),
            "prototype": (ModelBundle(MODEL, seed=14), cfg.variant("prototype")),
        }
        rows = tr.run_robustness(
            ds, variants, outlier_grid=(0, 1), n_epochs=1, tasks_per_epoch=2
        )
        assert [(r["variant"], r["n_outliers"]) for r in rows] == [
            ("app2s", 0), ("app2s", 1), ("prototype", 0), ("prototype", 1)
        ]
        for r in rows:
            assert 0.0 <= r["accuracy"] <= 1.0 and r["ci95"] >= 0.0


class TestCsvWriters:
    def test_metrics_roundtrip(self, tmp_path):
        rows = [(0, 0, 0.5, 1.234567890123456789), (0, 1, 1.0, 0.1)]
        path = tmp_path / "m.csv"
        tr.write_metrics_csv(rows, path)
        with open(path, newline="") as f:
            back = list(csv.reader(f))
        assert back[0] == ["epoch", "task", "accuracy", "loss"]
        assert float(back[1][3]) == rows[0][3]  # repr() roundtrips exactly
        assert len(back) == 3

    def test_robustness_roundtrip(self, tmp_path):
        rows = [{"variant": "a", "n_outliers": 2, "accuracy": 0.625, "ci95": 0.03125}]
        path = tmp_path / "r.csv"
        tr.write_robustness_csv(rows, path)
        with open(path, newline="") as f:
            back = list(csv.reader(f))
        assert back[0] == ["variant", "n_outliers", "accuracy", "ci95"]
        assert back[1] == ["a", "2", "0.625", "0.03125"]


# ---------------------------------------------------------------------------
# the lazy backward against an eager reference sweep


def _eager_record(value, pulls, tape, op="op"):
    """The reference engine's node: each adjoint adds in place into a
    pre-zeroed gradient."""
    out = ad.Var(value, tape, op=op, parents=tuple(v for v, _ in pulls))

    def bw(g):
        for v, pull in pulls:
            v.grad += pull(g)

    out._backward = bw
    return out


def _eager_backward(root):
    for node in root.tape.nodes:
        node.grad = np.zeros_like(node.value)
    root.grad = root.grad + 1.0
    for node in reversed(root.tape.nodes):
        if node._backward is not None:
            node._backward(node.grad)


def _composite_softmax(x, axis=-1):
    shift = np.max(ad.val(x), axis=axis, keepdims=True)
    e = ad.exp(ad.sub(x, shift))
    return ad.div(e, ad.sum(e, axis=axis, keepdims=True))


def _composite_geodesic(x, y, cfg):
    m = geometry.mobius_add(-1.0 * x, y, cfg)
    return (2.0 / cfg.sqrt_c) * ad.arctanh(cfg.sqrt_c * ad.norm(m))


def _default_param_grads(cfg, sweep=ad.backward):
    """Parameter gradients of the first train-mode episode of a default
    5-way 5-shot run (3x3 grid, C=16), as train() computes them."""
    ds = generate_synthetic(SyntheticConfig(), BallConfig(c=0.7))
    episode = sample_episode(ds, cfg.episode_spec(), index=0)
    bundle = ModelBundle(ModelConfig(in_dim=8, grid=(3, 3)), seed=cfg.seed)
    tape = ad.Tape()
    modules = bundle.modules()
    pvars = {m: {k: tape.var(v) for k, v in modules[m].params.items()}
             for m in tr.trainable_modules(cfg)}
    loss, _ = tr.episode_forward(episode, bundle, cfg, params=pvars, train=True,
                                 rng=np.random.default_rng([cfg.seed, 7, 0]))
    sweep(loss)
    return {f"{m}.{k}": v.grad for m in pvars for k, v in pvars[m].items()}


def test_taped_app2s_episode_keeps_little_beside_its_node_values():
    """What a taped default app2s forward holds besides the values of the
    nodes it recorded, mostly arrays its adjoints keep in their closures,
    stays under 4 MB (about 2.7 MB). Attention's 15×225×225 probabilities
    (6.1 MB) or the pairwise geodesic's broadcast x − y (3.9 MB) kept for
    backward would exceed it."""
    cfg = tr.TrainConfig(ball=BallConfig(c=0.7))
    ds = generate_synthetic(SyntheticConfig(), cfg.ball)
    episode = sample_episode(ds, cfg.episode_spec(), index=0)
    bundle = ModelBundle(ModelConfig(in_dim=8, grid=(3, 3)), seed=cfg.seed)
    tape = ad.Tape()
    modules = bundle.modules()
    pvars = {m: {k: tape.var(v) for k, v in modules[m].params.items()}
             for m in tr.trainable_modules(cfg)}
    n_leaves = len(tape)
    tracemalloc.start()
    try:
        tr.episode_forward(episode, bundle, cfg, params=pvars, train=True,
                           rng=np.random.default_rng([cfg.seed, 7, 0]))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = sum(n.value.nbytes for n in tape.nodes[n_leaves:] if n.value.flags.owndata)
    assert held - values < 4e6


@pytest.mark.parametrize("name", sorted(tr.VARIANTS))
def test_every_trainable_parameter_gets_a_gradient(name):
    """No parameter a variant trains is dead or starved: each one's largest
    gradient entry on a default episode exceeds 1e-6, far above the 1e-12
    the benchmark trace calls dead (the smallest is about 2.5e-5)."""
    cfg = tr.TrainConfig(ball=BallConfig(c=0.7)).variant(name)
    grads = _default_param_grads(cfg)
    dead = sorted(k for k, g in grads.items() if not np.max(np.abs(g)) > 1e-6)
    assert dead == []


@pytest.mark.parametrize(
    "name", sorted(n for n, spec in tr.VARIANTS.items() if "signature" in spec.modules))
def test_signature_attention_is_not_one_hot(name, monkeypatch):
    """On an untaped default episode the signature attention spreads its
    mass: the median over rows of the largest probability stays below 0.5
    (about 0.007 at init). Encoder features scaled by the radius 1/sqrt(c)
    of a far flatter ball than the configured one make every row one-hot."""
    attend, probs = ad._attend, []

    def traced(q, k, v):  # attention forms P one (T, C) block at a time here
        out, p = attend(q, k, v)
        probs.append(p.max(axis=-1))
        return out, p

    monkeypatch.setattr(ad, "_attend", traced)
    cfg = tr.TrainConfig(ball=BallConfig(c=0.7)).variant(name)
    ds = generate_synthetic(SyntheticConfig(), cfg.ball)
    bundle = ModelBundle(ModelConfig(in_dim=8, grid=(3, 3)), seed=0)
    tr.episode_forward(sample_episode(ds, cfg.episode_spec(), index=0), bundle, cfg)
    assert len(probs) == 15
    assert np.median(np.concatenate(probs)) < 0.5


def test_refine_records_at_most_23_nodes(monkeypatch):
    """The signature stage of a default app2s episode: one fused attention
    node and one normalize node per layer norm, 23 nodes in all."""
    refine, counts = netmods.SignatureGenerator.refine, []

    def counted(self, proj, params=None):
        before = len(proj.tape)
        out = refine(self, proj, params=params)
        counts.append(len(proj.tape) - before)
        return out

    monkeypatch.setattr(netmods.SignatureGenerator, "refine", counted)
    _default_param_grads(tr.TrainConfig(ball=BallConfig(c=0.7)))
    assert len(counts) == 1 and counts[0] <= 23


def test_midpoint_records_at_most_17_nodes(monkeypatch):
    """Each taped Einstein midpoint records 17 nodes: 5 for the conformal
    factors, 5 for the two weighted sums and their quotient, and 7 for the
    map back to the ball (23 through the forward Klein map). The prototype
    variant calls it three times and app2s once."""
    midpoint, counts = tr.einstein_midpoint, []

    def counted(points, cfg):
        before = len(points.tape)
        out = midpoint(points, cfg)
        counts.append(len(points.tape) - before)
        return out

    monkeypatch.setattr(tr, "einstein_midpoint", counted)
    for name in ("prototype", "app2s"):
        _default_param_grads(tr.TrainConfig(ball=BallConfig(c=0.7)).variant(name))
    assert len(counts) == 4 and max(counts) <= 17


def _episode_tape_size(cfg):
    sizes = []

    def sweep(loss):
        sizes.append(len(loss.tape))
        ad.backward(loss)

    _default_param_grads(cfg, sweep)
    (size,) = sizes
    return size


def test_prototype_episode_records_at_most_82_nodes():
    """A default taped prototype episode, its 4 encoder leaves included,
    records 82 nodes (100 through the forward Klein map)."""
    assert _episode_tape_size(tr.TrainConfig(ball=BallConfig(c=0.7)).variant("prototype")) <= 82


def test_app2s_episode_records_at_most_139_nodes(monkeypatch):
    """A default taped app2s episode, its 30 parameter leaves included,
    records 139 nodes (179 with the composite log map and the relation net
    on concatenated pairs, 146 with the midpoint through the forward Klein
    map, 140 with the relation net's first kernel cut in two on the tape).
    The tangent projection records 2: the base point's reshape and
    one log_map node (37 with the composite)."""
    project, counts = netmods.project_support, []

    def counted(support, qbar, cfg):
        before = len(support.tape)
        out = project(support, qbar, cfg)
        counts.append(len(support.tape) - before)
        return out

    monkeypatch.setattr(netmods, "project_support", counted)
    size = _episode_tape_size(tr.TrainConfig(ball=BallConfig(c=0.7)))
    assert len(counts) == 1 and counts[0] <= 2
    assert size <= 139


def test_app2s_step_records_no_node_above_5d_outside_pairwise(monkeypatch):
    """A default app2s episode projects the support straight to
    (NQ, N, K, HW, C); only pairwise_matrix's broadcast operands, one query
    and one support block, go above 5-D."""
    project, pairwise = netmods.project_support, metrics.pairwise_matrix
    shapes, spans = [], []

    def traced_project(support, qbar, cfg):
        out = project(support, qbar, cfg)
        shapes.append(out.value.shape)
        return out

    def traced_pairwise(q, s, cfg, dist_fn=None):
        start = len(q.tape)
        out = pairwise(q, s, cfg, dist_fn)
        spans.append((q.tape, range(start, len(q.tape))))
        return out

    monkeypatch.setattr(netmods, "project_support", traced_project)
    monkeypatch.setattr(metrics, "pairwise_matrix", traced_pairwise)
    _default_param_grads(tr.TrainConfig(ball=BallConfig(c=0.7)))
    assert shapes == [(15, 5, 5, 9, 16)]
    ((tape, span),) = spans
    high = [i for i, node in enumerate(tape.nodes) if node.value.ndim > 5]
    assert len(high) == 2 and all(i in span for i in high)


def test_lazy_backward_matches_eager_sweep_bit_for_bit(monkeypatch):
    """Same tape, two engines: parameter gradients of one default app2s
    episode agree exactly. The tape uses the composite softmax and geodesic,
    whose many nodes and fan-outs exercise accumulation, the fused attention
    node, whose three pulls share one adjoint computation, and the fused
    normalize nodes."""
    monkeypatch.setattr(ad, "softmax", _composite_softmax)
    monkeypatch.setattr(metrics, "geodesic_distance", _composite_geodesic)
    cfg = tr.TrainConfig(ball=BallConfig(c=0.7))
    lazy = _default_param_grads(cfg)
    monkeypatch.setattr(ad, "record", _eager_record)
    eager = _default_param_grads(cfg, _eager_backward)
    assert lazy.keys() == eager.keys() and len(lazy) == 30
    for name, g in eager.items():
        np.testing.assert_array_equal(lazy[name], g, err_msg=name)
