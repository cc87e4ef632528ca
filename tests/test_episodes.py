"""Synthetic data generation, episode sampling, and dataset file IO tests."""

import hashlib
import json

import numpy as np
import pytest

from gyroshot.episodes import (
    Dataset,
    EpisodeSpec,
    SyntheticConfig,
    generate_synthetic,
    load_features,
    sample_episode,
    save_dataset,
)
from gyroshot.errors import ConfigError, DataFormatError, InsufficientDataError, ShapeError
from gyroshot.fileio import FORMAT_VERSION, save_tensors
from gyroshot.geometry import BallConfig, in_ball

BALL = BallConfig(c=0.7)
SMALL = SyntheticConfig(
    n_classes=6, samples_per_class=10, patch_dim=4, grid=(2, 2), n_modes=2, seed=3
)


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        ds = generate_synthetic(SMALL, BALL)
        assert ds.features.shape == (60, 4, 4)
        assert ds.labels.shape == (60,)
        np.testing.assert_array_equal(ds.classes, np.arange(6))
        np.testing.assert_array_equal(np.bincount(ds.labels), np.full(6, 10))

    def test_all_points_in_ball(self):
        ds = generate_synthetic(SMALL, BALL)
        assert in_ball(ds.features, BALL)

    def test_deterministic(self):
        a = generate_synthetic(SMALL, BALL)
        b = generate_synthetic(SMALL, BALL)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        from dataclasses import replace

        other = generate_synthetic(replace(SMALL, seed=4), BALL)
        assert not np.array_equal(other.features, generate_synthetic(SMALL, BALL).features)

    def test_float32_quantized(self):
        # stored values are exactly representable as float32 so file IO is lossless
        ds = generate_synthetic(SMALL, BALL)
        np.testing.assert_array_equal(ds.features, ds.features.astype("<f4").astype(np.float64))

    def test_zero_within_spread_collapses_patches(self):
        from dataclasses import replace

        cfg = replace(SMALL, within_spread=0.0, n_modes=1)
        ds = generate_synthetic(cfg, BALL)
        # every sample of one class lands on the same point at every patch
        cls0 = ds.features[ds.labels == 0]
        np.testing.assert_array_equal(cls0, np.broadcast_to(cls0[0, 0], cls0.shape))

    def test_classes_separated(self):
        ds = generate_synthetic(SMALL, BALL)
        means = np.stack([ds.features[ds.labels == i].mean(axis=(0, 1)) for i in range(6)])
        gaps = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        assert gaps[~np.eye(6, dtype=bool)].min() > 0.01

    def test_bad_config_rejected(self):
        with pytest.raises(ShapeError):
            SyntheticConfig(n_classes=0)
        with pytest.raises(ShapeError):
            SyntheticConfig(n_modes=0)
        for key in ("class_spread", "mode_spread", "within_spread"):
            with pytest.raises(ConfigError, match=key):
                SyntheticConfig(**{key: -1.0})
            SyntheticConfig(**{key: 0.0})


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Dataset(features=np.zeros((3, 5, 2)), labels=np.zeros(3), dims=(2, 2, 2))
        with pytest.raises(ShapeError):
            Dataset(features=np.zeros((3, 4, 2)), labels=np.zeros(2), dims=(2, 2, 2))

    def test_subset(self):
        ds = generate_synthetic(SMALL, BALL)
        sub = ds.subset([1, 4])
        np.testing.assert_array_equal(sub.classes, [1, 4])
        assert sub.n_samples == 20
        np.testing.assert_array_equal(sub.features, ds.features[np.isin(ds.labels, [1, 4])])


class TestSampleEpisode:
    def setup_method(self):
        self.ds = generate_synthetic(SMALL, BALL)

    def test_shapes(self):
        ep = sample_episode(self.ds, EpisodeSpec(n_way=3, k_shot=2, n_query=4, seed=1))
        assert ep.support.shape == (3, 2, 4, 4)
        assert ep.query.shape == (3, 4, 4, 4)
        assert ep.class_ids.shape == (3,)
        np.testing.assert_array_equal(ep.support_origin, np.repeat(ep.class_ids, 2).reshape(3, 2))
        np.testing.assert_array_equal(ep.query_labels, np.repeat([0, 1, 2], 4))

    def test_deterministic_in_seed_and_index(self):
        spec = EpisodeSpec(n_way=3, k_shot=2, n_query=2, seed=9)
        a, b = sample_episode(self.ds, spec, index=4), sample_episode(self.ds, spec, index=4)
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.query, b.query)
        c = sample_episode(self.ds, spec, index=5)
        assert not np.array_equal(a.support, c.support)

    def test_support_query_disjoint(self):
        ep = sample_episode(self.ds, EpisodeSpec(n_way=3, k_shot=3, n_query=5, seed=2))
        for i in range(3):
            sup = {row.tobytes() for row in ep.support[i]}
            qry = {row.tobytes() for row in ep.query[i]}
            assert not sup & qry

    def test_samples_come_from_claimed_class(self):
        ep = sample_episode(self.ds, EpisodeSpec(n_way=3, k_shot=2, n_query=2, seed=3))
        by_bytes = {}
        for feat, label in zip(self.ds.features, self.ds.labels):
            by_bytes[feat.tobytes()] = label
        for i, cls in enumerate(ep.class_ids):
            for row in ep.support[i]:
                assert by_bytes[row.tobytes()] == cls
            for row in ep.query[i]:
                assert by_bytes[row.tobytes()] == cls

    def test_outliers_appended_and_marked(self):
        ep = sample_episode(self.ds, EpisodeSpec(n_way=3, k_shot=2, n_query=2, n_outliers=2, seed=4))
        assert ep.support.shape == (3, 4, 4, 4)
        assert ep.n_outliers == 2
        for i, cls in enumerate(ep.class_ids):
            np.testing.assert_array_equal(ep.support_origin[i, :2], cls)
            # outlier origins are real classes outside the episode
            for orig in ep.support_origin[i, 2:]:
                assert orig not in ep.class_ids
                assert orig in self.ds.classes

    def test_outlier_features_match_origin_class(self):
        ep = sample_episode(self.ds, EpisodeSpec(n_way=2, k_shot=2, n_query=2, n_outliers=1, seed=5))
        by_bytes = {f.tobytes(): l for f, l in zip(self.ds.features, self.ds.labels)}
        for i in range(2):
            assert by_bytes[ep.support[i, -1].tobytes()] == ep.support_origin[i, -1]

    def test_one_shot_duplication_exact_without_generative_info(self):
        ep = sample_episode(self.ds, EpisodeSpec(n_way=3, k_shot=1, n_query=2, seed=6))
        assert ep.support.shape[1] == 2
        for i in range(3):
            np.testing.assert_array_equal(ep.support[i, 0], ep.support[i, 1])

    def test_one_shot_episodes_survive_save_and_load(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dataset(self.ds, path)
        back = load_features(path)
        np.testing.assert_array_equal(back.features, self.ds.features)
        spec = EpisodeSpec(n_way=3, k_shot=1, n_query=2, n_outliers=1, seed=6)
        for index in range(5):
            a = sample_episode(self.ds, spec, index)
            b = sample_episode(back, spec, index)
            np.testing.assert_array_equal(a.support, b.support)
            np.testing.assert_array_equal(a.query, b.query)
            np.testing.assert_array_equal(a.support_origin, b.support_origin)

    def test_too_many_ways_rejected(self):
        with pytest.raises(InsufficientDataError):
            sample_episode(self.ds, EpisodeSpec(n_way=7, k_shot=1, n_query=1))

    def test_small_pool_rejected(self):
        with pytest.raises(InsufficientDataError):
            sample_episode(self.ds, EpisodeSpec(n_way=2, k_shot=6, n_query=5))

    def test_outliers_need_spare_classes(self):
        with pytest.raises(InsufficientDataError):
            sample_episode(self.ds, EpisodeSpec(n_way=6, k_shot=2, n_query=2, n_outliers=1))

    @pytest.mark.parametrize("n_outliers,digest", [
        (0, "65428e8618a204e5b58e592589eb35c6af8976cf86bd2b493a9f52ab51ecc720"),
        (2, "2fab5826ab5c539ecc1903ed9844b0a703dd5f65efa790a1186ccf0fa17136a7"),
    ])
    def test_episode_stream_frozen(self, n_outliers, digest):
        """50 default-sized episodes from 20 classes of 30 samples, each
        sample's one feature its index, hash to the values frozen from a
        version that formed the outlier pool for clean episodes too: that
        pool draws no random numbers, so skipping it changes no episode."""
        ds = Dataset(features=np.arange(600.0).reshape(600, 1, 1),
                     labels=np.repeat(np.arange(20), 30), dims=(1, 1, 1))
        spec = EpisodeSpec(n_way=5, k_shot=5, n_query=3, n_outliers=n_outliers, seed=11)
        h = hashlib.sha256()
        for index in range(50):
            ep = sample_episode(ds, spec, index)
            for a in (ep.support, ep.query, ep.class_ids, ep.support_origin):
                h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_spec_validation(self):
        with pytest.raises(ShapeError):
            EpisodeSpec(n_way=0)
        with pytest.raises(ShapeError):
            EpisodeSpec(n_outliers=-1)


class TestDatasetFile:
    def test_roundtrip_byte_exact(self, tmp_path):
        ds = generate_synthetic(SMALL, BALL)
        path = tmp_path / "d.bin"
        save_dataset(ds, path)
        back = load_features(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.dims == ds.dims
        # second save of the loaded dataset is byte-identical
        path2 = tmp_path / "d2.bin"
        save_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_readable(self, tmp_path):
        ds = generate_synthetic(SMALL, BALL)
        path = tmp_path / "d.bin"
        save_dataset(ds, path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header == {"format_version": FORMAT_VERSION, "tensors": [
            {"name": "features", "shape": [60, 2, 2, 4], "dtype": "<f4"},
            {"name": "labels", "shape": [60], "dtype": "<u4"},
        ]}

    def test_missing_newline(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(DataFormatError, match="header"):
            load_features(path)

    def test_wrong_header_keys(self, tmp_path):
        """A tensor file whose tensors are not `features` and `labels`."""
        path = tmp_path / "d.bin"
        save_tensors(path, {"features": np.zeros((1, 1, 1, 1), "<f4"), "lbl": np.zeros(1, "<u4")})
        with pytest.raises(DataFormatError, match=r"d.bin: not a dataset: 1 names missing "
                                                  r"\(first \['labels'\]\), 1 unexpected "
                                                  r"\(first \['lbl'\]\)"):
            load_features(path)

    @pytest.mark.parametrize("features,labels", [
        (np.zeros((2, 1, 1, 1), "<f8"), np.zeros(2, "<u4")),
        (np.zeros((2, 1, 1), "<f4"), np.zeros(2, "<u4")),
        (np.zeros((2, 1, 0, 1), "<f4"), np.zeros(2, "<u4")),
        (np.zeros((2, 1, 1, 1), "<f4"), np.zeros(2, "<f4")),
    ])
    def test_wrong_tensor_dtype_or_rank(self, tmp_path, features, labels):
        path = tmp_path / "d.bin"
        save_tensors(path, {"features": features, "labels": labels})
        with pytest.raises(DataFormatError, match="a dataset holds"):
            load_features(path)

    def test_truncated_body_reports_offset(self, tmp_path):
        ds = generate_synthetic(SMALL, BALL)
        path = tmp_path / "d.bin"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(DataFormatError, match=f"truncated at byte {len(raw) - 10}"):
            load_features(path)

    def test_labels_features_length_mismatch(self, tmp_path):
        path = tmp_path / "d.bin"
        save_tensors(path, {"features": np.zeros((3, 1, 1, 2), "<f4"),
                            "labels": np.zeros(2, "<u4")})
        with pytest.raises(DataFormatError, match=r"\(3, 1, 1, 2\) and <u4 \(2,\)"):
            load_features(path)
