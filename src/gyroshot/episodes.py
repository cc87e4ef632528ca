"""Synthetic on-manifold datasets, episode sampling, and dataset file IO.

A dataset file is a tensor file (`fileio`) holding two tensors: `features`,
`<f4` of shape (S, H, W, C), the patch coordinates on the ball, and
`labels`, `<u4` of shape (S,), one class id per sample. Generated features
are quantized through float32 once at creation so a save -> load roundtrip
is bit-identical.

Synthetic family: each class owns a few tangent-space subcenters (modes)
around a class center; a sample picks one mode and adds per-patch Gaussian
noise, and the tangent points are pushed through the exponential map at the
origin and clipped. Multi-modal classes are deliberate: a single class
midpoint cannot represent them, while per-sample set distances can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, InsufficientDataError, ShapeError
from .fileio import check_names, load_tensors, save_tensors
from .geometry import BallConfig, clip_to_ball, exp_map


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the generated dataset family."""

    n_classes: int = 20
    samples_per_class: int = 30
    patch_dim: int = 8
    grid: tuple[int, int] = (3, 3)
    n_modes: int = 2
    class_spread: float = 0.6
    mode_spread: float = 1.0
    within_spread: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1 or self.samples_per_class < 1 or self.patch_dim < 1:
            raise ShapeError("synthetic config sizes must be positive")
        if self.grid[0] < 1 or self.grid[1] < 1 or self.n_modes < 1:
            raise ShapeError("grid sides and n_modes must be positive")
        for name in ("class_spread", "mode_spread", "within_spread"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Dataset:
    """In-memory sample store: features (S, HW, C) float64, integer labels,
    with `classes`, the sorted distinct labels, and `pools`, each class's
    sample indices in order, built once for the episode sampler."""

    features: np.ndarray
    labels: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        h, w, c = self.dims
        if self.features.ndim != 3 or self.features.shape[1:] != (h * w, c):
            raise ShapeError(
                f"features must be (S, {h * w}, {c}), got {self.features.shape}"
            )
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError("labels must be one integer per sample")
        self.classes, counts = np.unique(self.labels, return_counts=True)
        order = np.argsort(self.labels, kind="stable")
        self.pools = dict(zip(self.classes.tolist(), np.split(order, np.cumsum(counts)[:-1])))
        for a in (self.classes, *self.pools.values()):
            a.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def subset(self, classes) -> "Dataset":
        mask = np.isin(self.labels, classes)
        return Dataset(
            features=self.features[mask],
            labels=self.labels[mask],
            dims=self.dims,
        )


@dataclass(frozen=True)
class EpisodeSpec:
    """Shape of one few-shot task."""

    n_way: int = 5
    k_shot: int = 5
    n_query: int = 3
    n_outliers: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_way < 1 or self.k_shot < 1 or self.n_query < 1 or self.n_outliers < 0:
            raise ShapeError("episode sizes must be positive (outliers nonnegative)")
        if self.seed < 0:
            raise ShapeError("episode seed must be nonnegative")


@dataclass
class Episode:
    """Sampled task. Support row i carries label i; `class_ids[i]` is the
    original dataset label; `support_origin` keeps each support sample's true
    class, so injected outliers are the entries where it differs."""

    support: np.ndarray        # (N, K_eff, HW, C)
    query: np.ndarray          # (N, n_query, HW, C)
    class_ids: np.ndarray      # (N,)
    support_origin: np.ndarray  # (N, K_eff)
    n_outliers: int

    @property
    def query_labels(self) -> np.ndarray:
        n, nq = self.query.shape[:2]
        return np.repeat(np.arange(n), nq)


def generate_synthetic(cfg: SyntheticConfig, ball: BallConfig) -> Dataset:
    """Deterministic multi-modal tangent-Gaussian dataset on the ball."""
    rng = np.random.default_rng(cfg.seed)
    hw = cfg.grid[0] * cfg.grid[1]
    d = cfg.patch_dim
    centers = rng.normal(0.0, cfg.class_spread, (cfg.n_classes, d))
    modes = centers[:, None, :] + rng.normal(0.0, cfg.mode_spread, (cfg.n_classes, cfg.n_modes, d))
    feats = np.empty((cfg.n_classes * cfg.samples_per_class, hw, d))
    origin = np.zeros(d)
    for i in range(cfg.n_classes):
        pick = rng.integers(0, cfg.n_modes, cfg.samples_per_class)
        noise = rng.normal(0.0, cfg.within_spread, (cfg.samples_per_class, hw, d))
        tangent = modes[i, pick][:, None, :] + noise
        pts = clip_to_ball(exp_map(origin, tangent, ball), ball)
        feats[i * cfg.samples_per_class:(i + 1) * cfg.samples_per_class] = pts
    feats = feats.astype("<f4").astype(np.float64)
    labels = np.repeat(np.arange(cfg.n_classes), cfg.samples_per_class)
    return Dataset(features=feats, labels=labels, dims=(cfg.grid[0], cfg.grid[1], d))


def sample_episode(dataset: Dataset, spec: EpisodeSpec, index: int = 0) -> Episode:
    """Draw one episode; (spec.seed, index) fully determine it.

    Support and query samples are disjoint. Outliers are drawn from classes
    disjoint from the episode's classes and appended to each support row,
    mislabeled as that row's class. With k_shot == 1 the single support
    sample is duplicated exactly before any outliers are appended, so the
    episode depends only on the features and labels: a generated dataset and
    its saved-and-loaded copy give the same episodes.
    """
    rng = np.random.default_rng([spec.seed, index])
    classes = dataset.classes
    if spec.n_way > classes.size:
        raise InsufficientDataError(
            f"episode needs {spec.n_way} classes, dataset has {classes.size}"
        )
    chosen = rng.choice(classes, spec.n_way, replace=False)
    others = np.setdiff1d(classes, chosen) if spec.n_outliers > 0 else None
    if spec.n_outliers > 0 and others.size == 0:
        raise InsufficientDataError("outlier injection needs classes outside the episode")

    need = spec.k_shot + spec.n_query
    sup_rows, query_rows, origin_rows = [], [], []
    for cls in chosen:
        pool = dataset.pools[cls]
        if pool.size < need:
            raise InsufficientDataError(
                f"class {cls} has {pool.size} samples, episode needs {need}"
            )
        pick = rng.choice(pool, need, replace=False)
        sup = dataset.features[pick[: spec.k_shot]]
        origin = [cls] * spec.k_shot
        if spec.k_shot == 1:
            sup = np.concatenate([sup, sup], axis=0)
            origin.append(cls)
        if spec.n_outliers:
            out_feats, out_orig = _draw_outliers(dataset, others, spec.n_outliers, rng)
            sup = np.concatenate([sup, out_feats], axis=0)
            origin.extend(out_orig)
        sup_rows.append(sup)
        origin_rows.append(origin)
        query_rows.append(dataset.features[pick[spec.k_shot:]])

    return Episode(
        support=np.stack(sup_rows),
        query=np.stack(query_rows),
        class_ids=np.asarray(chosen, dtype=np.int64),
        support_origin=np.asarray(origin_rows, dtype=np.int64),
        n_outliers=spec.n_outliers,
    )


def _draw_outliers(dataset: Dataset, others: np.ndarray, n: int, rng):
    feats, orig = [], []
    for _ in range(n):
        cls = rng.choice(others)
        pool = dataset.pools[cls]
        feats.append(dataset.features[rng.choice(pool)])
        orig.append(cls)
    return np.stack(feats), orig


def save_dataset(dataset: Dataset, path) -> None:
    h, w, c = dataset.dims
    save_tensors(path, {
        "features": dataset.features.reshape(dataset.n_samples, h, w, c).astype("<f4"),
        "labels": dataset.labels.astype("<u4"),
    })


def load_features(path) -> Dataset:
    """Read a dataset file; the features are taken as stored, so a generated
    dataset and its saved-and-loaded copy hold the same bits."""
    tensors = load_tensors(path)
    check_names(tensors, ("features", "labels"), f"{path}: not a dataset")
    feats, labels = tensors["features"], tensors["labels"]
    if feats.dtype.str != "<f4" or feats.ndim != 4 or 0 in feats.shape[1:] \
            or labels.dtype.str != "<u4" or labels.shape != feats.shape[:1]:
        raise DataFormatError(
            f"{path}: a dataset holds <f4 features (S, H, W, C), H, W, C > 0, and <u4 labels "
            f"(S,); got {feats.dtype.str} {feats.shape} and {labels.dtype.str} {labels.shape}"
        )
    n, h, w, c = feats.shape
    return Dataset(features=feats.reshape(n, h * w, c), labels=labels, dims=(h, w, c))
