"""Synthetic on-manifold datasets, episode sampling, and dataset file IO.

Dataset file layout (little endian throughout):

    line 1:  JSON header {"n_samples", "H", "W", "C", "n_classes"} + "\\n"
    body:    n_samples records of [uint32 class id][H*W*C float32 features]

Features are patch coordinates on the ball, row-major over (H, W, C).
Generated features are quantized through float32 once at creation so a
save -> load roundtrip is bit-identical.

Synthetic family: each class owns a few tangent-space subcenters (modes)
around a class center; a sample picks one mode and adds per-patch Gaussian
noise, and the tangent points are pushed through the exponential map at the
origin and clipped. Multi-modal classes are deliberate: a single class
midpoint cannot represent them, while per-sample set distances can.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, InsufficientDataError, ShapeError
from .fileio import atomic_write
from .geometry import BallConfig, clip_to_ball, exp_map

_HEADER_KEYS = {"n_samples", "H", "W", "C", "n_classes"}


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
    """In-memory sample store: features (S, HW, C) float64, integer labels."""

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

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

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
    others = np.setdiff1d(classes, chosen)
    if spec.n_outliers > 0 and others.size == 0:
        raise InsufficientDataError("outlier injection needs classes outside the episode")

    need = spec.k_shot + spec.n_query
    sup_rows, query_rows, origin_rows = [], [], []
    for cls in chosen:
        pool = np.flatnonzero(dataset.labels == cls)
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
        pool = np.flatnonzero(dataset.labels == cls)
        feats.append(dataset.features[rng.choice(pool)])
        orig.append(cls)
    return np.stack(feats), orig


def save_dataset(dataset: Dataset, path) -> None:
    h, w, c = dataset.dims
    header = {
        "n_samples": int(dataset.n_samples),
        "H": int(h),
        "W": int(w),
        "C": int(c),
        "n_classes": int(dataset.labels.max()) + 1 if dataset.n_samples else 0,
    }
    rec = np.dtype([("label", "<u4"), ("feat", "<f4", (h * w * c,))])
    body = np.empty(dataset.n_samples, dtype=rec)
    body["label"] = dataset.labels
    body["feat"] = dataset.features.reshape(dataset.n_samples, -1)
    with atomic_write(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        f.write(body.tobytes())


def load_features(path, cfg: BallConfig | None = None) -> Dataset:
    """Read a dataset file; with a BallConfig the features are clipped into
    that ball on load (otherwise taken as stored)."""
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataFormatError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise DataFormatError(f"{path}: header is not valid JSON ({e})") from e
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise DataFormatError(
            f"{path}: header keys {sorted(header) if isinstance(header, dict) else header} "
            f"!= {sorted(_HEADER_KEYS)}"
        )
    try:
        n, h, w, c = (int(header[k]) for k in ("n_samples", "H", "W", "C"))
        n_classes = int(header["n_classes"])
    except (TypeError, ValueError) as e:
        raise DataFormatError(f"{path}: non-integer header field ({e})") from e
    if min(n, h, w, c, n_classes) < 0 or min(h, w, c) == 0:
        raise DataFormatError(f"{path}: header sizes out of range")

    body = raw[nl + 1:]
    stride = 4 + 4 * h * w * c
    if len(body) != n * stride:
        got_records, leftover = divmod(len(body), stride)
        raise DataFormatError(
            f"{path}: body holds {got_records} records + {leftover} bytes "
            f"(byte offset {nl + 1 + got_records * stride}), header says {n}"
        )
    rec = np.dtype([("label", "<u4"), ("feat", "<f4", (h * w * c,))])
    records = np.frombuffer(body, dtype=rec)
    labels = records["label"].astype(np.int64)
    if n and labels.max() >= n_classes:
        raise DataFormatError(
            f"{path}: label {labels.max()} out of range for {n_classes} classes"
        )
    feats = records["feat"].astype(np.float64).reshape(n, h * w, c)
    if cfg is not None:
        feats = clip_to_ball(feats, cfg)
    return Dataset(features=feats, labels=labels, dims=(h, w, c))
