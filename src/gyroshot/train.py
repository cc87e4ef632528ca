"""Episodic training, evaluation, and the outlier-robustness study.

One episode's forward pass (full objective):

  1. encode support and query patches into the ball,
  2. mean query vector per query via the Einstein midpoint of its patches,
  3. per-sample set-to-set distances from the query map to every support map,
  4. project support patches to the tangent space at the mean query vector,
     refine them jointly with the signature generator, average per class into
     a signature, and score each (projected map, signature) pair with the
     relation net; softmax over the K samples of a class gives the weights,
  5. the adaptive class distance is the weighted mean of per-sample
     distances; class scores are softmax(-d / temperature) and the loss is
     the mean cross-entropy over queries.

Ablation variants: `TrainConfig.variant_name` names one of the six specs in
VARIANTS, which decide everything that differs between them. A module trains
exactly when its stage runs: without the relation net the weights are
uniform, without the signature refiner the signature is the mean of the
unrefined maps, and without the s2s net the per-sample distance is the plain
mean of the pairwise matrix. euclidean_ap2s is app2s with the geodesic in
step 3 replaced by 2||x - y||: steps 2 and 4 stay hyperbolic. prototype
replaces steps 2-5 with nearest Einstein-midpoint class prototypes under the
same encoder. Every variant runs in the configured ball, the one the
dataset is generated and loaded in.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import metrics, netmods
from .autodiff import Tape, val
from .episodes import Dataset, Episode, EpisodeSpec, sample_episode
from .errors import ConfigError, InsufficientDataError, TrainingDivergedError
from .fileio import atomic_write
from .geometry import BallConfig, einstein_midpoint, flat_distance, geodesic_distance
from .netmods import ModelBundle, ModelConfig

log = logging.getLogger("gyroshot")


@dataclass(frozen=True)
class VariantSpec:
    """What one ablation variant runs and trains.

    `modules` lists the modules that train, in the order their tape leaves
    are made; the signature refiner, relation net and s2s net run exactly
    when they are listed. `prototype` replaces the point-to-set steps with
    nearest class prototypes, and `flat` replaces the geodesic distance
    with 2||x - y||; the midpoint and tangent projection stay hyperbolic.
    """

    modules: tuple[str, ...]
    prototype: bool = False
    flat: bool = False


_ALL_MODULES = ("encoder", "relation", "signature", "s2s")

#: ablation variant name -> spec
VARIANTS = {
    "prototype": VariantSpec(("encoder",), prototype=True),
    "p2s_uniform": VariantSpec(("encoder", "s2s")),
    "p2s_relation": VariantSpec(("encoder", "relation", "s2s")),
    "euclidean_ap2s": VariantSpec(_ALL_MODULES, flat=True),
    "ap2s_mean_s2s": VariantSpec(("encoder", "relation", "signature")),
    "app2s": VariantSpec(_ALL_MODULES),
}


def variant_spec(name: str) -> VariantSpec:
    """The spec of a named variant; ConfigError for an unknown name."""
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}, choose from {sorted(VARIANTS)}")
    return VARIANTS[name]


@dataclass(frozen=True)
class TrainConfig:
    ball: BallConfig = field(default_factory=lambda: BallConfig(c=0.7))
    n_way: int = 5
    k_shot: int = 5
    n_query: int = 3
    learning_rate: float = 1e-3
    weight_decay: float = 5e-4
    epochs: int = 5
    tasks_per_epoch: int = 100
    temperature: float = 1.0
    variant_name: str = "app2s"
    val_fraction: float = 0.25
    val_tasks: int = 20
    seed: int = 0

    def __post_init__(self):
        variant_spec(self.variant_name)
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")
        if (self.learning_rate <= 0.0 or self.epochs < 1 or self.tasks_per_epoch < 1
                or self.val_tasks < 1):
            raise ConfigError("learning_rate, epochs, tasks_per_epoch, val_tasks must be positive")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigError("val_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def spec(self) -> VariantSpec:
        return variant_spec(self.variant_name)

    def variant(self, name: str) -> "TrainConfig":
        """This config with another ablation variant (see VARIANTS)."""
        return replace(self, variant_name=name)

    def episode_spec(self, n_outliers: int = 0, seed: int | None = None) -> EpisodeSpec:
        return EpisodeSpec(
            n_way=self.n_way,
            k_shot=self.k_shot,
            n_query=self.n_query,
            n_outliers=n_outliers,
            seed=self.seed if seed is None else seed,
        )


def trainable_modules(cfg: TrainConfig) -> tuple[str, ...]:
    """Modules that receive gradients under the config's variant."""
    return cfg.spec.modules


def episode_forward(episode: Episode, bundle: ModelBundle, cfg: TrainConfig, *,
                    params=None, train: bool = False, rng=None):
    """Run one episode; returns (loss, info).

    `params` maps module name to {param name: Var} for the taped path; with
    params=None everything runs on plain arrays. `info` carries per-query
    class distances, per-sample distances, weights, predictions, accuracy.
    """
    p = params or {}
    ball = cfg.ball
    spec = cfg.spec
    n, k_eff, hw, _ = episode.support.shape
    nq = episode.query.shape[1]
    n_query_total = n * nq
    feat = bundle.cfg.feat_dim
    sup = episode.support.reshape(n * k_eff, hw, -1)
    que = episode.query.reshape(n_query_total, hw, -1)
    enc_s = bundle.encoder(sup, ball, params=p.get("encoder"))
    enc_q = bundle.encoder(que, ball, params=p.get("encoder"))

    svals = None
    weights = None
    if spec.prototype:
        emb_q = einstein_midpoint(enc_q, ball)
        emb_s = einstein_midpoint(enc_s, ball)
        protos = einstein_midpoint(ad.reshape(emb_s, (n, k_eff, feat)), ball)
        q_e = ad.reshape(emb_q, (n_query_total, 1, feat))
        p_e = ad.reshape(protos, (1, n, feat))
        dists = geodesic_distance(q_e, p_e, ball)
    else:
        q4 = ad.reshape(enc_q, (n_query_total, 1, 1, hw, feat))
        s4 = ad.reshape(enc_s, (1, n, k_eff, hw, feat))
        if "relation" in spec.modules:
            qbar = einstein_midpoint(enc_q, ball)
            qb = ad.reshape(qbar, (n_query_total, 1, 1, feat))
            proj = netmods.project_support(s4, qb, ball)  # (NQ, N, K, HW, C)
            refined = proj
            if "signature" in spec.modules:
                flat = ad.reshape(proj, (n_query_total, n * k_eff, hw, feat))
                refined = bundle.signature.refine(flat, params=p.get("signature"))
                refined = ad.reshape(refined, (n_query_total, n, k_eff, hw, feat))
            weights = netmods.relation_scores(
                proj, ad.mean(refined, axis=-3), bundle.relation,
                train=train, rng=rng, params=p.get("relation"),
            )
        else:
            weights = np.full((n_query_total, n, k_eff), 1.0 / k_eff)
        D = metrics.pairwise_matrix(q4, s4, ball, flat_distance if spec.flat else None)
        if "s2s" in spec.modules:
            svals = metrics.s2s_learned(D, bundle.s2s, train=train, rng=rng, params=p.get("s2s"))
        else:
            svals = ad.mean(D, axis=(-2, -1))
        dists = metrics.adaptive_combine(svals, weights)

    logits = dists * (-1.0 / cfg.temperature)
    logp = ad.log_softmax(logits, axis=-1)
    labels = episode.query_labels
    onehot = np.eye(n)[labels]
    loss = ad.sum(logp * onehot) * (-1.0 / n_query_total)

    d_val = np.asarray(val(dists))
    preds = np.argmin(d_val, axis=-1)
    info = {
        "distances": d_val,
        "s2s": None if svals is None else np.asarray(val(svals)),
        "weights": None if weights is None else np.asarray(val(weights)),
        "predictions": preds,
        "labels": labels,
        "accuracy": float(np.mean(preds == labels)),
        "loss": float(val(loss)),
    }
    return loss, info


class Adam:
    def __init__(self, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict, scale: float = 1.0) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            g = grads[name] + self.weight_decay * p
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p -= scale * self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class TrainResult:
    bundle: ModelBundle
    metrics_rows: list          # (epoch, task, accuracy, loss)
    best_val_accuracy: float
    val_history: list
    accuracy_kind: str          # "validation", or "training" when val_fraction is 0


def split_classes(dataset: Dataset, cfg: TrainConfig):
    """Deterministic class split: validation gets the last `val_fraction` of
    class ids, and nothing when `val_fraction` is 0. InsufficientDataError
    when a positive fraction leaves either side too few classes for an
    episode."""
    classes = dataset.classes
    if cfg.val_fraction == 0.0:
        return dataset, None
    n_val = int(round(cfg.val_fraction * classes.size))
    if n_val < cfg.n_way or classes.size - n_val < cfg.n_way:
        raise InsufficientDataError(
            f"val_fraction {cfg.val_fraction:g} of {classes.size} classes leaves {n_val} "
            f"validation and {classes.size - n_val} training classes, and {cfg.n_way}-way "
            f"episodes need {cfg.n_way} on each side; val_fraction 0 trains without validation"
        )
    return dataset.subset(classes[:-n_val]), dataset.subset(classes[-n_val:])


def train(dataset: Dataset, cfg: TrainConfig, model_cfg: ModelConfig | None = None,
          on_episode=None, init_state: dict | None = None) -> TrainResult:
    """Episodic training; returns the best model (by `accuracy_kind`) and metrics rows.

    `on_episode(info)` is invoked after every training episode (audit hook).
    Every epoch is validated on the same `val_tasks` episodes, and none when
    `val_fraction` is 0. `init_state` warm-starts the model from a checkpoint
    state dict; the optimizer state always starts fresh, so a resumed run is
    a deterministic function of (checkpoint, config, seed) rather than a
    bit-level splice of the original run. A non-finite loss, or a non-finite
    gradient of any parameter (named in the message), raises
    TrainingDivergedError before the optimizer step.
    """
    h, w, c = dataset.dims
    if model_cfg is None:
        model_cfg = ModelConfig(in_dim=c, grid=(h, w))
    train_ds, val_ds = split_classes(dataset, cfg)
    if train_ds.classes.size < cfg.n_way:
        raise InsufficientDataError(
            f"{train_ds.classes.size} training classes cannot form {cfg.n_way}-way episodes"
        )
    bundle = ModelBundle(model_cfg, seed=cfg.seed)
    if init_state is not None:
        bundle.load_state(init_state)
    optimizer = Adam(cfg.learning_rate, cfg.weight_decay)
    module_names = trainable_modules(cfg)
    train_spec = cfg.episode_spec()
    decay_at = math.ceil(0.75 * cfg.epochs)

    rows = []
    val_history = []
    best_acc = -1.0
    best_state = bundle.copy_state()
    step = 0
    kind = "training" if val_ds is None else "validation"
    for epoch in range(cfg.epochs):
        scale = 0.1 if epoch >= decay_at else 1.0
        for task in range(cfg.tasks_per_epoch):
            episode = sample_episode(train_ds, train_spec, index=step)
            tape = Tape()
            modules = bundle.modules()
            pvars = {
                name: {k: tape.var(v) for k, v in modules[name].params.items()}
                for name in module_names
            }
            drop_rng = np.random.default_rng([cfg.seed, 7, step])
            loss, info = episode_forward(
                episode, bundle, cfg, params=pvars, train=True, rng=drop_rng
            )
            if not np.isfinite(info["loss"]):
                raise TrainingDivergedError(
                    f"loss {info['loss']} at epoch {epoch} task {task} "
                    f"(c={cfg.ball.c}, lr={cfg.learning_rate})"
                )
            ad.backward(loss)
            flat_params = {
                f"{m}.{k}": modules[m].params[k] for m in module_names for k in pvars[m]
            }
            flat_grads = {
                f"{m}.{k}": pvars[m][k].grad for m in module_names for k in pvars[m]
            }
            for name, g in flat_grads.items():
                if not np.all(np.isfinite(g)):
                    raise TrainingDivergedError(
                        f"non-finite gradient for {name} at epoch {epoch} task {task} "
                        f"(loss {info['loss']}, c={cfg.ball.c}, lr={cfg.learning_rate})"
                    )
            optimizer.step(flat_params, flat_grads, scale)
            rows.append((epoch, task, info["accuracy"], info["loss"]))
            if on_episode is not None:
                on_episode(info)
            # break the Var<->Tape cycle and drop the root, so the step's
            # arrays are freed now rather than by a later cyclic GC pass
            tape.nodes.clear()
            del loss
            step += 1

        if val_ds is not None:
            epoch_acc = evaluate(val_ds, bundle, cfg, n_epochs=1, tasks_per_epoch=cfg.val_tasks,
                                 seed=cfg.seed + 2**32).mean_accuracy
        else:
            recent = [r[2] for r in rows[-cfg.tasks_per_epoch:]]
            epoch_acc = float(np.mean(recent))
        val_history.append(epoch_acc)
        log.info("epoch %d: %s accuracy %.4f", epoch, kind, epoch_acc)
        if epoch_acc > best_acc:
            best_acc = epoch_acc
            best_state = bundle.copy_state()

    bundle.load_state(best_state)
    return TrainResult(
        bundle=bundle,
        metrics_rows=rows,
        best_val_accuracy=best_acc,
        val_history=val_history,
        accuracy_kind=kind,
    )


@dataclass
class EvalReport:
    mean_accuracy: float
    ci95: float
    n_tasks: int
    per_task: np.ndarray
    mean_loss: float
    per_task_loss: np.ndarray


def summarize(per_task) -> tuple[float, float]:
    """Mean and 95% CI half-width 1.96 * std / sqrt(n) (sample std)."""
    per_task = np.asarray(per_task, dtype=np.float64)
    n = per_task.size
    if n < 2:
        return float(per_task.mean()) if n else 0.0, 0.0
    return float(per_task.mean()), float(1.96 * per_task.std(ddof=1) / np.sqrt(n))


def evaluate(dataset: Dataset, bundle: ModelBundle, cfg: TrainConfig, *,
             n_epochs: int = 100, tasks_per_epoch: int = 100,
             n_outliers: int = 0, seed: int | None = None) -> EvalReport:
    """Accuracy over n_epochs * tasks_per_epoch fresh episodes, with CI."""
    if n_epochs < 1 or tasks_per_epoch < 1:
        raise ConfigError(
            f"n_epochs and tasks_per_epoch must be positive, got {n_epochs} and {tasks_per_epoch}"
        )
    spec = cfg.episode_spec(
        n_outliers=n_outliers, seed=cfg.seed + 2**33 if seed is None else seed
    )
    accs = np.empty(n_epochs * tasks_per_epoch)
    losses = np.empty_like(accs)
    for i in range(accs.size):
        episode = sample_episode(dataset, spec, index=i)
        _, info = episode_forward(episode, bundle, cfg)
        accs[i] = info["accuracy"]
        losses[i] = info["loss"]
    mean, ci = summarize(accs)
    return EvalReport(
        mean_accuracy=mean,
        ci95=ci,
        n_tasks=accs.size,
        per_task=accs,
        mean_loss=float(losses.mean()),
        per_task_loss=losses,
    )


def run_robustness(dataset: Dataset, variants: dict, *, outlier_grid=(0, 1, 2, 3, 4),
                   n_epochs: int = 5, tasks_per_epoch: int = 20,
                   seed: int = 10_000) -> list[dict]:
    """Evaluate trained variants under growing support corruption.

    `variants` maps a name to (bundle, train_cfg). Every variant sees the
    same episodes at a given outlier level, since all rows share one episode
    stream seed. Rows at different outlier levels are not paired: each
    class's outliers come from the stream that then picks the next class's
    samples, so adding outliers also changes the clean part of an episode.
    """
    if not variants:
        raise ConfigError("robustness study needs at least one model variant")
    rows = []
    for name, (bundle, vcfg) in variants.items():
        for level in outlier_grid:
            report = evaluate(
                dataset, bundle, vcfg,
                n_epochs=n_epochs, tasks_per_epoch=tasks_per_epoch,
                n_outliers=int(level), seed=seed,
            )
            rows.append({
                "variant": name,
                "n_outliers": int(level),
                "accuracy": report.mean_accuracy,
                "ci95": report.ci95,
            })
            log.info("robustness %s outliers=%d acc=%.4f", name, level, report.mean_accuracy)
    return rows


def write_metrics_csv(rows, path) -> None:
    """CSV rows (epoch, task, accuracy, loss) with the fixed header."""
    with atomic_write(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "task", "accuracy", "loss"])
        for epoch, task, acc, loss in rows:
            writer.writerow([epoch, task, repr(float(acc)), repr(float(loss))])


def write_robustness_csv(rows, path) -> None:
    with atomic_write(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["variant", "n_outliers", "accuracy", "ci95"])
        for r in rows:
            writer.writerow([r["variant"], r["n_outliers"],
                             repr(float(r["accuracy"])), repr(float(r["ci95"]))])
