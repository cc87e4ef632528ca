"""Command-line interface.

Subcommands: gen, train, eval, robustness, verify. Shared flags:
--config PATH (flat JSON), --seed U64 (overrides the config seed),
--out DIR (artifact directory; the resolved config is echoed there as
config.json). The GYRO_LOG environment variable sets the log level.

Every handled failure prints "<ErrorClass>: <message>" on stderr and exits
nonzero.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .episodes import (
    SyntheticConfig,
    generate_synthetic,
    load_features,
    save_dataset,
)
from .errors import ConfigError, GyroshotError
from .fileio import atomic_write
from .geometry import BallConfig
from .netmods import ModelBundle, ModelConfig, load_checkpoint
from .train import (
    TrainConfig,
    evaluate,
    run_robustness,
    train,
    variant_spec,
    write_metrics_csv,
    write_robustness_csv,
)
from . import verify as verify_mod

log = logging.getLogger("gyroshot")

# key -> (kind, default); kinds: int, float, optfloat, str, optstr, intlist
_SCHEMA = {
    "c": ("optfloat", None),
    "eps": ("float", 1e-5),
    "n_classes": ("int", 20),
    "samples_per_class": ("int", 30),
    "patch_dim": ("int", 8),
    "grid_h": ("int", 3),
    "grid_w": ("int", 3),
    "n_modes": ("int", 2),
    "class_spread": ("float", 0.6),
    "mode_spread": ("float", 1.0),
    "within_spread": ("float", 0.5),
    "n_way": ("int", 5),
    "k_shot": ("int", 5),
    "n_query": ("int", 3),
    "n_outliers": ("int", 0),
    "feat_dim": ("int", 16),
    "enc_hidden": ("int", 32),
    "feature_scale": ("float", 0.8),
    "relation_filters": ("int", 64),
    "optimizer": ("str", "adam"),
    "learning_rate": ("float", 1e-3),
    "weight_decay": ("float", 5e-4),
    "epochs": ("int", 5),
    "tasks_per_epoch": ("int", 100),
    "temperature": ("float", 1.0),
    "variant": ("str", "app2s"),
    "val_fraction": ("float", 0.2),
    "val_tasks": ("int", 20),
    "eval_epochs": ("int", 10),
    "eval_tasks": ("int", 20),
    "outlier_grid": ("intlist", [0, 1, 2, 3, 4]),
    "dataset": ("optstr", None),
    "checkpoint": ("optstr", None),
    "resume": ("optstr", None),
    "seed": ("int", 0),
}


def _coerce(key: str, kind: str, value):
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        return float(value)
    if kind == "optfloat":
        if value is None:
            return None
        return _coerce(key, "float", value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if kind == "optstr":
        if value is None:
            return None
        return _coerce(key, "str", value)
    if kind == "intlist":
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"config key {key!r} must be a list of integers, got {value!r}")
        return list(value)
    raise AssertionError(kind)


class RunConfig:
    """Validated flat configuration with typed attribute access."""

    def __init__(self, values: dict):
        unknown = sorted(set(values) - set(_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        self._values = {}
        for key, (kind, default) in _SCHEMA.items():
            self._values[key] = _coerce(key, kind, values[key]) if key in values else default
        variant_spec(self.variant)

    def __getattr__(self, key):
        try:
            return self._values[key]
        except KeyError:
            raise AttributeError(key) from None

    def to_dict(self) -> dict:
        return dict(self._values)

    def override(self, **kw) -> "RunConfig":
        merged = self.to_dict()
        merged.update(kw)
        return RunConfig(merged)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        try:
            values = json.loads(text)
        except ValueError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(values, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls(values)

    # -- derived structures -------------------------------------------------

    def resolved_c(self) -> float:
        if self.c is not None:
            return self.c
        return 0.7 if self.k_shot >= 2 else 0.5

    def ball(self) -> BallConfig:
        return BallConfig(c=self.resolved_c(), eps=self.eps)

    def synth(self) -> SyntheticConfig:
        return SyntheticConfig(
            n_classes=self.n_classes,
            samples_per_class=self.samples_per_class,
            patch_dim=self.patch_dim,
            grid=(self.grid_h, self.grid_w),
            n_modes=self.n_modes,
            class_spread=self.class_spread,
            mode_spread=self.mode_spread,
            within_spread=self.within_spread,
            seed=self.seed,
        )

    def train_cfg(self) -> TrainConfig:
        return TrainConfig(
            ball=self.ball(),
            n_way=self.n_way,
            k_shot=self.k_shot,
            n_query=self.n_query,
            optimizer=self.optimizer,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            tasks_per_epoch=self.tasks_per_epoch,
            temperature=self.temperature,
            variant_name=self.variant,
            val_fraction=self.val_fraction,
            val_tasks=self.val_tasks,
            seed=self.seed,
        )

    def model_cfg(self, dims) -> ModelConfig:
        h, w, c = dims
        return ModelConfig(
            in_dim=c,
            grid=(h, w),
            feat_dim=self.feat_dim,
            enc_hidden=self.enc_hidden,
            feature_scale=self.feature_scale,
            relation_filters=self.relation_filters,
        )


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write(text)


def _echo_config(cfg: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "config.json", json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def _require(cfg: RunConfig, key: str) -> str:
    value = getattr(cfg, key)
    if value is None:
        raise ConfigError(f"this command needs the {key!r} config key")
    return value


def cmd_gen(cfg: RunConfig, out: Path) -> int:
    _echo_config(cfg, out)
    dataset = generate_synthetic(cfg.synth(), cfg.ball())
    path = out / "dataset.bin"
    save_dataset(dataset, path)
    print(f"wrote {dataset.n_samples} samples "
          f"({cfg.n_classes} classes, grid {cfg.grid_h}x{cfg.grid_w}, dim {cfg.patch_dim}) "
          f"to {path}")
    return 0


def cmd_train(cfg: RunConfig, out: Path) -> int:
    _echo_config(cfg, out)
    dataset = load_features(_require(cfg, "dataset"), cfg.ball())
    init_state = None
    if cfg.resume is not None:
        init_state = load_checkpoint(cfg.resume)
        log.info("resuming from %s", cfg.resume)
    result = train(dataset, cfg.train_cfg(), cfg.model_cfg(dataset.dims),
                   init_state=init_state)
    result.bundle.save(out / "checkpoint.bin")
    write_metrics_csv(result.metrics_rows, out / "metrics.csv")
    lines = [f"best validation accuracy: {result.best_val_accuracy:.4f}"]
    lines += [f"epoch {i}: val accuracy {a:.4f}" for i, a in enumerate(result.val_history)]
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    print(lines[0])
    return 0


def cmd_eval(cfg: RunConfig, out: Path) -> int:
    _echo_config(cfg, out)
    dataset = load_features(_require(cfg, "dataset"), cfg.ball())
    bundle = ModelBundle.load(_require(cfg, "checkpoint"), cfg.model_cfg(dataset.dims))
    report = evaluate(
        dataset, bundle, cfg.train_cfg(),
        n_epochs=cfg.eval_epochs, tasks_per_epoch=cfg.eval_tasks,
        n_outliers=cfg.n_outliers,
    )
    rows = [
        (i // cfg.eval_tasks, i % cfg.eval_tasks, report.per_task[i], report.per_task_loss[i])
        for i in range(report.n_tasks)
    ]
    write_metrics_csv(rows, out / "metrics.csv")
    line = (f"accuracy {report.mean_accuracy * 100:.2f}% +/- {report.ci95 * 100:.2f}% "
            f"over {report.n_tasks} tasks (outliers per class: {cfg.n_outliers})")
    _write_text(out / "report.txt", line + "\n")
    print(line)
    return 0


_ROBUSTNESS_VARIANTS = ("app2s", "prototype", "euclidean_ap2s")


def cmd_robustness(cfg: RunConfig, out: Path) -> int:
    _echo_config(cfg, out)
    dataset = load_features(_require(cfg, "dataset"), cfg.ball())
    variants = {}
    for name in _ROBUSTNESS_VARIANTS:
        vcfg = cfg.override(variant=name).train_cfg()
        log.info("training variant %s", name)
        result = train(dataset, vcfg, cfg.model_cfg(dataset.dims))
        result.bundle.save(out / f"checkpoint_{name}.bin")
        variants[name] = (result.bundle, vcfg)
    rows = run_robustness(
        dataset, variants, outlier_grid=tuple(cfg.outlier_grid),
        n_epochs=cfg.eval_epochs, tasks_per_epoch=cfg.eval_tasks,
    )
    write_robustness_csv(rows, out / "robustness.csv")
    lines = [
        f"{r['variant']:>15} outliers={r['n_outliers']} "
        f"accuracy {r['accuracy'] * 100:.2f}% +/- {r['ci95'] * 100:.2f}%"
        for r in rows
    ]
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    _echo_config(cfg, out)
    checks = verify_mod.run_all()
    lines = [c.line() for c in checks]
    print("\n".join(lines))
    n_fail = sum(not c.passed for c in checks)
    summary = f"{len(checks) - n_fail}/{len(checks)} properties hold"
    print(summary)
    _write_text(out / "report.txt", "\n".join(lines + [summary]) + "\n")
    return 1 if n_fail else 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "robustness": cmd_robustness,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gyroshot",
        description="Adaptive point-to-set metric learning on the Poincare ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen": "generate a synthetic dataset file",
        "train": "train on episodes from a dataset file",
        "eval": "evaluate a checkpoint on fresh episodes",
        "robustness": "train variants and sweep support outliers",
        "verify": "run the invariant suite",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, default=None, help="flat JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    args = parser.parse_args(argv)

    level = os.environ.get("GYRO_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig({})
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg = cfg.override(seed=args.seed)
        return _COMMANDS[args.command](cfg, args.out)
    except GyroshotError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"OSError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
