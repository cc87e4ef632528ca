"""Command-line interface.

Subcommands: gen, train, eval, robustness, verify. Shared flags:
--config PATH (flat JSON), --seed U64 (overrides the config seed),
--out DIR (artifact directory; the resolved config is echoed there as
config.json). The GYRO_LOG environment variable sets the log level.

Every handled failure prints "<ErrorClass>: <message>" on stderr and exits
with status 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .episodes import (
    SyntheticConfig,
    generate_synthetic,
    load_features,
    save_dataset,
)
from .errors import ConfigError, GyroshotError
from .fileio import atomic_write, load_tensors
from .geometry import BallConfig
from .netmods import ModelBundle, ModelConfig
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

# Config fields that no key of their own sets: the extra keys below or the
# dataset build them.
_BUILT = {"grid", "ball", "variant_name", "in_dim"}

# Keys that are not plain config fields: key -> (kind, default); kinds: int,
# float, optfloat, str, optstr, intlist.
_EXTRA = {
    "c": ("optfloat", None),
    "eps": ("float", BallConfig.eps),
    "grid_h": ("int", SyntheticConfig.grid[0]),
    "grid_w": ("int", SyntheticConfig.grid[1]),
    "variant": ("str", TrainConfig.variant_name),
    "n_outliers": ("int", 0),
    "eval_epochs": ("int", 10),
    "eval_tasks": ("int", 20),
    "outlier_grid": ("intlist", [0, 1, 2, 3, 4]),
    "dataset": ("optstr", None),
    "checkpoint": ("optstr", None),
    "resume": ("optstr", None),
}


def _coerce(key: str, kind: str, value):
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
        return float(value)
    if kind.startswith("opt"):
        return None if value is None else _coerce(key, kind[3:], value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if kind == "intlist":
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"config key {key!r} must be a list of integers, got {value!r}")
        return list(value)
    raise AssertionError(kind)


def _derive_schema(configs, extra) -> dict:
    """key -> (kind, default): `extra`, plus each field of `configs` not in
    _BUILT with its type and default; a field of two configs is one key.
    Raises TypeError on a field without an int, float or str type and a
    default, or on one key declared with two kinds or defaults."""
    schema = dict(extra)
    for cls in configs:
        for f in fields(cls):
            if f.name in _BUILT:
                continue
            kind = getattr(f.type, "__name__", f.type)
            if kind not in ("int", "float", "str") or f.default is MISSING:
                raise TypeError(f"{cls.__name__}.{f.name} cannot be a config key: it needs "
                                f"an int, float or str type and a default, has {f.type!r}")
            entry = (kind, _coerce(f.name, kind, f.default))
            if schema.setdefault(f.name, entry) != entry:
                raise TypeError(f"config key {f.name!r} is declared as both "
                                f"{schema[f.name]} and {entry}")
    return schema


_SCHEMA = _derive_schema((SyntheticConfig, TrainConfig, ModelConfig), _EXTRA)


class RunConfig:
    """Validated flat configuration with typed attribute access."""

    def __init__(self, values: dict):
        unknown = sorted(set(values) - set(_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        self._values = {key: _coerce(key, kind, values.get(key, default))
                        for key, (kind, default) in _SCHEMA.items()}
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

    def _build(self, cls, **built):
        """`cls` from its fields' keys, with the fields that no key sets in `built`."""
        keyed = {f.name: self._values[f.name] for f in fields(cls) if f.name not in built}
        return cls(**keyed, **built)

    def synth(self) -> SyntheticConfig:
        return self._build(SyntheticConfig, grid=(self.grid_h, self.grid_w))

    def train_cfg(self) -> TrainConfig:
        return self._build(TrainConfig, ball=self.ball(), variant_name=self.variant)

    def model_cfg(self, dims) -> ModelConfig:
        h, w, c = dims
        return self._build(ModelConfig, in_dim=c, grid=(h, w))


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
    dataset = generate_synthetic(cfg.synth(), cfg.ball())
    path = out / "dataset.bin"
    save_dataset(dataset, path)
    print(f"wrote {dataset.n_samples} samples "
          f"({cfg.n_classes} classes, grid {cfg.grid_h}x{cfg.grid_w}, dim {cfg.patch_dim}) "
          f"to {path}")
    return 0


def cmd_train(cfg: RunConfig, out: Path) -> int:
    dataset = load_features(_require(cfg, "dataset"))
    init_state = None
    if cfg.resume is not None:
        init_state = load_tensors(cfg.resume)
        log.info("resuming from %s", cfg.resume)
    result = train(dataset, cfg.train_cfg(), cfg.model_cfg(dataset.dims),
                   init_state=init_state)
    result.bundle.save(out / "checkpoint.bin")
    write_metrics_csv(result.metrics_rows, out / "metrics.csv")
    kind = result.accuracy_kind
    lines = [f"best {kind} accuracy: {result.best_val_accuracy:.4f}"]
    lines += [f"epoch {i}: {kind} accuracy {a:.4f}" for i, a in enumerate(result.val_history)]
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    print(lines[0])
    return 0


def cmd_eval(cfg: RunConfig, out: Path) -> int:
    dataset = load_features(_require(cfg, "dataset"))
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
    dataset = load_features(_require(cfg, "dataset"))
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
    checks = verify_mod.run_all()
    lines = [c.line() for c in checks]
    print("\n".join(lines))
    n_fail = sum(not c.passed for c in checks)
    summary = f"{len(checks) - n_fail}/{len(checks)} properties hold"
    print(summary)
    _write_text(out / "report.txt", "\n".join(lines + [summary]) + "\n")
    return 1 if n_fail else 0


#: command name -> (handler, help text)
_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic dataset file"),
    "train": (cmd_train, "train on episodes from a dataset file"),
    "eval": (cmd_eval, "evaluate a checkpoint on fresh episodes"),
    "robustness": (cmd_robustness, "train variants and sweep support outliers"),
    "verify": (cmd_verify, "run the invariant suite"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gyroshot",
        description="Adaptive point-to-set metric learning on the Poincare ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
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
        _echo_config(cfg, args.out)
        handler, _ = _COMMANDS[args.command]
        return handler(cfg, args.out)
    except GyroshotError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"OSError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
