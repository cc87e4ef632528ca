"""Command-line interface tests (in-process through cli.main)."""

import json
import logging
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from gyroshot.cli import RunConfig, _derive_schema, main
from gyroshot.episodes import SyntheticConfig
from gyroshot.errors import ConfigError
from gyroshot.netmods import CHECKPOINT_FORMAT, ModelBundle, ModelConfig, load_checkpoint
from gyroshot.train import TrainConfig

TINY = {
    "c": 0.5,
    "n_classes": 6,
    "samples_per_class": 12,
    "patch_dim": 4,
    "grid_h": 2,
    "grid_w": 2,
    "n_way": 3,
    "k_shot": 2,
    "n_query": 2,
    "feat_dim": 4,
    "enc_hidden": 8,
    "relation_filters": 4,
    "epochs": 1,
    "tasks_per_epoch": 3,
    "val_fraction": 0.0,
    "eval_epochs": 1,
    "eval_tasks": 3,
    "outlier_grid": [0, 1],
}


# keys that no built config carries: only a command reads them
COMMAND_ONLY = {"n_outliers", "eval_epochs", "eval_tasks", "outlier_grid",
                "dataset", "checkpoint", "resume"}
WIRED_KEYS = sorted(set(RunConfig({}).to_dict()) - COMMAND_ONLY)


def non_default(key):
    """A valid value for `key` other than its default."""
    special = {"c": 0.3, "variant": "prototype"}
    if key in special:
        return special[key]
    default = RunConfig({}).to_dict()[key]
    return default + 2 if isinstance(default, int) else default / 2


def landed(cfg: RunConfig) -> dict:
    """key -> the values the built configs hold for it."""
    synth, train, model = cfg.synth(), cfg.train_cfg(), cfg.model_cfg((3, 3, 8))
    spots = {}
    for built in (synth, train, model):
        for f in fields(built):
            spots.setdefault(f.name, []).append(getattr(built, f.name))
    spots.update(c=[train.ball.c], eps=[train.ball.eps], grid_h=[synth.grid[0]],
                 grid_w=[synth.grid[1]], variant=[train.variant_name])
    return spots


def write_cfg(tmp_path, fname="cfg.json", **extra):
    cfg = dict(TINY)
    cfg.update(extra)
    path = tmp_path / fname
    path.write_text(json.dumps(cfg))
    return path


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig({})
        assert cfg.n_way == 5 and cfg.k_shot == 5
        assert cfg.c is None and cfg.resolved_c() == 0.7

    def test_defaults_equal_library_defaults(self):
        cfg = RunConfig({})
        assert cfg.train_cfg() == TrainConfig()
        assert cfg.model_cfg((3, 3, 8)) == ModelConfig(in_dim=8, grid=(3, 3))
        assert cfg.synth() == SyntheticConfig()

    def test_low_shot_default_curvature(self):
        assert RunConfig({"k_shot": 1}).resolved_c() == 0.5
        assert RunConfig({"k_shot": 1, "c": 0.3}).resolved_c() == 0.3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig({"learning_rte": 0.1})

    def test_type_coercion_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            RunConfig({"epochs": 2.5})
        with pytest.raises(ConfigError, match="string"):
            RunConfig({"variant": 1})
        with pytest.raises(ConfigError, match="number"):
            RunConfig({"temperature": "hot"})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                RunConfig({"class_spread": bad})
        with pytest.raises(ConfigError, match="list of integers"):
            RunConfig({"outlier_grid": [0, "1"]})

    def test_variant_validated(self):
        assert RunConfig({}).variant == "app2s"
        assert RunConfig({"variant": "p2s_uniform"}).train_cfg().variant_name == "p2s_uniform"
        with pytest.raises(ConfigError, match="unknown variant"):
            RunConfig({"variant": "ap2s"})

    @pytest.mark.parametrize("key,value", [
        ("use_fphi", False), ("use_fomega", False), ("use_fzeta", False),
        ("euclidean_mode", True), ("objective", "prototype"), ("optimizer", "sgd"),
    ])
    def test_removed_switch_keys_rejected(self, key, value, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig({key: value})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"ConfigError: unknown config keys: [{key!r}]\n"

    def test_int_accepted_for_float(self):
        assert RunConfig({"temperature": 2}).temperature == 2.0

    def test_override_returns_new(self):
        a = RunConfig({})
        b = a.override(seed=9)
        assert a.seed == 0 and b.seed == 9

    def test_derived_structures(self):
        cfg = RunConfig(TINY)
        assert cfg.ball().c == 0.5
        assert cfg.train_cfg().n_way == 3
        assert cfg.synth().grid == (2, 2)
        assert cfg.model_cfg((2, 2, 4)).hw == 4

    @pytest.mark.parametrize("key", WIRED_KEYS)
    def test_key_reaches_built_config(self, key):
        value = non_default(key)
        assert value != RunConfig({}).to_dict()[key]
        spots = landed(RunConfig({key: value})).get(key)
        assert spots and all(v == value for v in spots), (key, spots)

    def test_schema_derivation_fails_loudly(self):
        @dataclass
        class A:
            seed: int = 0

        @dataclass
        class B:
            seed: int = 1

        @dataclass
        class Grid:
            size: tuple = (1, 1)

        @dataclass
        class NoDefault:
            depth: int

        assert _derive_schema((A, A), {}) == {"seed": ("int", 0)}
        with pytest.raises(TypeError, match="'seed'"):
            _derive_schema((A, B), {})
        with pytest.raises(TypeError, match="'seed'"):
            _derive_schema((A,), {"seed": ("float", 0.0)})
        with pytest.raises(TypeError, match="Grid.size"):
            _derive_schema((Grid,), {})
        with pytest.raises(TypeError, match="NoDefault.depth"):
            _derive_schema((NoDefault,), {})

    def test_readme_config_table_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = readme.split("### Config keys", 1)[1].splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            rows.append(line.split("|")[2])
        keys = {k for cell in rows for k in re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell))}
        schema = RunConfig({}).to_dict()
        assert keys == set(schema)
        numeric = [m for cell in rows
                   for m in re.findall(r"`(\w+)` \(([-+.\deE]+)\)", cell)]
        assert len(numeric) >= 25
        for key, printed in numeric:
            assert float(printed) == schema[key], key

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.from_file(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.from_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_file(arr)


class TestPipeline:
    def test_gen_train_eval_flow(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            dataset=str(tmp_path / "gen/dataset.bin"),
            checkpoint=str(tmp_path / "train/checkpoint.bin"),
        )
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 0
        assert (tmp_path / "gen/dataset.bin").exists()
        echoed = json.loads((tmp_path / "gen/config.json").read_text())
        assert echoed["n_classes"] == 6 and echoed["seed"] == 0

        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "train")]) == 0
        ckpt = load_checkpoint(tmp_path / "train/checkpoint.bin")
        assert "encoder.w1" in ckpt
        lines = (tmp_path / "train/metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,task,accuracy,loss"
        assert len(lines) == 1 + TINY["epochs"] * TINY["tasks_per_epoch"]

        assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "eval")]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "+/-" in out
        report = (tmp_path / "eval/report.txt").read_text()
        # the reported mean must be the mean of the per-task CSV column
        eval_rows = (tmp_path / "eval/metrics.csv").read_text().splitlines()[1:]
        accs = [float(r.split(",")[2]) for r in eval_rows]
        assert report.startswith(f"accuracy {np.mean(accs) * 100:.2f}%")
        assert f"over {len(accs)} tasks" in report

    def test_quick_start_train_reports_validation_accuracy(self, tmp_path, capsys, caplog):
        """The README's quick-start config keeps the default val_fraction
        0.25 of 20 classes, which holds out 5 classes for 5-way validation,
        so training selects on validation accuracy, and the log, stdout and
        report say so."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        quick = json.loads(re.search(r"cat > config.json <<'EOF'\n(.*?)\nEOF", readme, re.S)[1])
        quick.update(dataset=str(tmp_path / "gen/dataset.bin"))
        cfg_path = tmp_path / "quick.json"
        cfg_path.write_text(json.dumps(quick))
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "gen")])
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="gyroshot"):
            assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
        report = (tmp_path / "t/report.txt").read_text().splitlines()
        assert capsys.readouterr().out.startswith("best validation accuracy: ")
        assert report[0].startswith("best validation accuracy: ")
        assert len(report) == 1 + quick["epochs"]
        assert all(line.startswith(f"epoch {i}: validation accuracy ")
                   for i, line in enumerate(report[1:]))
        assert "epoch 2: validation accuracy" in caplog.text
        assert "training accuracy" not in caplog.text

    def test_validated_train_names_validation_accuracy(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, dataset=str(tmp_path / "g/dataset.bin"), val_fraction=0.5)
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
        assert capsys.readouterr().out.startswith("best validation accuracy: ")
        report = (tmp_path / "t/report.txt").read_text().splitlines()
        assert report[1].startswith("epoch 0: validation accuracy ")

    def test_train_deterministic_across_runs(self, tmp_path):
        cfg_path = write_cfg(tmp_path, dataset=str(tmp_path / "g/dataset.bin"))
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/checkpoint.bin").read_bytes() == (
            tmp_path / "b/checkpoint.bin"
        ).read_bytes()
        assert (tmp_path / "a/metrics.csv").read_bytes() == (
            tmp_path / "b/metrics.csv"
        ).read_bytes()

    def test_gen_same_seed_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g1")])
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g2")])
        assert (tmp_path / "g1/dataset.bin").read_bytes() == (
            tmp_path / "g2/dataset.bin"
        ).read_bytes()

    def test_resume_continues_deterministically(self, tmp_path):
        cfg_path = write_cfg(tmp_path, dataset=str(tmp_path / "g/dataset.bin"))
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "base")])
        resume_path = write_cfg(
            tmp_path, fname="resume.json",
            dataset=str(tmp_path / "g/dataset.bin"),
            resume=str(tmp_path / "base/checkpoint.bin"),
        )
        main(["train", "--config", str(resume_path), "--out", str(tmp_path / "r1")])
        main(["train", "--config", str(resume_path), "--out", str(tmp_path / "r2")])
        r1 = (tmp_path / "r1/checkpoint.bin").read_bytes()
        assert r1 == (tmp_path / "r2/checkpoint.bin").read_bytes()
        assert (tmp_path / "r1/metrics.csv").read_bytes() == (
            tmp_path / "r2/metrics.csv"
        ).read_bytes()
        # the resumed run trains on from the base weights, not in place
        assert r1 != (tmp_path / "base/checkpoint.bin").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_cfg(tmp_path, dataset=str(tmp_path / "g/dataset.bin"))
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        main(["train", "--config", str(cfg_path), "--seed", "5", "--out", str(tmp_path / "s5")])
        main(["train", "--config", str(cfg_path), "--seed", "6", "--out", str(tmp_path / "s6")])
        echoed = json.loads((tmp_path / "s5/config.json").read_text())
        assert echoed["seed"] == 5
        assert (tmp_path / "s5/checkpoint.bin").read_bytes() != (
            tmp_path / "s6/checkpoint.bin"
        ).read_bytes()

    def test_robustness_csv(self, tmp_path):
        cfg_path = write_cfg(tmp_path, dataset=str(tmp_path / "g/dataset.bin"))
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        assert main(["robustness", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
        lines = (tmp_path / "r/robustness.csv").read_text().splitlines()
        assert lines[0] == "variant,n_outliers,accuracy,ci95"
        # 3 variants x 2 outlier levels
        assert len(lines) == 1 + 3 * 2
        for name in ("app2s", "prototype", "euclidean_ap2s"):
            assert (tmp_path / f"r/checkpoint_{name}.bin").exists()


class TestErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"learning_rte": 0.1}')
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_missing_dataset_key(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "dataset" in err

    def test_missing_dataset_file(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, dataset=str(tmp_path / "absent.bin"))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "OSError" in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, capsys):
        assert main(["gen", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def _config_error(self, tmp_path, capsys, command, error="ConfigError", **extra):
        """stderr of a `command` run on a good dataset and a config with
        `extra`, which must exit 1 with one `error` line."""
        data = str(tmp_path / "g/dataset.bin")
        main(["gen", "--config", str(write_cfg(tmp_path, dataset=data)),
              "--out", str(tmp_path / "g")])
        cfg_path = write_cfg(tmp_path, fname="bad.json", dataset=data, **extra)
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{error}:")
        return err

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_seed_in_config_file(self, tmp_path, capsys, command):
        assert "seed" in self._config_error(tmp_path, capsys, command, seed=-1)

    @pytest.mark.parametrize("command,key", [
        ("gen", "class_spread"), ("gen", "mode_spread"), ("gen", "within_spread"),
        ("train", "weight_decay"),
    ])
    def test_negative_value_in_config_file(self, tmp_path, capsys, command, key):
        assert key in self._config_error(tmp_path, capsys, command, **{key: -1})

    def test_unformable_validation_split(self, tmp_path, capsys):
        """0.3 of 6 classes holds out 2, too few for a 3-way episode."""
        err = self._config_error(tmp_path, capsys, "train", error="InsufficientDataError",
                                 val_fraction=0.3)
        assert "val_fraction 0.3 of 6 classes leaves 2 validation and 4 training" in err
        assert "val_fraction 0 trains without validation" in err

    def test_zero_classes_rejected(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, n_classes=0)
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "ShapeError" in capsys.readouterr().err

    def test_missing_resume_checkpoint(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            dataset=str(tmp_path / "g/dataset.bin"),
            resume=str(tmp_path / "absent.bin"),
        )
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "Error" in capsys.readouterr().err

    def test_corrupt_checkpoint_reported(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            dataset=str(tmp_path / "g/dataset.bin"),
            checkpoint=str(tmp_path / "g/dataset.bin"),  # wrong file on purpose
        )
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "DataFormatError" in capsys.readouterr().err

    def _eval_error(self, tmp_path, capsys, checkpoint=None, **extra):
        """stderr of an `eval` run that must exit 1 with one error line."""
        cfg_path = write_cfg(tmp_path, dataset=str(tmp_path / "g/dataset.bin"),
                             checkpoint=str(tmp_path / "ckpt.bin"), **extra)
        main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "g")])
        if checkpoint is None:
            ModelBundle(RunConfig(TINY).model_cfg((2, 2, 4))).save(tmp_path / "ckpt.bin")
        else:
            (tmp_path / "ckpt.bin").write_bytes(checkpoint)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        return err

    def test_malformed_checkpoint_header_reported(self, tmp_path, capsys):
        err = self._eval_error(tmp_path, capsys,
                               checkpoint=json.dumps({"format_version": CHECKPOINT_FORMAT,
                                                     "tensors": 5}).encode() + b"\n")
        assert err.startswith("DataFormatError:") and "header" in err

    @pytest.mark.parametrize("key,value", [
        ("eval_tasks", 0), ("eval_tasks", -3), ("eval_epochs", 0), ("val_tasks", 0),
    ])
    def test_nonpositive_counts_rejected(self, tmp_path, capsys, key, value):
        err = self._eval_error(tmp_path, capsys, **{key: value})
        assert err.startswith("ConfigError:") and "must be positive" in err


class TestVerifyCommand:
    def test_verify_passes_and_writes_report(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path / "v")]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        report = (tmp_path / "v/report.txt").read_text()
        assert "properties hold" in report
        assert report.count("[PASS]") == 15
