"""Atomic artifact writes: a failed write leaves the previous file intact."""

import errno
import importlib
from pathlib import Path

import numpy as np
import pytest

from gyroshot import cli, fileio
from gyroshot.episodes import SyntheticConfig, generate_synthetic, save_dataset
from gyroshot.fileio import atomic_write
from gyroshot.geometry import BallConfig
from gyroshot.netmods import save_checkpoint

tr = importlib.import_module("gyroshot.train")


class _DiskFull:
    """A file whose first write stores half of its data, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


WRITERS = {
    "save_checkpoint": lambda p: save_checkpoint(p, {"w": np.ones((2, 3))}),
    "save_dataset": lambda p: save_dataset(
        generate_synthetic(SyntheticConfig(n_classes=2, samples_per_class=2, patch_dim=2,
                                           grid=(1, 2), n_modes=1), BallConfig(c=1.0)), p),
    "write_metrics_csv": lambda p: tr.write_metrics_csv([(0, 0, 0.5, 1.0)], p),
    "write_robustness_csv": lambda p: tr.write_robustness_csv(
        [{"variant": "a", "n_outliers": 0, "accuracy": 0.5, "ci95": 0.1}], p),
    "cli_text": lambda p: cli._write_text(p, "report line\n"),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_failing_partway_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, name):
    path = tmp_path / "artifact"
    before = b"previous contents\n\x00\xff"
    path.write_bytes(before)
    opened = []

    def failing_open(file, mode, **kwargs):
        opened.append(Path(file))
        return _DiskFull(open(file, mode, **kwargs))

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[name](path)
    assert len(opened) == 1 and opened[0].parent == tmp_path
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_successful_write_replaces_the_file(tmp_path, name):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    WRITERS[name](path)
    assert path.read_bytes() not in (b"", b"old")
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_exception_in_block_discards_the_temp_file(tmp_path):
    path = tmp_path / "artifact"
    with pytest.raises(KeyError):
        with atomic_write(path, "wb") as f:
            f.write(b"partial")
            raise KeyError("caller failed")
    assert list(tmp_path.iterdir()) == []


def test_only_write_modes_accepted(tmp_path):
    with pytest.raises(ValueError):
        with atomic_write(tmp_path / "x", "a"):
            pass
