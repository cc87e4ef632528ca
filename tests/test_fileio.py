"""Artifact files: a failed write leaves the previous file intact, and the
tensor-file reader turns every bad file into one `DataFormatError`."""

import errno
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from gyroshot import cli, fileio
from gyroshot.episodes import SyntheticConfig, generate_synthetic, save_dataset
from gyroshot.errors import DataFormatError
from gyroshot.fileio import FORMAT_VERSION, atomic_write, load_tensors, save_tensors
from gyroshot.geometry import BallConfig

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
    "save_tensors": lambda p: save_tensors(p, {"w": np.ones((2, 3))}),
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


def test_unsupported_dtype_not_written(tmp_path):
    with pytest.raises(DataFormatError, match="tensor i has unsupported dtype <i8"):
        save_tensors(tmp_path / "t.bin", {"i": np.arange(3, dtype="<i8")})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [[2**32, 2**32], [2**62, 4], [0, 2**70], [0, 2**60]],
                         ids=["2^32x2^32", "2^62x4", "0x2^70", "0x2^60"])
def test_oversized_shape_rejected(tmp_path, shape):
    """A shape whose byte count overflows int64 (or numpy's array limit,
    even with a zero side) is a bad header, not a numpy ValueError."""
    path = tmp_path / "t.bin"
    header = {"format_version": FORMAT_VERSION,
              "tensors": [{"name": "big", "shape": shape, "dtype": "<f8"}]}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="bad header .tensor big has shape"):
        load_tensors(path)


@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_float_tensor_rejected(tmp_path, dtype, bad, write_unchecked_tensors):
    """`save_tensors` refuses the tensor before it opens a file, and
    `load_tensors` refuses a file that holds one."""
    path = tmp_path / "t.bin"
    weights = np.ones(4, dtype)
    weights[2] = bad
    tensors = {"ok": np.ones(2), "weights": weights}
    with pytest.raises(DataFormatError, match="tensor weights holds NaN or inf"):
        save_tensors(path, tensors)
    assert list(tmp_path.iterdir()) == []
    write_unchecked_tensors(path, tensors)
    with pytest.raises(DataFormatError, match="tensor weights holds NaN or inf"):
        load_tensors(path)
