"""Artifact files: atomic writes, and the one tensor-file format that
datasets and checkpoints share.

A tensor file is one JSON header line,

    {"format_version": 3, "tensors": [{"name", "shape", "dtype"}, ...]}

then every tensor's raw little-endian bytes, contiguous and in header order,
so `head -1` shows what a file holds. `dtype` is `<f8`, `<f4` or `<u4`.
`load_tensors` is the only reader: a file it cannot fully account for
raises one `DataFormatError` naming the path.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataFormatError

#: tensor-file header version; 3 stores the relation net's first kernel as two halves
FORMAT_VERSION = 3
_DTYPES = ("<f8", "<f4", "<u4")


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new temp file beside `path` for writing ("w" or "wb").

    On a clean exit the temp file replaces `path` through `os.replace`; if
    the block raises, it is deleted and `path` is left as it was. The temp
    file sits in the same directory, so the replace never crosses a
    filesystem, and is created like `open` would create `path`, so the
    artifact's permissions follow the umask.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write mode must be 'w' or 'wb', got {mode!r}")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write `tensors` as one tensor file, atomically and in insertion order.
    Each array keeps its dtype (`<f8`, `<f4` or `<u4` up to byte order); a
    float tensor holding NaN or inf raises `DataFormatError` before a write."""
    arrays = [np.asarray(v) for v in tensors.values()]
    entries = [{"name": name, "shape": list(a.shape), "dtype": a.dtype.newbyteorder("<").str}
               for name, a in zip(tensors, arrays)]
    for e, a in zip(entries, arrays):
        if e["dtype"] not in _DTYPES:
            raise DataFormatError(f"tensor {e['name']} has unsupported dtype {e['dtype']}")
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise DataFormatError(f"tensor {e['name']} holds NaN or inf")
    with atomic_write(path, "wb") as f:
        f.write(json.dumps({"format_version": FORMAT_VERSION, "tensors": entries}).encode("utf-8")
                + b"\n")
        for e, a in zip(entries, arrays):
            f.write(np.ascontiguousarray(a, dtype=e["dtype"]).tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a tensor file into name -> array, in header order. Every way a
    file can fail to be exactly what its header says, and a float tensor
    holding NaN or inf, raises `DataFormatError`."""
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataFormatError(f"{path}: missing header line")

    def bad(why: str) -> DataFormatError:
        return DataFormatError(f"{path}: bad header ({why})")

    try:
        header = json.loads(raw[:nl].decode("utf-8"))
        version, entries = header.get("format_version"), header.get("tensors")
    except (ValueError, AttributeError, UnicodeDecodeError) as e:
        raise bad(str(e)) from e
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: format_version {version}, expected {FORMAT_VERSION}")
    if not isinstance(entries, list):
        raise bad(f"'tensors' is not a list: {entries!r}")
    out = {}
    offset = nl + 1
    for entry in entries:
        try:
            name, shape, dtype = entry["name"], entry["shape"], entry["dtype"]
        except (KeyError, TypeError) as e:
            raise bad(f"malformed tensor entry {entry!r}") from e
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise bad(f"tensor entry {entry} needs a string name and non-negative int dimensions")
        if name in out:
            raise bad(f"duplicate tensor name {name!r}")
        if dtype not in _DTYPES:
            raise DataFormatError(f"{path}: tensor {name} has unsupported dtype {dtype}")
        count, itemsize = math.prod(shape), np.dtype(dtype).itemsize
        # numpy refuses a shape whose nonzero sides span more bytes than intp holds
        if math.prod(n for n in shape if n) * itemsize > np.iinfo(np.intp).max:
            raise bad(f"tensor {name} has shape {shape}, too large for one array")
        if offset + count * itemsize > len(raw):
            raise DataFormatError(f"{path}: truncated at byte {len(raw)} reading {name}")
        tensor = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
        if tensor.dtype.kind == "f" and not np.isfinite(tensor).all():
            raise DataFormatError(f"{path}: tensor {name} holds NaN or inf")
        out[name] = tensor.copy()
        offset += count * itemsize
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes after tensor data")
    return out


def check_names(tensors, expected, what: str) -> None:
    """Raise `DataFormatError` unless `tensors` holds exactly the `expected`
    names: `what`, then the counts of missing and unexpected names, each with its first."""
    missing = sorted(set(expected) - set(tensors))
    extra = sorted(set(tensors) - set(expected))
    if missing or extra:
        raise DataFormatError(f"{what}: {len(missing)} names missing (first {missing[:1]}), "
                              f"{len(extra)} unexpected (first {extra[:1]})")
