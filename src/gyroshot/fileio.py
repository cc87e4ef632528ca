"""Atomic artifact writes: a file is either the old version or the new one."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


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
