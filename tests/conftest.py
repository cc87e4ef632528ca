"""Shared fixtures: verdict recording for the acceptance gate, and a
tensor-file writer without the writer's checks.

Acceptance tests report one [PASS]/[FAIL] line per criterion. The lines are
echoed in the terminal summary so they survive pytest's output capture.
"""

import json
from pathlib import Path

import pytest

from gyroshot.fileio import FORMAT_VERSION

_VERDICTS: list[str] = []


@pytest.fixture
def verdict():
    """Record a single acceptance verdict line."""

    def record(passed: bool, number: int, detail: str) -> None:
        tag = "PASS" if passed else "FAIL"
        line = f"[{tag}] criterion {number}: {detail}"
        _VERDICTS.append(line)
        print(line)

    return record


@pytest.fixture
def write_unchecked_tensors():
    """Write a tensor file in `save_tensors`' layout without its checks, so
    that a test can hand the reader what the writer refuses to write."""

    def write(path, tensors):
        entries = [{"name": k, "shape": list(a.shape), "dtype": a.dtype.str}
                   for k, a in tensors.items()]
        header = json.dumps({"format_version": FORMAT_VERSION, "tensors": entries}).encode()
        Path(path).write_bytes(header + b"\n" + b"".join(a.tobytes() for a in tensors.values()))

    return write


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _VERDICTS:
            terminalreporter.line(line)
