"""The committed benchmark records are complete.

Every `BENCH_*.json` at the repository root backs a performance claim with
parent/change pairs. Each must parse, name only workloads that
`BENCHMARK.json` declares, give for each of them every end-to-end metric
it declares with the median and quartiles of both sides, and show that no
operation failed on either side.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_is_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads = record["workloads"]
    assert workloads, f"{path.name} has no workloads"
    assert set(workloads) <= WORKLOADS, f"{path.name} names an undeclared workload"
    for name, workload in workloads.items():
        assert workload["failed_operations"] == {"parent": 0, "change": 0}, name
        missing = sorted(set(END_TO_END) - set(workload["metrics"]))
        assert missing == [], f"{path.name} {name} lacks {missing}"
        for metric in END_TO_END:
            for side in ("parent", "change"):
                stats = workload["metrics"][metric][side]
                assert all(isinstance(stats[k], (int, float)) for k in ("median", "q1", "q3")), \
                    f"{path.name} {name} {metric} {side}: {stats}"
                assert stats["q1"] <= stats["median"] <= stats["q3"], \
                    f"{path.name} {name} {metric} {side}: {stats}"
