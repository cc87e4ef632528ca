"""Smoke run and exact-count self-test of the benchmark.

For each workload, one untraced run must emit every end-to-end metric of
BENCHMARK.json with its unit, and two traced runs with the same seed must
emit every per-layer metric and agree exactly on the counts.

    python3 perfbench/selftest.py [WORKLOAD ...]

Exits nonzero and names the first disagreement when a check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_SUFFIXES = (".tape_nodes", ".tape_mb")
EXACT_NAMES = {"autodiff.grad_mb", "autodiff.dead_params", "autodiff.live_node_frac",
               "autodiff.tapes_alive_max"}


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(result: dict, expected: list, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{label}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            sys.exit(f"{label}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"{label}: {m['name']} has unit {got[m['name']]['unit']}, "
                     f"BENCHMARK.json says {m['unit']}")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        sys.exit(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    for name in workloads:
        check_emitted(run(name, 0), spec["end_to_end"], f"{name} trace 0")
        first, second = run(name, 1), run(name, 1)
        for result in (first, second):
            check_emitted(result, spec["per_layer"], f"{name} trace 1")
        exact = [k for k in first["metrics"]
                 if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES]
        for key in exact:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                sys.exit(f"{name}: {key} differs between two traced runs: {a} != {b}")
        print(f"{name}: every metric emitted with its unit; "
              f"{len(exact)} exact counts repeat", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
