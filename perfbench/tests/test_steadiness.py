"""Steadiness self-check of the benchmark.

    python3 -m pytest perfbench/tests -q        # same seed twice, every workload
    python3 perfbench/tests/test_steadiness.py WORKLOAD [SEEDS...]

The pytest check runs each workload twice on one seed, untraced and traced.
The two untraced runs must attempt and fail the same calls and agree on
every end-to-end metric within its bound in BENCHMARK.json, and the two
traced runs must report the same counts that later changes may cite.  Run as a script, it prints for each end-to-end
metric the spread of its values over the given seeds: the distance between
the first and third quartile as a share of the median, next to its bound.
Each run takes `run_seconds` plus set-up, so the pytest check takes a few
minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7
# Counts that later changes may cite: they must repeat exactly.
DETERMINISTIC = (
    "hhf_prover.backchain_steps",
    "hhf_prover.unify_calls",
    "lf_typecheck.derivation_nodes",
    "hhf_logic.translate_calls",
    "reconstruct.finalize_calls",
)


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_twice_agrees_within_bounds(workload: str):
    first, second = (run(workload, SEED, 0) for _ in range(2))
    # the same seed and run length make the same calls, so the same failures
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    a, b = values(first), values(second)
    assert set(a) == set(BOUNDS) == set(b)
    for name, bound in BOUNDS.items():
        assert abs(a[name] - b[name]) <= bound * min(a[name], b[name]), (name, a[name], b[name])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload: str):
    a, b = (values(run(workload, SEED, 1)) for _ in range(2))
    for name in DETERMINISTIC:
        assert a[name] == b[name], (name, a[name], b[name])


def spread(workload: str, seeds: list[int]) -> None:
    runs = [values(run(workload, seed, 0)) for seed in seeds]
    for name, bound in BOUNDS.items():
        xs = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(xs, n=4)
        print(f"{workload} {name}: median {median:.6g}, spread {(q3 - q1) / median:.4f}, bound {bound}")
        print("  " + " ".join(f"{x:.6g}" for x in xs))


if __name__ == "__main__":
    spread(sys.argv[1], [int(s) for s in sys.argv[2:]] or list(range(1, 11)))
