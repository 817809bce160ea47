"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Two runs of one seed must agree exactly on every simulated-time metric and
every per-layer count, for a development seed and for the held-out seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import HELD_OUT_SEED, OUT_DIR, WORKLOAD_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())
# Per-layer metrics read from the wall clock; every other one is exact.
WALL_CLOCK = ("self_s", "ops_per_wall_s", "trace_overhead_frac", "trace.unattributed_frac",
              "trace.wall_s")


def _traced_run(workload: str, seed_args: list[str]) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1", *seed_args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    line = json.loads(completed.stdout.strip().split("\n")[-1])
    assert line["correct"]
    seed = HELD_OUT_SEED if "--held-out" in seed_args else int(seed_args[1])
    stored = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace1.json").read_text())
    exact = {
        name: metric["value"]
        for name, metric in line["metrics"].items()
        if not name.endswith(WALL_CLOCK)
    }
    return exact, {"simulated": stored["simulated"], "counts": stored["counts"]}


@pytest.mark.parametrize("seed_args", [["--seed", "7"], ["--held-out"]], ids=["seed7", "held-out"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_simulated_results(workload, seed_args):
    first = _traced_run(workload, seed_args)
    second = _traced_run(workload, seed_args)
    assert first == second


def test_spec_lists_the_code_workloads():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert sorted(listed) == sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


def test_predictions_name_known_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in DESIGN["predictions"]:
        assert set(row["layer_metrics"]) <= per_layer, row
        assert set(row["moves"]) <= per_layer | end_to_end, row
        assert set(row["on"]) | set(row["bypass"]) <= set(WORKLOADS), row
