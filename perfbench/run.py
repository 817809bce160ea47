"""Benchmark entry point: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload write-oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics; the two runs' simulated results must be identical.
``--held-out`` replaces ``--seed`` with the held-out seed, kept for
checking a claim on a seed it was not developed on. ``--workload all``
runs every workload BENCHMARK.json lists, each in a fresh process.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is the JSON result; the lines before it are a readable
report. Results, with the CPU count, Python version and a digest of the
``RaftConfig()`` defaults, are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
HELD_OUT_SEED = 424_242
# Blocks of builds timed per run for setup_s (the median of the blocks'
# fastest builds is reported).
SETUP_BLOCKS = 10
# The traced run fails if spans leave more than this share of its wall
# time unattributed to a layer.
UNATTRIBUTED_TOLERANCE = 0.05
WORKLOAD_NAMES = ("write-oltp", "read-mostly", "failover-churn", "check-sweep")


def environment() -> dict:
    from repro.raft.config import RaftConfig

    defaults = json.dumps(dataclasses.asdict(RaftConfig()), sort_keys=True)
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "raft_config_digest": hashlib.sha256(defaults.encode()).hexdigest()[:16],
    }


def end_to_end(workload, seed: int, seconds: int) -> tuple[dict, object]:
    from perfbench.workloads import median

    result = workload.run(seed, seconds, setup_blocks=SETUP_BLOCKS)
    sim = result.sim
    values = {
        "write_p50_ms": sim["write_p50_ms"],
        "op_p50_ms": sim["op_p50_ms"],
        "xregion_bytes_per_op": sim["xregion_bytes_per_op"],
        "ops_per_wall_s": result.completed / result.wall_s,
        "setup_s": median(result.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, result


def per_layer(workload, seed: int, seconds: int) -> tuple[dict, object]:
    from perfbench.spans import LAYERS, SpanRecorder

    untraced = workload.run(seed, seconds)
    untraced_wall = untraced.wall_s
    untraced_rate = untraced.completed / untraced.wall_s
    untraced_sim, untraced_counts = untraced.sim, untraced.counts
    del untraced
    gc.collect()
    recorder = SpanRecorder()
    result = workload.run(seed, seconds, recorder=recorder)
    if result.sim != untraced_sim or result.counts != untraced_counts:
        result.errors.append("traced run's simulated results differ from the untraced run's")

    sim, counts, ops = result.sim, Counter(result.counts), max(1, result.completed)
    calls, selfs = recorder.calls, recorder.self_s
    layer = recorder.layer_self_s()
    wall = result.wall_s
    unattributed = (wall - recorder.root_s) / wall
    if abs(sum(layer.values()) - recorder.root_s) > 1e-6 * max(1.0, wall):
        result.errors.append("span self times do not add up to the root spans")
    if unattributed > UNATTRIBUTED_TOLERANCE:
        result.errors.append(f"{unattributed:.1%} of traced wall time is outside any span")

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "ops_per_wall_s": untraced_rate,
        "sim.events_per_op": counts["events"] / ops,
        "sim.timers_per_op": counts["timers"] / ops,
        "sim.cancelled_frac": 1.0 - ratio(counts["events"] + counts["armed"], counts["timers"]),
        "sim.loop.self_s": selfs["sim.loop"] + selfs["dispatch.sim"],
        "sim.net.sends_per_op": calls["sim.net.send"] / ops,
        "sim.net.send.self_s": selfs["sim.net.send"],
        "plugin.handle_message.self_s": selfs["plugin.handle_message"],
        "plugin.storage.append.self_s": selfs["plugin.storage.append"],
        "plugin.storage.appends_per_op": calls["plugin.storage.append"] / ops,
        "raft.handle_message.self_s": selfs["raft.handle_message"],
        "raft.handle_message.calls_per_op": calls["raft.handle_message"] / ops,
        "raft.entries_per_append": ratio(counts["append_entries"], counts["appends"]),
        "raft.rounds_per_op": counts["rounds"] / ops,
        "raft.log_cache.hit_rate": ratio(
            counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]
        ),
        "raft.elections": counts["elections"],
        "raft.elections_no_winner": counts["elections"] - counts["elections_won"],
        "raft.detect_s": sim.get("detect_s", 0.0),
        "raft.elect_s": sim.get("elect_s", 0.0),
        "raft.transfer_s": sim.get("transfer_s", 0.0),
        "mysql.codec.decode.calls_per_op": calls["mysql.codec.decode"] / ops,
        "mysql.codec.decode.self_s": selfs["mysql.codec.decode"],
        "mysql.codec.encode.self_s": selfs["mysql.codec.encode"],
        "mysql.engine.commit.self_s": selfs["mysql.engine.commit"],
        "mysql.engine.commits_per_op": calls["mysql.engine.commit"] / ops,
        "mysql.promote_s": sim.get("promote_s", 0.0),
        "mysql.apply_lag_peak": sim.get("apply_lag_peak", 0),
        "mysql.read.log_entries_per_read": ratio(
            max(0, counts["proposals"] - sim["write_samples"]), sim["read_samples"]
        ),
        "snapshot.bytes_sent": counts["snapshot_bytes"],
        "snapshot.chunks_sent": counts["snapshot_chunks"],
        "snapshot.catchup_s": sim.get("catchup_s", 0.0),
        "snapshot.build.self_s": selfs["snapshot.build"],
        "snapshot.install.self_s": selfs["snapshot.install"],
        "check.monitors.self_s": selfs["check.monitors"],
        "check.linearizability.self_s": selfs["check.linearizability"],
        "check.history_ops": sim.get("history_ops", 0),
        "workload.driver.self_s": layer["workload"],
        "trace_overhead_frac": wall / untraced_wall - 1.0,
        "trace.unattributed_frac": unattributed,
        "trace.wall_s": wall,
        "trace.spans": sum(calls.values()),
        "write_p99_ms": sim["write_p99_ms"],
        "read_p50_ms": sim["read_p50_ms"],
        "read_p99_ms": sim["read_p99_ms"],
        "write_samples": sim["write_samples"],
        "read_samples": sim["read_samples"],
        "failover_unavail_s": sim.get("failover_unavail_s", 0.0),
        "promotion_unavail_ms": sim.get("promotion_unavail_ms", 0.0),
        "client.remainder_s": sim.get("client_remainder_s", 0.0),
        "failed_op_frac": sim["failed_op_frac"],
    }
    for name in LAYERS:
        if name != "workload":
            values[f"{name}.self_s"] = layer[name]
    OUT_DIR.mkdir(exist_ok=True)
    recorder.dump(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    return values, result


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    seed = HELD_OUT_SEED if args.held_out else args.seed
    measure = per_layer if args.trace else end_to_end
    values, result = measure(workload, seed, args.seconds)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")

    env = environment()
    print(f"workload {workload.name}  seed {seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"cpus {env['cpus']}  python {env['python']}  "
          f"RaftConfig() digest {env['raft_config_digest']}")
    print(f"measured wall {result.wall_s:.3f} s  ops completed {result.completed}  "
          f"attempted {result.attempted}  failed {result.failed}")
    sim = result.sim
    writes, reads = sim["write_samples"], sim["read_samples"]
    samples = {
        "write_p50_ms": writes, "write_p99_ms": writes, "op_p50_ms": writes + reads,
        "read_p50_ms": reads, "read_p99_ms": reads,
        "failover_unavail_s": sim.get("failover_samples", 0),
        "promotion_unavail_ms": sim.get("promotion_samples", 0),
        "failed_op_frac": sim["due_ops"],
    }
    shown = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    if not args.trace:
        # End-to-end metrics that BENCHMARK.json lists among the per-layer
        # ones: throughput (too noisy on a shared host for a bound) and the
        # workload-specific ones.
        shown["ops_per_wall_s"] = (values["ops_per_wall_s"], "1/s")
        for name, unit in (("write_p99_ms", "ms"), ("read_p50_ms", "ms"), ("read_p99_ms", "ms"),
                           ("failover_unavail_s", "s"), ("promotion_unavail_ms", "ms")):
            shown[name] = (sim.get(name, 0.0), unit)
        shown["failed_op_frac"] = (sim["failed_op_frac"], "ratio")
    for name, (value, unit) in shown.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<36} {value:>14.6g} {unit}{count}")
    for error in result.errors:
        print(f"GATE FAILED: {error}")

    correct = not result.errors
    line = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stored = {**line, "workload": workload.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "params": workload.params(args.seconds),
              "simulated": result.sim, "counts": result.counts, "errors": result.errors}
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(stored, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process (so peak RSS and set-up
    time do not leak between workloads)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--held-out"] if args.held_out else [])
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                   check=False)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = {"correct": False, "exit_code": completed.returncode}
    correct = all(r.get("correct") for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process and some program paths
        # iterate sets of names, so a seed's simulated schedule would differ
        # between processes. Pin it, as the repository's CI does.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED} instead of --seed")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
