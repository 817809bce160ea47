"""The benchmark's four workloads.

Three run the paper topology (``paper_topology()``: 6 regions, 20
members) on the default ``RaftConfig()`` and ``paper_network_spec()``,
driven open-loop by :mod:`perfbench.driver`. The fourth sweeps the model
checker's single-ring scenarios. How much simulated work a run does is a
fixed function of ``--seconds`` (calibrated so a run measures about that
long on a 2-CPU machine), so one seed always gives the same simulated run.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter, sleep

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.cluster.replicaset import paper_network_spec
from repro.errors import ReproError
from repro.raft.config import RaftConfig
from repro.sim.coro import spawn
from repro.workload.generators import production_workload, sysbench_workload
from repro.workload.profiles import production_timing, sysbench_timing

from perfbench.driver import (
    TABLE,
    ClientProfile,
    OpenLoopDriver,
    Schedule,
    cluster_gates,
    history_gates,
    percentile,
)
from perfbench.spans import SpanRecorder, installed

# Simulated seconds the ring runs after the measured phase so replicas
# apply everything before the gates compare them.
SETTLE_S = 3.0
# Simulated seconds the driver waits for outstanding requests after load.
DRAIN_LIMIT_S = 30.0
# A p99 is reported only from at least this many samples.
P99_MIN_SAMPLES = 1000
# setup_s: builds per block (the fastest counts) and the pause after each.
SETUP_BLOCK = 8
SETUP_PAUSE_S = 0.02


@dataclass
class PhaseResult:
    """One measured phase. ``sim`` and ``counts`` are exact for a seed."""

    wall_s: float
    completed: int
    attempted: int
    failed: int
    sim: dict
    counts: dict
    errors: list
    setup_s: list = field(default_factory=list)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timed_setup(blocks: int, build) -> list[float]:
    """The fastest build's wall seconds in each of ``blocks`` blocks of
    ``SETUP_BLOCK`` builds (the builds are discarded); setup_s is their
    median.

    On a shared host each CPU switches between two speeds about 1.5x apart
    several times a second, so one build's time mostly says which speed it
    landed on. The builds take turns on the CPUs of the affinity mask with a
    short pause between them, and each block keeps its fastest build, as
    ``timeit`` keeps the best of its repeats. The collector is paused while
    a build is timed, as ``timeit`` does, so a collection of an earlier
    build's garbage is not charged to it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    best = []
    try:
        for _ in range(blocks):
            times = []
            for rep in range(SETUP_BLOCK):
                os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
                gc.collect()
                gc.disable()
                try:
                    started = perf_counter()
                    build()
                    times.append(perf_counter() - started)
                finally:
                    gc.enable()
                sleep(SETUP_PAUSE_S)
            best.append(min(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return best


def program_counters(cluster, services) -> Counter:
    """Totals of the counters the program exposes, over ``services``
    (which may include members a reimage has since replaced)."""
    out: Counter = Counter()
    loop = cluster.loop.stats()
    out["events"] += loop["events_processed"]
    out["timers"] += loop["timers_scheduled"]
    out["armed"] += loop["armed_timers"]
    out["xregion_bytes"] += cluster.net.cross_region_bytes()
    for service in services:
        node = service.node
        out["elections"] += node.metrics["elections_started"]
        out["elections_won"] += node.metrics["elections_won"]
        out["rounds"] += node.metrics["replication_rounds"]
        out["proposals"] += node.metrics["proposals"]
        sizes = node.append_sizes
        if sizes.count:
            out["appends"] += sizes.count
            out["append_entries"] += round(sizes.mean() * sizes.count)
        cache = node.cache.stats()
        out["cache_hits"] += cache["hits"]
        out["cache_misses"] += cache["misses"]
        shipper = node.snapshots.shipper if node.snapshots is not None else None
        if shipper is not None:
            ship = shipper.stats()
            out["snapshot_bytes"] += ship["bytes_sent"]
            out["snapshot_chunks"] += ship["chunks_sent"]
    return out


def latency_metrics(write_lat: list, read_lat: list) -> dict:
    """Simulated client latencies (seconds in, ms out) with sample counts."""
    all_lat = write_lat + read_lat
    return {
        "write_p50_ms": percentile(write_lat, 50) * 1e3,
        "write_p99_ms": percentile(write_lat, 99) * 1e3 if len(write_lat) >= P99_MIN_SAMPLES else 0.0,
        "read_p50_ms": percentile(read_lat, 50) * 1e3,
        "read_p99_ms": percentile(read_lat, 99) * 1e3 if len(read_lat) >= P99_MIN_SAMPLES else 0.0,
        "op_p50_ms": percentile(all_lat, 50) * 1e3,
        "write_samples": len(write_lat),
        "read_samples": len(read_lat),
    }


class _ControlTimeline:
    """Simulated control-plane instants, observed through
    ``tracer.subscribe`` (which schedules nothing)."""

    KINDS = frozenset({
        "raft.election_timeout", "raft.leader_elected", "myraft.promoted",
    })

    def __init__(self, tracer) -> None:
        self.records: list[tuple[float, str, dict]] = []
        tracer.subscribe(self._observe)

    def _observe(self, record) -> None:
        if record.kind in self.KINDS:
            self.records.append((record.time, record.kind, record.fields))

    def first(self, kind: str, after: float, **match) -> float | None:
        for time, record_kind, fields in self.records:
            if record_kind == kind and time >= after and all(
                fields.get(k) == v for k, v in match.items()
            ):
                return time
        return None


@dataclass
class _Trial:
    """One cluster's measured phase."""

    wall_s: float
    ops: list
    counts: dict
    errors: list
    apply_lag_peak: int
    state: dict
    timeline: _ControlTimeline


class ClusterWorkload:
    """Open-loop load on the paper topology: one cluster per run."""

    def __init__(self, name: str, profile: ClientProfile, timing,
                 load_s_per_wall_s: float, preload: bool = False) -> None:
        self.name = name
        self.profile = profile
        self.timing = timing
        self.load_s_per_wall_s = load_s_per_wall_s
        # Write every key of the key space before measuring, so each read
        # returns a row the gates can check.
        self.preload = preload

    def params(self, seconds: int) -> dict:
        return {
            "topology": "paper_topology()",
            "raft_config": "RaftConfig()",
            "network": "paper_network_spec()",
            "timing": self.timing.__name__,
            "load_sim_s": self.load_s(seconds),
            "trials": len(self.trial_seeds(0, seconds)),
            "preload_keys": self.profile.spec.key_space if self.preload else 0,
            **self.profile.describe(),
        }

    def load_s(self, seconds: int) -> float:
        """Simulated seconds of load per trial."""
        return round(seconds * self.load_s_per_wall_s, 3)

    def trial_seeds(self, seed: int, seconds: int) -> list[int]:
        return [seed]

    def build(self, seed: int) -> MyRaftReplicaset:
        cluster = MyRaftReplicaset(
            paper_topology(),
            seed=seed,
            raft_config=RaftConfig(),
            network_spec=paper_network_spec(),
            timing=self.timing(myraft=True),
        )
        cluster.bootstrap()
        return cluster

    def script(self, cluster, services: list, seed: int, state: dict):
        """Fault script run alongside the load (a sim coroutine), or None."""
        return None

    def run(self, seed: int, seconds: int, setup_blocks: int = 0,
            recorder: SpanRecorder | None = None) -> PhaseResult:
        setup_times = _timed_setup(setup_blocks, lambda: self.build(seed))
        trials = [self._trial(s, seconds, recorder) for s in self.trial_seeds(seed, seconds)]
        ops = [op for trial in trials for op in trial.ops]
        done = [op for op in ops if op.acked is not None]
        counts: Counter = Counter()
        for trial in trials:
            counts.update(trial.counts)
        sim = latency_metrics(
            [op.latency for op in done if op.kind == "write"],
            [op.latency for op in done if op.kind == "read"],
        )
        sim["xregion_bytes_per_op"] = counts["xregion_bytes"] / max(1, len(done))
        sim["failed_op_frac"] = (len(ops) - len(done)) / max(1, len(ops))
        sim["due_ops"] = len(ops)
        sim["apply_lag_peak"] = max(trial.apply_lag_peak for trial in trials)
        sim.update(self.fault_metrics(trials))
        errors = [error for trial in trials for error in trial.errors]
        if sim.get("client_remainder_s", 0.0) < 0:
            errors.append("failover sub-timings exceed the client-observed gap")
        return PhaseResult(
            wall_s=sum(trial.wall_s for trial in trials),
            completed=len(done),
            attempted=len(ops),
            failed=len(ops) - len(done),
            sim=sim,
            counts=dict(counts),
            errors=errors,
            setup_s=setup_times,
        )

    def _trial(self, seed: int, seconds: int, recorder: SpanRecorder | None) -> _Trial:
        cluster = self.build(seed)
        loop = cluster.loop
        driver = OpenLoopDriver(cluster)
        schedule = Schedule(self.profile, self.name, seed)
        if self.preload:
            spec = self.profile.spec
            driver.start(schedule.preload(spec.key_space, spec.rows_per_txn), loop.now)
            driver.run_until_drained(DRAIN_LIMIT_S)
            cluster.run(SETTLE_S)  # replicate and apply the preload before measuring
        timeline = _ControlTimeline(cluster.tracer)
        services = list(cluster.services.values())
        before = program_counters(cluster, services)
        ops = schedule.ops(self.load_s(seconds))
        state: dict = {"errors": []}
        gc.collect()

        driver.recorder = recorder
        driver.sample_lag = True
        with installed(recorder):
            started = perf_counter()
            driver.start(ops, loop.now)
            script = self.script(cluster, services, seed, state)
            process = spawn(loop, script, label="fault-script") if script is not None else None
            cluster.run(self.load_s(seconds))
            deadline = loop.now + DRAIN_LIMIT_S
            while (driver.outstanding or (process is not None and not process.done())) \
                    and loop.now < deadline:
                cluster.run(0.05)
            wall_s = perf_counter() - started
        driver.recorder = None
        driver.sample_lag = False
        after = program_counters(cluster, services)

        errors = state["errors"]
        if process is not None and not process.done():
            errors.append("fault script did not finish")
        elif process is not None and process.failed():
            errors.append(f"fault script failed: {process.exception()!r}")
        # Gates run after timing stops, once replicas have applied everything.
        cluster.run(SETTLE_S)
        errors += cluster_gates(cluster)
        primary = cluster.primary_service()
        if primary is None:
            errors.append("no primary at the end of the run")
        else:
            table = primary.mysql.engine.table(TABLE)
            final = {}
            for op in driver.ops:
                for key in op.rows or ():
                    row = table.get(key)
                    final[key] = row["v"] if row is not None else None
            errors += history_gates(driver.ops, final)
        return _Trial(
            wall_s=wall_s,
            ops=ops,
            counts={key: after[key] - before[key] for key in after},
            errors=[f"seed {seed}: {error}" for error in errors],
            apply_lag_peak=driver.apply_lag_peak,
            state=state,
            timeline=timeline,
        )

    def fault_metrics(self, trials: list[_Trial]) -> dict:
        return {}


class FailoverChurn(ClusterWorkload):
    """Low-rate writes through a promotion, a crash and a reimage.

    Each trial is a fresh cluster (its own seed, as in the Table 2
    drills) running the sequence once: a graceful promotion to a database
    in another region, a crash of that new primary, a binlog rotation
    plus ``snapshot_and_compact()`` on the next leader, and a reimage of
    the crashed member, which must catch up through a snapshot because
    the log it needs was purged.
    """

    PROMOTE_AT = 0.5
    CRASH_AT = 2.0
    COMPACT_AT = 4.5
    POLL_S = 0.02
    STEP_LIMIT_S = 10.0

    LOAD_S = 12.0

    def __init__(self, name: str, profile: ClientProfile, timing,
                 trials_per_wall_s: float) -> None:
        super().__init__(name, profile, timing, load_s_per_wall_s=0.0)
        self.trials_per_wall_s = trials_per_wall_s

    def load_s(self, seconds: int) -> float:
        return self.LOAD_S

    def trial_seeds(self, seed: int, seconds: int) -> list[int]:
        # An odd count, so the median failover is a real trial whose
        # sub-timings add up to its unavailability.
        count = max(1, round(seconds * self.trials_per_wall_s))
        count += 1 - count % 2
        return [seed * 100 + i for i in range(count)]

    def script(self, cluster, services: list, seed: int, state: dict):
        rng = random.Random(f"perfbench/{self.name}/{seed}/target")
        loop = cluster.loop
        start = loop.now

        def until(offset):
            return max(0.0, start + offset - loop.now)

        def wait_for(condition, what):
            deadline = loop.now + self.STEP_LIMIT_S
            while not condition():
                if loop.now >= deadline:
                    raise ReproError(f"timed out waiting for {what}")
                yield self.POLL_S

        def primary_name():
            primary = cluster.primary_service()
            return primary.host.name if primary is not None else None

        yield until(self.PROMOTE_AT)
        region = cluster.primary_service().host.region
        target = rng.choice(sorted(
            s.host.name for s in cluster.database_services()
            if s.host.region != region and s.node.membership.member(s.host.name).is_voter
        ))
        state["promotion"] = loop.now
        state["target"] = target
        cluster.transfer_leadership(target)
        yield from wait_for(lambda: primary_name() == target, f"promotion of {target}")

        yield until(self.CRASH_AT)
        victim = primary_name()
        state["crash"] = loop.now
        cluster.crash(victim)
        yield from wait_for(lambda: primary_name() not in (None, victim), "a new primary")

        yield until(self.COMPACT_AT)
        # Rotate, then compact on whichever member is primary once the
        # rotation commits; retried if leadership moves in between.
        deadline = loop.now + self.STEP_LIMIT_S
        purged = None
        while purged is None:
            if loop.now >= deadline:
                raise ReproError("no stable primary to compact on")
            yield from wait_for(lambda: primary_name() not in (None, victim), "a primary")
            leader = cluster.primary_service()
            try:
                yield leader.flush_binary_logs()
                yield 0.2
                purged = leader.snapshot_and_compact()
            except ReproError:
                yield self.POLL_S
        if not purged:
            state["errors"].append("compaction purged nothing")
        goal_log = leader.node.last_opid.index
        goal_engine = leader.mysql.engine.last_committed_opid.index
        reimaged_at = loop.now
        fresh = cluster.reimage_member(victim)
        services.append(fresh)
        yield from wait_for(
            lambda: fresh.node.last_opid.index >= goal_log
            and fresh.mysql.engine.last_committed_opid.index >= goal_engine,
            f"{victim} to catch up",
        )
        state["catchup_s"] = loop.now - reimaged_at

    def fault_metrics(self, trials: list[_Trial]) -> dict:
        failovers, promotions, transfers, catchups = [], [], [], []
        # A trial whose script failed has already failed the run's gates.
        for trial in (t for t in trials if "catchup_s" in t.state):
            state, timeline = trial.state, trial.timeline
            catchups.append(state["catchup_s"])
            acks = sorted(op.acked for op in trial.ops if op.acked is not None)
            crash = state["crash"]
            i = bisect.bisect_right(acks, crash)
            timeout = timeline.first("raft.election_timeout", crash)
            elected = timeline.first("raft.leader_elected", timeout)
            promoted = timeline.first("myraft.promoted", elected)
            failovers.append({
                "unavail": acks[i] - acks[i - 1],
                "detect": timeout - crash,
                "elect": elected - timeout,
                "promote": promoted - elected,
            })
            # Largest gap between consecutive acks, from the last ack
            # before the transfer to the first ack after the promotion.
            started, target = state["promotion"], state["target"]
            target_elected = timeline.first("raft.leader_elected", started, node=target)
            target_promoted = timeline.first("myraft.promoted", target_elected, host=target)
            lo = bisect.bisect_right(acks, started) - 1
            hi = bisect.bisect_right(acks, target_promoted)
            window = acks[lo:hi + 1]
            promotions.append(max(b - a for a, b in zip(window, window[1:])))
            transfers.append(target_elected - started)
        # Sub-timings of the median failover (the trial count is odd), so
        # they add up to the reported unavailability exactly.
        if not failovers:
            return {}
        mid = sorted(failovers, key=lambda f: f["unavail"])[len(failovers) // 2]
        return {
            "failover_unavail_s": mid["unavail"],
            "failover_samples": len(failovers),
            "promotion_unavail_ms": median(promotions) * 1e3,
            "promotion_samples": len(promotions),
            "detect_s": mid["detect"],
            "elect_s": mid["elect"],
            "promote_s": mid["promote"],
            "client_remainder_s": mid["unavail"] - mid["detect"] - mid["elect"] - mid["promote"],
            "transfer_s": median(transfers),
            "catchup_s": median(catchups),
        }


class CheckSweep:
    """``repro.check.explorer.run_once`` over a seed list of single-ring
    scenarios, in this process. The operations are the client operations
    the scenarios' histories record; a run whose verdict is not ``ok``
    fails the gates."""

    SCENARIOS = ("crashes", "leader-crash-loop")

    def __init__(self, name: str, seeds_per_wall_s: float) -> None:
        self.name = name
        self.seeds_per_wall_s = seeds_per_wall_s

    def seeds(self, seed: int, seconds: int) -> list[int]:
        count = max(1, round(seconds * self.seeds_per_wall_s / len(self.SCENARIOS)))
        return [seed * 1000 + i for i in range(count)]

    def params(self, seconds: int) -> dict:
        return {"scenarios": list(self.SCENARIOS),
                "seeds_per_scenario": len(self.seeds(0, seconds)),
                "seed_list": "seed*1000 + i"}

    def run(self, seed: int, seconds: int, setup_blocks: int = 0,
            recorder: SpanRecorder | None = None) -> PhaseResult:
        from repro.check import explorer
        from repro.check.scenarios import SCENARIOS

        def build():
            scenario = SCENARIOS[self.SCENARIOS[0]]
            cluster = MyRaftReplicaset(
                scenario.topology(), seed=seed, raft_config=scenario.raft_config(),
                network_spec=scenario.network_spec(), trace_capacity=2048,
            )
            cluster.bootstrap(timeout=30.0)
            return cluster

        setup_times = _timed_setup(setup_blocks, build)
        captured: dict = {}
        real_cluster, real_history = explorer.MyRaftReplicaset, explorer.HistoryRecorder

        def capture(kind, factory):
            def make(*args, **kwargs):
                captured[kind] = factory(*args, **kwargs)
                return captured[kind]
            return make

        runs = [(name, s) for name in self.SCENARIOS for s in self.seeds(seed, seconds)]
        errors, digests = [], {}
        write_lat, read_lat, counts = [], [], Counter()
        history_ops = failed_ops = 0
        wall_s = 0.0
        failed = 0
        explorer.MyRaftReplicaset = capture("cluster", real_cluster)
        explorer.HistoryRecorder = capture("history", real_history)
        try:
            for name, run_seed in runs:
                with installed(recorder):
                    started = perf_counter()
                    outcome = explorer.run_once(SCENARIOS[name], run_seed)
                    wall_s += perf_counter() - started
                cluster, history = captured.pop("cluster"), captured.pop("history")
                digests[(name, run_seed)] = outcome.digest()
                if not outcome.ok:
                    failed += 1
                    errors.append(f"{name} seed {run_seed}: {outcome.failure_kinds()}")
                errors += [f"{name} seed {run_seed}: {e}" for e in cluster_gates(cluster)]
                counts += program_counters(cluster, cluster.services.values())
                history_ops += len(history.ops)
                for op in history.ops:
                    if op.status == "ok":
                        lat = write_lat if op.kind == "write" else read_lat
                        lat.append(op.returned - op.invoked)
                    else:
                        failed_ops += 1  # failed, indeterminate or never answered
                del cluster, history
        finally:
            explorer.MyRaftReplicaset, explorer.HistoryRecorder = real_cluster, real_history
        # Determinism gate: the first seed of each scenario again.
        for name in self.SCENARIOS:
            first = self.seeds(seed, seconds)[0]
            if explorer.run_once(SCENARIOS[name], first).digest() != digests[(name, first)]:
                errors.append(f"{name} seed {first}: outcome digest changed on a rerun")

        completed = len(write_lat) + len(read_lat)
        sim = latency_metrics(write_lat, read_lat)
        sim["xregion_bytes_per_op"] = counts["xregion_bytes"] / max(1, completed)
        sim["history_ops"] = history_ops
        sim["failed_op_frac"] = failed_ops / max(1, history_ops)
        sim["due_ops"] = history_ops
        sim["digest"] = sorted(f"{k[0]}/{k[1]}/{v}" for k, v in digests.items())
        return PhaseResult(
            wall_s=wall_s,
            completed=completed,
            attempted=len(runs),
            failed=failed,
            sim=sim,
            counts=dict(counts),
            errors=errors,
            setup_s=setup_times,
        )


WORKLOADS = {
    "write-oltp": ClusterWorkload(
        "write-oltp",
        ClientProfile(sysbench_workload(), rate=1500.0),
        sysbench_timing,
        load_s_per_wall_s=0.2,
    ),
    # 400/s is the benchmark's own rate, not a measured one: about three
    # times what production_workload()'s 12 closed-loop clients with 80 ms
    # think time offer (~125/s), so one run yields well over 1000 reads for
    # read_p99_ms. Its key space is the 1000 keys preloaded before measuring.
    "read-mostly": ClusterWorkload(
        "read-mostly",
        ClientProfile(replace(production_workload(), key_space=1000), rate=400.0,
                      read_fraction=0.9),
        production_timing,
        load_s_per_wall_s=0.6,
        preload=True,
    ),
    "failover-churn": FailoverChurn(
        "failover-churn",
        ClientProfile(sysbench_workload(), rate=30.0, fresh_keys=True),
        sysbench_timing,
        trials_per_wall_s=0.5,
    ),
    "check-sweep": CheckSweep("check-sweep", seeds_per_wall_s=0.8),
}
