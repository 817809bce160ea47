"""Open-loop client driver in simulated time, and the correctness gates.

Requests are generated up front from the seed (Poisson arrivals), so the
program sees only the generated requests. Each request is launched when it
falls due, goes through the public ``primary_service().submit_write`` /
``submit_read`` calls, and is timed from its due time to the client's
receipt of the reply. A request that falls due while no writable primary
exists waits and retries until one does, so outages show up as latency of
the requests caught in them. Simulated time cannot run late, so the
generator's lateness is zero by construction.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any

from repro.errors import MySQLError, RaftError, SimError
from repro.sim.coro import spawn
from repro.sim.rng import RngStream
from repro.workload.generators import WorkloadSpec

TABLE = "bench"
# Client back-off between attempts while no primary accepts the request.
RETRY_S = 0.01


@dataclass(frozen=True)
class ClientProfile:
    """An open-loop client population.

    Client latency, rows per write, value size and key space come from one
    of the repository's calibrated workload specs (``sysbench_workload()``
    or ``production_workload()``); only the request rate, the read share and
    the key policy are the benchmark's own.
    """

    spec: WorkloadSpec
    rate: float  # requests per simulated second (Poisson)
    read_fraction: float = 0.0
    fresh_keys: bool = False  # every write gets new keys (nothing is overwritten)

    def describe(self) -> dict:
        spec = self.spec
        return {
            "spec": spec.name,
            "rate": self.rate,
            "read_fraction": self.read_fraction,
            "rows_per_write": spec.rows_per_txn,
            "value_bytes": spec.value_bytes,
            "key_space": 0 if self.fresh_keys else spec.key_space,
            "client_latency": repr(spec.client_latency),
        }


@dataclass
class Op:
    id: int
    kind: str  # "write" | "read"
    due: float
    key: int
    out_s: float  # request flight
    back_s: float  # reply flight
    rows: dict | None = None
    sent: float | None = None  # submit time of the attempt that succeeded
    acked: float | None = None  # reply received by the client
    value: Any = None  # a read's observed ``v`` (the id of the write it saw)

    @property
    def latency(self) -> float:
        return self.acked - self.due


class Schedule:
    """Seeded request generator: the same (name, seed) gives the same ops."""

    BLOCK = 10

    def __init__(self, profile: ClientProfile, name: str, seed: int) -> None:
        self.profile = profile
        self.rng = RngStream(seed).child(f"perfbench/{name}")
        self.next_id = 0

    def _op(self, kind: str, due: float, key: int, rows: dict | None = None) -> Op:
        latency = self.profile.spec.client_latency
        op = Op(self.next_id, kind, due, key, latency.sample(self.rng),
                latency.sample(self.rng), rows)
        self.next_id += 1
        return op

    def _row(self, op_id: int, key: int) -> dict:
        return {"id": key, "v": op_id, "pad": "x" * self.profile.spec.value_bytes}

    def preload(self, keys: int, per_write: int) -> list[Op]:
        """Writes covering keys ``0..keys-1``, all due at offset 0."""
        ops = []
        for first in range(0, keys, per_write):
            op = self._op("write", 0.0, first)
            op.rows = {k: self._row(op.id, k) for k in range(first, min(keys, first + per_write))}
            ops.append(op)
        return ops

    def ops(self, duration: float) -> list[Op]:
        """Poisson arrivals over ``duration`` simulated seconds (offsets).

        Reads and writes are mixed in exact proportion: each block of
        ``BLOCK`` consecutive requests holds ``round(BLOCK * read_fraction)``
        reads at random positions, so per-op costs do not drift with the
        seed's share of writes.
        """
        p, spec, rng = self.profile, self.profile.spec, self.rng
        reads_per_block = round(self.BLOCK * p.read_fraction)
        kinds: list[bool] = []
        ops = []
        due = rng.expovariate(p.rate)
        while due < duration:
            if not kinds:
                kinds = [True] * reads_per_block + [False] * (self.BLOCK - reads_per_block)
                rng.shuffle(kinds)
            if kinds.pop():
                ops.append(self._op("read", due, rng.randint(0, spec.key_space - 1)))
            else:
                op = self._op("write", due, 0)
                if p.fresh_keys:
                    keys = [op.id * spec.rows_per_txn + i for i in range(spec.rows_per_txn)]
                else:
                    keys = rng.sample(range(spec.key_space), spec.rows_per_txn)
                op.key = keys[0]
                op.rows = {k: self._row(op.id, k) for k in keys}
                ops.append(op)
            due += rng.expovariate(p.rate)
        return ops


class OpenLoopDriver:
    """Launches scheduled ops on the cluster's loop; one process, no threads."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.loop = cluster.loop
        self.ops: list[Op] = []
        self.outstanding = 0
        self.apply_lag_peak = 0
        self.sample_lag = False
        # Optional span recorder (traced run): maps coroutines to op ids.
        self.recorder = None

    def start(self, ops: list[Op], at: float) -> None:
        """Launch ``ops`` (offsets, sorted) relative to absolute time ``at``."""
        for op in ops:
            op.due += at
        first = len(self.ops)
        self.ops.extend(ops)
        self.outstanding += len(ops)
        if ops:
            self.loop.call_at(ops[0].due, self._launch, first, first + len(ops))

    def _launch(self, index: int, end: int) -> None:
        # Chained: one pending launch timer at a time keeps the heap small.
        op = self.ops[index]
        process = spawn(self.loop, self._request(op), label=f"client-op{op.id}")
        if self.recorder is not None:
            self.recorder.op_of[process._gen] = op.id
        if index + 1 < end:
            self.loop.call_at(self.ops[index + 1].due, self._launch, index + 1, end)

    def _request(self, op: Op):
        yield op.out_s
        while True:
            primary = self.cluster.primary_service()
            if primary is None:
                yield RETRY_S
                continue
            op.sent = self.loop.now
            try:
                if op.kind == "write":
                    process = primary.submit_write(TABLE, op.rows)
                else:
                    process = primary.submit_read(TABLE, op.key)
                if self.recorder is not None:
                    self.recorder.op_of[process._gen] = op.id
                result = yield process
            except (MySQLError, RaftError, SimError):
                # Demoted, crashed or aborted mid-request: the client
                # retries at whichever primary exists next.
                yield RETRY_S
                continue
            break
        if op.kind == "read":
            _opid, row = result
            op.value = row["v"] if row is not None else None
        yield op.back_s
        op.acked = self.loop.now
        self.outstanding -= 1
        if self.sample_lag:
            self._sample_apply_lag(primary)

    def _sample_apply_lag(self, primary) -> None:
        """Replica apply lag at each ack: the primary's commit index minus
        the slowest live replica's engine watermark. Reads state only."""
        commit = primary.node.commit_index
        for service in self.cluster.database_services():
            if service is not primary and service.host.alive:
                lag = commit - service.mysql.engine.last_committed_opid.index
                if lag > self.apply_lag_peak:
                    self.apply_lag_peak = lag

    def run_until_drained(self, limit: float, step: float = 0.05) -> None:
        deadline = self.loop.now + limit
        while self.outstanding and self.loop.now < deadline:
            self.cluster.run(step)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- correctness gates -------------------------------------------------------


def cluster_gates(cluster) -> list[str]:
    errors = []
    if not cluster.databases_converged():
        errors.append("databases did not converge")
    if not cluster.logs_prefix_equal():
        errors.append("replicated logs disagree")
    if len(set(cluster.engine_checksums().values())) != 1:
        errors.append("engine checksums differ")
    return errors


def history_gates(ops: list[Op], final_rows: dict) -> list[str]:
    """No acknowledged write lost, and no read older than a write that was
    acknowledged before the read was sent.

    "Older" is real-time order: write A precedes write B when A's reply
    reached the client before B was submitted. ``final_rows`` maps key to
    the final primary's ``v`` (or None).
    """
    errors = []
    by_id = {op.id: op for op in ops}
    acked_writes: dict[int, list[Op]] = {}
    for op in ops:
        if op.kind == "write" and op.acked is not None:
            for key in op.rows:
                acked_writes.setdefault(key, []).append(op)

    def precedes(a: Op, b: Op) -> bool:
        return a.acked is not None and a.acked < b.sent

    for key, writes in acked_writes.items():
        final = final_rows.get(key)
        if final is None or final not in by_id:
            errors.append(f"key {key}: acknowledged write lost (final row {final!r})")
            continue
        winner = by_id[final]
        if any(precedes(winner, w) for w in writes):
            errors.append(f"key {key}: final value from op {final} lost a later write")

    # For each key: acked writes ordered by ack time, with the running
    # maximum of their submit times.
    index = {}
    for key, writes in acked_writes.items():
        writes = sorted(writes, key=lambda w: w.acked)
        sent_max, running = [], -math.inf
        for w in writes:
            running = max(running, w.sent)
            sent_max.append(running)
        index[key] = ([w.acked for w in writes], sent_max)
    for op in ops:
        if op.kind != "read" or op.acked is None or op.key not in index:
            continue
        acks, sent_max = index[op.key]
        n = bisect.bisect_left(acks, op.sent)
        if n == 0:
            continue  # nothing acknowledged before the read was sent
        seen = by_id.get(op.value)
        if seen is None or op.key not in (seen.rows or ()) or (
            seen.acked is not None and seen.acked < sent_max[n - 1]
        ):
            errors.append(f"read op {op.id} of key {op.key} saw a stale value {op.value!r}")
    return errors[:20]
