"""Wall-clock spans around the program's public entry points.

Only the traced run installs these wrappers, and they are installed from
here: the program itself carries no span code. Each wrapper records one
span per call (name, start, end, parent span, operation id) and charges
the call's *self* time -- its duration minus the time its child spans
cover -- to the span's name, so the per-name self times add up to the
time covered by the root spans.

Besides the named entry points, every event the loop dispatches is a span
``dispatch.<layer>``, where the layer is the package of the code the event
runs (a coroutine's generator, a callback's function). That charges code
between the named entry points -- coroutine bodies, timer callbacks -- to
the layer it belongs to instead of to the loop.

The wrappers read the wall clock and nothing else: they schedule no event
and draw no random number, so the simulated run is unchanged (the
benchmark checks this by comparing traced and untraced results).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# Span name -> layer. Names not listed here are ``dispatch.<layer>``.
SPAN_LAYER = {
    "sim.loop": "sim",
    "sim.net.send": "sim",
    "plugin.handle_message": "plugin",
    "plugin.storage.append": "plugin",
    "raft.handle_message": "raft",
    "mysql.codec.decode": "mysql",
    "mysql.codec.encode": "mysql",
    "mysql.engine.commit": "mysql",
    "snapshot.build": "snapshot",
    "snapshot.install": "snapshot",
    "check.monitors": "check",
    "check.linearizability": "check",
}
LAYERS = ("sim", "plugin", "raft", "mysql", "snapshot", "check", "workload", "other")

# repro subpackage -> layer, for dispatched events.
_PACKAGE_LAYER = {
    "sim": "sim",
    "plugin": "plugin",
    "raft": "raft",
    "flexiraft": "raft",
    "mysql": "mysql",
    "snapshot": "snapshot",
    "check": "check",
    "workload": "workload",
}

# Spans kept for the span file; later spans still count in the totals.
KEEP_SPANS = 200_000


class SpanRecorder:
    """Collects spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.root_s = 0.0
        self.records: list[tuple] = []
        # Open spans: parallel stacks of span id, child time, operation id.
        self._ids: list[int] = []
        self._child: list[float] = []
        self._ops: list[Any] = []
        self._next_id = 0
        # Coroutine generator -> operation id, registered by the driver.
        self.op_of: dict[Any, Any] = {}

    def enter(self, op: Any = None) -> float:
        self._next_id += 1
        self._ids.append(self._next_id)
        self._child.append(0.0)
        if op is None and self._ops:
            op = self._ops[-1]
        self._ops.append(op)
        return perf_counter()

    def exit(self, name: str, start: float) -> None:
        end = perf_counter()
        duration = end - start
        span_id = self._ids.pop()
        child = self._child.pop()
        op = self._ops.pop()
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._ids[-1] if self._ids else None
        if parent is None:
            self.root_s += duration
        else:
            self._child[-1] += duration
        if len(self.records) < KEEP_SPANS:
            self.records.append((span_id, name, start, end, parent, op))

    def wrap(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, start)

        return traced

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[layer_of_span(name)] += seconds
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, start, end, parent, op in self.records:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")


def layer_of_span(name: str) -> str:
    if name.startswith("dispatch."):
        return name[len("dispatch."):]
    return SPAN_LAYER[name]


def _layer_of_file(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 1 < len(parts):
            return _PACKAGE_LAYER.get(parts[index + 1], "other")
    if "perfbench" in parts:
        return "workload"
    return "other"


class _Dispatch:
    """Classifies each dispatched event by the code it runs."""

    def __init__(self, recorder: SpanRecorder) -> None:
        from repro.sim import host as host_module
        from repro.sim.coro import Process

        self.recorder = recorder
        self._process = Process
        self._guarded_code = _closure_code(host_module.Host.call_after)
        self._names: dict[Any, str] = {}

    def target(self, callback: Any) -> tuple[Any, Any]:
        """(code object, coroutine generator or None) the event will run."""
        while True:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, self._process):
                return owner._gen.gi_code, owner._gen
            func = getattr(callback, "__func__", callback)
            code = getattr(func, "__code__", None)
            if code is self._guarded_code:
                # Host.call_after's liveness guard: look through it.
                callback = func.__closure__[code.co_freevars.index("callback")].cell_contents
                continue
            return code, None

    def span_name(self, code: Any) -> str:
        name = self._names.get(code)
        if name is None:
            layer = _layer_of_file(code.co_filename) if code is not None else "other"
            name = self._names[code] = f"dispatch.{layer}"
        return name

    def wrap_fire(self, original: Callable) -> Callable:
        recorder = self.recorder
        enter, exit_ = recorder.enter, recorder.exit
        target, span_name = self.target, self.span_name

        def traced_fire(timer) -> None:
            code, gen = target(timer._callback)
            op = recorder.op_of.get(gen) if gen is not None else None
            start = enter(op)
            try:
                original(timer)
            finally:
                exit_(span_name(code), start)

        return traced_fire


def _closure_code(method: Callable) -> Any:
    """Code object of the nested ``guarded`` function in Host.call_after."""
    for const in method.__code__.co_consts:
        if getattr(const, "co_name", None) == "guarded":
            return const
    raise RuntimeError("Host.call_after no longer defines a guarded closure")


@contextmanager
def installed(recorder: SpanRecorder | None) -> Iterator[None]:
    """Wrap every traced entry point for the duration of the block (a
    no-op for ``recorder=None``); the originals are restored on exit.

    Each function is patched where its callers look it up: methods on
    their class, ``decode_event`` in ``repro.mysql.events`` (its callers
    read the module global), ``build_image``/``build_delta`` in the
    plugin module that imported them by name, and ``check_linearizable``
    in the explorer, which imported it by name.
    """
    if recorder is None:
        yield
        return
    from repro.check import explorer
    from repro.check.invariants import InvariantSuite
    from repro.mysql import events
    from repro.mysql.engine import StorageEngine
    from repro.plugin import raft_plugin
    from repro.plugin.binlog_storage import BinlogRaftLogStorage
    from repro.plugin.logtailer import LogtailerService
    from repro.raft.node import RaftNode
    from repro.sim.loop import EventLoop, Timer
    from repro.sim.network import Network
    from repro.snapshot.installer import SnapshotInstaller

    targets = [
        (EventLoop, "run_for", "sim.loop"),
        (Network, "send", "sim.net.send"),
        (raft_plugin.MyRaftServer, "handle_message", "plugin.handle_message"),
        (LogtailerService, "handle_message", "plugin.handle_message"),
        (BinlogRaftLogStorage, "append", "plugin.storage.append"),
        (RaftNode, "handle_message", "raft.handle_message"),
        (events, "decode_event", "mysql.codec.decode"),
        (events.Transaction, "encode", "mysql.codec.encode"),
        (StorageEngine, "commit", "mysql.engine.commit"),
        (raft_plugin, "build_image", "snapshot.build"),
        (raft_plugin, "build_delta", "snapshot.build"),
        (SnapshotInstaller, "handle_offer", "snapshot.install"),
        (SnapshotInstaller, "handle_chunk", "snapshot.install"),
        (explorer, "check_linearizable", "check.linearizability"),
    ]
    for hook in ("on_leader_elected", "on_commit_advance", "on_consistent_read",
                 "on_snapshot_adopted", "on_delta_installed", "check_cluster"):
        targets.append((InvariantSuite, hook, "check.monitors"))

    saved = []
    for owner, attr, name in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original))
    original_fire = Timer.__dict__["_fire"]
    saved.append((Timer, "_fire", original_fire))
    Timer._fire = _Dispatch(recorder).wrap_fire(original_fire)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
