"""Host-time clocks and per-layer call tracing for the benchmark.

Two instruments, installed for the life of the process on classes of
the public ``repro`` packages before any cluster is built (``Fabric``
and ``RequestReplyHelper`` hoist bound engine methods at construction,
so a later patch would miss them):

* :class:`RunClock` times every ``Engine.run`` call and measures the
  host's speed around it.  It is the only instrument of an untraced
  sample: one wrapper call per simulated leg.
* :class:`LayerTrace` wraps the entry points of every simulator layer.
  Each wrapped call pushes a frame on one stack; when it returns, its
  duration is charged to its own entry as total time and, minus the
  time of the wrapped calls inside it, as self time.  ``Engine.run`` is
  the root: only calls made inside it are recorded, so layer self
  times add up to the traced run time exactly.  Hot entry points are
  aggregated (count, total, self); only coarse spans — one per leg and
  one per ``execute`` — are kept individually.
"""

from __future__ import annotations

import functools
import heapq
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import ProtocolBase
from repro.faults.injector import FaultInjector
from repro.hardware.bloom import BloomFilter, SplitWriteBloomFilter
from repro.hardware.directory import Directory
from repro.hardware.nic import Nic
from repro.cluster.memory import NodeMemory
from repro.cluster.node import CoreClock, Node
from repro.net.fabric import Fabric, RequestReplyHelper
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import TelemetrySampler
from repro.sim import engine as engine_module
from repro.sim.events import AllOf, CompletionEvent, Event, Timeout
from repro.workloads import MicroWorkload, TpccWorkload, YcsbWorkload

#: Layer names, in report order.
LAYERS = ("sim", "hardware.bloom", "hardware.directory", "hardware.nic",
          "cluster", "net", "core", "workloads", "obs", "faults")

#: (class, layer, methods).  A method is wrapped only where the class
#: defines it itself, so an inherited one is not wrapped twice.
ENTRY_POINTS = (
    (Event, "sim", ("succeed",)),
    (CompletionEvent, "sim", ("fail",)),
    (Timeout, "sim", ("_fire",)),
    (AllOf, "sim", ("_child_done",)),
    (engine_module.Process, "sim",
     ("_on_event", "_wait_for", "_sleep_fire", "_sleep_wake", "_finish")),
    (BloomFilter, "hardware.bloom",
     ("might_contain", "insert", "insert_all", "clear")),
    (SplitWriteBloomFilter, "hardware.bloom",
     ("might_contain", "insert", "insert_all", "clear")),
    (Directory, "hardware.directory",
     ("try_lock", "unlock", "read_blocked", "write_blocked", "tag_write",
      "writer_of", "lines_written_by", "clear_writer_tags", "holds_lock")),
    (Nic, "hardware.nic",
     ("check_remote_conflicts", "remote_state", "record_remote_read",
      "record_remote_write", "clear_remote", "local_state",
      "note_involved_node", "buffer_remote_write", "involved_nodes",
      "writes_for_node", "buffered_value", "data_payload", "clear_local")),
    (Node, "cluster",
     ("check_local_conflicts", "local_readers_of", "register_local_tx",
      "release_local_tx", "local_tx_state", "core_for_slot")),
    (CoreClock, "cluster", ("reserve",)),
    (NodeMemory, "cluster",
     ("read_line", "write_line", "read_lines", "write_lines", "metadata",
      "record_address_of_line", "bump_versions_for_lines")),
    (Fabric, "net", ("send", "_deliver", "egress_backlog_ns")),
    (RequestReplyHelper, "net",
     ("expect", "resolve", "abandon", "abandon_owner", "_expire")),
    (YcsbWorkload, "workloads", ("next_transaction",)),
    (TpccWorkload, "workloads", ("next_transaction",)),
    (MicroWorkload, "workloads", ("next_transaction",)),
    (SpanRecorder, "obs",
     ("record_attempt", "record_phase", "record_message",
      "record_fault_drop", "record_recovery_resolution")),
    (TelemetrySampler, "obs", ("_tick",)),
    (FaultInjector, "faults", ("message_fate", "replica_persist_fails")),
)

#: Engine methods counted per commit; wrapped on every engine class.
ENGINE_METHODS = ("schedule", "post", "cancel")

#: Source-path fragment -> layer of a process generator's code.  A
#: process step (``Process._resume``) is charged to the layer whose
#: generator it advances: the closed-loop client in ``runner.py`` is a
#: thin loop around ``ProtocolBase.execute``, so it counts as ``core``.
GENERATOR_LAYERS = (
    ("/repro/core/", "core"),
    ("/repro/runner.py", "core"),
    ("/repro/obs/", "obs"),
    ("/repro/net/", "net"),
    ("/repro/sim/", "sim"),
    ("/repro/faults/", "faults"),
    ("/repro/workloads/", "workloads"),
)

#: Iterations of the host-speed calibration loop (~13 ms here).
CALIBRATION_ITERATIONS = 30_000

#: Calibration seconds of the reference host speed: this loop's time
#: in the quiet phases of the host the benchmark was written on.
REFERENCE_CALIBRATION_S = 0.0125

SPLIT_PROBE = "SplitWriteBloomFilter.might_contain"
BLOOM_PROBE = "BloomFilter.might_contain"


def engine_classes() -> List[type]:
    """Every engine class the simulator ships (the reference heap engine
    only while it exists)."""
    classes = [engine_module.Engine]
    heap = getattr(engine_module, "HeapEngine", None)
    if heap is not None:
        classes.append(heap)
    return classes


def calibration_seconds() -> float:
    """Host seconds of a fixed pure-Python loop that uses no simulator
    code: method calls, dict stores, heap pushes and pops.

    The host this benchmark was written on changes speed by up to 2x
    within seconds (other tenants' load).  The loop slows down with the
    simulator (correlation 0.83 over 150 s of alternating runs), so
    host times are reported at a reference speed: measured seconds x
    ``REFERENCE_CALIBRATION_S`` / this loop's seconds around them.
    """
    started = time.perf_counter()
    counts: Dict[int, int] = {}
    heap: List[int] = []
    probe = _Probe()
    for index in range(CALIBRATION_ITERATIONS):
        counts[index & 1023] = probe.step(index)
        heapq.heappush(heap, (index * 7919) % 10007)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


class _Probe:
    def step(self, value: int) -> int:
        return value * 3 + 1


class RunClock:
    """Entry time, duration and host speed of each ``Engine.run`` call.

    The entry time is ``time.monotonic``, the system-wide monotonic
    clock on Linux, so it can be compared with a timestamp the parent
    process took before it spawned this one.  The calibration loop runs
    just before and just after each call, outside the timed interval.
    """

    def __init__(self) -> None:
        #: (entered at, seconds inside run, calibration seconds), one
        #: per call.
        self.calls: List[Tuple[float, float, float]] = []

    def install(self) -> None:
        for cls in engine_classes():
            if "run" in cls.__dict__:
                cls.run = self._timed(cls.run)

    def _timed(self, run: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(run)
        def timed_run(engine, *args, **kwargs):
            entered = time.monotonic()
            before = calibration_seconds()
            started = time.perf_counter()
            try:
                return run(engine, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                after = calibration_seconds()
                calls.append((entered, elapsed, (before + after) / 2))
        return timed_run


class LayerTrace:
    """Counts and times calls at each layer's entry points."""

    def __init__(self) -> None:
        #: entry name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: entry name -> layer (None: not attributable to a layer)
        self.layer_of: Dict[str, Optional[str]] = {}
        #: Outcome counters observed at entry points.
        self.outcomes: Dict[str, int] = {
            "bloom_top_probes": 0, "bloom_top_hits": 0,
            "bloom_nested_probes": 0, "lock_failures": 0,
            "remote_conflicts": 0}
        #: Coarse spans: one per ``Engine.run`` call (a leg) ...
        self.leg_spans: List[Dict[str, object]] = []
        #: ... and one per completed ``ProtocolBase.execute``.
        self.execute_spans: List[Tuple] = []
        #: Label of the leg being run, set by the caller.
        self.leg = ""
        self._stack: List[list] = []
        self._step_keys: Dict[object, str] = {}

    # -- bookkeeping ----------------------------------------------------

    def _entry(self, name: str, layer: Optional[str]) -> List[float]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
            self.layer_of[name] = layer
        return stat

    def _call(self, name: str, stat: List[float], fn: Callable, args,
              kwargs):
        stack = self._stack
        frame = [0.0, name]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]

    def _parent(self) -> Optional[str]:
        """Entry name of the innermost open call (None outside a run)."""
        return self._stack[-1][1] if self._stack else None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for cls, layer, methods in ENTRY_POINTS:
            for method in methods:
                if method in cls.__dict__:
                    self._wrap(cls, method, layer)
        for cls in engine_classes():
            for method in ENGINE_METHODS:
                if method in cls.__dict__:
                    self._wrap(cls, method, "sim")
            if "run" in cls.__dict__:
                cls.run = self._root(cls)
        self._install_observers()
        self._install_steps()
        self._install_core()

    def _wrap(self, cls: type, method: str, layer: str) -> None:
        original = cls.__dict__[method]
        name = f"{cls.__name__}.{method}"
        stat = self._entry(name, layer)
        call = self._call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, stat, original, args, kwargs)
        setattr(cls, method, wrapper)

    def _root(self, cls: type) -> Callable:
        """``Engine.run``: the root frame, always recorded."""
        original = cls.__dict__["run"]
        stat = self._entry(f"{cls.__name__}.run", "sim")
        stack = self._stack
        legs = self.leg_spans

        @functools.wraps(original)
        def run(engine, *args, **kwargs):
            frame = [0.0, "run"]
            stack.append(frame)
            sim_start = engine.now
            started = time.perf_counter()
            try:
                return original(engine, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                legs.append({"leg": self.leg, "host_start_s": started,
                             "host_s": elapsed, "sim_start_ns": sim_start,
                             "sim_end_ns": engine.now})
        return run

    def _install_observers(self) -> None:
        """Entry points whose results feed outcome ratios."""
        outcomes = self.outcomes
        parent = self._parent

        def bloom_probe(hit):
            if parent() == SPLIT_PROBE:
                outcomes["bloom_nested_probes"] += 1
            else:
                outcomes["bloom_top_probes"] += 1
                outcomes["bloom_top_hits"] += bool(hit)

        def split_probe(hit):
            outcomes["bloom_top_probes"] += 1
            outcomes["bloom_top_hits"] += bool(hit)

        def lock(acquired):
            outcomes["lock_failures"] += not acquired

        def remote(result):
            outcomes["remote_conflicts"] += bool(result.conflicting_owners)

        for cls, method, observe in (
                (BloomFilter, "might_contain", bloom_probe),
                (SplitWriteBloomFilter, "might_contain", split_probe),
                (Directory, "try_lock", lock),
                (Nic, "check_remote_conflicts", remote)):
            timed = cls.__dict__[method]

            @functools.wraps(timed)
            def observed(*args, _timed=timed, _observe=observe, **kwargs):
                result = _timed(*args, **kwargs)
                if self._stack:
                    _observe(result)
                return result
            setattr(cls, method, observed)

    def _install_steps(self) -> None:
        """``Process._resume``: one generator step, charged by its code."""
        process_cls = engine_module.Process
        original = process_cls.__dict__["_resume"]
        call = self._call

        @functools.wraps(original)
        def resume(process, *args, **kwargs):
            name = self._step_name(process)
            return call(name, self.stats[name], original,
                        (process,) + args, kwargs)
        process_cls._resume = resume

    def _step_name(self, process) -> str:
        code = getattr(getattr(process, "_generator", None), "gi_code", None)
        name = self._step_keys.get(code)
        if name is None:
            path = (code.co_filename.replace("\\", "/")
                    if code is not None else "")
            layer = next((layer for fragment, layer in GENERATOR_LAYERS
                          if fragment in path), None)
            name = f"Process._resume[{layer or 'unattributed'}]"
            self._entry(name, layer)
            self._step_keys[code] = name
        return name

    def _install_core(self) -> None:
        """Protocol handlers and the ``execute`` coarse spans."""
        call = self._call
        handler_stat = self._entry("protocol.handler", "core")
        register = Fabric.__dict__["register"]

        @functools.wraps(register)
        def timed_register(fabric, node_id, handler):
            def timed_handler(*args, **kwargs):
                return call("protocol.handler", handler_stat, handler, args,
                            kwargs)
            return register(fabric, node_id, timed_handler)
        Fabric.register = timed_register

        execute = ProtocolBase.__dict__["execute"]
        spans = self.execute_spans

        @functools.wraps(execute)
        def spanned_execute(protocol, node_id, slot, *args, **kwargs):
            engine = protocol.engine
            sim_start = engine.now
            started = time.perf_counter()
            ctx = yield from execute(protocol, node_id, slot, *args,
                                     **kwargs)
            spans.append((self.leg, node_id, slot, sim_start, engine.now,
                          started, time.perf_counter()))
            return ctx
        ProtocolBase.execute = spanned_execute

    # -- results --------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return int(stat[0]) if stat else 0

    def run_seconds(self) -> float:
        """Traced host time inside every ``Engine.run``."""
        return sum(leg["host_s"] for leg in self.leg_spans)

    def self_seconds(self) -> Dict[Optional[str], float]:
        """Self time per layer (None: unattributed)."""
        totals: Dict[Optional[str], float] = {}
        for name, stat in self.stats.items():
            layer = self.layer_of[name]
            totals[layer] = totals.get(layer, 0.0) + stat[2]
        return totals

    def bloom_ops(self) -> Tuple[int, int]:
        """Bloom read/write accesses implied by the wrapped calls.

        ``BloomFilter`` charges one access per probe or insert.  A
        ``SplitWriteBloomFilter`` probe charges two reads, one of them
        through a nested ``BloomFilter`` probe when its index section
        hits; its insert charges one write plus the nested insert.
        """
        reads = (self.calls(BLOOM_PROBE)
                 - self.outcomes["bloom_nested_probes"]
                 + 2 * self.calls(SPLIT_PROBE))
        writes = (self.calls("BloomFilter.insert")
                  + self.calls("SplitWriteBloomFilter.insert"))
        return reads, writes
