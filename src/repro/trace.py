"""Trace-driven execution (the paper's methodology, Section VII).

The paper collects instruction traces with Pin and feeds the same traces
to every configuration; "when a transaction is squashed, we restart the
transaction from its first instruction and follow the same instruction
path."  This module gives the reproduction the same property at the
request level:

* :func:`record_trace` runs a workload's *generator* (no protocol, no
  timing) and captures every client's transaction specs plus the record
  population.
* :func:`replay_trace` executes a captured trace under any protocol —
  identical request streams, so protocol comparisons share the exact
  same inputs (squash-and-retry replays the same spec, as in the paper).
* :func:`save_trace` / :func:`load_trace` round-trip traces through
  JSON-lines files, so a trace can be archived and replayed later.

Only static request-list transactions are traceable (interactive bodies
depend on protocol-visible state by construction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.api import Request
from repro.hardware.bloom import BLOOM_OPS
from repro.runner import ExperimentResult, build_protocol
from repro.sim.engine import Engine
from repro.sim.random import DeterministicRandom
from repro.sim.stats import RunMetrics
from repro.workloads.base import Workload

FORMAT_VERSION = 1


@dataclass
class Trace:
    """A recorded workload: record population + per-client specs."""

    workload_name: str
    config: Dict  # {"nodes": N, "cores_per_node": C, "multiplexing": m}
    #: (record_id, data_bytes, home_node) for every record.
    records: List[Tuple[int, int, int]]
    #: (node_id, slot) -> list of transaction specs (lists of Requests).
    clients: Dict[Tuple[int, int], List[List[Request]]] = field(
        default_factory=dict)

    @property
    def transaction_count(self) -> int:
        return sum(len(specs) for specs in self.clients.values())

    @property
    def request_count(self) -> int:
        return sum(len(spec) for specs in self.clients.values()
                   for spec in specs)


def record_trace(workload: Workload, config: Optional[ClusterConfig] = None,
                 transactions_per_client: int = 20,
                 seed: int = 42) -> Trace:
    """Capture a trace: populate a scratch cluster, then draw every
    client's transaction specs deterministically."""
    if transactions_per_client < 1:
        raise ValueError("need at least one transaction per client")
    config = config if config is not None else ClusterConfig()
    scratch = Cluster(Engine(), config, llc_sets=64)
    workload.populate(scratch)
    records = [(record_id, descriptor.data_bytes, descriptor.home_node)
               for record_id, descriptor in scratch.iter_records()]
    trace = Trace(workload_name=workload.name,
                  config={"nodes": config.nodes,
                          "cores_per_node": config.cores_per_node,
                          "multiplexing": config.multiplexing},
                  records=records)
    for node_id in range(config.nodes):
        for slot in range(config.transactions_per_node):
            rng = DeterministicRandom(f"{seed}:{node_id}:{slot}")
            specs = []
            for _ in range(transactions_per_client):
                spec = workload.next_transaction(rng, node_id, scratch,
                                                 client_id=(node_id, slot))
                if callable(spec):
                    raise TypeError(
                        "interactive transaction bodies cannot be traced")
                specs.append(list(spec))
            trace.clients[(node_id, slot)] = specs
    return trace


def replay_trace(protocol_name: str, trace: Trace,
                 config: Optional[ClusterConfig] = None,
                 seed: int = 1) -> ExperimentResult:
    """Execute a trace to completion under ``protocol_name``.

    Unlike the time-bounded runner, a replay runs every traced
    transaction to commit — the comparison across protocols is then
    time-to-complete for identical work (the paper's fixed-instruction
    methodology), surfaced as ``metrics.elapsed_ns``.  Like
    :func:`~repro.runner.run_experiment`, the result carries this
    replay's own Bloom accesses as ``bloom_read_ops``/``bloom_write_ops``.
    """
    config = config if config is not None else ClusterConfig(
        nodes=trace.config["nodes"],
        cores_per_node=trace.config["cores_per_node"],
        multiplexing=trace.config["multiplexing"])
    if config.nodes != trace.config["nodes"]:
        raise ValueError("cluster shape differs from the traced one")
    bloom_reads_before = BLOOM_OPS.reads
    bloom_writes_before = BLOOM_OPS.writes
    engine = Engine()
    cluster = Cluster(engine, config, llc_sets=1024)
    metrics = RunMetrics()
    protocol = build_protocol(protocol_name, cluster, metrics=metrics,
                              seed=seed)
    for record_id, data_bytes, home in trace.records:
        cluster.allocate_record(record_id, data_bytes, home=home)

    def client(node_id: int, slot: int, specs: List[List[Request]]):
        for spec in specs:
            yield from protocol.execute(node_id, slot, spec)

    for (node_id, slot), specs in trace.clients.items():
        engine.process(client(node_id, slot, specs))
    engine.run()
    metrics.elapsed_ns = engine.now
    return ExperimentResult(protocol=protocol_name,
                            workload=trace.workload_name,
                            config=config, metrics=metrics,
                            bloom_read_ops=(BLOOM_OPS.reads
                                            - bloom_reads_before),
                            bloom_write_ops=(BLOOM_OPS.writes
                                             - bloom_writes_before))


# -- persistence ------------------------------------------------------------


def _request_to_json(request: Request) -> Dict:
    payload = {"kind": request.kind, "record": request.record_id}
    if request.value is not None:
        payload["value"] = _encode_value(request.value)
    if request.offset:
        payload["offset"] = request.offset
    if request.size is not None:
        payload["size"] = request.size
    if request.work_cycles is not None:
        payload["work"] = request.work_cycles
    return payload


def _encode_value(value):
    # Tuples survive the round trip as tagged lists.
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    return value


def _decode_value(value):
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_decode_value(v) for v in value["__tuple__"])
    return value


def _request_from_json(payload: Dict) -> Request:
    return Request(payload["kind"], payload["record"],
                   value=_decode_value(payload.get("value")),
                   offset=payload.get("offset", 0),
                   size=payload.get("size"),
                   work_cycles=payload.get("work"))


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace as JSON-lines: header, then one line per client."""
    with open(path, "w") as handle:
        header = {"format": FORMAT_VERSION, "workload": trace.workload_name,
                  "config": trace.config, "records": trace.records}
        handle.write(json.dumps(header) + "\n")
        for (node_id, slot), specs in sorted(trace.clients.items()):
            line = {"node": node_id, "slot": slot,
                    "txns": [[_request_to_json(r) for r in spec]
                             for spec in specs]}
            handle.write(json.dumps(line) + "\n")


def load_trace(path: str) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format: {header.get('format')}")
        trace = Trace(workload_name=header["workload"],
                      config=header["config"],
                      records=[tuple(r) for r in header["records"]])
        for line in handle:
            payload = json.loads(line)
            specs = [[_request_from_json(r) for r in spec]
                     for spec in payload["txns"]]
            trace.clients[(payload["node"], payload["slot"])] = specs
    return trace
