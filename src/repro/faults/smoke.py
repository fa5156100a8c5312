"""Fault-injection smoke check: ``python -m repro.faults.smoke``.

Runs a short contended workload under message drops, delivery jitter,
and (for the replicated protocol) replica-persist failures, for every
registered protocol plus :class:`HadesReplicatedProtocol`, and asserts
the recovery guarantees the fault layer promises (docs/FAULTS.md):

* every run **terminates** — dropped requests resolve through the
  timeout path instead of hanging a client forever;
* the committed history stays **conflict-serializable** (the
  :mod:`repro.verify.serializability` checker passes);
* the replicated protocol's permanent replica copies **match primary
  memory exactly** once the fabric drains (``verify_replicas``);
* runs are **deterministic**: the same ``--seed`` reproduces the same
  committed count and the identical fault-event stream.

Exit status is non-zero on any violation, so CI can gate on it; the
test-suite imports :func:`run_smoke` directly.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, FaultPlan
from repro.core import PROTOCOLS, read, write
from repro.core.replication import HadesReplicatedProtocol
from repro.faults.injector import FaultInjector
from repro.obs.tracer import EventTracer
from repro.sim.engine import Engine
from repro.sim.random import DeterministicRandom
from repro.verify.locks import find_leaks
from repro.verify.serializability import SerializabilityChecker

#: Faults exercised by the smoke run (seed is overridden per run).
SMOKE_SPEC = "drop=0.03,jitter=250,persist=0.1"

#: The replicated protocol rides the ``hades`` registry entry.
REPLICATED = "hades+replication"


@dataclass
class SmokeResult:
    """What one faulty run produced (compared across seeds)."""

    protocol: str
    committed: int
    fault_events: List[dict]
    serializable: bool
    anomalies: List[str]
    fault_summary: Dict[str, int]
    #: (checked, mismatched) from ``verify_replicas``; None when the
    #: protocol does not replicate.
    replicas: Optional[tuple] = None
    #: Leaked transactional state found after the drain (must be empty).
    lock_leaks: List[str] = None


def _build_protocol(name: str, cluster: Cluster, seed: int):
    if name == REPLICATED:
        return HadesReplicatedProtocol(cluster, seed=seed, replicas=1)
    return PROTOCOLS[name](cluster, seed=seed)


def run_smoke(protocol_name: str, seed: int = 7, clients: int = 6,
              txns_per_client: int = 6, records: int = 5) -> SmokeResult:
    """One finite faulty run, drained to quiescence."""
    plan = FaultPlan.parse(SMOKE_SPEC, seed=seed)
    engine = Engine()
    config = ClusterConfig(nodes=3, cores_per_node=2)
    cluster = Cluster(engine, config, llc_sets=256)
    protocol = _build_protocol(protocol_name, cluster, seed)
    tracer = EventTracer()
    protocol.tracer = tracer

    injector = FaultInjector(plan, tracer=tracer)
    cluster.fabric.faults = injector
    protocol.faults = injector
    protocol.replies.default_timeout_ns = plan.effective_timeout_ns(
        config.network)

    for record_id in range(1, records + 1):
        cluster.allocate_record(record_id, 64)
    checker = SerializabilityChecker(cluster)
    checker.install()
    first_lines = {r: cluster.record(r).lines[0]
                   for r in range(1, records + 1)}
    token_counter = itertools.count()

    def client(client_index):
        rng = DeterministicRandom(f"smoke:{seed}:{client_index}")
        node_id = client_index % config.nodes
        slot = client_index % config.cores_per_node
        for _ in range(txns_per_client):
            touched = rng.distinct_sample(records, rng.randint(1, 3))
            reads, writes, spec = {}, {}, []
            read_records = []
            for record_index in touched:
                record_id = record_index + 1
                if rng.random() < 0.6:
                    token = ("w", client_index, next(token_counter))
                    writes[record_id] = token
                    spec.append(write(record_id, value=token))
                else:
                    read_records.append(record_id)
                    spec.append(read(record_id))
            ctx = yield from protocol.execute(node_id, slot, spec)
            for record_id, values in zip(read_records, ctx.read_results):
                reads[record_id] = values[first_lines[record_id]]
            checker.observe_commit(ctx.txid, reads, writes)

    for client_index in range(clients):
        engine.process(client(client_index))
    # No ``until``: the run must reach quiescence on its own.  A hang
    # (dropped message with no timeout armed) would spin this forever —
    # CI's step timeout is the backstop that turns it into a failure.
    engine.run()

    check = checker.check()
    replicas = (protocol.verify_replicas()
                if isinstance(protocol, HadesReplicatedProtocol) else None)
    return SmokeResult(
        protocol=protocol_name,
        committed=protocol.metrics.meter.committed,
        fault_events=tracer.fault_events(),
        serializable=check.serializable,
        anomalies=list(check.anomalies),
        fault_summary=injector.summary(),
        replicas=replicas,
        lock_leaks=find_leaks(cluster, protocol),
    )


def main(argv: Optional[List[str]] = None) -> int:
    seed = int(argv[0]) if argv else 7
    failures = 0
    for name in sorted(PROTOCOLS) + [REPLICATED]:
        first = run_smoke(name, seed=seed)
        again = run_smoke(name, seed=seed)
        problems = []
        if not first.serializable:
            problems.append("history is not serializable")
        if first.anomalies:
            problems.append(f"checker anomalies: {first.anomalies}")
        if first.replicas is not None and first.replicas[1] != 0:
            problems.append(f"replica mismatches: {first.replicas[1]}"
                            f"/{first.replicas[0]}")
        if first.lock_leaks:
            problems.append(f"leaked transactional state: "
                            f"{first.lock_leaks[:3]}")
        if again.committed != first.committed:
            problems.append(f"nondeterministic committed count: "
                            f"{first.committed} vs {again.committed}")
        if again.fault_events != first.fault_events:
            problems.append("nondeterministic fault-event stream")
        dropped = first.fault_summary.get("messages_dropped", 0)
        status = "FAIL" if problems else "ok"
        print(f"[{status}] {name}: committed={first.committed} "
              f"dropped={dropped} "
              f"fault_events={len(first.fault_events)}"
              + (f" replicas={first.replicas}" if first.replicas else ""))
        for problem in problems:
            print(f"       - {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
