"""Crash-recovery smoke check: ``python -m repro.recovery.smoke``.

Runs a contended workload through a node crash+restart window with the
recovery plane enabled, for every registered protocol plus
:class:`HadesReplicatedProtocol`, and asserts the guarantees
docs/RECOVERY.md promises:

* every run **terminates** — crashed-node clients park and resume, and
  survivors' requests to the dead node resolve through timeouts and the
  membership filter instead of hanging;
* the crash is actually **detected and recovered**: leases expire,
  suspicions are raised, the epoch is bumped for the death and again
  for the rejoin, and the crashed node is readmitted;
* the committed history stays **conflict-serializable**, including
  transactions resolved from durable replica logs and failover
  reads/writes served by surviving replicas;
* after the drain **no transactional state leaks**: no held locks,
  no stale NIC entries, no orphaned replica temporaries
  (:func:`repro.verify.locks.find_leaks`);
* the replicated protocol's permanent replica copies **converge** with
  primary memory (``verify_replicas``);
* runs are **deterministic**: the same seed reproduces the identical
  recovery-event stream, byte for byte.

Exit status is non-zero on any violation, so CI can gate on it; the
test-suite imports :func:`run_recovery_smoke` directly.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, FaultPlan, RecoveryParams
from repro.core import PROTOCOLS, read, write
from repro.core.replication import HadesReplicatedProtocol
from repro.faults.injector import FaultInjector
from repro.obs.tracer import EventTracer
from repro.recovery.manager import RecoveryManager
from repro.sim.engine import Engine
from repro.sim.random import DeterministicRandom
from repro.verify.locks import find_leaks
from repro.verify.serializability import SerializabilityChecker

#: Node 1 crashes mid-run and restarts; mild jitter keeps message
#: timing honest.  No random drops: this gate exercises the recovery
#: plane, the drop machinery has its own (``repro.faults.smoke``).
SMOKE_SPEC = "crash=1:20000:60000,jitter=150"

#: The replicated protocol rides the ``hades`` registry entry.
REPLICATED = "hades+replication"


@dataclass
class RecoverySmokeResult:
    """What one crash-recovery run produced (compared across seeds)."""

    protocol: str
    committed: int
    serializable: bool
    anomalies: List[str]
    recovery_events: List[dict]
    recovery_summary: Dict[str, float]
    lock_leaks: List[str]
    #: (checked, mismatched) from ``verify_replicas``; None when the
    #: protocol does not replicate.
    replicas: Optional[tuple] = None


def _build_protocol(name: str, cluster: Cluster, seed: int):
    if name == REPLICATED:
        return HadesReplicatedProtocol(cluster, seed=seed, replicas=1)
    return PROTOCOLS[name](cluster, seed=seed)


def run_recovery_smoke(protocol_name: str, seed: int = 11, clients: int = 6,
                       txns_per_client: int = 10,
                       records: int = 6) -> RecoverySmokeResult:
    """One finite crash+recovery run, drained to quiescence."""
    plan = FaultPlan.parse(SMOKE_SPEC, seed=seed)
    params = RecoveryParams(enabled=True)
    engine = Engine()
    config = ClusterConfig(nodes=3, cores_per_node=2, recovery=params)
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

    manager = RecoveryManager(protocol, plan, params, tracer=tracer)
    manager.install()

    first_lines = {r: cluster.record(r).lines[0]
                   for r in range(1, records + 1)}
    token_counter = itertools.count()

    def client(client_index):
        rng = DeterministicRandom(f"recovery:{seed}:{client_index}")
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
    # No ``until``: the run must reach quiescence on its own (heartbeat
    # processes self-terminate past the recovery horizon).  A hang would
    # spin forever — CI's step timeout is the backstop.
    engine.run()
    manager.stop()

    check = checker.check()
    replicas = (protocol.verify_replicas()
                if isinstance(protocol, HadesReplicatedProtocol) else None)
    return RecoverySmokeResult(
        protocol=protocol_name,
        committed=protocol.metrics.meter.committed,
        serializable=check.serializable,
        anomalies=list(check.anomalies),
        recovery_events=tracer.recovery_events(),
        recovery_summary=manager.summary(),
        lock_leaks=find_leaks(cluster, protocol),
        replicas=replicas,
    )


def main(argv: Optional[List[str]] = None) -> int:
    seed = int(argv[0]) if argv else 11
    failures = 0
    for name in sorted(PROTOCOLS) + [REPLICATED]:
        first = run_recovery_smoke(name, seed=seed)
        again = run_recovery_smoke(name, seed=seed)
        summary = first.recovery_summary
        problems = []
        if not first.serializable:
            problems.append("history is not serializable")
        if first.anomalies:
            problems.append(f"checker anomalies: {first.anomalies}")
        if summary["suspicions_raised"] == 0:
            problems.append("crash was never suspected (leases inert)")
        if summary["epochs_bumped"] < 2:
            problems.append(f"expected death+rejoin epoch bumps, got "
                            f"{summary['epochs_bumped']}")
        if summary["time_to_recover_ns"] <= 0:
            problems.append("crashed node never rejoined")
        if first.lock_leaks:
            problems.append(f"leaked transactional state: "
                            f"{first.lock_leaks[:3]}")
        if first.replicas is not None and first.replicas[1] != 0:
            problems.append(f"replica mismatches: {first.replicas[1]}"
                            f"/{first.replicas[0]}")
        if first.replicas is not None and summary["failover_routes"] == 0:
            problems.append("no access ever failed over to a replica")
        if again.committed != first.committed:
            problems.append(f"nondeterministic committed count: "
                            f"{first.committed} vs {again.committed}")
        if again.recovery_events != first.recovery_events:
            problems.append("nondeterministic recovery-event stream")
        status = "FAIL" if problems else "ok"
        print(f"[{status}] {name}: committed={first.committed} "
              f"suspicions={summary['suspicions_raised']:.0f} "
              f"epochs={summary['epochs_bumped']:.0f} "
              f"scrubbed={summary['locks_scrubbed']:.0f} "
              f"recover_us={summary['time_to_recover_ns'] / 1000:.1f}"
              + (f" failover_routes={summary['failover_routes']:.0f}"
                 f" failover_writes={summary['failover_writes']:.0f}"
                 f" reconciled={summary['reconciled_lines']:.0f}"
                 f" replicas={first.replicas}"
                 if first.replicas else ""))
        for problem in problems:
            print(f"       - {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
