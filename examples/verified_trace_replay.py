#!/usr/bin/env python
"""Trace-driven comparison with serializability verification.

Reproduces the paper's methodology end to end:

1. record a workload trace (the paper's Pin-trace analog): identical
   per-client request streams for every configuration;
2. replay it under Baseline, HADES-H, and HADES — fixed work, so the
   comparison is time-to-complete;
3. verify each run's history is conflict-serializable with the DSG
   checker (``repro.verify``);
4. report Bloom-filter energy for the HADES run (Table III pJ/mW).

Run:  python examples/verified_trace_replay.py
"""

import itertools

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core import PROTOCOLS, read, write
from repro.hardware.energy import energy_report
from repro.sim import Engine
from repro.sim.random import DeterministicRandom
from repro.trace import record_trace, replay_trace, save_trace, load_trace
from repro.verify import SerializabilityChecker
from repro.workloads import MicroWorkload

CONFIG = ClusterConfig(nodes=3, cores_per_node=2, multiplexing=2)
RECORDS = 60
TXNS_PER_CLIENT = 10


def trace_section(path: str) -> None:
    workload = MicroWorkload(0.5, record_count=2000, seed=4)
    trace = record_trace(workload, config=CONFIG,
                         transactions_per_client=TXNS_PER_CLIENT, seed=11)
    save_trace(trace, path)
    loaded = load_trace(path)
    print(f"Recorded {loaded.transaction_count} transactions "
          f"({loaded.request_count} requests) over "
          f"{len(loaded.records)} records -> {path}")

    print(f"\n{'protocol':10s} {'completed in':>14s} {'vs baseline':>12s}")
    baseline_ns = None
    for protocol in ("baseline", "hades-h", "hades"):
        result = replay_trace(protocol, loaded, config=CONFIG)
        assert result.metrics.meter.committed == loaded.transaction_count
        elapsed = result.metrics.elapsed_ns
        if baseline_ns is None:
            baseline_ns = elapsed
        print(f"{protocol:10s} {elapsed / 1000:11.1f} us "
              f"{baseline_ns / elapsed:11.2f}x")
        if protocol == "hades":
            report = energy_report(CONFIG, elapsed,
                                   result.metrics.meter.committed,
                                   read_ops=result.bloom_read_ops,
                                   write_ops=result.bloom_write_ops)
            print(f"{'':10s} BF energy: {report.read_ops:,} reads + "
                  f"{report.write_ops:,} writes = "
                  f"{report.nj_per_transaction:.2f} nJ per transaction")


def verified_contended_section() -> None:
    print("\nContended run + serializability verification "
          "(unique write tokens, DSG cycle check):")
    for protocol_name in ("baseline", "hades-h", "hades"):
        engine = Engine()
        cluster = Cluster(engine, CONFIG, llc_sets=256)
        protocol = PROTOCOLS[protocol_name](cluster, seed=2)
        for record_id in range(1, RECORDS + 1):
            cluster.allocate_record(record_id, 64)
        checker = SerializabilityChecker(cluster)
        checker.install()
        tokens = itertools.count()
        first_lines = {r: cluster.record(r).lines[0]
                       for r in range(1, RECORDS + 1)}

        def client(index):
            rng = DeterministicRandom(100 + index)
            for _ in range(TXNS_PER_CLIENT):
                picked = rng.distinct_sample(RECORDS, 2)
                reads, writes, spec, read_ids = {}, {}, [], []
                for record_index in picked:
                    record_id = record_index + 1
                    if rng.random() < 0.5:
                        token = ("w", index, next(tokens))
                        writes[record_id] = token
                        spec.append(write(record_id, value=token))
                    else:
                        read_ids.append(record_id)
                        spec.append(read(record_id))
                ctx = yield from protocol.execute(index % 3, index % 4, spec)
                for record_id, values in zip(read_ids, ctx.read_results):
                    reads[record_id] = values[first_lines[record_id]]
                checker.observe_commit(ctx.txid, reads, writes)

        for index in range(8):
            engine.process(client(index))
        engine.run()
        result = checker.check()
        verdict = "serializable" if result else f"VIOLATION {result.cycle}"
        print(f"  {protocol_name:10s} {result.transactions} txns, "
              f"{result.edges} DSG edges, {protocol.metrics.meter.aborted} "
              f"squashes -> {verdict}")


def main() -> None:
    trace_section("/tmp/hades_demo_trace.jsonl")
    verified_contended_section()


if __name__ == "__main__":
    main()
