"""One benchmark sample: run a workload's legs in this (fresh) process.

The parent (``run.py``) starts this script once per sample, so import,
cluster build and populate are paid again every time, as they are on
every ``repro run``.  It prints one JSON object as its last line.

Usage::

    python3 perfbench/sample.py --workload tpcc_hades --seed 13 \\
        --spawned-at <time.monotonic() of the parent before spawning>

``--traced`` runs only the first replicate, with every layer's entry
points wrapped (see ``layers.py``), and adds the per-layer counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.config import ClusterConfig, FaultPlan  # noqa: E402
from repro.obs.spans import SpanRecorder  # noqa: E402
from repro.obs.telemetry import TelemetrySampler  # noqa: E402
from repro.runner import run_experiment  # noqa: E402
from repro.sim.random import percentile  # noqa: E402
from repro.workloads import (  # noqa: E402
    MicroWorkload, TpccWorkload, YcsbWorkload)

from layers import (  # noqa: E402
    LAYERS, REFERENCE_CALIBRATION_S, LayerTrace, RunClock)

#: Replicate j of a run simulates seed ``seed + REPLICATE_STRIDE * j``;
#: replicate 0 is the ``--seed`` itself.
REPLICATE_STRIDE = 1000

#: Observability cadence of ``micro_contended_obs`` (simulated ns).
OBS_INTERVAL_NS = 10_000.0


@dataclass(frozen=True)
class Scenario:
    """A benchmark workload: legs x replicates of one simulated cluster.

    Every leg runs ``duration_ns`` of simulated time on a fresh cluster.
    Sim metrics pool the replicates of the ``hades`` leg; a single
    short simulation varies too much from seed to seed to be compared.
    """

    nodes: int
    llc_sets: int
    protocols: Tuple[str, ...]
    duration_ns: float
    replicates: int
    make_workload: Callable[[int], object]
    observed: bool = False


SCENARIOS: Dict[str, Scenario] = {
    "tpcc_hades": Scenario(
        nodes=4, llc_sets=2048, protocols=("hades",),
        duration_ns=100_000.0, replicates=24,
        make_workload=lambda seed: TpccWorkload(warehouses=2, items=2000,
                                                seed=seed)),
    "ycsb_b_fig9": Scenario(
        nodes=4, llc_sets=2048,
        protocols=("baseline", "hades-h", "hades"),
        duration_ns=300_000.0, replicates=5,
        make_workload=lambda seed: YcsbWorkload(
            store="ht", variant="b", record_count=10000, seed=seed)),
    "micro_contended_obs": Scenario(
        nodes=3, llc_sets=1024, protocols=("hades",),
        duration_ns=500_000.0, replicates=6,
        make_workload=lambda seed: MicroWorkload(0.5, record_count=500,
                                                 seed=seed),
        observed=True),
}


def commit_latencies(result) -> List[float]:
    """Every commit latency of a leg, in recording order (exact ns)."""
    return result.metrics.latency._values


def latency_digest(latencies: List[float]) -> str:
    return hashlib.sha256(repr(latencies).encode()).hexdigest()[:16]


def run_leg(scenario: Scenario, protocol: str, seed: int,
            duration_ns: float) -> Tuple[object, float]:
    """Simulate one leg; returns the result and its populate seconds."""
    workload = scenario.make_workload(seed)
    populate = workload.populate
    populate_s = []

    def timed_populate(cluster):
        started = time.perf_counter()
        populate(cluster)
        populate_s.append(time.perf_counter() - started)
    workload.populate = timed_populate
    observability = {}
    if scenario.observed:
        observability = dict(
            fault_plan=FaultPlan.parse("drop=0.01,jitter=300", seed=seed),
            spans=SpanRecorder(),
            telemetry=TelemetrySampler(interval_ns=OBS_INTERVAL_NS),
            sample_interval_ns=OBS_INTERVAL_NS)
    result = run_experiment(
        protocol, workload, config=ClusterConfig(nodes=scenario.nodes),
        duration_ns=duration_ns, seed=seed, llc_sets=scenario.llc_sets,
        **observability)
    return result, sum(populate_s)


def leg_record(result, protocol: str, seed: int, replicate: int,
               call: Tuple[float, float, float],
               populate_s: float) -> Dict[str, object]:
    """One leg's outputs; host seconds at the reference speed."""
    _entered, run_s, calibration_s = call
    speed = REFERENCE_CALIBRATION_S / calibration_s
    meter = result.metrics.meter
    record = {
        "protocol": protocol, "seed": seed, "replicate": replicate,
        "committed": meter.committed, "aborted": meter.aborted,
        "events": result.events_processed,
        "bloom_read_ops": result.bloom_read_ops,
        "bloom_write_ops": result.bloom_write_ops,
        "latency_digest": latency_digest(commit_latencies(result)),
        "run_s": run_s * speed, "wall_run_s": run_s,
        "populate_s": populate_s * speed,
        "sim_ns": result.metrics.elapsed_ns,
        "request_timeouts": result.metrics.counters.get("request_timeouts"),
        "snapshots": (result.telemetry.taken
                      if result.telemetry is not None else 0),
    }
    record["fingerprint"] = ":".join(str(record[key]) for key in (
        "protocol", "seed", "committed", "aborted", "events",
        "bloom_read_ops", "bloom_write_ops", "latency_digest"))
    return record


def pooled_sim_metrics(results: List[object]) -> Dict[str, float]:
    """HADES-leg sim metrics pooled over replicates (exact per seed)."""
    latencies = [latency for result in results
                 for latency in commit_latencies(result)]
    committed = sum(result.metrics.meter.committed for result in results)
    aborted = sum(result.metrics.meter.aborted for result in results)
    sim_ns = sum(result.metrics.elapsed_ns for result in results)
    p90 = percentile(latencies, 0.9)
    beyond_p90 = sum(1 for latency in latencies if latency > p90)
    if beyond_p90 < 10:
        raise RuntimeError(
            f"p90 refused: only {beyond_p90} of {len(latencies)} commit "
            "latencies lie beyond it (need 10)")
    return {"sim_ktps": committed / (sim_ns * 1e-9) / 1e3,
            "sim_lat_p50_us": percentile(latencies, 0.5) / 1e3,
            "sim_lat_p90_us": p90 / 1e3,
            "sim_abort_rate": aborted / (committed + aborted),
            "latency_samples": len(latencies), "beyond_p90": beyond_p90}


def protocol_ktps(legs: List[Dict[str, object]]) -> Dict[str, float]:
    """Simulated throughput per protocol, pooled over replicates."""
    committed: Dict[str, int] = {}
    sim_ns: Dict[str, float] = {}
    for leg in legs:
        protocol = leg["protocol"]
        committed[protocol] = committed.get(protocol, 0) + leg["committed"]
        sim_ns[protocol] = sim_ns.get(protocol, 0.0) + leg["sim_ns"]
    return {protocol: committed[protocol] / (sim_ns[protocol] * 1e-9) / 1e3
            for protocol in committed}


def layer_metrics(trace: LayerTrace,
                  legs: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer counts (per simulated commit) and self-time shares."""
    commits = sum(leg["committed"] for leg in legs)
    if commits == 0:
        raise RuntimeError("traced replicate committed nothing")

    def calls(*names: str) -> int:
        return sum(trace.calls(name) for name in names)

    def per_commit(count: float) -> float:
        return count / commits

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    run_s = trace.run_seconds()
    shares = trace.self_seconds()
    metrics = {f"{layer}.self_share": shares.get(layer, 0.0) / run_s
               for layer in LAYERS}
    expects = calls("RequestReplyHelper.expect")
    outcomes = trace.outcomes
    metrics.update({
        "sim.events_per_commit": per_commit(sum(leg["events"]
                                                for leg in legs)),
        "sim.schedule_per_commit": per_commit(
            calls("Engine.schedule", "HeapEngine.schedule")),
        "sim.post_per_commit": per_commit(
            calls("Engine.post", "HeapEngine.post")),
        "sim.cancel_per_commit": per_commit(
            calls("Engine.cancel", "HeapEngine.cancel")),
        "hardware.bloom.probe_calls_per_commit": per_commit(calls(
            "BloomFilter.might_contain",
            "SplitWriteBloomFilter.might_contain")),
        "hardware.bloom.insert_calls_per_commit": per_commit(calls(
            "BloomFilter.insert", "SplitWriteBloomFilter.insert")),
        "hardware.bloom.read_ops_per_commit": per_commit(
            sum(leg["bloom_read_ops"] for leg in legs)),
        "hardware.bloom.hit_ratio": ratio(outcomes["bloom_top_hits"],
                                          outcomes["bloom_top_probes"]),
        "hardware.directory.try_lock_per_commit": per_commit(
            calls("Directory.try_lock")),
        "hardware.directory.lock_fail_ratio": ratio(
            outcomes["lock_failures"], calls("Directory.try_lock")),
        "hardware.directory.read_blocked_per_commit": per_commit(
            calls("Directory.read_blocked")),
        "hardware.nic.check_remote_per_commit": per_commit(
            calls("Nic.check_remote_conflicts")),
        "hardware.nic.conflict_ratio": ratio(
            outcomes["remote_conflicts"], calls("Nic.check_remote_conflicts")),
        "cluster.check_local_per_commit": per_commit(
            calls("Node.check_local_conflicts")),
        "cluster.read_line_per_commit": per_commit(
            calls("NodeMemory.read_line")),
        "net.send_per_commit": per_commit(calls("Fabric.send")),
        "net.timeout_ratio": ratio(
            sum(leg["request_timeouts"] for leg in legs), expects),
        "core.attempts_per_commit": per_commit(
            sum(leg["committed"] + leg["aborted"] for leg in legs)),
        "workloads.next_txn_per_commit": per_commit(calls(
            "YcsbWorkload.next_transaction", "TpccWorkload.next_transaction",
            "MicroWorkload.next_transaction")),
        "obs.snapshots": sum(leg["snapshots"] for leg in legs),
        "trace.unattributed_share": shares.get(None, 0.0) / run_s,
    })
    return metrics


def run_sample(name: str, seed: int, spawned_at: float,
               sim_scale: float = 1.0, traced: bool = False,
               spans_out: Optional[str] = None) -> Dict[str, object]:
    scenario = SCENARIOS[name]
    duration_ns = scenario.duration_ns * sim_scale
    trace = None
    if traced:
        trace = LayerTrace()
        trace.install()
    clock = RunClock()
    clock.install()
    replicates = 1 if traced else scenario.replicates
    legs: List[Dict[str, object]] = []
    hades_results = []
    setup_s = wall_setup_s = 0.0
    leg_start = spawned_at
    for replicate in range(replicates):
        leg_seed = seed + REPLICATE_STRIDE * replicate
        for protocol in scenario.protocols:
            if trace is not None:
                trace.leg = f"{protocol}/seed{leg_seed}"
            result, populate_s = run_leg(scenario, protocol, leg_seed,
                                         duration_ns)
            call = clock.calls[-1]
            entered, _run_s, calibration_s = call
            wall_setup_s += entered - leg_start
            setup_s += ((entered - leg_start) * REFERENCE_CALIBRATION_S
                        / calibration_s)
            legs.append(leg_record(result, protocol, leg_seed, replicate,
                                   call, populate_s))
            if protocol == "hades":
                hades_results.append(result)
            leg_start = time.monotonic()
    sample: Dict[str, object] = {
        "workload": name, "seed": seed, "traced": traced, "legs": legs,
        "setup_s": setup_s, "wall_setup_s": wall_setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": hashlib.sha256("|".join(
            leg["fingerprint"] for leg in legs).encode()).hexdigest()[:16],
        "protocol_ktps": protocol_ktps(legs),
    }
    if trace is None:
        sample["sim"] = pooled_sim_metrics(hades_results)
        return sample
    reads, writes = trace.bloom_ops()
    sample["coverage"] = {
        "wrapped_read_ops": reads, "wrapped_write_ops": writes,
        "result_read_ops": sum(leg["bloom_read_ops"] for leg in legs),
        "result_write_ops": sum(leg["bloom_write_ops"] for leg in legs)}
    sample["layers"] = layer_metrics(trace, legs)
    sample["traced_run_s"] = sum(leg["run_s"] for leg in legs)
    if spans_out:
        with open(spans_out, "w") as handle:
            json.dump({"legs": trace.leg_spans,
                       "execute": trace.execute_spans,
                       "entry_points": {
                           key: {"layer": trace.layer_of[key],
                                 "calls": stat[0], "total_s": stat[1],
                                 "self_s": stat[2]}
                           for key, stat in sorted(trace.stats.items())}},
                      handle)
    return sample


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--sim-scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    sample = run_sample(args.workload, args.seed, args.spawned_at,
                        sim_scale=args.sim_scale, traced=args.traced,
                        spans_out=args.spans_out)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
