"""The repository benchmark: host cost and HADES fidelity per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpcc_hades            # timed
    python3 perfbench/run.py --workload tpcc_hades --trace 1  # per layer
    python3 perfbench/run.py --workload ycsb_b_fig9 --seed 90210

Each sample runs in a fresh interpreter (``sample.py``), one at a time.
Samples are started until the next one would end after ``--seconds``;
a timed run takes at least three, a traced run at least one untraced and
one traced.  Every sample's simulated fingerprint must match every
other's, a traced sample's the untraced one's, and the wrapped Bloom
calls must account for every Bloom access the run reports.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` samples, and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
#: Where a traced run writes its coarse spans and entry-point table.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Workload name -> default seed (the seed each was pinned at).
WORKLOADS = {"tpcc_hades": 13, "ycsb_b_fig9": 7, "micro_contended_obs": 3}

#: Wall-clock budget of a whole invocation; a sample is killed when it
#: would overrun it.
DEADLINE_S = 170.0

#: A timed run takes at least this many samples, so that a per-leg
#: median can drop one sample slowed by host load.
MIN_TIMED_SAMPLES = 3

END_TO_END = (
    ("events_per_s", "events/s"),
    ("host_us_per_commit", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ktps", "ktxn/sim-s"),
    ("sim_lat_p50_us", "sim-us"),
    ("sim_lat_p90_us", "sim-us"),
    ("sim_abort_rate", "ratio"),
)

FIG9_PROTOCOLS = ("baseline", "hades-h", "hades")

PER_LAYER = (
    ("sim.events_per_commit", "1/commit"),
    ("sim.schedule_per_commit", "1/commit"),
    ("sim.post_per_commit", "1/commit"),
    ("sim.cancel_per_commit", "1/commit"),
    ("sim.self_share", "share"),
    ("hardware.bloom.probe_calls_per_commit", "1/commit"),
    ("hardware.bloom.insert_calls_per_commit", "1/commit"),
    ("hardware.bloom.read_ops_per_commit", "1/commit"),
    ("hardware.bloom.hit_ratio", "ratio"),
    ("hardware.bloom.self_share", "share"),
    ("hardware.directory.try_lock_per_commit", "1/commit"),
    ("hardware.directory.lock_fail_ratio", "ratio"),
    ("hardware.directory.read_blocked_per_commit", "1/commit"),
    ("hardware.directory.self_share", "share"),
    ("hardware.nic.check_remote_per_commit", "1/commit"),
    ("hardware.nic.conflict_ratio", "ratio"),
    ("hardware.nic.self_share", "share"),
    ("cluster.check_local_per_commit", "1/commit"),
    ("cluster.read_line_per_commit", "1/commit"),
    ("cluster.self_share", "share"),
    ("net.send_per_commit", "1/commit"),
    ("net.timeout_ratio", "ratio"),
    ("net.self_share", "share"),
    ("core.attempts_per_commit", "1/commit"),
    ("core.self_share", "share"),
    ("core.baseline.host_s", "s"),
    ("core.hades-h.host_s", "s"),
    ("core.hades.host_s", "s"),
    ("core.fig9.hades_x", "x"),
    ("core.fig9.hades-h_x", "x"),
    ("workloads.next_txn_per_commit", "1/commit"),
    ("workloads.populate_s", "s"),
    ("workloads.self_share", "share"),
    ("obs.self_share", "share"),
    ("obs.snapshots", "count"),
    ("faults.self_share", "share"),
    ("trace.overhead_x", "x"),
    ("trace.unattributed_share", "share"),
)


def spawn_sample(workload: str, seed: int, sim_scale: float, traced: bool,
                 timeout_s: float) -> Tuple[Optional[Dict], str]:
    """Run one sample in a fresh interpreter; (sample, "") or (None, why)."""
    command = [sys.executable, SAMPLE, "--workload", workload,
               "--seed", str(seed), "--sim-scale", repr(sim_scale)]
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--traced", "--spans-out", os.path.join(
            OUT_DIR, f"spans-{workload}-seed{seed}.json")]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout_s:.0f}s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"exit {done.returncode}: {tail[0]}"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, json.JSONDecodeError) as error:
        return None, f"unreadable sample output ({error})"


def check_sample(sample: Dict, reference: Optional[Dict]) -> str:
    """Output checks of one sample; returns the failure, or ""."""
    ktps = sample["protocol_ktps"]
    if all(protocol in ktps for protocol in FIG9_PROTOCOLS):
        if not ktps["hades"] > ktps["hades-h"] > ktps["baseline"]:
            return f"Fig. 9 order broken: {ktps}"
    if sample["traced"]:
        coverage = sample["coverage"]
        if (coverage["wrapped_read_ops"] != coverage["result_read_ops"]
                or coverage["wrapped_write_ops"]
                != coverage["result_write_ops"]):
            return f"Bloom coverage does not reconcile: {coverage}"
    if reference is None:
        return ""
    if sample["traced"]:
        expected = [leg["fingerprint"] for leg in reference["legs"]
                    if leg["replicate"] == 0]
        got = [leg["fingerprint"] for leg in sample["legs"]]
        if got != expected:
            return f"traced fingerprint {got} != untraced {expected}"
    elif sample["fingerprint"] != reference["fingerprint"]:
        return (f"fingerprint {sample['fingerprint']} != "
                f"{reference['fingerprint']}")
    return ""


def leg_host_seconds(samples: List[Dict], key: str = "run_s") -> List[float]:
    """Per leg, the median over samples of its host seconds in
    ``Engine.run``.  Every sample runs the same legs in the same order;
    the per-leg median drops a leg slowed by a burst of host load."""
    return [statistics.median(sample["legs"][index][key]
                              for sample in samples)
            for index in range(len(samples[0]["legs"]))]


def end_to_end(samples: List[Dict]) -> Dict[str, float]:
    """Host metrics from per-leg medians; sim metrics are exact."""
    legs = samples[0]["legs"]
    host_s = sum(leg_host_seconds(samples))
    metrics = {
        "events_per_s": sum(leg["events"] for leg in legs) / host_s,
        "host_us_per_commit": (host_s * 1e6
                               / sum(leg["committed"] for leg in legs)),
        "setup_s": statistics.median(sample["setup_s"] for sample in samples),
        "peak_rss_mb": statistics.median(sample["peak_rss_mb"]
                                         for sample in samples),
    }
    metrics.update({name: samples[0]["sim"][name] for name, _ in END_TO_END
                    if name.startswith("sim_")})
    return metrics


def per_layer(untraced: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Traced-sample layer metrics (medians) plus untraced leg timings."""
    metrics = {name: statistics.median(sample["layers"][name]
                                       for sample in traced)
               for name in traced[0]["layers"]}
    legs = untraced[0]["legs"]
    host_s = leg_host_seconds(untraced)
    for protocol in FIG9_PROTOCOLS:
        metrics[f"core.{protocol}.host_s"] = sum(
            (seconds for leg, seconds in zip(legs, host_s)
             if leg["protocol"] == protocol), 0.0)
    ktps = untraced[0]["protocol_ktps"]
    for protocol in ("hades", "hades-h"):
        metrics[f"core.fig9.{protocol}_x"] = (
            ktps[protocol] / ktps["baseline"]
            if protocol in ktps and "baseline" in ktps else 0.0)
    metrics["workloads.populate_s"] = statistics.median(
        sum(leg["populate_s"] for leg in sample["legs"])
        for sample in untraced)
    metrics["trace.overhead_x"] = (
        statistics.median(sample["traced_run_s"] for sample in traced)
        / sum(seconds for leg, seconds in zip(legs, host_s)
              if leg["replicate"] == 0))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="HADES simulator benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the workload's "
                             "pinned seed)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--sim-scale", type=float, default=1.0,
                        help="scale every leg's simulated duration "
                             "(tests use a small value)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no simulator source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed

    started = time.monotonic()
    kinds = [False, True] if args.trace else [False]
    durations: Dict[bool, float] = {}
    done: Dict[bool, List[Dict]] = {False: [], True: []}
    reference: Optional[Dict] = None
    attempted = failed = 0
    while True:
        traced = kinds[attempted % len(kinds)]
        elapsed = time.monotonic() - started
        enough = (len(done[True]) >= 1 if args.trace
                  else len(done[False]) >= MIN_TIMED_SAMPLES)
        if attempted >= len(kinds) and (
                elapsed + durations.get(traced, 0.0) > args.seconds
                and enough or elapsed > DEADLINE_S - 10 or failed >= 3):
            break
        attempted += 1
        sample_started = time.monotonic()
        sample, error = spawn_sample(args.workload, seed, args.sim_scale,
                                     traced, max(5.0, DEADLINE_S - elapsed))
        durations[traced] = max(durations.get(traced, 0.0),
                                time.monotonic() - sample_started)
        if sample is not None:
            error = check_sample(sample, reference)
        if error:
            failed += 1
            kind = "traced" if traced else "untraced"
            print(f"sample {attempted} ({kind}) FAILED: {error}")
            continue
        done[traced].append(sample)
        if reference is None and not traced:
            reference = sample

    untraced, traced_samples = done[False], done[True]
    if not untraced or (args.trace and not traced_samples):
        print("error: no sample completed; nothing to report",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(untraced, traced_samples)
        names = PER_LAYER
    else:
        metrics = end_to_end(untraced)
        names = END_TO_END
    sim = untraced[0]["sim"]
    wall_events_per_s = (sum(leg["events"] for leg in untraced[0]["legs"])
                         / sum(leg_host_seconds(untraced, "wall_run_s")))
    wall_setup_s = statistics.median(sample["wall_setup_s"]
                                     for sample in untraced)
    print(f"workload {args.workload}  seed {seed}  samples "
          f"{len(untraced)} untraced + {len(traced_samples)} traced, "
          f"{failed} failed")
    print(f"run_fail_rate: {failed / attempted!r} ratio")
    print(f"commit latency samples (hades leg, pooled): "
          f"{sim['latency_samples']}, beyond p90: {sim['beyond_p90']}")
    print(f"wall clock, before the host-speed correction: "
          f"{wall_events_per_s!r} events/s, set-up {wall_setup_s!r} s")
    for name, unit in names:
        print(f"{name}: {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
