"""Full-run equivalence of the engine vs. the reference pure heap.

The property tests in ``tests/sim/test_engine.py`` cover the dispatch
contract on synthetic schedules; this module pins it end to end: a
complete traced experiment — protocol, fabric, workload tapes,
telemetry and all — must produce a byte-identical trace artifact (the
same file ``repro run --trace out.jsonl`` writes) under the production
engine and under ``tests/sim/heap_oracle.HeapOracle``, whose sleep wakes
take a fresh sequence number at their deadline.
"""

from repro.config import ClusterConfig
from repro.obs import EventTracer
from repro.runner import run_experiment
from repro.workloads import YcsbWorkload
from tests.sim.heap_oracle import HeapOracle


def _traced_run(tmp_path, tag):
    tracer = EventTracer()
    result = run_experiment(
        "hades",
        YcsbWorkload(store="ht", variant="b", record_count=500),
        config=ClusterConfig(nodes=3),
        duration_ns=30_000.0,
        seed=11,
        llc_sets=1024,
        tracer=tracer,
    )
    path = tmp_path / f"{tag}.jsonl"
    tracer.save_jsonl(str(path))
    return path.read_bytes(), {
        "events_processed": result.events_processed,
        "committed": result.metrics.meter.committed,
        "aborted": result.metrics.meter.aborted,
        "counters": result.metrics.counters.as_dict(),
    }


def test_trace_artifact_identical_across_engines(tmp_path, monkeypatch):
    engine_bytes, engine_summary = _traced_run(tmp_path, "engine")
    monkeypatch.setattr("repro.runner.Engine", HeapOracle)
    heap_bytes, heap_summary = _traced_run(tmp_path, "heap")
    assert engine_summary == heap_summary
    assert engine_bytes == heap_bytes
    assert len(engine_bytes) > 1000  # a real trace, not an empty header
