"""Tests for trace recording, persistence, and replay."""

import pytest

from repro.config import ClusterConfig
from repro.trace import (
    Trace,
    load_trace,
    record_trace,
    replay_trace,
    save_trace,
)
from repro.workloads import MicroWorkload, TatpWorkload

SMALL = ClusterConfig(nodes=3, cores_per_node=2, multiplexing=1)


def small_trace(transactions=4, seed=9):
    workload = MicroWorkload(0.5, record_count=500, seed=3)
    return record_trace(workload, config=SMALL,
                        transactions_per_client=transactions, seed=seed)


class TestRecording:
    def test_one_stream_per_slot(self):
        trace = small_trace()
        assert len(trace.clients) == 3 * 2  # N x (C x m)
        assert trace.transaction_count == 6 * 4
        assert trace.request_count == 6 * 4 * 5  # 5 requests per txn

    def test_population_captured(self):
        trace = small_trace()
        assert len(trace.records) == 500
        record_id, data_bytes, home = trace.records[0]
        assert data_bytes > 0
        assert 0 <= home < 3

    def test_deterministic_given_seed(self):
        first, second = small_trace(seed=7), small_trace(seed=7)
        assert first.clients == second.clients
        different = small_trace(seed=8)
        assert different.clients != first.clients

    def test_interactive_bodies_rejected(self):
        class Interactive(MicroWorkload):
            def next_transaction(self, rng, node_id, cluster, client_id=None):
                return lambda: iter(())

        workload = Interactive(0.5, record_count=100)
        with pytest.raises(TypeError):
            record_trace(workload, config=SMALL, transactions_per_client=1)

    def test_validates_count(self):
        workload = MicroWorkload(0.5, record_count=100)
        with pytest.raises(ValueError):
            record_trace(workload, config=SMALL, transactions_per_client=0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        assert loaded.workload_name == trace.workload_name
        assert loaded.records == trace.records
        assert loaded.clients == trace.clients

    def test_tuple_values_survive(self, tmp_path):
        trace = small_trace()
        some_spec = next(iter(trace.clients.values()))[0]
        assert any(isinstance(r.value, tuple) for r in some_spec
                   if r.is_write)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        for (key, specs), (_k2, loaded_specs) in zip(
                sorted(trace.clients.items()), sorted(loaded.clients.items())):
            for spec, loaded_spec in zip(specs, loaded_specs):
                for original, restored in zip(spec, loaded_spec):
                    assert original == restored

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": 99}\n')
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestReplay:
    def test_replay_commits_every_traced_transaction(self):
        trace = small_trace()
        result = replay_trace("hades", trace, config=SMALL)
        assert result.metrics.meter.committed == trace.transaction_count
        assert result.metrics.elapsed_ns > 0

    def test_same_trace_all_protocols_fixed_work_comparison(self):
        """The paper's methodology: identical inputs per configuration;
        the hardware protocols finish the same work sooner."""
        trace = small_trace(transactions=6)
        elapsed = {}
        for protocol in ("baseline", "hades-h", "hades"):
            result = replay_trace(protocol, trace, config=SMALL)
            assert result.metrics.meter.committed == trace.transaction_count
            elapsed[protocol] = result.metrics.elapsed_ns
        assert elapsed["hades"] < elapsed["baseline"]
        assert elapsed["hades-h"] < elapsed["baseline"]

    def test_replay_deterministic(self):
        trace = small_trace()
        first = replay_trace("hades", trace, config=SMALL)
        second = replay_trace("hades", trace, config=SMALL)
        assert first.metrics.elapsed_ns == second.metrics.elapsed_ns

    def test_replay_reports_its_own_bloom_ops(self):
        """Each replay reports its own Bloom accesses, whatever ran
        before it in the process (the energy report consumes these)."""
        trace = small_trace()
        first = replay_trace("hades", trace, config=SMALL)
        second = replay_trace("hades", trace, config=SMALL)
        assert first.bloom_read_ops > 0
        assert first.bloom_write_ops > 0
        assert second.bloom_read_ops == first.bloom_read_ops
        assert second.bloom_write_ops == first.bloom_write_ops

    def test_shape_mismatch_rejected(self):
        trace = small_trace()
        with pytest.raises(ValueError):
            replay_trace("hades", trace,
                         config=ClusterConfig(nodes=5, cores_per_node=2))

    def test_tatp_trace_replays(self):
        workload = TatpWorkload(subscribers=300)
        trace = record_trace(workload, config=SMALL,
                             transactions_per_client=3, seed=2)
        result = replay_trace("hades-h", trace, config=SMALL)
        assert result.metrics.meter.committed == trace.transaction_count
        assert result.workload == "TATP"
