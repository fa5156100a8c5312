"""Tests for the Bloom-filter energy model."""

import pytest

from repro.config import ClusterConfig
from repro.hardware.bloom import BLOOM_OPS, BloomFilter
from repro.hardware.energy import energy_report, provisioned_filter_pairs


def test_filters_count_accesses_globally():
    reads, writes = BLOOM_OPS.reads, BLOOM_OPS.writes
    bf = BloomFilter(1024)
    other = BloomFilter(512, hashes=1)
    bf.insert(1)
    other.insert(2)
    bf.might_contain(1)
    assert BLOOM_OPS.writes - writes == 2
    assert BLOOM_OPS.reads - reads == 1


def test_reset_clears_counters():
    BloomFilter(1024).insert(1)
    BloomFilter.reset_stats()
    assert BLOOM_OPS.writes == 0


def test_dynamic_energy_uses_table_iii_values():
    config = ClusterConfig()
    # One read (12.8 pJ) and one write (12.7 pJ).
    report = energy_report(config, elapsed_ns=0.0, committed=1,
                           read_ops=1, write_ops=1)
    assert report.dynamic_pj == pytest.approx(12.8 + 12.7)
    assert report.leakage_pj == 0.0


def test_leakage_scales_with_time_and_provisioning():
    config = ClusterConfig()  # 5 nodes, 10 tx/node, D=4 -> 50 pairs/node
    pairs = provisioned_filter_pairs(config)
    assert pairs == 5 * (10 + 40)
    report = energy_report(config, elapsed_ns=1000.0, committed=1,
                           read_ops=0, write_ops=0)
    # 1.7 mW == 1.7 pJ/ns per pair.
    assert report.leakage_pj == pytest.approx(pairs * 1.7 * 1000.0)


def test_per_transaction_normalization():
    config = ClusterConfig()
    report = energy_report(config, elapsed_ns=0.0, committed=10,
                           read_ops=0, write_ops=100)
    assert report.nj_per_transaction == pytest.approx(
        100 * 12.7 / 1000.0 / 10)
    empty = energy_report(config, elapsed_ns=0.0, committed=0,
                          read_ops=0, write_ops=100)
    assert empty.nj_per_transaction == 0.0


def test_validates_inputs():
    config = ClusterConfig()
    with pytest.raises(ValueError):
        energy_report(config, elapsed_ns=-1.0, committed=0,
                      read_ops=0, write_ops=0)
    with pytest.raises(ValueError):
        energy_report(config, elapsed_ns=0.0, committed=-1,
                      read_ops=0, write_ops=0)
    with pytest.raises(TypeError):
        energy_report(config, elapsed_ns=0.0, committed=0)


def test_real_run_produces_energy_numbers():
    from repro.runner import run_experiment
    from repro.workloads import MicroWorkload

    result = run_experiment("hades", MicroWorkload(0.5, record_count=2000),
                            duration_ns=100_000.0, seed=4, llc_sets=256)
    report = energy_report(result.config, elapsed_ns=100_000.0,
                           committed=result.metrics.meter.committed,
                           read_ops=result.bloom_read_ops,
                           write_ops=result.bloom_write_ops)
    assert report.read_ops > 0 and report.write_ops > 0
    assert report.total_pj > 0
    # Energy-cheap, as Section VI argues: well under a microjoule per txn.
    assert report.nj_per_transaction < 1000.0
