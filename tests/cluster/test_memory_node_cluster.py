"""Tests for node memory, the node aggregate, and cluster assembly."""

import time

import pytest

from repro.cluster import Cluster, NodeMemory
from repro.cluster.address import make_address, node_of_address
from repro.cluster.node import Node
from repro.config import ClusterConfig
from repro.sim import Engine


class TestNodeMemory:
    def test_read_unwritten_line_is_none(self):
        memory = NodeMemory(0)
        assert memory.read_line(123) is None

    def test_write_then_read(self):
        memory = NodeMemory(0)
        memory.write_line(5, "value")
        assert memory.read_line(5) == "value"
        assert memory.reads == 1 and memory.writes == 1

    def test_bulk_operations(self):
        memory = NodeMemory(0)
        memory.write_lines({1: "a", 2: "b"})
        assert memory.read_lines([1, 2]) == {1: "a", 2: "b"}

    def test_allocation_line_aligned_and_homed(self):
        memory = NodeMemory(3)
        first = memory.allocate_record(1, 100)
        second = memory.allocate_record(2, 10)
        assert first.home_node == 3
        assert first.address % 64 == 0
        assert second.address >= first.address + 128  # 100 B rounds to 2 lines
        assert memory.allocated_bytes == 128 + 64

    def test_metadata_attached_on_allocation(self):
        memory = NodeMemory(0)
        descriptor = memory.allocate_record(1, 128)
        meta = memory.metadata(descriptor.address)
        assert len(meta.line_versions) == 2
        assert memory.has_record(descriptor.address)

    def test_metadata_missing_raises(self):
        with pytest.raises(KeyError):
            NodeMemory(0).metadata(12345)

    def test_every_line_of_a_record_resolves_to_its_base(self):
        memory = NodeMemory(2)
        descriptors = [memory.allocate_record(record_id, data_bytes)
                       for record_id, data_bytes
                       in enumerate((64, 300, 1, 65, 10))]
        for descriptor in descriptors:
            assert descriptor.line_count == len(descriptor.lines)
            for line in descriptor.lines:
                assert (memory.record_address_of_line(line)
                        == descriptor.address)

    def test_line_outside_every_record_raises_quickly(self):
        memory = NodeMemory(1)
        last = memory.allocate_record(1, 256)  # 4 lines
        past_end = last.lines[-1] + 1
        below = make_address(1, 0) // 64
        # A line far beyond the allocated extent: walking back one line
        # at a time towards address 0 would take hours.
        far = make_address(1, 1 << 39) // 64
        other_node = make_address(2, 64) // 64
        started = time.perf_counter()
        for line in (past_end, below, far, other_node):
            with pytest.raises(KeyError):
                memory.record_address_of_line(line)
        assert time.perf_counter() - started < 1.0


class TestNode:
    def make_node(self, **config_overrides):
        config = ClusterConfig(**config_overrides)
        return Node(0, config, llc_sets=64)

    def test_bf_pool_sized_by_multiplexing(self):
        node = self.make_node(cores_per_node=5, multiplexing=2)
        assert node.bf_pool_size == 10

    def test_register_and_release_local_tx(self):
        node = self.make_node()
        state = node.register_local_tx(7)
        assert node.local_tx_state(7) is state
        assert node.active_local_transactions == 1
        node.release_local_tx(7)
        assert node.local_tx_state(7) is None

    def test_double_register_rejected(self):
        node = self.make_node()
        node.register_local_tx(7)
        with pytest.raises(RuntimeError):
            node.register_local_tx(7)

    def test_pool_exhaustion_blocks_new_transactions(self):
        node = self.make_node(cores_per_node=1, multiplexing=1)
        node.register_local_tx(1)
        with pytest.raises(RuntimeError):
            node.register_local_tx(2)

    def test_local_readers_probe(self):
        node = self.make_node()
        reader = node.register_local_tx(1)
        reader.record_read(100)
        result = node.local_readers_of(100, exclude=2)
        assert result.conflicting_txids == {1}
        # The reader itself is excluded.
        assert node.local_readers_of(100, exclude=1).conflicting_txids == set()

    def test_check_local_conflicts_sees_reads_and_writes(self):
        node = self.make_node()
        reader = node.register_local_tx(1)
        writer = node.register_local_tx(2)
        reader.record_read(100)
        writer.record_write(200)
        result = node.check_local_conflicts([100, 200])
        assert result.conflicting_txids == {1, 2}

    def test_check_local_conflicts_counts_false_positives(self):
        node = self.make_node()
        state = node.register_local_tx(1)
        for line in range(0, 6400, 64):
            state.record_read(line)
        probes = list(range(10 ** 12, 10 ** 12 + 64 * 2000, 64))
        result = node.check_local_conflicts(probes)
        assert result.false_positive_hits == result.hits

    def test_private_filters_one_per_slot(self):
        node = self.make_node(cores_per_node=2, multiplexing=2)
        assert len(node.private_filters) == 4


class TestCluster:
    def make_cluster(self):
        return Cluster(Engine(), ClusterConfig(nodes=3, cores_per_node=2),
                       llc_sets=64)

    def test_builds_all_nodes(self):
        cluster = self.make_cluster()
        assert len(cluster.nodes) == 3
        assert cluster.node(2).node_id == 2

    def test_txids_unique(self):
        cluster = self.make_cluster()
        ids = {cluster.next_txid() for _ in range(100)}
        assert len(ids) == 100

    def test_record_placement_deterministic_and_uniform(self):
        cluster = self.make_cluster()
        homes = [cluster.home_of(record_id) for record_id in range(3000)]
        assert homes == [cluster.home_of(r) for r in range(3000)]
        for node_id in range(3):
            share = homes.count(node_id) / len(homes)
            assert 0.25 < share < 0.42  # roughly uniform across 3 nodes

    def test_allocate_and_lookup_record(self):
        cluster = self.make_cluster()
        descriptor = cluster.allocate_record(1, 128)
        assert cluster.record(1) is descriptor
        assert node_of_address(descriptor.address) == cluster.home_of(1)
        assert cluster.has_record(1)
        assert cluster.record_count == 1

    def test_explicit_home_override(self):
        cluster = self.make_cluster()
        descriptor = cluster.allocate_record(1, 64, home=2)
        assert descriptor.home_node == 2

    def test_duplicate_allocation_rejected(self):
        cluster = self.make_cluster()
        cluster.allocate_record(1, 64)
        with pytest.raises(ValueError):
            cluster.allocate_record(1, 64)

    def test_iter_records_sorted_public_view(self):
        cluster = self.make_cluster()
        for record_id in (7, 3, 5):
            cluster.allocate_record(record_id, 64)
        pairs = list(cluster.iter_records())
        assert [record_id for record_id, _ in pairs] == [3, 5, 7]
        for record_id, descriptor in pairs:
            assert cluster.record(record_id) is descriptor

    def test_unknown_record_raises(self):
        with pytest.raises(KeyError):
            self.make_cluster().record(99)
