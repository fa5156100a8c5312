"""Table-at-a-time record placement and lazily built record metadata.

``Workload.populate`` places each table with one
``Cluster.allocate_records`` call.  That must give exactly the layout
that one ``Cluster.allocate_record`` call per record, in id order,
gives.  ``Cluster`` builds a record's descriptor, and ``NodeMemory``
its Fig. 1 metadata, only when first asked for; a record nobody
touched still exists, and its missing metadata is what fresh metadata
would be: unlocked.  The bulk tables hold no object the cyclic
collector tracks per record or key.
"""

import gc

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.recovery.scrub import scrub_dead_residue, wipe_volatile_state
from repro.sim.engine import Engine
from repro.verify.locks import find_leaks
from repro.workloads import (
    FIGURE9_WORKLOADS,
    TatpWorkload,
    TpccWorkload,
    YcsbScanWorkload,
    make_mix,
    make_workload,
    micro_suite,
)
from repro.workloads.tatp import (
    ACCESS_INFO_BYTES,
    CALL_FORWARDING_BYTES,
    SPECIAL_FACILITY_BYTES,
    SUBSCRIBER_BYTES,
)
from repro.workloads.tpcc import (
    CUSTOMER_BYTES,
    CUSTOMERS_PER_DISTRICT,
    DISTRICT_BYTES,
    DISTRICTS_PER_WAREHOUSE,
    ITEM_BYTES,
    ORDER_BYTES,
    ORDER_SLOTS_PER_DISTRICT,
    STOCK_BYTES,
    WAREHOUSE_BYTES,
)


def make_cluster():
    return Cluster(Engine(), ClusterConfig(nodes=5, cores_per_node=2),
                   llc_sets=64)


def per_record_sizes(workload):
    """(record_id, data_bytes) in the order records were placed one
    ``allocate_record`` call at a time, spelled out per record through
    each workload's key-layout accessors."""
    if isinstance(workload, TpccWorkload):
        w = workload
        return ([(w.warehouse_record(i), WAREHOUSE_BYTES)
                 for i in range(w.warehouses)]
                + [(w.district_record(*divmod(i, DISTRICTS_PER_WAREHOUSE)),
                    DISTRICT_BYTES) for i in range(w.districts)]
                + [(w.customer_record(*divmod(i, CUSTOMERS_PER_DISTRICT)),
                    CUSTOMER_BYTES) for i in range(w.customers)]
                + [(w.item_record(i), ITEM_BYTES) for i in range(w.items)]
                + [(w.stock_record(*divmod(i, w.items)), STOCK_BYTES)
                   for i in range(w.stock_records)]
                + [(w.order_record(*divmod(i, ORDER_SLOTS_PER_DISTRICT)),
                    ORDER_BYTES) for i in range(w.order_slots)])
    if isinstance(workload, TatpWorkload):
        w = workload
        tables = ((w.subscriber_record, SUBSCRIBER_BYTES),
                  (w.access_info_record, ACCESS_INFO_BYTES),
                  (w.special_facility_record, SPECIAL_FACILITY_BYTES),
                  (w.call_forwarding_record, CALL_FORWARDING_BYTES))
        return [(record_of(sid), data_bytes)
                for record_of, data_bytes in tables
                for sid in range(w.subscribers)]
    return [(workload.record_id(key), workload.record_bytes)
            for key in range(workload.record_count)]


def layout(cluster):
    records = [(record_id, d.address, d.data_bytes, d.home_node,
                d.line_count)
               for record_id, d in cluster.iter_records()]
    return records, [node.memory.allocated_bytes for node in cluster.nodes]


def _every_workload():
    named = [(label, lambda label=label: [make_workload(label, scale=0.01)])
             for label in FIGURE9_WORKLOADS]
    for index in range(3):
        named.append((f"micro-{index}", lambda index=index: [
            micro_suite(record_count=500)[index]]))
    named.append(("ycsb-scan", lambda: [YcsbScanWorkload(record_count=500)]))
    named.append(("mix", lambda: make_mix(["TPC-C", "TATP", "HT-wB"],
                                          scale=0.01)))
    return named


#: (id, builder of the workloads sharing one cluster), one per workload
#: class and Fig. 9 label, plus a mix with disjoint id ranges.
WORKLOADS = _every_workload()


@pytest.mark.parametrize("build", [build for _name, build in WORKLOADS],
                         ids=[name for name, _build in WORKLOADS])
def test_bulk_populate_matches_per_record_placement(build):
    bulk = make_cluster()
    for workload in build():
        workload.populate(bulk)
    single = make_cluster()
    placed = [pair for workload in build()
              for pair in per_record_sizes(workload)]
    for record_id, data_bytes in placed:
        single.allocate_record(record_id, data_bytes)
    # Bulk placement builds no descriptor; the first record() call does,
    # equal to the one allocate_record built eagerly, and keeps it.
    assert bulk._descriptors == {}
    for record_id, _data_bytes in placed:
        assert bulk.has_record(record_id)
        assert bulk.record(record_id) == single.record(record_id)
        assert bulk.record(record_id) is bulk.record(record_id)
    assert layout(bulk) == layout(single)
    assert [record_id for record_id, _d in bulk.iter_records()] == sorted(
        record_id for record_id, _size in placed)
    assert bulk.record_count == sum(w.record_count for w in build())
    assert bulk.record_count == len(placed)
    assert not bulk.has_record(max(record_id for record_id, _ in placed) + 1)


def test_allocate_records_rejects_a_duplicate_id():
    cluster = make_cluster()
    cluster.allocate_record(7, 64)
    with pytest.raises(ValueError, match="record 7 already allocated"):
        cluster.allocate_records(5, 4, 64)


def test_allocate_record_rejects_a_bulk_placed_id():
    cluster = make_cluster()
    cluster.allocate_records(5, 4, 64)
    with pytest.raises(ValueError, match="record 8 already allocated"):
        cluster.allocate_record(8, 64)
    with pytest.raises(ValueError, match="record 6 already allocated"):
        cluster.allocate_records(6, 1, 64)
    assert cluster.record_count == 4


def test_bulk_set_up_tables_are_not_gc_tracked():
    cluster = make_cluster()
    workload = make_workload("HT-wB", scale=0.01)
    workload.populate(cluster)
    cluster.record(3)
    assert not gc.is_tracked(cluster._addresses)
    assert not gc.is_tracked(cluster._sizes)
    for node in cluster.nodes:
        assert not gc.is_tracked(node.memory._line_counts)
        assert not any(gc.is_tracked(target) for target in node.llc._sets)
    assert not gc.is_tracked(workload.index._records)
    assert not gc.is_tracked(workload.index._depths)


class TestLazyMetadata:
    def setup_method(self):
        self.cluster = make_cluster()
        self.cluster.allocate_records(0, 20, 100)
        self.descriptor = self.cluster.record(3)
        self.node = self.cluster.node(self.descriptor.home_node)
        self.memory = self.node.memory

    def test_untouched_record_exists_without_metadata(self):
        assert self.memory.has_record(self.descriptor.address)
        assert all(list(node.memory.iter_metadata()) == []
                   for node in self.cluster.nodes)

    def test_first_use_builds_pristine_metadata_once(self):
        meta = self.memory.metadata(self.descriptor.address)
        assert (meta.version, meta.lock_owner, meta.line_versions) == (
            0, None, [0, 0])
        assert self.memory.metadata(self.descriptor.address) is meta
        assert self.memory.iter_metadata() == [(self.descriptor.address,
                                                meta)]

    def test_version_bump_builds_metadata(self):
        self.memory.bump_versions_for_lines(self.descriptor.lines)
        assert self.memory.metadata(self.descriptor.address).version == 1

    def test_unallocated_address_still_raises(self):
        with pytest.raises(KeyError):
            self.memory.metadata(self.descriptor.address + 64)

    def test_held_lock_is_a_leak_until_a_crash_wipes_it(self):
        assert find_leaks(self.cluster) == []
        self.memory.metadata(self.descriptor.address).try_lock((1, 9))
        leaks = find_leaks(self.cluster)
        assert len(leaks) == 1 and "record lock" in leaks[0]
        assert wipe_volatile_state(self.node) == 1
        assert find_leaks(self.cluster) == []

    def test_dead_owner_lock_is_scrubbed(self):
        self.memory.metadata(self.descriptor.address).try_lock((2, 4))
        assert scrub_dead_residue(self.node, dead=2) == (1, {(2, 4)})
        assert find_leaks(self.cluster) == []
