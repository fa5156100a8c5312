"""Cluster assembly: nodes + fabric + record placement.

Records are placed uniformly across nodes (Section VII: "Records are
statically distributed across all the nodes in a uniform manner"); the
placement hash is deterministic so every protocol sees the same layout.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import ClusterConfig
from repro.cluster.node import Node
from repro.cluster.record import RecordDescriptor
from repro.hardware.crc import splitmix64
from repro.net.fabric import Fabric
from repro.sim.engine import Engine


class Cluster:
    """The modeled machine: N nodes connected by the RDMA fabric."""

    def __init__(self, engine: Engine, config: ClusterConfig,
                 llc_sets: Optional[int] = None,
                 fabric: Optional[Fabric] = None):
        self.engine = engine
        self.config = config
        self.nodes: List[Node] = [
            Node(node_id, config, llc_sets=llc_sets, engine=engine)
            for node_id in range(config.nodes)
        ]
        # A prebuilt fabric (e.g. a FaultyFabric) may be supplied; by
        # default the cluster owns a fault-free one.
        self.fabric = fabric if fabric is not None else Fabric(
            engine, config.network)
        #: The record table: plain int dicts, which the cyclic collector
        #: never tracks.  Descriptors are built on first :meth:`record`.
        self._addresses: Dict[int, int] = {}
        self._sizes: Dict[int, int] = {}
        self._descriptors: Dict[int, RecordDescriptor] = {}
        self._next_txid = 0

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def next_txid(self) -> int:
        """Cluster-unique transaction id."""
        self._next_txid += 1
        return self._next_txid

    # -- record placement ----------------------------------------------

    def home_of(self, record_id: int) -> int:
        """Deterministic uniform home node for a record id."""
        return splitmix64(record_id) % self.config.nodes

    def allocate_record(self, record_id: int, data_bytes: int,
                        home: Optional[int] = None) -> RecordDescriptor:
        """Place a record on its home node (hash placement by default)."""
        if record_id in self._addresses:
            raise ValueError(f"record {record_id} already allocated")
        node_id = self.home_of(record_id) if home is None else home
        self._addresses[record_id] = self.nodes[node_id].memory.allocate(
            data_bytes)
        self._sizes[record_id] = data_bytes
        return self.record(record_id)

    def allocate_records(self, first_id: int, count: int,
                         data_bytes: int) -> None:
        """Place ``count`` records of ``data_bytes`` each, ids
        ``first_id`` upwards: the same placement as that many
        :meth:`allocate_record` calls, in id order."""
        addresses = self._addresses
        sizes = self._sizes
        allocators = [node.memory.allocate for node in self.nodes]
        nodes = self.config.nodes
        for record_id in range(first_id, first_id + count):
            if record_id in addresses:
                raise ValueError(f"record {record_id} already allocated")
            addresses[record_id] = allocators[
                splitmix64(record_id) % nodes](data_bytes)
            sizes[record_id] = data_bytes

    def record(self, record_id: int) -> RecordDescriptor:
        descriptor = self._descriptors.get(record_id)
        if descriptor is None:
            address = self._addresses.get(record_id)
            if address is None:
                raise KeyError(f"record {record_id} was never allocated")
            descriptor = self._descriptors[record_id] = RecordDescriptor(
                record_id, address, self._sizes[record_id])
        return descriptor

    def has_record(self, record_id: int) -> bool:
        return record_id in self._addresses

    def iter_records(self) -> Iterator[Tuple[int, RecordDescriptor]]:
        """All allocated records as (record_id, descriptor), sorted by id.

        The public way to walk the record table (trace capture, audits)
        without reaching into the private mapping.
        """
        for record_id in sorted(self._addresses):
            yield record_id, self.record(record_id)

    @property
    def record_count(self) -> int:
        return len(self._addresses)
