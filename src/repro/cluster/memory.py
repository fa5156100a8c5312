"""Per-node memory: line-granular values plus record allocation.

The value store is line-granular because HADES operates on cache lines;
the Baseline reads/writes whole records, which simply touch all of a
record's lines.  A bump allocator hands out record addresses aligned to
cache lines (matching the paper's record layout, where version metadata
and data start line-aligned).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.cluster.address import LINE_BYTES, make_address
from repro.cluster.record import RecordDescriptor, RecordMetadata


class NodeMemory:
    """One node's memory: line values, record metadata, allocator.

    Allocation records only each record's line count.  The Fig. 1
    metadata (:class:`RecordMetadata`) is built the first time a
    protocol asks for it; until then it would be pristine (unlocked,
    every version 0), so :meth:`iter_metadata` may skip it.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._lines: Dict[int, object] = {}
        #: address -> line count of every allocated record.
        self._line_counts: Dict[int, int] = {}
        #: address -> metadata, for the records that have needed it.
        self._metadata: Dict[int, RecordMetadata] = {}
        self._base = make_address(node_id, 0)
        self._next_offset = LINE_BYTES  # keep address 0 unused
        #: Line count of the largest record allocated here: bounds the
        #: walk in :meth:`record_address_of_line`.
        self._max_record_lines = 0
        self.reads = 0
        self.writes = 0

    # -- line-granular values ------------------------------------------

    def read_line(self, line: int) -> object:
        self.reads += 1
        return self._lines.get(line)

    def write_line(self, line: int, value: object) -> None:
        self.writes += 1
        self._lines[line] = value

    def read_lines(self, lines: Iterable[int]) -> Dict[int, object]:
        return {line: self.read_line(line) for line in lines}

    def write_lines(self, values: Dict[int, object]) -> None:
        for line, value in values.items():
            self.write_line(line, value)

    # -- record allocation ----------------------------------------------

    def allocate_record(self, record_id: int,
                        data_bytes: int) -> RecordDescriptor:
        """Allocate a line-aligned record in this node's memory."""
        return RecordDescriptor(record_id, self.allocate(data_bytes),
                                data_bytes)

    def allocate(self, data_bytes: int) -> int:
        """Reserve line-aligned space for a record; returns its address."""
        if data_bytes <= 0:
            raise ValueError(f"record data size must be positive: {data_bytes}")
        address = make_address(self.node_id, self._next_offset)
        line_count = (data_bytes + LINE_BYTES - 1) // LINE_BYTES
        self._next_offset += line_count * LINE_BYTES
        self._line_counts[address] = line_count
        if line_count > self._max_record_lines:
            self._max_record_lines = line_count
        return address

    def iter_metadata(self):
        """(address, metadata) pairs of every record whose metadata has
        been built, in address order — used by crash scrubbing and leak
        checks, which only act on held locks (never-built metadata is
        unlocked)."""
        return sorted(self._metadata.items())

    def metadata(self, record_address: int) -> RecordMetadata:
        meta = self._metadata.get(record_address)
        if meta is None:
            meta = self._build_metadata(record_address)
        return meta

    def _build_metadata(self, record_address: int) -> RecordMetadata:
        line_count = self._line_counts.get(record_address)
        if line_count is None:
            raise KeyError(
                f"no record metadata at {record_address:#x} on node {self.node_id}")
        meta = self._metadata[record_address] = RecordMetadata(line_count)
        return meta

    def has_record(self, record_address: int) -> bool:
        return record_address in self._line_counts

    def record_address_of_line(self, line: int) -> int:
        """Base address of the record containing cache line ``line``.

        Records are line-aligned and allocated contiguously, so the
        owner of a line inside the allocated extent is the nearest
        record base at or below it, at most one record span back.
        """
        address = line * LINE_BYTES
        line_counts = self._line_counts
        if LINE_BYTES <= address - self._base < self._next_offset:
            for _ in range(self._max_record_lines):
                if address in line_counts:
                    return address
                address -= LINE_BYTES
        raise KeyError(f"line {line} is not inside any record on node "
                       f"{self.node_id}")

    def bump_versions_for_lines(self, lines: Iterable[int]) -> int:
        """Complete a write over ``lines``: bump each covered record's
        version (and per-line versions).  Returns records touched."""
        seen = set()
        for line in lines:
            seen.add(self.record_address_of_line(line))
        metadata = self._metadata
        for address in seen:
            meta = metadata.get(address)
            if meta is None:
                meta = self._build_metadata(address)
            meta.complete_write()
        return len(seen)

    @property
    def allocated_bytes(self) -> int:
        return self._next_offset - LINE_BYTES

    @property
    def line_count(self) -> int:
        return len(self._lines)
