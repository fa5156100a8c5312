"""Chained hash table (the paper's *HT* store).

Fixed power-of-two bucket array with separate chaining.  A lookup
probes the bucket and walks the chain — probe depth 1 + chain
position, which is ~1 at the default load factor.  The chains are kept
in a few flat containers the cyclic collector never walks (no list per
bucket, no tuple per key); a delete moves the later keys of its chain
up one, found by a scan of the keys past depth 1 (no workload deletes).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Optional, Tuple

from repro.hardware.crc import splitmix64
from repro.kvs.base import KeyValueStore, LookupResult


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


class HashTableStore(KeyValueStore):
    """Separate-chaining hash table."""

    kind = "ht"

    def __init__(self, expected_keys: int = 1024, load_factor: float = 0.75):
        if expected_keys < 1:
            raise ValueError("expected_keys must be positive")
        if load_factor <= 0:
            raise ValueError("load_factor must be positive")
        bucket_target = max(1, int(expected_keys / load_factor))
        self.bucket_count = _next_power_of_two(bucket_target)
        #: key -> record id; key -> 1-based chain position, for the
        #: keys past position 1; bucket -> chain length.
        self._records: Dict[int, int] = {}
        self._depths: Dict[int, int] = {}
        self._lengths = array("I", bytes(4 * self.bucket_count))

    def insert(self, key: int, record_id: int) -> None:
        self.bulk_load(((key, record_id),))

    def bulk_load(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """:meth:`insert` each pair in order, without a method call per
        key; a repeated key replaces its record id in place."""
        records = self._records
        depths = self._depths
        lengths = self._lengths
        mask = self.bucket_count - 1
        for key, record_id in pairs:
            if key not in records:
                bucket = splitmix64(key) & mask
                depth = lengths[bucket] = lengths[bucket] + 1
                if depth > 1:
                    depths[key] = depth
            records[key] = record_id

    def lookup(self, key: int) -> Optional[LookupResult]:
        record_id = self._records.get(key)
        if record_id is None:
            return None
        return LookupResult(record_id, probe_depth=self._depths.get(key, 1))

    def delete(self, key: int) -> bool:
        if key not in self._records:
            return False
        del self._records[key]
        depths = self._depths
        mask = self.bucket_count - 1
        bucket = splitmix64(key) & mask
        self._lengths[bucket] -= 1
        depth = depths.pop(key, 1)
        for other, other_depth in list(depths.items()):
            if other_depth > depth and splitmix64(other) & mask == bucket:
                if other_depth == 2:
                    del depths[other]
                else:
                    depths[other] = other_depth - 1
        return True

    def __len__(self) -> int:
        return len(self._records)

    def max_chain_length(self) -> int:
        return max(self._lengths)
