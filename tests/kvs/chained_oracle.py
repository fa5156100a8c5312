"""A reference hash table for the HT store's property tests: one list
per bucket and one ``(key, record_id)`` tuple per key.

This is the chained layout :class:`repro.kvs.HashTableStore` used to
keep.  The store now keeps its chains in plain int dicts; it must
report exactly the record ids and chain positions (probe depths) this
table does, for any sequence of inserts, bulk loads, replaces and
deletes.
"""

from repro.hardware.crc import splitmix64
from repro.kvs.base import LookupResult
from repro.kvs.hashtable import _next_power_of_two


class ChainedOracle:
    def __init__(self, expected_keys=1024, load_factor=0.75):
        bucket_target = max(1, int(expected_keys / load_factor))
        self.bucket_count = _next_power_of_two(bucket_target)
        self._buckets = [[] for _ in range(self.bucket_count)]
        self._size = 0

    def _bucket(self, key):
        return self._buckets[splitmix64(key) & (self.bucket_count - 1)]

    def insert(self, key, record_id):
        bucket = self._bucket(key)
        for index, (existing, _record) in enumerate(bucket):
            if existing == key:
                bucket[index] = (key, record_id)
                return
        bucket.append((key, record_id))
        self._size += 1

    def bulk_load(self, pairs):
        for key, record_id in pairs:
            self.insert(key, record_id)

    def lookup(self, key):
        for position, (existing, record_id) in enumerate(self._bucket(key)):
            if existing == key:
                return LookupResult(record_id, probe_depth=1 + position)
        return None

    def delete(self, key):
        bucket = self._bucket(key)
        for index, (existing, _record) in enumerate(bucket):
            if existing == key:
                del bucket[index]
                self._size -= 1
                return True
        return False

    def __len__(self):
        return self._size

    def max_chain_length(self):
        return max(len(bucket) for bucket in self._buckets)
