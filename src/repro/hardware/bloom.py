"""Bloom filters for transaction read/write-set tracking.

Two designs from the paper:

* :class:`BloomFilter` — a plain bit-array filter with CRC hashing, used
  for the core *read* BFs (1024 bits) and the NIC read/write BFs
  (1024 bits each) — Table III.
* :class:`SplitWriteBloomFilter` — the Fig. 8 write-BF design: WrBF1
  (512 bits, CRC-hashed) plus WrBF2 (4096 bits, indexed by the LLC set
  bits modulo the filter size).  Membership requires a hit in *both*
  sections; WrBF2's structure additionally lets the hardware enable only
  the LLC sets that might hold a transaction's written lines
  (:meth:`SplitWriteBloomFilter.enabled_llc_sets`).

Filters track ``inserted_count`` (raw inserts, for the energy model)
and ``distinct_inserted_count`` (unique keys — the quantity
:meth:`analytic false-positive rates
<BloomFilter.analytic_false_positive_rate>` for Table IV are defined
over; under zipfian workloads the two diverge sharply).

The bit state lives in a single Python integer per section: an insert
is one ``|=`` with a memoized per-key mask, a probe one ``&``, and
``clear()`` is O(1) — see :class:`repro.hardware.crc.HashFamily`.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Set

from repro.hardware.crc import hash_family, shared_hash_family

__all__ = [
    "BLOOM_OPS",
    "BloomFilter",
    "SplitWriteBloomFilter",
    "make_core_read_filter",
    "make_core_write_filter",
    "make_nic_filter_pair",
    "hash_family",
    "split_index_stats",
    "clear_split_index_caches",
]

#: Process-wide ``key -> WrBF2 bit position`` memos, keyed by the split
#: filter's shape ``(line_bytes, llc_sets, index_bits)``.  The position
#: is a pure function of shape and key, so sharing (across the
#: per-attempt filter instances *and* across runs) can change wall-clock
#: time only — audited by :mod:`repro.isolation`.
_INDEX_POSITION_CACHES: dict = {}

#: Same safety valve as the CRC mask caches: far above any workload's
#: line working set.
_INDEX_CACHE_LIMIT = 1 << 20


class BloomOpCounters:
    """Process-wide BF access totals for the Table III energy model.

    Each ``insert`` is one BF write access, each ``might_contain`` one
    BF read access (per section for :class:`SplitWriteBloomFilter`).
    The totals live on this ``__slots__`` instance, never on a class:
    on CPython every store to a class attribute invalidates that
    type's attribute and method caches, which would de-specialise
    every Bloom access on the hot path (see docs/PERFORMANCE.md).
    """

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0


#: The one counter object every filter charges.
BLOOM_OPS = BloomOpCounters()


def split_index_stats() -> dict:
    """Occupancy of the WrBF2 position memos, for the isolation audit."""
    return {f"{lb}x{sets}x{bits}": len(cache)
            for (lb, sets, bits), cache in sorted(_INDEX_POSITION_CACHES.items())}


def clear_split_index_caches() -> None:
    """Drop every WrBF2 position memo (filters re-memoize lazily)."""
    _INDEX_POSITION_CACHES.clear()


class BloomFilter:
    """A standard Bloom filter over integer keys (cache-line addresses).

    Every access is charged to :data:`BLOOM_OPS`, which feeds the
    Table III energy model (:mod:`repro.hardware.energy`): each
    ``insert`` is one BF write access, each ``might_contain`` one BF
    read access.
    """

    @staticmethod
    def reset_stats() -> None:
        """Zero the process-wide :data:`BLOOM_OPS` access totals."""
        BLOOM_OPS.reads = 0
        BLOOM_OPS.writes = 0

    def __init__(self, bits: int, hashes: int = 2):
        if bits < 8:
            raise ValueError(f"filter too small: {bits} bits")
        self.bits = bits
        self.hashes = hashes
        self._family = shared_hash_family(hashes, bits)
        #: Alias of the shared family's key->mask memo — the same dict
        #: object for the family's whole life (``HashFamily.mask``
        #: clears it in place at its safety valve), so the hot probe /
        #: insert path is one dict hit with no method call; misses fall
        #: back to ``self._family.mask`` which repopulates it.
        self._mask_cache = self._family._masks
        self._bitmask = 0
        #: Raw insert count, duplicates included (each is a BF write).
        self.inserted_count = 0
        self._keys: Set[int] = set()

    @property
    def distinct_inserted_count(self) -> int:
        """Unique keys inserted since the last :meth:`clear`.

        This — not ``inserted_count`` — is the ``inserted`` argument
        :meth:`analytic_false_positive_rate` assumes: occupancy depends
        on distinct keys, and zipfian workloads re-insert hot keys.
        """
        return len(self._keys)

    def _positions(self, key: int) -> List[int]:
        return self._family.positions(key)

    def insert(self, key: int) -> None:
        """Insert a key; duplicates still count toward ``inserted_count``."""
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = self._family.mask(key)
        self._bitmask |= mask
        self.inserted_count += 1
        self._keys.add(key)
        BLOOM_OPS.writes += 1

    def insert_all(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.insert(key)

    def might_contain(self, key: int) -> bool:
        """Membership test — may return false positives, never negatives."""
        BLOOM_OPS.reads += 1
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = self._family.mask(key)
        return self._bitmask & mask == mask

    def clear(self) -> None:
        """Reset the filter (transaction commit/squash) — O(1)."""
        self._bitmask = 0
        self.inserted_count = 0
        self._keys.clear()

    @property
    def is_empty(self) -> bool:
        return self._bitmask == 0

    def set_bit_count(self) -> int:
        """Number of bits currently set (occupancy diagnostics)."""
        return bin(self._bitmask).count("1")

    def analytic_false_positive_rate(self, inserted: int) -> float:
        """Expected FP rate after ``inserted`` *distinct* keys (Table IV)."""
        if inserted < 0:
            raise ValueError(f"negative insert count: {inserted}")
        if inserted == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.hashes * inserted / self.bits)
        return fill ** self.hashes

    def storage_bytes(self) -> int:
        return self.bits // 8 + (1 if self.bits % 8 else 0)


class SplitWriteBloomFilter:
    """The Fig. 8 split write-BF: CRC section + LLC-index section.

    ``llc_sets`` is the number of sets in the node's LLC; WrBF2 maps a
    line's LLC index modulo ``index_bits``, so each WrBF2 bit covers
    ``llc_sets / index_bits`` sets (when the LLC has more sets than the
    filter has bits) and a set WrBF2 bit enables those sets during the
    parallel WrTX_ID search.
    """

    def __init__(
        self,
        crc_bits: int = 512,
        index_bits: int = 4096,
        crc_hashes: int = 1,
        llc_sets: int = 4096,
        line_bytes: int = 64,
    ):
        if llc_sets < 1:
            raise ValueError(f"llc_sets must be positive: {llc_sets}")
        self.crc_section = BloomFilter(crc_bits, crc_hashes)
        self.index_bits = index_bits
        self.llc_sets = llc_sets
        self.line_bytes = line_bytes
        shape = (line_bytes, llc_sets, index_bits)
        positions = _INDEX_POSITION_CACHES.get(shape)
        if positions is None:
            positions = _INDEX_POSITION_CACHES[shape] = {}
        #: Shared ``key -> WrBF2 bit position`` memo for this shape.
        self._index_positions = positions
        self._index_bitmask = 0
        self.inserted_count = 0
        self._keys: Set[int] = set()

    @property
    def bits(self) -> int:
        return self.crc_section.bits + self.index_bits

    @property
    def distinct_inserted_count(self) -> int:
        """Unique keys inserted since the last :meth:`clear`."""
        return len(self._keys)

    def _llc_index(self, key: int) -> int:
        """LLC set index of a cache-line address."""
        return (key // self.line_bytes) % self.llc_sets

    def _index_position(self, key: int) -> int:
        return self._llc_index(key) % self.index_bits

    def insert(self, key: int) -> None:
        self.crc_section.insert(key)
        positions = self._index_positions
        position = positions.get(key)
        if position is None:
            if len(positions) >= _INDEX_CACHE_LIMIT:
                positions.clear()
            position = positions[key] = (
                (key // self.line_bytes) % self.llc_sets % self.index_bits)
        self._index_bitmask |= 1 << position
        # The WrBF2 index-array update is a BF write access of its own
        # (WrBF1's was counted by crc_section.insert) — the Table III
        # energy model charges both sections.
        BLOOM_OPS.writes += 1
        self.inserted_count += 1
        self._keys.add(key)

    def insert_all(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.insert(key)

    def might_contain(self, key: int) -> bool:
        """Membership requires a hit in both WrBF1 and WrBF2.

        The hardware probes both sections in parallel, so a probe costs
        one read access per section regardless of the outcome — a WrBF2
        miss does not save WrBF1's (already issued) access.
        """
        BLOOM_OPS.reads += 1  # WrBF2 index-array probe
        positions = self._index_positions
        position = positions.get(key)
        if position is None:
            if len(positions) >= _INDEX_CACHE_LIMIT:
                positions.clear()
            position = positions[key] = (
                (key // self.line_bytes) % self.llc_sets % self.index_bits)
        if not (self._index_bitmask >> position) & 1:
            BLOOM_OPS.reads += 1  # parallel WrBF1 probe
            return False
        return self.crc_section.might_contain(key)

    def clear(self) -> None:
        self.crc_section.clear()
        self._index_bitmask = 0
        self.inserted_count = 0
        self._keys.clear()

    @property
    def is_empty(self) -> bool:
        return self.crc_section.is_empty and self._index_bitmask == 0

    def enabled_llc_sets(self) -> Set[int]:
        """LLC sets that may hold lines written by the owner transaction.

        This is the Fig. 8 fast path: each set WrBF2 bit enables the LLC
        sets that map to it, and only those sets compare their WrTX_ID
        tags against the transaction ID.
        """
        enabled: Set[int] = set()
        remaining = self._index_bitmask
        while remaining:
            low_bit = remaining & -remaining
            position = low_bit.bit_length() - 1
            remaining ^= low_bit
            llc_set = position
            while llc_set < self.llc_sets:
                enabled.add(llc_set)
                llc_set += self.index_bits
        return enabled

    def analytic_false_positive_rate(self, inserted: int) -> float:
        """Expected FP rate of the split design (product of sections)."""
        if inserted < 0:
            raise ValueError(f"negative insert count: {inserted}")
        if inserted == 0:
            return 0.0
        crc_rate = self.crc_section.analytic_false_positive_rate(inserted)
        index_fill = 1.0 - math.exp(-inserted / self.index_bits)
        return crc_rate * index_fill

    def storage_bytes(self) -> int:
        return (self.crc_section.storage_bytes()
                + self.index_bits // 8 + (1 if self.index_bits % 8 else 0))


def make_core_read_filter(bloom_params) -> BloomFilter:
    """Core-side read BF per Table III (1024 bits)."""
    return BloomFilter(bloom_params.core_read_bits, bloom_params.core_read_hashes)


def make_core_write_filter(bloom_params, llc_sets: int) -> SplitWriteBloomFilter:
    """Core-side split write BF per Table III (512 + 4096 bits)."""
    return SplitWriteBloomFilter(
        crc_bits=bloom_params.core_write_crc_bits,
        index_bits=bloom_params.core_write_index_bits,
        crc_hashes=bloom_params.core_write_crc_hashes,
        llc_sets=llc_sets,
    )


def make_nic_filter_pair(bloom_params) -> "tuple[BloomFilter, BloomFilter]":
    """NIC-side (read, write) BF pair per Table III (1024 bits each)."""
    read_bf = BloomFilter(bloom_params.nic_read_bits, bloom_params.nic_hashes)
    write_bf = BloomFilter(bloom_params.nic_write_bits, bloom_params.nic_hashes)
    return read_bf, write_bf
