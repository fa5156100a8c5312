"""Cache-hierarchy structures added by HADES.

Two models from Fig. 5:

* :class:`PrivateCacheFilter` — Module 1: per-core *Recorded RD* /
  *Recorded WR* filter bits in the private caches.  A set bit means the
  line's first transactional access already reached the directory, so
  subsequent accesses skip the WrTX_ID check.  Cleared on context switch.
* :class:`LlcModel` — a set-associative LLC whose lines carry WrTX_ID
  tags (Module 2).  Speculatively-written lines cannot be evicted while
  the writing transaction runs; if a set fills with speculative lines the
  LRU speculative line is evicted and its owner must be squashed
  (Section V-A "Transaction Squash", characterized in Section VIII-C).
  The replacement policy prefers non-speculative victims, matching the
  paper's modified policy for that experiment.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple


class PrivateCacheFilter:
    """Module 1 filter bits for one hardware context.

    With SMT, each transaction context gets its own filter (Section VI
    "Filter Bits in the Private Caches"); we instantiate one per
    multiplexed transaction slot.
    """

    def __init__(self) -> None:
        self._recorded_reads: Set[int] = set()
        self._recorded_writes: Set[int] = set()

    def has_recorded_read(self, line: int) -> bool:
        return line in self._recorded_reads

    def has_recorded_write(self, line: int) -> bool:
        return line in self._recorded_writes

    def record_read(self, line: int) -> None:
        self._recorded_reads.add(line)

    def record_write(self, line: int) -> None:
        # A write implies the directory tag is set, which also covers
        # subsequent reads by the same transaction.
        self._recorded_writes.add(line)
        self._recorded_reads.add(line)

    def clear(self) -> None:
        """Context switch: drop all filter bits (Section VI)."""
        self._recorded_reads.clear()
        self._recorded_writes.clear()

    @property
    def recorded_line_count(self) -> int:
        return len(self._recorded_reads | self._recorded_writes)


class LlcEviction(Tuple[int, Optional[int]]):
    """(line, evicted_speculative_owner) result of an LLC insertion."""


class LlcModel:
    """Set-associative LLC with WrTX_ID tags and speculation-aware LRU.

    Lines are identified by cache-line address (byte address //
    line_bytes is computed by the caller or via :meth:`line_of`).  The
    model tracks presence and speculative ownership; data values live in
    the node memory model, not here.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int = 64):
        if sets < 1 or ways < 1:
            raise ValueError(f"invalid geometry: {sets} sets x {ways} ways")
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        # Per set: dict line -> owner txid or None in LRU order, oldest
        # first (a hit pops and re-inserts).  Plain int dicts: the
        # cyclic collector never tracks them.
        self._sets: List[Dict[int, Optional[int]]] = [
            {} for _ in range(sets)
        ]
        self._speculative_lines: Dict[int, Set[int]] = {}
        self.eviction_count = 0
        self.speculative_eviction_count = 0

    def line_of(self, byte_address: int) -> int:
        return byte_address // self.line_bytes

    def set_index(self, line: int) -> int:
        return line % self.sets

    def touch(self, line: int, writer: Optional[int] = None) -> Optional[int]:
        """Access ``line``; insert it if absent.

        ``writer`` marks the line as speculatively written by that
        transaction.  Returns the owner of a speculatively-written line
        that had to be evicted to make room (the caller squashes it), or
        None.
        """
        target = self._sets[self.set_index(line)]
        if line in target:
            previous = target.pop(line)
            owner = writer if writer is not None else previous
            if previous is not None and writer is not None and previous != writer:
                # The protocol layer must have resolved the conflict
                # before overwriting; keep the newest writer.
                self._forget_speculative(previous, line)
            target[line] = owner
            if writer is not None:
                self._speculative_lines.setdefault(writer, set()).add(line)
            return None

        victim_owner = None
        if len(target) >= self.ways:
            victim_owner = self._evict_from(target)
        target[line] = writer
        if writer is not None:
            self._speculative_lines.setdefault(writer, set()).add(line)
        return victim_owner

    def _evict_from(self, target: Dict[int, Optional[int]]) -> Optional[int]:
        """Evict one line, preferring non-speculative victims (LRU order)."""
        self.eviction_count += 1
        for line, owner in target.items():
            if owner is None:
                del target[line]
                return None
        # Every way holds speculative data: evict the LRU line and report
        # its owner for squashing.
        line, owner = next(iter(target.items()))
        del target[line]
        self._forget_speculative(owner, line)
        self.speculative_eviction_count += 1
        return owner

    def _forget_speculative(self, owner: int, line: int) -> None:
        lines = self._speculative_lines.get(owner)
        if lines is not None:
            lines.discard(line)
            if not lines:
                del self._speculative_lines[owner]

    def lines_written_by(self, txid: int) -> Set[int]:
        """All LLC lines currently tagged WrTX_ID == txid (Fig. 8 search)."""
        return set(self._speculative_lines.get(txid, ()))

    def clear_tags(self, txid: int) -> int:
        """Make ``txid``'s lines non-speculative (commit Step 4).

        Returns the number of lines cleared.
        """
        lines = self._speculative_lines.pop(txid, set())
        for line in lines:
            target = self._sets[self.set_index(line)]
            if line in target and target[line] == txid:
                target[line] = None
        return len(lines)

    def invalidate_tags(self, txid: int) -> int:
        """Drop ``txid``'s speculative lines entirely (squash path)."""
        lines = self._speculative_lines.pop(txid, set())
        for line in lines:
            target = self._sets[self.set_index(line)]
            if line in target and target[line] == txid:
                del target[line]
        return len(lines)

    def speculative_line_count(self, txid: int) -> int:
        return len(self._speculative_lines.get(txid, ()))

    def wipe_tags(self) -> int:
        """Node crash: drop every transaction's speculative lines."""
        wiped = 0
        for txid in sorted(self._speculative_lines):
            wiped += self.invalidate_tags(txid)
        return wiped

    def contains(self, line: int) -> bool:
        return line in self._sets[self.set_index(line)]

    def warm(self, lines: Iterable[int]) -> None:
        """Pre-populate lines non-speculatively (warm-up)."""
        for line in lines:
            self.touch(line)
