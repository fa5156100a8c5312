"""A reference engine for the engine's property tests: one binary heap
and nothing else.

``post`` is ``schedule(0)``, and a process sleep is two heap entries
whose wake takes a fresh sequence number at its deadline — the
dispatch order the production engine's heap + now-FIFO must reproduce
without consuming that sequence number.
"""

import heapq

from repro.sim import Engine


class _HeapLane:
    """The reference engine's stand-in for the now-FIFO.  A sleep's
    deadline hop appends its wake here; the wake is pushed on the heap
    with a fresh sequence number, as a second scheduler hop would."""

    def __init__(self, engine):
        self._engine = engine

    def append(self, entry):
        engine = self._engine
        entry[0] = engine.now
        entry[1] = next(engine._sequence)
        heapq.heappush(engine._queue, entry)

    def __len__(self):
        return 0

    def clear(self):
        pass


class HeapOracle(Engine):
    """The pure-heap reference engine (see the module docstring)."""

    def __init__(self):
        super().__init__()
        self._now = _HeapLane(self)

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        entry = [self.now + delay, next(self._sequence), callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def post(self, callback, *args):
        return self.schedule(0.0, callback, *args)

    def _compact(self):
        self._queue[:] = [e for e in self._queue if e[2] is not None]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def run(self, until=None):
        queue = self._queue
        while queue:
            entry = queue[0]
            if until is not None and entry[0] > until:
                break
            heapq.heappop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = entry[0]
            entry[2] = None
            self.events_processed += 1
            callback(*entry[3])
        if until is not None and self.now < until:
            self.now = until
        return self.now
