"""The discrete-event simulation engine.

:class:`Engine` owns the simulated clock (a float, in nanoseconds) and
the scheduled-callback queue.  :class:`Process` wraps a Python
generator into a schedulable process: the generator yields what it waits
for and the engine resumes it when that thing happens.

Yieldable values inside a process generator:

* ``float`` / ``int`` — sleep for that many nanoseconds.
* :class:`~repro.sim.events.Event` (including :class:`Process`) — wait
  until it triggers; the ``yield`` expression evaluates to the event's
  value.
* ``None`` — yield the CPU for zero time (resume immediately, after any
  events already scheduled for *now*).

A process may be :meth:`interrupted <Process.interrupt>`: an
:class:`~repro.sim.events.Interrupt` is thrown into its generator at the
current wait point.  Generators can catch it (transaction restart) or let
it unwind (process death).

Scheduled entries are mutable ``[when, seq, callback, args]`` lists so a
scheduled callback can be cancelled lazily: :meth:`Engine.cancel` nulls
the callback in place and the run loop skips the husk when it surfaces,
instead of paying an O(n) removal.  The run loop also nulls the callback
at dispatch time, so cancelling an entry that has *already fired* is a
true no-op — it neither corrupts the cancellation counter nor skews the
compaction trigger.  Dead entries are compacted away if they ever
dominate the queues (retry storms arm and abandon timers far faster than
their deadlines pass).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from repro.sim.events import CompletionEvent, Event, Interrupt, Timeout

ProcessGenerator = Generator[Any, Any, Any]

#: A scheduled-callback entry: ``[when, seq, callback, args]``.
#: ``seq`` is unique per heap entry, so ordering comparisons never reach
#: the callback field and cancellation can mutate it freely.
ScheduledEntry = List[Any]

#: Compaction threshold: rebuild the queues once more than this many
#: cancelled entries accumulate *and* they outnumber live ones.
_COMPACT_MIN_CANCELLED = 64


class Engine:
    """Deterministic event loop with a nanosecond clock.

    Two queues, drained in global ``(when, seq)`` order:

    * ``_queue`` — a binary heap of entries due in the future.
    * ``_now`` — FIFO of entries due exactly at the current timestamp.
      Zero-delay work (process resumes, event callbacks, sleep wakes)
      lands here and is drained in append order.  Every entry in it was
      created after every heap entry due now, so append order *is*
      ``seq`` order and FIFO entries need no sequence number: ``seq`` is
      only ever compared inside the heap.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._sequence = itertools.count()
        self._live: set = set()  # unfinished processes (see close)
        self._cancelled = 0  # dead entries still sitting in the queues
        #: Callbacks executed so far (skipped cancellations excluded) —
        #: the numerator of the benchmark harness's events/sec.
        self.events_processed = 0
        #: The process currently executing, if any — lets library code
        #: running inside a process discover its own Process handle
        #: (used to register transactions for squash interrupts).
        self.current_process: Optional["Process"] = None
        #: Optional :class:`~repro.obs.tracer.EventTracer`; None (the
        #: default) keeps every hook to a single attribute check.
        self.tracer = None
        self._now: deque = deque()
        self._queue: list = []

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> ScheduledEntry:
        """Run ``callback(*args)`` ``delay`` nanoseconds from now.

        Returns the entry, which can be passed to :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        tracer = self.tracer
        now = self.now
        when = now + delay
        if tracer is not None and tracer.capture_schedules:
            tracer.engine_schedule(now, when,
                                   getattr(callback, "__qualname__",
                                           repr(callback)))
        if when == now:
            entry = [when, 0, callback, args]
            self._now.append(entry)
        else:
            entry = [when, next(self._sequence), callback, args]
            heapq.heappush(self._queue, entry)
        return entry

    def post(self, callback: Callable, *args: Any) -> ScheduledEntry:
        """Schedule ``callback(*args)`` at the current timestamp.

        Semantically identical to ``schedule(0.0, ...)`` — same dispatch
        order — but skips the delay bookkeeping.  This is the zero-delay
        fast path used by process resumes and event callbacks.
        """
        tracer = self.tracer
        if tracer is not None and tracer.capture_schedules:
            tracer.engine_schedule(self.now, self.now,
                                   getattr(callback, "__qualname__",
                                           repr(callback)))
        entry = [self.now, 0, callback, args]
        self._now.append(entry)
        return entry

    def cancel(self, entry: ScheduledEntry) -> None:
        """Lazily cancel a scheduled entry.

        No-op if the entry was already cancelled *or already fired*: the
        run loop nulls the callback at dispatch time, so a stale cancel
        from a retry loop cannot inflate ``_cancelled`` for a husk that
        is no longer queued.
        """
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._cancelled += 1
        if (self._cancelled > _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._queue) + len(self._now)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled husks from both queues in place: the run loop
        holds local bindings to them, and pending sleep hops hold the
        FIFO's bound ``append``."""
        live = [e for e in self._now if e[2] is not None]
        self._now.clear()
        self._now.extend(live)
        self._queue[:] = [e for e in self._queue if e[2] is not None]
        heapq.heapify(self._queue)
        self._cancelled = 0

    # -- factories -----------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def process(self, generator: ProcessGenerator, name: str = "") -> "Process":
        """Start ``generator`` as a new process, beginning at the current time."""
        return Process(self, generator, name=name)

    # -- the run loop --------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queues drain or the clock passes ``until``.

        Returns the final simulation time.  With ``until`` set, the clock
        is advanced exactly to ``until`` even if the last event fired
        earlier, so throughput denominators are well defined.

        At each timestamp the heap entries due now drain first (their
        sequence numbers predate anything created *at* this timestamp),
        then the now-FIFO drains in append order.  Only then does the
        clock advance to the heap head.  ``events_processed`` is
        incremented per dispatched event (not batched at loop exit) so
        in-simulation observers — the telemetry sampler — read a live
        count.
        """
        nowq = self._now
        queue = self._queue
        heappop = heapq.heappop
        popleft = nowq.popleft
        while True:
            now = self.now
            # -- entries scheduled earlier that are due exactly now ----
            while queue and queue[0][0] == now:
                entry = heappop(queue)
                callback = entry[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = None
                self.events_processed += 1
                callback(*entry[3])
            # -- entries created at this timestamp, in creation order --
            while nowq:
                entry = popleft()
                callback = entry[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = None
                self.events_processed += 1
                callback(*entry[3])
            # -- advance the clock to the heap head ---------------------
            if not queue:
                break  # fully drained
            entry = queue[0]
            when = entry[0]
            if until is not None and when > until:
                break
            heappop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = when
            entry[2] = None
            self.events_processed += 1
            callback(*entry[3])
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def close(self) -> None:
        """End of run: drop the queued entries and close every unfinished
        generator (none has a ``finally`` or a broad ``except``), so no
        engine <-> process reference cycle outlives the run."""
        self._now.clear()
        self._queue.clear()
        for process in self._live:
            process._close()
        self._live.clear()

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if none is pending."""
        for entry in self._now:
            if entry[2] is not None:
                return entry[0]
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None


class Process(CompletionEvent):
    """A running generator-based process.

    A ``Process`` is itself an event that triggers when the generator
    returns (value = generator return value) or dies with an exception.

    A sleep is two engine events with no Python frame between them: a
    deadline hop whose callback is the now-FIFO's C-level ``append``,
    and the wake entry it appends, whose callback is :meth:`_resume`.
    The wake lands at the FIFO position a wake posted at the deadline
    would take, so the dispatch order is that of a fresh zero-delay post.
    """

    def __init__(self, engine: Engine, generator: ProcessGenerator, name: str = ""):
        super().__init__(engine)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: Deadline hop of the latest sleep; its ``args`` hold the wake.
        #: Left in place once the sleep completes (cancelling a fired
        #: entry is a no-op), so the wake path does no bookkeeping.
        self._sleep_entry: Optional[ScheduledEntry] = None
        self._alive = True
        engine._live.add(self)
        if engine.tracer is not None:
            engine.tracer.process_start(engine.now, self.name)
        engine.post(self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        No-op on a dead process.  The current wait is disarmed first, so
        a later trigger of the awaited event — or a pending sleep — does
        not resume the process a second time.
        """
        if not self._alive:
            return
        self._disarm()
        self.engine.post(self._resume, None, Interrupt(cause))

    # -- internals ---------------------------------------------------

    def _close(self) -> None:
        """Engine teardown: close the generator, drop what it waits on."""
        self._alive = False
        self._waiting_on = self._sleep_entry = None
        self._generator.close()

    def _disarm(self) -> None:
        """Cancel whatever the process is parked on, if anything."""
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._on_event)
            self._waiting_on = None
        hop = self._sleep_entry
        if hop is not None:
            self._sleep_entry = None
            # Before the deadline the hop is pending; after it, the wake
            # the hop appended may be.  Both are None once the wake ran.
            pending = hop if hop[2] is not None else hop[3][0]
            if pending[2] is not None:
                self.engine.cancel(pending)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            # Stale wake: the process was interrupted after this event
            # already captured its callbacks (same-timestamp race) and
            # has moved on to a different wait — or none at all.
            # Delivering the stale value to the wrong yield point would
            # corrupt the generator's control flow.
            return
        self._waiting_on = None
        exception = getattr(event, "exception", None)
        if exception is not None:
            self._resume(None, exception)
        else:
            self._resume(event.value, None)

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        if not self._alive:
            return
        engine = self.engine
        previous = engine.current_process
        engine.current_process = self
        try:
            if exception is None:
                yielded = self._generator.send(value)
            else:
                # A resume posted before the process last yielded (its
                # start, a ``yield None``) may have let it arm a new wait
                # since the exception was sent; that wait must not fire
                # as well.
                self._disarm()
                yielded = self._generator.throw(exception)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Interrupt as interrupt:
            # An uncaught interrupt kills the process quietly: this is
            # the normal fate of a squashed helper process.
            self._finish(None, interrupt)
            return
        except BaseException as error:  # noqa: BLE001 - route to waiters
            self._finish(None, error)
            return
        finally:
            engine.current_process = previous
        # Exact-float test first: most yields are float sleeps.
        if yielded.__class__ is float or isinstance(yielded, (int, float)):
            if yielded < 0:
                # Route through _finish like any other bad yield, so the
                # process dies with consistent bookkeeping (_alive,
                # _live, tracer process_end) instead of unwinding the
                # run loop with a half-dead process left behind.
                self._finish(None, ValueError(
                    f"negative delay: {float(yielded)}"))
                return
            wake = [engine.now + yielded, 0, self._resume, (None, None)]
            self._sleep_entry = engine.schedule(yielded, engine._now.append,
                                                wake)
        elif isinstance(yielded, Event):
            self._waiting_on = yielded
            yielded.add_callback(self._on_event)
        elif yielded is None:
            engine.post(self._resume, None, None)
        else:
            self._finish(None, TypeError(
                f"process {self.name!r} yielded {yielded!r}"))

    def _finish(self, value: Any, exception: Optional[BaseException]) -> None:
        self._alive = False
        self.engine._live.discard(self)
        if self.engine.tracer is not None:
            if exception is None:
                outcome = "returned"
            elif isinstance(exception, Interrupt):
                outcome = "interrupted"
            else:
                outcome = type(exception).__name__
            self.engine.tracer.process_end(self.engine.now, self.name, outcome)
        if exception is not None and not isinstance(exception, Interrupt):
            if self._callbacks:
                self.fail(exception)
                return
            # A real error should not pass silently: with nobody waiting
            # it leaves through the run loop, kept neither on the process
            # nor in this frame (its traceback holds both: a cycle).
            self.triggered = True
            try:
                raise exception
            finally:
                exception = None
        else:
            self.exception = exception
            if not self.triggered:
                self.succeed(value)
