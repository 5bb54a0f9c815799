"""The discrete-event simulation kernel.

``EventQueue`` is the heart of the gem5-like simulator: a priority queue
of :class:`~repro.events.event.Event` ordered by ``(tick, priority,
insertion order)``, plus a run loop with exit-event and max-tick support.
This mirrors gem5's ``EventQueue`` + ``simulate()`` pair.

The common simulation pattern is a single self-rescheduling event (a
CPU tick) with nothing else pending, which on a plain binary heap still
pays a ``heappush``/``heappop`` pair per instruction.  Two mechanisms
remove that cost while preserving the exact event ordering:

- a one-element *next-event slot* in front of the heap.  An event that
  sorts before everything in the heap is parked in the slot instead of
  being pushed; the run loop consumes it without touching the heap.  The
  invariant is that a live slot entry never sorts after the heap head, so
  ordering is identical to a pure heap.
- :meth:`advance_if_idle` lets a self-rescheduling component ask "if I
  rescheduled myself at tick T, would I be the next event anyway?" — and
  if so, simply advances ``now`` to T with no queue traffic at all.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from .event import CallbackEvent, Event, ExitEvent, _sequence


class EventQueueError(RuntimeError):
    """Raised on scheduling misuse (past-tick schedules, double schedule)."""


class EventQueue:
    """A deterministic discrete-event queue.

    The queue never moves time backwards; scheduling an event in the past
    raises :class:`EventQueueError`.  Squashed events stay in the heap and
    are discarded lazily when they reach the head, matching gem5's
    approach to descheduling.
    """

    def __init__(self, name: str = "MainEventQueue") -> None:
        self.name = name
        self.now: int = 0
        # Heap entries carry the event's schedule generation (its _seq)
        # so stale entries left by deschedule/reschedule are skipped.
        self._heap: list[tuple[tuple[int, int, int], int, Event]] = []
        # Next-event slot: holds the entry that sorts before the whole
        # heap, or None.  Entries have the same shape as heap entries.
        self._next: Optional[tuple[tuple[int, int, int], int, Event]] = None
        self._events_processed = 0
        self._exit_event: Optional[ExitEvent] = None
        # Limits of the currently-active run(), consulted by
        # advance_if_idle so the bypass never overruns them.
        self._run_max_tick: Optional[int] = None
        self._run_limited = False
        # Upper bound (exclusive, a (tick, priority, seq) key) of the
        # currently-active run_window(); None outside a window.  The
        # sharded engine clamps it mid-window when a cross-queue send
        # must interleave before this queue's remaining events.
        self._window_bound: Optional[tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Event, when: int) -> Event:
        """Schedule ``event`` to fire at absolute tick ``when``."""
        if when < self.now:
            raise EventQueueError(
                f"cannot schedule {event.name!r} at tick {when}; "
                f"current tick is {self.now}")
        if event.scheduled:
            raise EventQueueError(
                f"event {event.name!r} is already scheduled for tick "
                f"{event.when}; deschedule or squash it first")
        event._mark_scheduled(when)
        entry = (event.sort_key(), event._seq, event)
        nxt = self._next
        if nxt is None:
            if not self._heap or entry < self._heap[0]:
                self._next = entry
                return event
        elif entry < nxt:
            # Demote the slot occupant (possibly stale) to the heap; it
            # still sorts at or before every heap entry, so the slot
            # invariant survives.
            heapq.heappush(self._heap, nxt)
            self._next = entry
            return event
        heapq.heappush(self._heap, entry)
        return event

    def schedule_in(self, event: Event, delay: int) -> Event:
        """Schedule ``event`` ``delay`` ticks from now."""
        if delay < 0:
            raise EventQueueError(f"delay cannot be negative, got {delay}")
        return self.schedule(event, self.now + delay)

    def schedule_fresh(self, event: Event, when: int) -> None:
        """Minimal-overhead schedule for a freshly built event.

        A thread spawn on a sharded multi-core system starts the worker
        on its own domain's queue at the caller's tick.  The event is
        constructed at its send site and scheduled exactly once, and the
        sharded engine only ever runs the domain holding the globally
        smallest key, so the past-tick and double-schedule guards of
        :meth:`schedule` cannot trip; this skips them.
        """
        event.when = when
        event._seq = seq = next(_sequence)
        event._scheduled = True
        entry = ((when, event.priority, seq), seq, event)
        nxt = self._next
        if nxt is None:
            if not self._heap or entry < self._heap[0]:
                self._next = entry
                return
        elif entry < nxt:
            heapq.heappush(self._heap, nxt)
            self._next = entry
            return
        heapq.heappush(self._heap, entry)

    def call_at(self, when: int, callback: Callable[[], None],
                name: str = "", priority: int = 0) -> CallbackEvent:
        """Convenience: schedule ``callback`` at absolute tick ``when``."""
        event = CallbackEvent(callback, name=name, priority=priority)
        self.schedule(event, when)
        return event

    def call_in(self, delay: int, callback: Callable[[], None],
                name: str = "", priority: int = 0) -> CallbackEvent:
        """Convenience: schedule ``callback`` ``delay`` ticks from now."""
        event = CallbackEvent(callback, name=name, priority=priority)
        self.schedule_in(event, delay)
        return event

    def deschedule(self, event: Event) -> None:
        """Cancel a scheduled event (lazy removal)."""
        if not event.scheduled:
            raise EventQueueError(f"event {event.name!r} is not scheduled")
        event.squash()

    def reschedule(self, event: Event, when: int) -> Event:
        """Move a (possibly scheduled) event to a new tick."""
        if event.scheduled:
            event.squash()
        return self.schedule(event, when)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        count = sum(1 for key, seq, ev in self._heap
                    if not ev.squashed and ev._seq == seq)
        nxt = self._next
        if nxt is not None and not nxt[2].squashed and nxt[2]._seq == nxt[1]:
            count += 1
        return count

    def empty(self) -> bool:
        return len(self) == 0

    def next_tick(self) -> Optional[int]:
        """Tick of the next live event, or ``None`` if the queue is empty."""
        entry = self._peek_live()
        return None if entry is None else entry[2].when

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def exit_simulation(self, cause: str, code: int = 0,
                        when: Optional[int] = None) -> ExitEvent:
        """Schedule an exit event (defaults to the current tick)."""
        event = ExitEvent(cause, code)
        self.schedule(event, self.now if when is None else when)
        return event

    def advance_if_idle(self, when: int, priority: int) -> bool:
        """Fast-forward ``now`` to ``when`` if nothing would fire first.

        This is the zero-heap tick loop: a self-rescheduling component
        about to schedule its next firing at ``(when, priority)`` calls
        this instead; ``True`` means time has been advanced and the
        component should just keep running (no schedule/pop round-trip),
        ``False`` means another event (or a run() limit) intervenes and
        the caller must schedule normally.
        """
        if self._run_limited:
            # A max_events-limited run counts real pops; never bypass.
            return False
        if self._run_max_tick is not None and when > self._run_max_tick:
            return False
        bound = self._window_bound
        if bound is not None and (when, priority) >= bound[:2]:
            # A fresh schedule would draw a newer (larger) sequence
            # number than the event at the bound, so a (when, priority)
            # tie also sorts at-or-after the bound: never bypass it.
            return False
        entry = self._peek_live()
        if entry is not None:
            ewhen, epri, _ = entry[0]
            if ewhen < when or (ewhen == when and epri <= priority):
                return False
        self.now = when
        return True

    def run(self, max_tick: Optional[int] = None,
            max_events: Optional[int] = None) -> ExitEvent:
        """Run until an exit event fires, the queue drains, or a limit hits.

        Returns the :class:`ExitEvent` describing why the loop stopped,
        synthesising one for drain/limit conditions the way gem5's
        ``simulate()`` reports "simulate() limit reached".
        """
        self._exit_event = None
        self._run_max_tick = max_tick
        self._run_limited = max_events is not None
        processed_this_run = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            # Inlined _peek_live, as in run_window: this loop runs once
            # per event of every single-queue simulation.
            while True:
                entry = self._next
                if entry is not None and (entry[2]._squashed
                                          or entry[2]._seq != entry[1]):
                    self._next = entry = None
                if entry is None:
                    while heap and (heap[0][2]._squashed
                                    or heap[0][2]._seq != heap[0][1]):
                        heappop(heap)
                    if not heap:
                        return ExitEvent("event queue empty", code=0)
                    entry = heap[0]
                event = entry[2]
                if max_tick is not None and event.when > max_tick:
                    self.now = max_tick
                    return ExitEvent("simulate() limit reached", code=0)
                if entry is self._next:
                    self._next = None
                else:
                    heappop(heap)
                self.now = event.when
                event._scheduled = False
                self._events_processed += 1
                processed_this_run += 1
                if isinstance(event, ExitEvent):
                    self._exit_event = event
                    return event
                event.process()
                if max_events is not None and processed_this_run >= max_events:
                    return ExitEvent("event count limit reached", code=0)
        finally:
            self._run_max_tick = None
            self._run_limited = False

    # ------------------------------------------------------------------
    # windowed execution (sharded simulation)
    # ------------------------------------------------------------------
    def clamp_window(self, key: tuple[int, int, int]) -> None:
        """Shrink the active window so no event at/after ``key`` fires.

        Called by boundary links and cross-queue thread spawns when they
        schedule onto another queue mid-window: the sender must stop
        before that event's global position so the merged order stays
        exact.  A no-op outside a window (single-queue runs pop in
        global order anyway).
        """
        if self._window_bound is not None and key < self._window_bound:
            self._window_bound = key

    def run_window(self, bound: tuple[int, int, int]) -> Optional[ExitEvent]:
        """Run every live event whose sort key is below ``bound``.

        The sharded engine's inner loop: the engine picks the queue
        holding the globally-smallest head key and lets it run up to
        (exclusive) the smallest head key of any *other* queue, so only
        events that would fire next on a single merged queue execute.
        The bound may shrink mid-window via :meth:`clamp_window`.

        Returns the :class:`ExitEvent` if one fired inside the window,
        else ``None`` (bound reached or queue drained).
        """
        self._window_bound = bound
        heap = self._heap
        heappop = heapq.heappop
        try:
            # Inlined _peek_live: this loop runs once per
            # event of the whole sharded simulation, and the method-call
            # and property overhead is what the speedup gate measures.
            while True:
                entry = self._next
                if entry is not None and (entry[2]._squashed
                                          or entry[2]._seq != entry[1]):
                    self._next = entry = None
                if entry is None:
                    while heap and (heap[0][2]._squashed
                                    or heap[0][2]._seq != heap[0][1]):
                        heappop(heap)
                    if not heap:
                        return None
                    entry = heap[0]
                key, seq, event = entry
                if key >= self._window_bound:
                    return None
                if entry is self._next:
                    self._next = None
                else:
                    heappop(heap)
                self.now = event.when
                event._scheduled = False
                self._events_processed += 1
                if isinstance(event, ExitEvent):
                    self._exit_event = event
                    return event
                event.process()
        finally:
            self._window_bound = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _peek_live(self):
        """The entry that fires next (slot first, then heap), or None."""
        self._drop_squashed_head()
        if self._next is not None:
            return self._next
        if self._heap:
            return self._heap[0]
        return None

    def _drop_squashed_head(self) -> None:
        nxt = self._next
        if nxt is not None and (nxt[2]._squashed or nxt[2]._seq != nxt[1]):
            self._next = None
        heap = self._heap
        while heap and (heap[0][2]._squashed or heap[0][2]._seq != heap[0][1]):
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EventQueue {self.name!r} now={self.now} "
                f"pending={len(self)} processed={self._events_processed}>")
