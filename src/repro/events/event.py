"""Events and event priorities for the discrete-event kernel.

The design intentionally mirrors gem5's ``Event`` class: an event has a
scheduled tick, a priority used to order same-tick events, and a
``process()`` method run when the event fires.  ``CallbackEvent`` adapts a
plain callable, which covers most model code.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

# Priority levels, copied from gem5's sim/eventq.hh so same-tick ordering
# matches the reference simulator's semantics.
MINIMUM_PRI = -100
DEBUG_ENABLE_PRI = -101
CPU_SWITCH_PRI = -31
DELAYED_WRITEBACK_PRI = -1
DEFAULT_PRI = 0
CPU_TICK_PRI = 50
DVFS_UPDATE_PRI = 62
SERIALIZE_PRI = 64
CPU_EXIT_PRI = 64
STAT_EVENT_PRI = 90
SIM_EXIT_PRI = 100
MAXIMUM_PRI = 200

_sequence = itertools.count()


class Event:
    """A schedulable unit of work.

    Subclasses override :meth:`process`.  Events compare by
    ``(when, priority, insertion order)`` so the queue is a total order
    and simulation is deterministic.
    """

    __slots__ = ("when", "priority", "name", "_seq", "_scheduled", "_squashed")

    def __init__(self, name: str = "", priority: int = DEFAULT_PRI) -> None:
        self.name = name or type(self).__name__
        self.priority = priority
        self.when: int = -1
        self._seq = 0
        self._scheduled = False
        self._squashed = False

    # -- queue bookkeeping (used by EventQueue) -------------------------
    def _mark_scheduled(self, when: int) -> None:
        self.when = when
        self._seq = next(_sequence)
        self._scheduled = True
        self._squashed = False

    @property
    def scheduled(self) -> bool:
        """True while the event sits in an event queue."""
        return self._scheduled

    @property
    def squashed(self) -> bool:
        """True if the event was descheduled and should be ignored."""
        return self._squashed

    def squash(self) -> None:
        """Cancel a scheduled event without removing it from the heap.

        Mirrors gem5: removal from the middle of the priority queue is
        expensive, so cancelled events are flagged and skipped when they
        reach the head.
        """
        self._squashed = True
        self._scheduled = False

    def sort_key(self) -> tuple[int, int, int]:
        return (self.when, self.priority, self._seq)

    def process(self) -> None:
        raise NotImplementedError(f"{type(self).__name__} must implement process()")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "scheduled" if self._scheduled else "idle"
        return f"<{type(self).__name__} {self.name!r} when={self.when} {state}>"


class CallbackEvent(Event):
    """Event that invokes an arbitrary callable when processed."""

    __slots__ = ("callback",)

    def __init__(
        self,
        callback: Callable[[], None],
        name: str = "",
        priority: int = DEFAULT_PRI,
    ) -> None:
        super().__init__(name=name or getattr(callback, "__name__", "callback"),
                         priority=priority)
        self.callback = callback

    def process(self) -> None:
        self.callback()


class ExitEvent(Event):
    """Raised to the simulation loop to request termination.

    The queue stores the most recent exit event; :class:`~repro.events.queue.
    EventQueue.run` returns it to the caller, mirroring gem5's
    ``simulate()`` returning a ``GlobalSimLoopExitEvent``.
    """

    __slots__ = ("cause", "code")

    def __init__(self, cause: str, code: int = 0,
                 priority: int = SIM_EXIT_PRI) -> None:
        super().__init__(name=f"exit:{cause}", priority=priority)
        self.cause = cause
        self.code = code

    def process(self) -> None:
        # Processing is handled specially by the event queue, which stops
        # the simulation loop; nothing to do here.
        pass


class PeriodicEvent(Event):
    """Event that reschedules itself every ``interval`` ticks.

    Used for stat dumps and host-counter sampling.  The callback may
    return ``False`` to stop the recurrence.
    """

    __slots__ = ("callback", "interval", "queue")

    def __init__(
        self,
        queue: "EventQueueProtocol",
        interval: int,
        callback: Callable[[], Optional[bool]],
        name: str = "periodic",
        priority: int = STAT_EVENT_PRI,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        super().__init__(name=name, priority=priority)
        self.queue = queue
        self.interval = interval
        self.callback = callback

    def process(self) -> None:
        keep_going = self.callback()
        if keep_going is not False:
            self.queue.schedule(self, self.queue.now + self.interval)


class EventQueueProtocol:
    """Minimal interface PeriodicEvent needs; satisfied by EventQueue."""

    now: int

    def schedule(self, event: Event, when: int) -> None:  # pragma: no cover
        raise NotImplementedError
