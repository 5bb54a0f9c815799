"""Discrete-event simulation kernel (the gem5 substrate's core).

Public surface:

- :mod:`repro.events.ticks` — tick/cycle conversion and clock domains.
- :class:`~repro.events.event.Event` and friends — schedulable work.
- :class:`~repro.events.queue.EventQueue` — the deterministic run loop.
- :class:`~repro.events.simobject.SimObject` — base class for models.
"""

from .event import (
    CPU_TICK_PRI,
    DEFAULT_PRI,
    SIM_EXIT_PRI,
    STAT_EVENT_PRI,
    CallbackEvent,
    Event,
    ExitEvent,
    PeriodicEvent,
)
from .queue import EventQueue, EventQueueError
from .simobject import Root, SimObject
from .ticks import (
    TICKS_PER_MS,
    TICKS_PER_NS,
    TICKS_PER_SECOND,
    TICKS_PER_US,
    ClockDomain,
    freq_to_period,
    seconds_to_ticks,
    ticks_to_seconds,
)

__all__ = [
    "CPU_TICK_PRI",
    "DEFAULT_PRI",
    "SIM_EXIT_PRI",
    "STAT_EVENT_PRI",
    "CallbackEvent",
    "ClockDomain",
    "Event",
    "EventQueue",
    "EventQueueError",
    "ExitEvent",
    "PeriodicEvent",
    "Root",
    "SimObject",
    "TICKS_PER_MS",
    "TICKS_PER_NS",
    "TICKS_PER_SECOND",
    "TICKS_PER_US",
    "freq_to_period",
    "seconds_to_ticks",
    "ticks_to_seconds",
]
