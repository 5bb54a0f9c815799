"""SimObject: the base class for every simulated component.

Mirrors gem5's ``SimObject``: named, parented into a configuration tree,
attached to an event queue and clock domain, and owning a group of
statistics.  On top of the gem5 shape we add the *host instrumentation*
hook: every SimObject can report the simulator functions it "executes" to
an :class:`~repro.host.trace.ExecutionRecorder`, which is how a g5 run
turns into a host-level profile (see DESIGN.md §4).
"""

from __future__ import annotations

from typing import Iterator, Optional, TYPE_CHECKING

from .queue import EventQueue
from .ticks import ClockDomain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..g5.stats import StatGroup
    from ..host.trace import ExecutionRecorder


class SimObject:
    """A named node in the simulated-system tree."""

    def __init__(self, name: str, parent: Optional["SimObject"] = None) -> None:
        if not name:
            raise ValueError("SimObject requires a non-empty name")
        self.name = name
        self.parent = parent
        self.children: list[SimObject] = []
        if parent is not None:
            parent.children.append(self)
            self.eventq: Optional[EventQueue] = parent.eventq
            self.clock: Optional[ClockDomain] = parent.clock
            self.recorder: Optional["ExecutionRecorder"] = parent.recorder
        else:
            self.eventq = None
            self.clock = None
            self.recorder = None
        # Cached "is anyone listening?" flag so host_record is a single
        # attribute test when no profiler is attached (see host_record).
        self._rec_live = (self.recorder is not None
                          and self.recorder.enabled)
        self._stats: Optional["StatGroup"] = None

    # ------------------------------------------------------------------
    # tree plumbing
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Dotted path from the root, e.g. ``system.cpu.icache``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def descendants(self) -> Iterator["SimObject"]:
        """Yield every SimObject below this one, depth-first."""
        for child in self.children:
            yield child
            yield from child.descendants()

    def find(self, path: str) -> "SimObject":
        """Look up a descendant by dotted relative path."""
        node: SimObject = self
        for part in path.split("."):
            for child in node.children:
                if child.name == part:
                    node = child
                    break
            else:
                raise KeyError(f"{self.path} has no descendant {path!r}")
        return node

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated tick."""
        eventq = self.eventq
        return (eventq if eventq is not None else self._eventq()).now

    def cycles(self, n: int) -> int:
        """Ticks spanned by ``n`` cycles of this object's clock domain."""
        if self.clock is None:
            raise RuntimeError(f"{self.path} has no clock domain")
        return self.clock.cycles_to_ticks(n)

    def schedule(self, event, when: int):
        return self._eventq().schedule(event, when)

    def schedule_in(self, event, delay: int):
        return self._eventq().schedule_in(event, delay)

    def _eventq(self) -> EventQueue:
        if self.eventq is None:
            raise RuntimeError(f"{self.path} is not attached to an event queue")
        return self.eventq

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> "StatGroup":
        if self._stats is None:
            from ..g5.stats import StatGroup

            self._stats = StatGroup(self.path)
        return self._stats

    def reg_stats(self) -> None:
        """Hook for subclasses to declare statistics; called by System."""

    # ------------------------------------------------------------------
    # host instrumentation
    # ------------------------------------------------------------------
    def host_fn(self, name: str) -> int:
        """Intern a simulator-function name for fast recording.

        Returns an integer id; components cache ids at construction time
        and call :meth:`host_record` on hot paths.
        """
        if self.recorder is None:
            return 0
        return self.recorder.intern(name)

    def host_record(self, fn_id: int, daddr: int = 0) -> None:
        """Report one invocation of simulator function ``fn_id``.

        ``daddr`` is the host address of the main data structure touched
        (0 for pure-control functions); the host model replays it against
        the data-side cache hierarchy.  When no profiler is attached
        (no recorder, or a disabled one) this is an O(1) flag test —
        hot loops may also read ``_rec_live`` directly and skip the
        call entirely.
        """
        if self._rec_live and fn_id:
            recorder = self.recorder
            recorder.trace_fns.append(fn_id)
            recorder.trace_daddrs.append(daddr)

    def host_alloc(self, nbytes: int, label: str = "") -> int:
        """Reserve ``nbytes`` of host heap for this object's state."""
        if self.recorder is None:
            return 0
        return self.recorder.alloc(nbytes, label or self.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.path}>"


class Root(SimObject):
    """Root of a simulated system; owns the event queue and base clock."""

    def __init__(self, name: str = "root",
                 eventq: Optional[EventQueue] = None,
                 clock: Optional[ClockDomain] = None,
                 recorder: Optional["ExecutionRecorder"] = None) -> None:
        super().__init__(name, parent=None)
        self.eventq = eventq if eventq is not None else EventQueue()
        self.clock = clock if clock is not None else ClockDomain(1e9)
        self.recorder = recorder
        self._rec_live = recorder is not None and recorder.enabled

    def reg_all_stats(self) -> None:
        """Invoke ``reg_stats`` across the whole tree (gem5's regStats)."""
        self.reg_stats()
        for obj in self.descendants():
            obj.reg_stats()
