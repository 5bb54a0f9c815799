"""Snooping MSI coherence over the classic-cache layer, plus LL/SC state.

Multi-core systems give every core a private L1 pair behind the shared
xbar.  Data correctness is functional (every store lands in
:class:`~repro.g5.mem.dram.PhysicalMemory` immediately), so coherence
here is a *timing and traffic* model, the same split the classic caches
already use: the three MSI states map onto the existing tag-store bits
(I = ``not valid``, S = ``valid and not dirty``, M = ``valid and
dirty``), and bus snoops are synchronous zero-latency probes of the peer
L1 data caches — invalidations on writes, M->S demotions (with a counted
writeback) on reads.  Instruction caches are left incoherent, like
classic gem5; self-modifying code is handled functionally by the decoded
-page invalidation in :class:`~repro.g5.cpus.base.BaseCPU`.

The LL/SC reservation table lives here too: one reservation granule per
core, cleared by any overlapping remote write (the functional analogue
of losing the line to a snoop invalidation).

A domain exists exactly when a system has more than one core; a
single-core system has no snooping bus at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mem.cache import Cache

#: LL/SC reservation granule in bytes (one cache line).
RESERVATION_GRANULE = 64


class ReservationSet:
    """Per-core LL/SC reservations over shared physical memory.

    Shared data plane (like ``PhysicalMemory``): every core reads and
    writes it at guest-visible serialization points, so it is not owned
    by any single event-queue domain.  ``count`` is a cheap guard the
    store path checks before paying the overlap scan.
    """

    __slots__ = ("_granules", "count")

    def __init__(self) -> None:
        self._granules: Dict[int, int] = {}
        self.count = 0

    def place(self, cpu_id: int, addr: int) -> None:
        """Reserve the granule holding ``addr`` for ``cpu_id``."""
        if cpu_id not in self._granules:
            self.count += 1
        self._granules[cpu_id] = addr & ~(RESERVATION_GRANULE - 1)

    def consume(self, cpu_id: int, addr: int) -> bool:
        """True (and cleared) if ``cpu_id`` still holds ``addr``'s granule."""
        granule = self._granules.get(cpu_id)
        if granule is None:
            return False
        del self._granules[cpu_id]
        self.count -= 1
        return granule == addr & ~(RESERVATION_GRANULE - 1)

    def clear_range(self, addr: int, size: int) -> None:
        """Drop every reservation whose granule overlaps the write."""
        low = addr & ~(RESERVATION_GRANULE - 1)
        high = (addr + size - 1) & ~(RESERVATION_GRANULE - 1)
        stale = [cpu_id for cpu_id, granule in self._granules.items()
                 if low <= granule <= high]
        for cpu_id in stale:
            del self._granules[cpu_id]
        self.count -= len(stale)


class CoherenceDomain:
    """The snooping bus: mediates every L1-to-L1 coherence probe.

    Like a port, this is a boundary object: a member cache's fills and
    write upgrades call :meth:`snoop_read`/:meth:`snoop_write`, and the
    domain walks the *peer* caches' tag stores on their behalf.
    """

    __slots__ = ("caches",)

    def __init__(self) -> None:
        self.caches: List["Cache"] = []

    def attach(self, cache: "Cache") -> None:
        cache.coherence = self
        self.caches.append(cache)

    def snoop_write(self, requester: "Cache", line_addr: int) -> None:
        """Requester gains M: invalidate every peer copy."""
        self._probe(requester, line_addr, invalidate=True)

    def snoop_read(self, requester: "Cache", line_addr: int) -> None:
        """Requester gains S: demote peer M copies to S."""
        self._probe(requester, line_addr, invalidate=False)

    def _probe(self, requester: "Cache", line_addr: int,
               invalidate: bool) -> None:
        for cache in self.caches:
            if cache is not requester:
                cache.handle_snoop(line_addr, invalidate)
