"""Instruction queue and functional-unit pool for the O3 CPU."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter

from ..dyninst import DynInst


@dataclass(frozen=True)
class FUPool:
    """Counts of functional units per class (per cycle issue capacity)."""

    int_alu: int = 4
    int_muldiv: int = 1
    fp_alu: int = 2
    fp_muldiv: int = 1
    mem_ports: int = 2

    def slots(self) -> dict[str, int]:
        return {
            "int_alu": self.int_alu,
            "int_muldiv": self.int_muldiv,
            "fp_alu": self.fp_alu,
            "fp_muldiv": self.fp_muldiv,
            "mem": self.mem_ports,
        }


_SEQ = attrgetter("seq")


class InstructionQueue:
    """Out-of-order scheduler window, woken by its producers.

    Like gem5's IQ (``wakeDependents``), nothing is polled: an entry
    waits until its last producer completes (:meth:`wake`), then sits in
    a heap keyed by ``(ready_at, seq)``, the tick its operands are all
    available.  :meth:`schedule_ready` moves the due entries into a
    seq-ordered ready list and issues oldest first.
    """

    def __init__(self, entries: int, fu_pool: FUPool) -> None:
        if entries <= 0:
            raise ValueError(f"IQ needs a positive entry count, got {entries}")
        self.entries = entries
        self._fu_caps = fu_pool.slots()
        self._count = 0
        self._timed: list[tuple[int, int, DynInst]] = []
        self._ready: list[DynInst] = []

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count >= self.entries

    def insert(self, dyn: DynInst) -> None:
        if self.full:
            raise RuntimeError("IQ overflow: caller must check full first")
        self._count += 1
        pending = ready_at = 0
        for dep in dyn.deps:
            tick = dep.complete_tick
            if tick is None:
                pending += 1
                dep.waiters.append(dyn)
            elif tick > ready_at:
                ready_at = tick
        dyn.pending = pending
        dyn.ready_at = ready_at
        if not pending:
            heappush(self._timed, (ready_at, dyn.seq, dyn))

    def wake(self, producer: DynInst, tick: int) -> None:
        """``producer`` completes at ``tick``: release its waiters."""
        for dyn in producer.waiters:
            if tick > dyn.ready_at:
                dyn.ready_at = tick
            dyn.pending -= 1
            if not dyn.pending:
                heappush(self._timed, (dyn.ready_at, dyn.seq, dyn))

    def schedule_ready(self, now: int, issue_width: int) -> list[DynInst]:
        """Pick ready instructions (oldest first) respecting FU capacity."""
        timed, ready = self._timed, self._ready
        while timed and timed[0][0] <= now:
            insort(ready, heappop(timed)[2], key=_SEQ)
        if not ready:
            return []
        budget = self._fu_caps.copy()
        picked: list[DynInst] = []
        kept: list[DynInst] = []
        for i, dyn in enumerate(ready):
            cls = dyn.inst.fu_class
            if budget[cls] <= 0:
                kept.append(dyn)
                continue
            budget[cls] -= 1
            picked.append(dyn)
            if len(picked) >= issue_width:
                kept += ready[i + 1:]
                break
        self._ready = kept
        self._count -= len(picked)
        return picked

    def schedulable(self, now: int) -> bool:
        """True if at least one queued instruction could issue this cycle."""
        return bool(self._ready) or bool(self._timed
                                         and self._timed[0][0] <= now)
