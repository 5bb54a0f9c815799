"""AtomicSimpleCPU: CPI=1, atomic memory accesses.

Mirrors gem5's AtomicSimpleCPU: one instruction per tick, memory
accesses complete immediately through the atomic protocol (their latency
is not added to simulated time), no pipeline modelling.  Used for
fast-forwarding and cache warm-up, and — per the paper — the cheapest
CPU model for the host to simulate.

The CPU runs a zero-heap inner loop instead of one event per tick: it
executes straight-line instruction sequences inside a single event
firing, using :meth:`EventQueue.advance_if_idle` to move time forward,
the packet-free ``recv_atomic_fast`` chain for ifetch/data accesses, and
the per-page decoded-instruction cache for fetch+decode.  Each logical
tick still makes the stat updates and host-trace records of one gem5
``tick()``; the golden stats and kernel digests pin them.
"""

from __future__ import annotations

from ...events import CPU_TICK_PRI, Event
from .base import BaseCPU


class _TickEvent(Event):
    __slots__ = ("cpu",)

    def __init__(self, cpu: "AtomicSimpleCPU") -> None:
        super().__init__(name=f"{cpu.name}.tick", priority=CPU_TICK_PRI)
        self.cpu = cpu

    def process(self) -> None:
        self.cpu.tick()


class AtomicSimpleCPU(BaseCPU):
    """Single-cycle CPU with atomic memory."""

    cpu_type = "atomic"

    def __init__(self, name: str, parent, cpu_id: int = 0) -> None:
        super().__init__(name, parent, cpu_id)
        self._tick_event = _TickEvent(self)
        self._fn_tick = self.host_fn("AtomicSimpleCPU::tick")
        # Bound at activate() / thread_start_event().
        self._icache_fast = None
        self._dcache_fast = None

    def _bind_l1s(self) -> None:
        # Bind the packet-free atomic entry points of both L1s once,
        # through the ports: the port is the sanctioned crossing point
        # into the memory domain (see RequestPort.atomic_fast_fn).
        self._icache_fast = self.icache_port.atomic_fast_fn()
        self._dcache_fast = self.dcache_port.atomic_fast_fn()

    def activate(self) -> None:
        """Start executing at the bound workload's entry point."""
        self._bind_l1s()
        self.schedule_in(self._tick_event, 0)

    def thread_start_event(self, when: int):
        """Revive a parked core for a spawned thread (see pseudo.py)."""
        self._bind_l1s()
        return self._tick_event

    def tick(self) -> None:
        """Straight-line tick loop inside a single event firing.

        Each pass is one logical tick — fetch, decode and execute one
        instruction — but instead of rescheduling the tick event it asks
        the queue to just advance time while no other event would
        intervene.  It falls back to a real schedule the moment
        something else is pending.
        """
        rec = self._rec_live
        eventq = self.eventq
        advance = eventq.advance_if_idle
        regs = self.regs
        period = self.cycles(1)
        icache_fast = self._icache_fast
        dcache_fast = self._dcache_fast
        stat_cycles = self.stat_cycles
        stat_committed = self.stat_committed
        devices = self._devices
        while True:
            if rec:
                self.recorder.record(self._fn_tick, 0)
            if self._halted:
                return
            pc = regs.pc
            if rec:
                self.recorder.record(self._fn_fetch, 0)
            icache_fast(pc & ~63, 64, False)
            inst = self.fetch_decode(pc)
            if inst.is_mem:
                addr = inst.ea(self)
                if not devices or self.system.device_at(addr) is None:
                    if rec:
                        self.recorder.record(self._fn_mem, 0)
                    dcache_fast(addr, inst._msize, inst.is_store)
            if rec or inst.is_control or inst.is_mem or inst.is_halt \
                    or inst.is_syscall:
                next_pc = self.execute_inst(inst)
            else:
                # Pure-ALU straight-line case, fully inlined.
                self._npc = None
                inst._exec(inst, self)
                npc = self._npc
                next_pc = pc + 4 if npc is None else npc
                self._npc = None
            regs.pc = next_pc
            stat_committed.inc()
            stat_cycles.inc()
            if self._halted:
                return
            if not advance(eventq.now + period, CPU_TICK_PRI):
                self.schedule_in(self._tick_event, period)
                return
