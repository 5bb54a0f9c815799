"""m5-style pseudo-ops: guest hooks into the simulator.

gem5 guests use "m5 ops" (magic instructions) to talk to the simulator:
reset the statistics at the region of interest, dump them, mark work
boundaries, or exit.  SimRISC reserves the ``m5op`` opcode for the same
purpose; its 16-bit immediate selects the operation.

ROI (region-of-interest) markers also annotate the host-level execution
trace, so host profiling can be restricted to the measured region —
the methodology the paper's per-workload numbers rely on (counters are
read around the simulation loop, not around process startup).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .stats import dump_stats

if TYPE_CHECKING:  # pragma: no cover
    from .system import System

from .isa.pseudo_numbers import (  # noqa: F401  (re-exported)
    M5_DUMP_STATS,
    M5_EXIT,
    M5_RESET_STATS,
    M5_THREAD_EXIT,
    M5_THREAD_POLL,
    M5_THREAD_SPAWN,
    M5_WORK_BEGIN,
    M5_WORK_END,
)

#: Register indices of the thread-op calling convention (RISC-V ABI
#: names: a0/a1 carry operands and results, tp carries the thread id).
_A0, _A1, _TP = 10, 11, 4


class PseudoOpError(RuntimeError):
    """Raised on an unknown pseudo-op number."""


class _Thread:
    """Bookkeeping for one spawned guest thread."""

    __slots__ = ("tid", "cpu", "done")

    def __init__(self, tid: int, cpu) -> None:
        self.tid = tid
        self.cpu = cpu
        self.done = False


class PseudoOpHandler:
    """Services m5 ops for one system.

    Control plane: every pseudo-op executes synchronously at a
    guest-visible serialization point, so the handler may touch any
    domain's state.  The
    thread ops implement a minimal runtime on top of the N-core system:
    ``spawn`` assigns a parked core, seeds its registers (pc, a
    per-thread stack, the argument in a0, the tid in tp) and schedules
    its start event; ``exit`` parks the calling core; ``poll`` lets the
    guest build ``join`` as a spin loop.
    """

    def __init__(self, system: "System") -> None:
        self.system = system
        self.stat_dumps: list[dict[str, float]] = []
        self.work_begin_count = 0
        self.work_end_count = 0
        #: Times the guest zeroed the statistics (M5_RESET_STATS or
        #: M5_WORK_BEGIN).  The sampling profiler anchors its interval
        #: accounting to the *last* reset so reconstructed stats share
        #: the ROI-relative semantics of an uninterrupted run.
        self.reset_count = 0
        #: Spawned guest threads by tid (the main thread is tid 0 and
        #: never appears here).
        self.threads: dict[int, _Thread] = {}
        self._next_tid = 1

    def handle(self, op: int, cpu=None) -> None:
        """Dispatch one m5 pseudo-op by its immediate number.

        ``cpu`` is the core that executed the m5op (None falls back to
        the boot core, for direct calls in tests).
        """
        system = self.system
        if op == M5_EXIT:
            (cpu if cpu is not None else system.cpu).halt(
                "m5_exit instruction encountered")
        elif op == M5_RESET_STATS:
            self._reset_stats()
        elif op == M5_DUMP_STATS:
            self.stat_dumps.append(dump_stats(system))
        elif op == M5_WORK_BEGIN:
            self.work_begin_count += 1
            self._reset_stats()
            system.recorder.mark_roi_begin()
        elif op == M5_WORK_END:
            self.work_end_count += 1
            self.stat_dumps.append(dump_stats(system))
            system.recorder.mark_roi_end()
        elif op == M5_THREAD_SPAWN:
            self._thread_spawn(cpu if cpu is not None else system.cpu)
        elif op == M5_THREAD_EXIT:
            self._thread_exit(cpu if cpu is not None else system.cpu)
        elif op == M5_THREAD_POLL:
            self._thread_poll(cpu if cpu is not None else system.cpu)
        else:
            raise PseudoOpError(f"unknown m5 pseudo-op {op:#x}")

    # ------------------------------------------------------------------
    # thread runtime
    # ------------------------------------------------------------------
    def _free_core(self):
        busy = {id(thread.cpu) for thread in self.threads.values()
                if not thread.done}
        for core in self.system.cpus[1:]:
            if core.halted and id(core) not in busy:
                return core
        return None

    def _thread_spawn(self, caller) -> None:
        entry = caller.regs.read_int(_A0)
        arg = caller.regs.read_int(_A1)
        worker = self._free_core()
        if worker is None:
            caller.regs.write_int(_A0, (1 << 64) - 1)  # -1: no core free
            return
        process = self.system.process
        if process is None:
            raise PseudoOpError("thread spawn requires an SE-mode process")
        tid = self._next_tid
        self._next_tid += 1
        self.threads[tid] = _Thread(tid, worker)
        worker.regs.pc = entry
        worker.regs.write_int(2, process.stack_top_for(tid))  # sp
        worker.regs.write_int(_A0, arg)
        worker.regs.write_int(_TP, tid)
        worker.unpark()
        self._start_worker(caller, worker)
        caller.regs.write_int(_A0, tid)

    def _start_worker(self, caller, worker) -> None:
        """Schedule the worker's start event at the caller's current tick.

        Same queue: a plain schedule.  Different queues (sharded
        multi-core): the same fresh-event + window-clamp protocol a
        BoundaryLink delivery uses, so the merged event order stays
        exact.
        """
        caller_queue = caller.eventq
        worker_queue = worker.eventq
        when = caller_queue.now
        event = worker.thread_start_event(when)
        if worker_queue is caller_queue:
            caller_queue.schedule(event, when)
        else:
            worker_queue.schedule_fresh(event, when)
            caller_queue.clamp_window((when, event.priority, event._seq))

    def _thread_exit(self, cpu) -> None:
        tid = cpu.regs.read_int(_TP)
        thread = self.threads.get(tid)
        if thread is None or thread.cpu is not cpu:
            raise PseudoOpError(
                f"thread exit from {cpu.path} with bad tid {tid}")
        thread.done = True
        cpu.park()

    def _thread_poll(self, cpu) -> None:
        tid = cpu.regs.read_int(_A0)
        thread = self.threads.get(tid)
        if thread is None:
            raise PseudoOpError(f"thread poll for unknown tid {tid}")
        cpu.regs.write_int(_A0, 1 if thread.done else 0)

    def _reset_stats(self) -> None:
        self.reset_count += 1
        for obj in [self.system, *self.system.descendants()]:
            if obj._stats is not None:
                obj._stats.reset()

    @property
    def in_roi(self) -> bool:
        return self.work_begin_count > self.work_end_count
