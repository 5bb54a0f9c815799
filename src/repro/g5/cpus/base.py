"""Base class shared by all g5 CPU models.

Implements the :class:`~repro.g5.isa.instructions.ExecContext` protocol
(register access, functional memory, syscalls) plus the plumbing every
CPU model needs: instruction/dcache ports, the decoder, workload binding,
halt/exit handling, and the core statistics (committed instructions,
cycles, IPC/CPI, simSeconds).

All CPU models in this package are *functional-first*: architectural
state is updated in program order the moment an instruction is processed,
and the model-specific machinery (pipelines, ROBs, cache misses) decides
how much simulated time that processing costs.  This mirrors how the
simple gem5 CPUs work and is a standard, deterministic approximation for
the detailed ones.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ...events import SimObject
from ..isa import INST_BYTES, Decoder, RegisterFile, StaticInst
from ..mem.packet import Packet, ifetch_req, read_req, write_req
from ..mem.port import RequestPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..se.process import Process
    from ..system import System


class CPUError(RuntimeError):
    """Raised on CPU misconfiguration or guest misbehaviour."""


class BaseCPU(SimObject):
    """Common machinery for Atomic/Timing/Minor/O3 CPU models."""

    #: Human-readable model name, overridden by subclasses.
    cpu_type = "base"

    def __init__(self, name: str, parent, cpu_id: int = 0) -> None:
        super().__init__(name, parent)
        self.cpu_id = cpu_id
        self.icache_port = RequestPort("icache_port", self)
        self.dcache_port = RequestPort("dcache_port", self)
        # All CPUs in a process share one decode cache (gem5 shares its
        # decode cache per ISA); decoded StaticInsts are immutable.
        self.decoder = Decoder(shared=True)
        self.regs = RegisterFile()
        self.process: Optional["Process"] = None
        self.system: Optional["System"] = None
        self._halted = False
        self._halt_pending = False
        self._halt_cause = ""
        self._npc: Optional[int] = None
        # Hot-loop state: bound once at bind() so the hot loop does not
        # chase system.memctrl.memory / system.devices per access.
        self._mem = None
        self._devices: list = []
        # LL/SC reservation table (shared data plane, bound at bind())
        # and, on multi-core systems, the other cores — whose decoded
        # code pages a local store must invalidate (cross-core SMC).
        self._resv = None
        self._peer_cpus: list = []
        # Per-page caches of decoded instructions, used by the atomic
        # CPU's fetch (invalidated by write_mem on self-modifying code).
        self._decoded_pages: dict[int, list[Optional[StaticInst]]] = {}
        self._ipage: Optional[list[Optional[StaticInst]]] = None
        self._ipage_base = -1
        # Host identities of the core architectural structures.
        self._regs_host = self.host_alloc(8 * 64, "regfile")
        self._fn_fetch = self.host_fn(f"{self.host_cls}::fetch")
        self._fn_decode = self.host_fn("Decoder::decode")
        self._fn_execute = self.host_fn("StaticInst::execute")
        self._fn_mem = self.host_fn(f"{self.host_cls}::memAccess")
        self._fn_syscall = self.host_fn("Process::syscall")
        self._fn_exec_by_op: dict[int, int] = {}

    @property
    def host_cls(self) -> str:
        """Simulator C++-like class name used for host-function naming."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def reg_stats(self) -> None:
        stats = self.stats
        self.stat_committed = stats.scalar(
            "committedInsts", "number of instructions committed")
        self.stat_cycles = stats.scalar("numCycles", "CPU active cycles")
        self.stat_mem_refs = stats.scalar("numMemRefs", "memory references")
        self.stat_branches = stats.scalar("numBranches", "control insts")
        stats.formula("ipc", lambda: self.stat_committed.value()
                      / max(1, self.stat_cycles.value()),
                      "committed instructions per cycle")
        stats.formula("cpi", lambda: self.stat_cycles.value()
                      / max(1, self.stat_committed.value()),
                      "cycles per committed instruction")

    # ------------------------------------------------------------------
    # workload binding
    # ------------------------------------------------------------------
    def bind(self, system: "System", process: Optional["Process"]) -> None:
        """Attach this CPU to its system and (in SE mode) its process."""
        self.system = system
        self.process = process
        self._mem = system.memctrl.memory
        self._devices = system.devices
        self._resv = system.reservations
        self._peer_cpus = [cpu for cpu in system.cpus if cpu is not self]
        if process is not None:
            self.regs.pc = process.entry
            self.regs.write_int(2, process.stack_top)  # sp

    #: Pipelined CPU models set this so halts wait for the pipeline to
    #: drain (the guest's exit instruction must *commit*, not just fetch).
    defer_halt = False

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def stop_fetch(self) -> bool:
        """True once no further instructions should enter the machine."""
        return self._halted or self._halt_pending

    def halt(self, cause: str = "target halted") -> None:
        """Stop the CPU; pipelined models defer until the pipeline drains."""
        if self._halted or self._halt_pending:
            return
        if self.defer_halt:
            self._halt_pending = True
            self._halt_cause = cause
            return
        self._halted = True
        self._eventq().exit_simulation(cause)

    def park(self) -> None:
        """Stop this core without ending the simulation (thread exit).

        The execution loops of the simple models check ``_halted`` before
        rescheduling themselves, so a parked core simply stops emitting
        events; :meth:`unpark` plus a fresh start event revives it.
        """
        self._halted = True

    def unpark(self) -> None:
        self._halted = False
        self._halt_pending = False

    def thread_start_event(self, when: int):
        """Event that (re)starts this core's execution loop at ``when``.

        Only the simple models host spawned threads; the pipelined
        models would need drain/restart machinery this PR does not add.
        """
        raise CPUError(
            f"{self.cpu_type} CPUs cannot host spawned threads")

    def finish_halt(self) -> None:
        """Complete a deferred halt once the pipeline has drained."""
        if self._halted or not self._halt_pending:
            return
        self._halt_pending = False
        self._halted = True
        self._eventq().exit_simulation(self._halt_cause or "target halted")

    # ------------------------------------------------------------------
    # ExecContext protocol
    # ------------------------------------------------------------------
    def read_int(self, index: int) -> int:
        return self.regs.ints[index]

    def write_int(self, index: int, value: int) -> None:
        if index:  # x0 is hard-wired to zero
            self.regs.ints[index] = value & 0xFFFF_FFFF_FFFF_FFFF

    def read_fp(self, index: int) -> float:
        return self.regs.read_fp(index)

    def write_fp(self, index: int, value: float) -> None:
        self.regs.write_fp(index, value)

    @property
    def pc(self) -> int:
        return self.regs.pc

    def set_npc(self, addr: int) -> None:
        self._npc = addr

    def read_mem(self, addr: int, size: int) -> int:
        """Functional data read (correctness path)."""
        mem = self._mem
        if mem is None:
            device = self._device_at(addr)
            if device is not None:
                return device.read(addr, size)
            return self._memory().read(addr, size)
        for device in self._devices:
            if device.contains(addr):
                return device.read(addr, size)
        return mem.read(addr, size)

    def write_mem(self, addr: int, size: int, value: int) -> None:
        """Functional data write (correctness path)."""
        mem = self._mem
        if mem is None:
            device = self._device_at(addr)
            if device is not None:
                device.write(addr, size, value)
                return
            self._memory().write(addr, size, value)
        else:
            for device in self._devices:
                if device.contains(addr):
                    device.write(addr, size, value)
                    return
            mem.write(addr, size, value)
        resv = self._resv
        if resv is not None and resv.count:
            # Remote (and own) LL reservations on the written granule
            # are lost — the functional face of a snoop invalidation.
            resv.clear_range(addr, size)
        if self._decoded_pages:
            self._invalidate_decoded(addr, size)
        if self._peer_cpus:
            for peer in self._peer_cpus:
                if peer._decoded_pages:
                    peer._invalidate_decoded(addr, size)

    def _invalidate_decoded(self, addr: int, size: int) -> None:
        """Drop decoded-instruction pages a store just wrote into
        (self-modifying code support for the decoded-page fetch)."""
        first = addr & ~0xFFF
        last = (addr + size - 1) & ~0xFFF
        page = first
        while page <= last:
            if self._decoded_pages.pop(page, None) is not None:
                self._ipage = None
                self._ipage_base = -1
            page += 0x1000

    def pseudo_op(self, op: int) -> None:
        """Service an m5-style pseudo instruction."""
        if self.system is None:
            raise CPUError(f"{self.path}: m5op with no system bound")
        self.system.pseudo_ops.handle(op, self)

    def load_reserved(self, addr: int) -> None:
        """LL: take a reservation on the granule holding ``addr``."""
        if self._resv is None:
            raise CPUError(f"{self.path}: ll with no system bound")
        self._resv.place(self.cpu_id, addr)

    def store_conditional(self, addr: int, size: int, value: int) -> bool:
        """SC: write only if this core's reservation survived."""
        resv = self._resv
        if resv is None or not resv.consume(self.cpu_id, addr):
            return False
        self.write_mem(addr, size, value)
        return True

    def syscall(self) -> None:
        self.host_record(self._fn_syscall)
        if self.process is not None:
            self.process.handle_syscall(self)
        elif self.system is not None and self.system.kernel is not None:
            self.system.kernel.handle_trap(self)
        else:
            raise CPUError(f"{self.path}: ecall with no workload bound")

    # ------------------------------------------------------------------
    # shared execution helpers
    # ------------------------------------------------------------------
    def fetch_word(self, pc: int) -> int:
        """Functionally read the instruction word at ``pc``."""
        mem = self._mem
        if mem is None:
            return self._memory().read(pc, INST_BYTES)
        return mem.read(pc, INST_BYTES)

    def fetch_decode(self, pc: int) -> StaticInst:
        """Fetch + decode through the per-page decoded-instruction cache.

        Records ``Decoder::decode`` and decodes ``fetch_word(pc)``, but
        caches the decoded StaticInst per code page so the hot path is
        two shifts and a list index.  write_mem invalidates pages on
        stores (self-modifying code).
        """
        if self._rec_live:
            self.recorder.record(self._fn_decode, 0)
        base = pc & ~0xFFF
        if base != self._ipage_base:
            page = self._decoded_pages.get(base)
            if page is None:
                page = self._decoded_pages[base] = [None] * 1024
            self._ipage = page
            self._ipage_base = base
        inst = self._ipage[(pc & 0xFFF) >> 2]
        if inst is None:
            word = self.fetch_word(pc)
            inst = self.decoder.decode(word, pc)
            self._ipage[(pc & 0xFFF) >> 2] = inst
        return inst

    def execute_inst(self, inst: StaticInst) -> int:
        """Execute ``inst`` against architectural state; returns next PC.

        Records per-opcode host execute functions (gem5 generates one
        ``execute()`` per instruction class, a large slice of its code).
        """
        if self._rec_live:
            fn = self._fn_exec_by_op.get(inst.opcode)
            if fn is None:
                fn = self.host_fn(f"{inst.mnemonic.capitalize()}::execute")
                self._fn_exec_by_op[inst.opcode] = fn
            self.recorder.record(fn, self._regs_host + inst.rd * 8)
        self._npc = None
        inst._exec(inst, self)
        if inst.is_mem:
            self.stat_mem_refs.inc()
        if inst.is_control:
            self.stat_branches.inc()
        if inst.is_halt:
            self.halt("target called exit()")
        next_pc = self._npc if self._npc is not None else self.regs.pc + INST_BYTES
        self._npc = None
        return next_pc

    # timing-mode packet builders -----------------------------------------
    def make_ifetch(self, pc: int, line_size: int = 64) -> Packet:
        line = pc & ~(line_size - 1)
        return ifetch_req(line, line_size, req_tick=self.now)

    def make_data_req(self, inst: StaticInst, addr: int) -> Packet:
        if inst.is_store:
            return write_req(addr, inst.mem_size, 0, req_tick=self.now)
        return read_req(addr, inst.mem_size, req_tick=self.now)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _memory(self):
        if self.system is None:
            raise CPUError(f"{self.path} is not bound to a system")
        return self.system.memctrl.memory

    def _device_at(self, addr: int):
        if self.system is None:
            return None
        return self.system.device_at(addr)

    # Port protocol defaults (overridden by timing CPUs) -----------------
    def recv_timing_resp(self, pkt: Packet) -> None:  # pragma: no cover
        raise CPUError(f"{self.path} received unexpected timing response")

    def recv_req_retry(self) -> None:  # pragma: no cover
        pass
