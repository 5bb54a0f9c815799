"""Dynamic instructions and the functional instruction stream.

The detailed CPU models (Minor, O3) are *timing-directed*: a functional
stepper executes the guest program in order, emitting :class:`DynInst`
records that carry everything the timing pipeline needs (effective
addresses, branch outcomes, register dependencies).  The pipeline then
charges time: cache misses, structural hazards, dependency stalls, and
branch-misprediction bubbles.  Because the functional path is always the
correct path, mispredictions are modelled as fetch bubbles rather than
wrong-path execution — a standard, deterministic approximation.
"""

from __future__ import annotations

import itertools
from typing import Optional, TYPE_CHECKING

from ..isa import INST_BYTES, StaticInst

if TYPE_CHECKING:  # pragma: no cover
    from .base import BaseCPU


class DynInst:
    """One dynamic instruction instance flowing through a pipeline."""

    __slots__ = ("seq", "pc", "inst", "next_pc", "mem_addr", "taken",
                 "src_regs", "dst_reg", "complete_tick", "issued",
                 "mispredicted", "fetch_stalled", "deps", "waiters",
                 "pending", "ready_at")

    def __init__(self, seq: int, pc: int, inst: StaticInst, next_pc: int,
                 mem_addr: Optional[int], taken: bool) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.next_pc = next_pc
        self.mem_addr = mem_addr
        self.taken = taken
        self.src_regs = inst.src_regs
        self.dst_reg = inst.dst_reg
        self.complete_tick: Optional[int] = None  # None = not complete
        self.issued = False
        self.mispredicted = False
        self.fetch_stalled = False
        self.deps: tuple["DynInst", ...] = ()  # producers captured at rename
        # O3 wakeup: IQ entries to release when this completes.
        # ``pending``/``ready_at`` are set by InstructionQueue.insert.
        self.waiters: list["DynInst"] = []

    @property
    def done(self) -> bool:
        return self.complete_tick is not None

    def is_ready(self, now: int) -> bool:
        return self.complete_tick is not None and self.complete_tick <= now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DynInst #{self.seq} {self.inst.mnemonic} pc={self.pc:#x}>"


class InstStream:
    """Functional in-order stepper producing DynInsts on demand."""

    def __init__(self, cpu: "BaseCPU") -> None:
        self.cpu = cpu
        self._seq = itertools.count(1)
        self.exhausted = False

    def next_inst(self) -> Optional[DynInst]:
        """Execute one instruction functionally; None when the guest halts."""
        cpu = self.cpu
        if self.exhausted or cpu.stop_fetch:
            self.exhausted = True
            return None
        pc = cpu.regs.pc
        inst = cpu.fetch_decode(pc)
        mem_addr = inst.ea(cpu) if inst.is_mem else None
        next_pc = cpu.execute_inst(inst)
        cpu.regs.pc = next_pc
        taken = inst.is_control and next_pc != pc + INST_BYTES
        dyn = DynInst(next(self._seq), pc, inst, next_pc, mem_addr, taken)
        if cpu.stop_fetch:
            self.exhausted = True
        return dyn
