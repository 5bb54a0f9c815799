"""SimRISC static instructions: semantics, flags, and encodings.

The design copies gem5's ``StaticInst`` split: a decoded instruction is an
immutable object describing *what* to do; *when* it happens is decided by
the CPU model driving it through an :class:`ExecContext`.  Memory
instructions expose ``ea``/``store_value``/``complete`` so timing CPUs can
split address generation from data delivery, while ``execute`` performs
the whole access for atomic-mode CPUs.

Encoding layout (32-bit word):

====== ======================= =========================================
format fields                  used by
====== ======================= =========================================
R      op rd rs1 rs2           register ALU / FP ops
I      op rd rs1 imm16         immediate ALU, loads, JALR
S      op rs1 rs2 imm11        stores
B      op rs1 rs2 imm11        conditional branches (byte offset)
U      op rd imm21             LUI (imm << 11), JAL (byte offset)
====== ======================= =========================================
"""

from __future__ import annotations

import math
import struct
from typing import Optional, Protocol

from .registers import to_signed64, to_unsigned64

# ---------------------------------------------------------------------------
# encoding constants
# ---------------------------------------------------------------------------
OP_SHIFT = 26
RD_SHIFT = 21
RS1_SHIFT = 16
RS2_SHIFT = 11
REG_MASK = 0x1F
IMM16_MASK = 0xFFFF
IMM11_MASK = 0x7FF
IMM21_MASK = 0x1FFFFF

INST_BYTES = 4


class Opcode:
    """SimRISC opcode space (6 bits)."""

    # R-type integer ALU
    ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU = range(13)
    # I-type integer ALU
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SLTI = range(13, 20)
    LUI = 20
    # memory
    LB, LW, LD = 21, 22, 23
    SB, SW, SD = 24, 25, 26
    FLD, FSD = 27, 28
    # control
    BEQ, BNE, BLT, BGE, BLTU, BGEU = range(29, 35)
    JAL, JALR = 35, 36
    # FP
    FADD, FSUB, FMUL, FDIV, FSQRT, FMIN, FMAX, FMADD = range(37, 45)
    FCVT_D_L, FCVT_L_D, FLT, FLE, FMV = range(45, 50)
    # system
    ECALL, NOP, HALT, M5OP = 50, 51, 52, 53
    # atomics (LL/SC pair; SC is R-format so it can report success in rd)
    LL, SC = 54, 55

_R_ALU = {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
          Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL,
          Opcode.SRA, Opcode.SLT, Opcode.SLTU}
_I_ALU = {Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
          Opcode.SRLI, Opcode.SLTI}
_LOADS = {Opcode.LB: 1, Opcode.LW: 4, Opcode.LD: 8, Opcode.FLD: 8,
          Opcode.LL: 8}
_STORES = {Opcode.SB: 1, Opcode.SW: 4, Opcode.SD: 8, Opcode.FSD: 8}
_BRANCHES = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
             Opcode.BLTU, Opcode.BGEU}
_FP_R = {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT,
         Opcode.FMIN, Opcode.FMAX, Opcode.FMADD, Opcode.FLT, Opcode.FLE,
         Opcode.FMV, Opcode.FCVT_D_L, Opcode.FCVT_L_D}

MNEMONICS = {v: k.lower() for k, v in vars(Opcode).items()
             if not k.startswith("_") and isinstance(v, int)}


def _truncdiv(a: int, b: int) -> int:
    """C-style (truncate-toward-zero) integer division."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _sext(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` of ``value``."""
    sign = 1 << (bits - 1)
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & sign else value


def float_to_raw(value: float) -> int:
    """Bit-pattern of a double, as an unsigned 64-bit integer."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def raw_to_float(raw: int) -> float:
    """Double from its 64-bit bit-pattern."""
    return struct.unpack("<d", struct.pack("<Q", raw & ((1 << 64) - 1)))[0]


class ExecContext(Protocol):
    """What a StaticInst needs from the CPU model executing it."""

    def read_int(self, index: int) -> int: ...
    def write_int(self, index: int, value: int) -> None: ...
    def read_fp(self, index: int) -> float: ...
    def write_fp(self, index: int, value: float) -> None: ...
    @property
    def pc(self) -> int: ...
    def set_npc(self, addr: int) -> None: ...
    def read_mem(self, addr: int, size: int) -> int: ...
    def write_mem(self, addr: int, size: int, value: int) -> None: ...
    def syscall(self) -> None: ...
    def pseudo_op(self, op: int) -> None: ...
    def load_reserved(self, addr: int) -> None: ...
    def store_conditional(self, addr: int, size: int,
                          value: int) -> bool: ...


#: Functional-unit latency in cycles by opcode (detailed CPU models).
_OP_LATENCY = {Opcode.MUL: 3, Opcode.DIV: 12, Opcode.REM: 12,
               Opcode.FADD: 2, Opcode.FSUB: 2, Opcode.FMIN: 2,
               Opcode.FMAX: 2, Opcode.FMV: 2, Opcode.FCVT_D_L: 2,
               Opcode.FCVT_L_D: 2, Opcode.FLT: 2, Opcode.FLE: 2,
               Opcode.FMUL: 4, Opcode.FMADD: 4, Opcode.FDIV: 12,
               Opcode.FSQRT: 24}


class StaticInst:
    """One decoded SimRISC instruction.

    Decode-time precomputation (the threaded-code interpreter): all
    classification flags, the register dataflow (``src_regs``/
    ``dst_reg``), the functional-unit class, the micro-op latency, and
    the bound per-opcode executor (``_exec``) are materialised as plain
    attributes when the instruction is decoded, so CPU models pay
    attribute loads — not property calls or dispatch chains — per
    executed instruction.  The decode cache makes this a one-time cost
    per distinct machine word.
    """

    __slots__ = ("machine_word", "opcode", "rd", "rs1", "rs2", "imm",
                 "_exec", "_msize", "op_latency",
                 "is_load", "is_store", "is_mem", "is_branch", "is_jump",
                 "is_control", "is_indirect", "is_call", "is_return",
                 "is_fp", "is_syscall", "is_halt",
                 "src_regs", "dst_reg", "fu_class")

    def __init__(self, machine_word: int) -> None:
        self.machine_word = machine_word
        op = self.opcode = (machine_word >> OP_SHIFT) & 0x3F
        self.rd = (machine_word >> RD_SHIFT) & REG_MASK
        self.rs1 = (machine_word >> RS1_SHIFT) & REG_MASK
        self.rs2 = (machine_word >> RS2_SHIFT) & REG_MASK
        if op in _I_ALU or op in _LOADS or op in (Opcode.JALR, Opcode.M5OP):
            self.imm = _sext(machine_word, 16)
        elif op in _STORES or op in _BRANCHES:
            self.imm = _sext(machine_word, 11)
        elif op in (Opcode.LUI, Opcode.JAL):
            self.imm = _sext(machine_word, 21)
        else:
            self.imm = 0
        # -- precomputed classification ---------------------------------
        self.is_load = op in _LOADS
        self.is_store = op in _STORES
        self.is_mem = self.is_load or self.is_store
        self.is_branch = op in _BRANCHES
        self.is_jump = op in (Opcode.JAL, Opcode.JALR)
        self.is_control = self.is_branch or self.is_jump
        self.is_indirect = op == Opcode.JALR
        self.is_call = self.is_jump and self.rd == 1  # link register ra
        self.is_return = (op == Opcode.JALR and self.rd == 0
                          and self.rs1 == 1)
        self.is_fp = op in _FP_R or op in (Opcode.FLD, Opcode.FSD)
        self.is_syscall = op == Opcode.ECALL
        self.is_halt = op == Opcode.HALT
        self._msize = _LOADS.get(op) or _STORES.get(op)
        if op == Opcode.SC:
            # Store-conditional is R-format (rd carries the success
            # flag) but classifies as a store so the cache and timing
            # paths charge a write access for the attempt.
            self.is_store = True
            self.is_mem = True
            self._msize = 8
        self.op_latency = _OP_LATENCY.get(op, 1)
        self._exec = _EXECUTORS.get(op)
        # -- register dataflow and issue class (detailed CPU models) ------
        self.src_regs = _sources(self)
        self.dst_reg = _destination(self)
        self.fu_class = _fu_class(self)

    # -- classification -------------------------------------------------
    @property
    def mnemonic(self) -> str:
        return MNEMONICS.get(self.opcode, f"op{self.opcode}")

    @property
    def mem_size(self) -> int:
        size = self._msize
        if size is None:
            raise TypeError(f"{self.mnemonic} is not a memory instruction")
        return size

    # -- control-flow helpers --------------------------------------------
    def branch_target(self, pc: int) -> Optional[int]:
        """Static target for direct control flow (``None`` for indirect)."""
        if self.is_branch or self.opcode == Opcode.JAL:
            return pc + self.imm
        return None

    # -- memory helpers ---------------------------------------------------
    def ea(self, xc: ExecContext) -> int:
        """Effective address of a memory access."""
        return to_unsigned64(xc.read_int(self.rs1) + self.imm)

    def store_value(self, xc: ExecContext) -> int:
        """Raw integer value a store writes to memory."""
        if self.opcode == Opcode.FSD:
            return float_to_raw(xc.read_fp(self.rs2))
        size = self.mem_size
        return xc.read_int(self.rs2) & ((1 << (size * 8)) - 1)

    def complete(self, xc: ExecContext, raw: int) -> None:
        """Deliver load data to the destination register."""
        if self.opcode == Opcode.FLD:
            xc.write_fp(self.rd, raw_to_float(raw))
        elif self.opcode == Opcode.LB:
            xc.write_int(self.rd, _sext(raw, 8))
        elif self.opcode == Opcode.LW:
            xc.write_int(self.rd, _sext(raw, 32))
        else:
            xc.write_int(self.rd, raw)

    # -- full semantics ----------------------------------------------------
    def execute(self, xc: ExecContext) -> None:
        """Execute completely (atomic-mode semantics)."""
        executor = self._exec
        if executor is None:
            raise ValueError(f"cannot execute unknown opcode {self.opcode}")
        executor(self, xc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StaticInst {self.mnemonic} rd={self.rd} rs1={self.rs1} "
                f"rs2={self.rs2} imm={self.imm}>")


def _sources(inst: StaticInst) -> tuple[tuple[bool, int], ...]:
    """(is_fp, index) source registers, excluding x0."""
    sources: list[tuple[bool, int]] = []
    op = inst.opcode
    if op in (Opcode.LUI, Opcode.JAL, Opcode.NOP, Opcode.HALT,
              Opcode.ECALL, Opcode.M5OP):
        return ()
    if inst.is_fp and not inst.is_mem:
        sources.append((True, inst.rs1))
        if op not in (Opcode.FSQRT, Opcode.FMV, Opcode.FCVT_D_L,
                      Opcode.FCVT_L_D):
            sources.append((True, inst.rs2))
        if op == Opcode.FMADD:
            sources.append((True, inst.rd))
        if op == Opcode.FCVT_D_L:
            sources = [(False, inst.rs1)]
    else:
        if inst.rs1:
            sources.append((False, inst.rs1))
        if inst.is_store or inst.is_branch or (
                not inst.is_mem and not inst.is_jump and inst.rs2):
            if op == Opcode.FSD:
                sources.append((True, inst.rs2))
            elif inst.rs2:
                sources.append((False, inst.rs2))
    return tuple(sources)


def _destination(inst: StaticInst) -> Optional[tuple[bool, int]]:
    """(is_fp, index) destination register, or None."""
    if inst.is_store or inst.is_branch or inst.is_halt or inst.is_syscall:
        return None
    if inst.opcode in (Opcode.NOP, Opcode.M5OP):
        return None
    if inst.opcode == Opcode.FLD or (inst.is_fp and inst.opcode not in
                                     (Opcode.FLT, Opcode.FLE,
                                      Opcode.FCVT_L_D)):
        return (True, inst.rd)
    if inst.rd == 0:
        return None
    return (False, inst.rd)


def _fu_class(inst: StaticInst) -> str:
    """Functional-unit class an instruction issues to (O3's FUPool)."""
    if inst.is_mem:
        return "mem"
    op = inst.opcode
    if op in (Opcode.MUL, Opcode.DIV, Opcode.REM):
        return "int_muldiv"
    if op in (Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT, Opcode.FMADD):
        return "fp_muldiv"
    if inst.is_fp:
        return "fp_alu"
    return "int_alu"


# ---------------------------------------------------------------------------
# threaded-code executors
#
# One straight-line function per opcode, bound onto each StaticInst at
# decode time (``inst._exec``).  This replaces the old if/elif dispatch
# chains: executing an instruction is a single indirect call, the way
# gem5's generated per-class ``execute()`` methods work.
# ---------------------------------------------------------------------------

def _x_add(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) + xc.read_int(i.rs2))
def _x_sub(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) - xc.read_int(i.rs2))


def _x_mul(i, xc):
    xc.write_int(i.rd, to_signed64(xc.read_int(i.rs1))
                 * to_signed64(xc.read_int(i.rs2)))


def _x_div(i, xc):
    sa = to_signed64(xc.read_int(i.rs1))
    sb = to_signed64(xc.read_int(i.rs2))
    xc.write_int(i.rd, -1 if sb == 0 else _truncdiv(sa, sb))


def _x_rem(i, xc):
    sa = to_signed64(xc.read_int(i.rs1))
    sb = to_signed64(xc.read_int(i.rs2))
    xc.write_int(i.rd, sa if sb == 0 else sa - _truncdiv(sa, sb) * sb)


def _x_and(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) & xc.read_int(i.rs2))
def _x_or(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) | xc.read_int(i.rs2))
def _x_xor(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) ^ xc.read_int(i.rs2))


def _x_sll(i, xc):
    xc.write_int(i.rd, xc.read_int(i.rs1) << (xc.read_int(i.rs2) & 63))


def _x_srl(i, xc):
    xc.write_int(i.rd, xc.read_int(i.rs1) >> (xc.read_int(i.rs2) & 63))


def _x_sra(i, xc):
    xc.write_int(i.rd,
                 to_signed64(xc.read_int(i.rs1)) >> (xc.read_int(i.rs2) & 63))


def _x_slt(i, xc):
    xc.write_int(i.rd, int(to_signed64(xc.read_int(i.rs1))
                           < to_signed64(xc.read_int(i.rs2))))


def _x_sltu(i, xc):
    xc.write_int(i.rd, int(xc.read_int(i.rs1) < xc.read_int(i.rs2)))


def _x_addi(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) + i.imm)


def _x_andi(i, xc):
    xc.write_int(i.rd, xc.read_int(i.rs1) & (i.imm & ((1 << 64) - 1)))


def _x_ori(i, xc):
    xc.write_int(i.rd, xc.read_int(i.rs1) | (i.imm & ((1 << 64) - 1)))


def _x_xori(i, xc):
    xc.write_int(i.rd, xc.read_int(i.rs1) ^ (i.imm & ((1 << 64) - 1)))


def _x_slli(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) << (i.imm & 63))
def _x_srli(i, xc): xc.write_int(i.rd, xc.read_int(i.rs1) >> (i.imm & 63))


def _x_slti(i, xc):
    xc.write_int(i.rd, int(to_signed64(xc.read_int(i.rs1)) < i.imm))


def _x_lui(i, xc): xc.write_int(i.rd, i.imm << 11)


def _x_load(i, xc):
    i.complete(xc, xc.read_mem(i.ea(xc), i._msize))


def _x_store(i, xc):
    xc.write_mem(i.ea(xc), i._msize, i.store_value(xc))


def _x_beq(i, xc):
    if xc.read_int(i.rs1) == xc.read_int(i.rs2):
        xc.set_npc(xc.pc + i.imm)


def _x_bne(i, xc):
    if xc.read_int(i.rs1) != xc.read_int(i.rs2):
        xc.set_npc(xc.pc + i.imm)


def _x_blt(i, xc):
    if to_signed64(xc.read_int(i.rs1)) < to_signed64(xc.read_int(i.rs2)):
        xc.set_npc(xc.pc + i.imm)


def _x_bge(i, xc):
    if to_signed64(xc.read_int(i.rs1)) >= to_signed64(xc.read_int(i.rs2)):
        xc.set_npc(xc.pc + i.imm)


def _x_bltu(i, xc):
    if xc.read_int(i.rs1) < xc.read_int(i.rs2):
        xc.set_npc(xc.pc + i.imm)


def _x_bgeu(i, xc):
    if xc.read_int(i.rs1) >= xc.read_int(i.rs2):
        xc.set_npc(xc.pc + i.imm)


def _x_jal(i, xc):
    pc = xc.pc
    xc.write_int(i.rd, pc + INST_BYTES)
    xc.set_npc(pc + i.imm)


def _x_jalr(i, xc):
    target = to_unsigned64(xc.read_int(i.rs1) + i.imm) & ~1
    xc.write_int(i.rd, xc.pc + INST_BYTES)
    xc.set_npc(target)


def _x_fadd(i, xc): xc.write_fp(i.rd, xc.read_fp(i.rs1) + xc.read_fp(i.rs2))
def _x_fsub(i, xc): xc.write_fp(i.rd, xc.read_fp(i.rs1) - xc.read_fp(i.rs2))
def _x_fmul(i, xc): xc.write_fp(i.rd, xc.read_fp(i.rs1) * xc.read_fp(i.rs2))


def _x_fdiv(i, xc):
    a, b = xc.read_fp(i.rs1), xc.read_fp(i.rs2)
    xc.write_fp(i.rd, a / b if b != 0.0 else math.inf * (1 if a >= 0 else -1))


def _x_fsqrt(i, xc):
    a = xc.read_fp(i.rs1)
    xc.write_fp(i.rd, math.sqrt(a) if a >= 0 else float("nan"))


def _x_fmin(i, xc):
    xc.write_fp(i.rd, min(xc.read_fp(i.rs1), xc.read_fp(i.rs2)))


def _x_fmax(i, xc):
    xc.write_fp(i.rd, max(xc.read_fp(i.rs1), xc.read_fp(i.rs2)))


def _x_fmadd(i, xc):
    # fd = fs1 * fs2 + fd (destructive accumulate keeps 3 fields)
    xc.write_fp(i.rd, xc.read_fp(i.rs1) * xc.read_fp(i.rs2)
                + xc.read_fp(i.rd))


def _x_fcvt_d_l(i, xc):
    xc.write_fp(i.rd, float(to_signed64(xc.read_int(i.rs1))))


def _x_fcvt_l_d(i, xc):
    value = xc.read_fp(i.rs1)
    if math.isnan(value) or math.isinf(value):
        xc.write_int(i.rd, 0)
    else:
        xc.write_int(i.rd, int(value))


def _x_flt(i, xc):
    xc.write_int(i.rd, int(xc.read_fp(i.rs1) < xc.read_fp(i.rs2)))


def _x_fle(i, xc):
    xc.write_int(i.rd, int(xc.read_fp(i.rs1) <= xc.read_fp(i.rs2)))


def _x_fmv(i, xc): xc.write_fp(i.rd, xc.read_fp(i.rs1))
def _x_ecall(i, xc): xc.syscall()
def _x_m5op(i, xc): xc.pseudo_op(i.imm)


def _x_ll(i, xc):
    ea = i.ea(xc)
    xc.write_int(i.rd, xc.read_mem(ea, 8))
    xc.load_reserved(ea)


def _x_sc(i, xc):
    ok = xc.store_conditional(i.ea(xc), 8,
                              xc.read_int(i.rs2) & ((1 << 64) - 1))
    xc.write_int(i.rd, 0 if ok else 1)


def _x_nop(i, xc):
    pass  # HALT too: the CPU model observes is_halt and exits


_EXECUTORS = {
    Opcode.ADD: _x_add, Opcode.SUB: _x_sub, Opcode.MUL: _x_mul,
    Opcode.DIV: _x_div, Opcode.REM: _x_rem, Opcode.AND: _x_and,
    Opcode.OR: _x_or, Opcode.XOR: _x_xor, Opcode.SLL: _x_sll,
    Opcode.SRL: _x_srl, Opcode.SRA: _x_sra, Opcode.SLT: _x_slt,
    Opcode.SLTU: _x_sltu,
    Opcode.ADDI: _x_addi, Opcode.ANDI: _x_andi, Opcode.ORI: _x_ori,
    Opcode.XORI: _x_xori, Opcode.SLLI: _x_slli, Opcode.SRLI: _x_srli,
    Opcode.SLTI: _x_slti, Opcode.LUI: _x_lui,
    Opcode.LB: _x_load, Opcode.LW: _x_load, Opcode.LD: _x_load,
    Opcode.FLD: _x_load,
    Opcode.SB: _x_store, Opcode.SW: _x_store, Opcode.SD: _x_store,
    Opcode.FSD: _x_store,
    Opcode.BEQ: _x_beq, Opcode.BNE: _x_bne, Opcode.BLT: _x_blt,
    Opcode.BGE: _x_bge, Opcode.BLTU: _x_bltu, Opcode.BGEU: _x_bgeu,
    Opcode.JAL: _x_jal, Opcode.JALR: _x_jalr,
    Opcode.FADD: _x_fadd, Opcode.FSUB: _x_fsub, Opcode.FMUL: _x_fmul,
    Opcode.FDIV: _x_fdiv, Opcode.FSQRT: _x_fsqrt, Opcode.FMIN: _x_fmin,
    Opcode.FMAX: _x_fmax, Opcode.FMADD: _x_fmadd,
    Opcode.FCVT_D_L: _x_fcvt_d_l, Opcode.FCVT_L_D: _x_fcvt_l_d,
    Opcode.FLT: _x_flt, Opcode.FLE: _x_fle, Opcode.FMV: _x_fmv,
    Opcode.ECALL: _x_ecall, Opcode.M5OP: _x_m5op,
    Opcode.NOP: _x_nop, Opcode.HALT: _x_nop,
    Opcode.LL: _x_ll, Opcode.SC: _x_sc,
}


def encode(opcode: int, rd: int = 0, rs1: int = 0, rs2: int = 0,
           imm: int = 0) -> int:
    """Pack fields into a 32-bit SimRISC machine word."""
    word = (opcode & 0x3F) << OP_SHIFT
    word |= (rd & REG_MASK) << RD_SHIFT
    word |= (rs1 & REG_MASK) << RS1_SHIFT
    if opcode in _STORES or opcode in _BRANCHES:
        if not -1024 <= imm < 1024:
            raise ValueError(
                f"{MNEMONICS[opcode]} offset {imm} out of 11-bit range")
        word |= (rs2 & REG_MASK) << RS2_SHIFT
        word |= imm & IMM11_MASK
    elif opcode in (Opcode.LUI, Opcode.JAL):
        if not -(1 << 20) <= imm < (1 << 20):
            raise ValueError(
                f"{MNEMONICS[opcode]} immediate {imm} out of 21-bit range")
        word |= imm & IMM21_MASK
    elif opcode in _I_ALU or opcode in _LOADS or opcode in (Opcode.JALR,
                                                            Opcode.M5OP):
        if not -(1 << 15) <= imm < (1 << 15):
            raise ValueError(
                f"{MNEMONICS[opcode]} immediate {imm} out of 16-bit range")
        word |= imm & IMM16_MASK
    else:
        word |= (rs2 & REG_MASK) << RS2_SHIFT
    return word
