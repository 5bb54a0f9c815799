"""Tests for the four g5 CPU models.

The central invariant is *architectural equivalence*: all four models
must compute identical results for any guest program — only timing
differs.  Model-specific behaviours (pipelining, misprediction stalls,
store forwarding) are tested individually.
"""

import pytest

from repro.g5 import Assembler, SimConfig, System, simulate
from repro.g5.isa import to_signed64
from repro.workloads import build_sieve, prime_count_reference

ALL_MODELS = ["atomic", "timing", "minor", "o3"]


def run_program(program, cpu_model, max_ticks=10**12, record=False):
    system = System(SimConfig(cpu_model=cpu_model, record=record))
    process = system.set_se_workload(program)
    result = simulate(system, max_ticks=max_ticks)
    return result, process, system


def exit_with(value_reg_setup):
    """Program skeleton: run setup then exit with a0."""
    asm = Assembler(base=0x1000)
    value_reg_setup(asm)
    asm.li("a7", 93)
    asm.ecall()
    asm.halt()
    return asm.assemble()


def fib_program(n=20):
    asm = Assembler(base=0x1000)
    asm.li("t0", n)
    asm.li("s0", 0)
    asm.li("s1", 1)
    asm.label("loop")
    asm.add("t1", "s0", "s1")
    asm.mv("s0", "s1")
    asm.mv("s1", "t1")
    asm.addi("t0", "t0", -1)
    asm.bne("t0", "zero", "loop")
    asm.mv("a0", "s1")
    asm.li("a7", 93)
    asm.ecall()
    asm.halt()
    return asm.assemble()


def memory_program():
    """Store/load churn with aliasing to stress LSQ forwarding."""
    asm = Assembler(base=0x1000)
    asm.li("s0", 0x8000)
    asm.li("t0", 0)
    asm.li("s1", 0)          # checksum
    asm.label("loop")
    asm.slli("t1", "t0", 3)
    asm.add("t1", "t1", "s0")
    asm.sd("t0", "t1", 0)     # store i
    asm.ld("t2", "t1", 0)     # immediately load it back (forwarding)
    asm.add("s1", "s1", "t2")
    asm.sd("s1", "s0", 0)     # repeatedly overwrite slot 0
    asm.ld("t3", "s0", 0)
    asm.sub("t4", "t3", "s1")
    asm.add("s1", "s1", "t4")  # t4 must be 0 if forwarding is correct
    asm.addi("t0", "t0", 1)
    asm.li("t5", 50)
    asm.blt("t0", "t5", "loop")
    asm.mv("a0", "s1")
    asm.li("a7", 93)
    asm.ecall()
    asm.halt()
    return asm.assemble()


def expected_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return b


class TestArchitecturalEquivalence:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_fib(self, model):
        result, process, _ = run_program(fib_program(20), model)
        assert process.exit_code == expected_fib(20)
        assert result.exit_cause == "target called exit()"

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_memory_aliasing(self, model):
        _, process, _ = run_program(memory_program(), model)
        assert process.exit_code == 50 * 49 // 2

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_sieve(self, model):
        _, process, _ = run_program(build_sieve(limit=120), model)
        assert process.exit_code == prime_count_reference(120)

    def test_all_models_commit_same_inst_count(self):
        program = fib_program(15)
        counts = {model: run_program(program, model)[0].sim_insts
                  for model in ALL_MODELS}
        assert len(set(counts.values())) == 1, counts


class TestAtomicCPU:
    def test_cpi_is_one(self):
        result, _, _ = run_program(fib_program(10), "atomic")
        assert result.sim_cycles == result.sim_insts

    def test_max_ticks_stops_runaway(self):
        asm = Assembler(base=0x1000)
        asm.label("spin")
        asm.j("spin")
        result, _, _ = run_program(asm.assemble(), "atomic",
                                   max_ticks=10**6)
        assert "limit" in result.exit_cause


class TestTimingCPU:
    def test_cycles_exceed_insts(self):
        result, _, _ = run_program(fib_program(30), "timing")
        assert result.sim_cycles > result.sim_insts

    def test_stats_populated(self):
        result, _, system = run_program(memory_program(), "timing")
        assert system.cpu.stat_mem_refs.value() > 100
        assert system.cpu.stat_branches.value() >= 50


class TestMinorCPU:
    def test_pipeline_faster_than_unpipelined(self):
        program = fib_program(100)
        timing_cycles = run_program(program, "timing")[0].sim_cycles
        minor_cycles = run_program(program, "minor")[0].sim_cycles
        assert minor_cycles < timing_cycles

    def test_branch_stats_collected(self):
        result, _, system = run_program(fib_program(50), "minor")
        assert system.cpu.bpred.lookups >= 50
        # A tight countdown loop should become highly predictable.
        assert system.cpu.bpred.mispredict_rate < 0.3

    def test_fetch_stall_cycles_on_mispredicts(self):
        _, _, system = run_program(fib_program(50), "minor")
        assert system.cpu.stat_fetch_stall_cycles.value() > 0


class TestO3CPU:
    def test_superscalar_beats_in_order(self):
        # Independent FP work exposes ILP that O3 can exploit.
        asm = Assembler(base=0x1000)
        asm.li("t0", 200)
        asm.label("loop")
        asm.fadd("f1", "f1", "f11")
        asm.fadd("f2", "f2", "f12")
        asm.fadd("f3", "f3", "f13")
        asm.fadd("f4", "f4", "f14")
        asm.addi("t0", "t0", -1)
        asm.bne("t0", "zero", "loop")
        asm.li("a0", 0)
        asm.li("a7", 93)
        asm.ecall()
        asm.halt()
        program = asm.assemble()
        minor_cycles = run_program(program, "minor")[0].sim_cycles
        o3_cycles = run_program(program, "o3")[0].sim_cycles
        assert o3_cycles < minor_cycles

    def test_ipc_above_one_on_ilp_heavy_code(self):
        result, _, _ = run_program(fib_program(300), "o3")
        assert result.ipc > 0.8

    def test_store_forwarding_counted(self):
        _, _, system = run_program(memory_program(), "o3")
        assert system.cpu.lsq.forwarded > 0

    def test_rob_occupancy_sampled(self):
        _, _, system = run_program(fib_program(100), "o3")
        assert system.cpu.stat_rob_occupancy.samples > 0


class TestO3Structures:
    def test_rob_capacity(self):
        from repro.g5.cpus.o3.rob import ROB

        rob = ROB(2)
        assert rob.free_entries == 2
        with pytest.raises(ValueError):
            ROB(0)

    def test_fu_classification(self):
        from repro.g5.isa import Opcode, StaticInst, encode

        def fu_class(word):
            return StaticInst(word).fu_class

        assert fu_class(encode(Opcode.ADD, 1, 2, 3)) == "int_alu"
        assert fu_class(encode(Opcode.MUL, 1, 2, 3)) == "int_muldiv"
        assert fu_class(encode(Opcode.FMUL, 1, 2, 3)) == "fp_muldiv"
        assert fu_class(encode(Opcode.FADD, 1, 2, 3)) == "fp_alu"
        assert fu_class(encode(Opcode.LD, 1, 2)) == "mem"

    def test_lsq_capacity_and_forwarding(self):
        from repro.g5.cpus.dyninst import DynInst
        from repro.g5.cpus.o3.lsq import LSQ
        from repro.g5.isa import Opcode, StaticInst, encode

        lsq = LSQ(2, 2)
        store_inst = StaticInst(encode(Opcode.SD, rs1=1, rs2=2))
        load_inst = StaticInst(encode(Opcode.LD, 3, 1))
        store = DynInst(1, 0x100, store_inst, 0x104, 0x2000, False)
        load = DynInst(2, 0x104, load_inst, 0x108, 0x2000, False)
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.forwarding_store(load) is store
        older_load = DynInst(0, 0xFC, load_inst, 0x100, 0x2000, False)
        assert lsq.forwarding_store(older_load) is None
        with pytest.raises(ValueError):
            LSQ(0, 1)


class TestBranchPredictor:
    def test_learns_biased_branch(self):
        from repro.g5.cpus.branchpred import TournamentBP
        from repro.g5.isa import Opcode, StaticInst, encode

        bp = TournamentBP()
        inst = StaticInst(encode(Opcode.BNE, rs1=1, rs2=2, imm=-16))
        pc = 0x1000
        mispredicts = 0
        for _ in range(200):
            taken, target = bp.predict(pc, inst)
            actual_target = pc - 16
            wrong = (not taken) or target != actual_target
            mispredicts += int(wrong)
            bp.update(pc, inst, True, actual_target, wrong)
        assert mispredicts < 10  # learns quickly

    def test_ras_predicts_returns(self):
        from repro.g5.cpus.branchpred import TournamentBP
        from repro.g5.isa import Opcode, StaticInst, encode

        bp = TournamentBP()
        call = StaticInst(encode(Opcode.JAL, rd=1, imm=0x100))
        ret = StaticInst(encode(Opcode.JALR, rd=0, rs1=1))
        bp.on_fetch(0x1000, call)
        taken, target = bp.predict(0x1100, ret)
        assert taken and target == 0x1004

    def test_btb_capacity_evicts(self):
        from repro.g5.cpus.branchpred import TournamentBP
        from repro.g5.isa import Opcode, StaticInst, encode

        bp = TournamentBP(btb_entries=4)
        jal = StaticInst(encode(Opcode.JAL, rd=0, imm=64))
        for index in range(8):
            bp.update(0x1000 + index * 4, jal, True, 0x2000, False)
        assert len(bp._btb) <= 4


def _dyn(seq, opcode, deps=(), **fields):
    from repro.g5.cpus.dyninst import DynInst
    from repro.g5.isa import StaticInst, encode

    dyn = DynInst(seq, 0x1000 + 4 * seq, StaticInst(encode(opcode, **fields)),
                  0x1004 + 4 * seq, None, False)
    dyn.deps = tuple(deps)
    return dyn


def _complete(iq, dyn, tick):
    """What O3CPU._complete does: set the tick, wake the waiters."""
    dyn.complete_tick = tick
    iq.wake(dyn, tick)


def _spy_issue(cpu):
    """Wrap ``cpu.iq.schedule_ready``; returns the list of calls it saw,
    as ``(now, schedulable(now) before the call, picked)``."""
    iq = cpu.iq
    schedule_ready = iq.schedule_ready
    calls = []

    def spy(now, width):
        expect = iq.schedulable(now)
        picked = schedule_ready(now, width)
        calls.append((now, expect, picked))
        return picked

    iq.schedule_ready = spy
    return calls


def _old_sources(inst):
    """The per-DynInst source derivation StaticInst.src_regs replaced."""
    from repro.g5.isa import Opcode

    sources = []
    fp = inst.is_fp
    op = inst.opcode
    if op in (Opcode.LUI, Opcode.JAL, Opcode.NOP, Opcode.HALT,
              Opcode.ECALL, Opcode.M5OP):
        return ()
    if fp and not inst.is_mem:
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
            if inst.opcode == Opcode.FSD:
                sources.append((True, inst.rs2))
            elif inst.rs2:
                sources.append((False, inst.rs2))
    return tuple(sources)


def _old_destination(inst):
    """The per-DynInst destination derivation StaticInst.dst_reg replaced."""
    from repro.g5.isa import Opcode

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


class TestO3Wakeup:
    def test_oldest_first_under_each_fu_cap(self):
        from repro.g5.cpus.o3.iq import FUPool, InstructionQueue
        from repro.g5.isa import Opcode

        iq = InstructionQueue(16, FUPool(int_alu=2, int_muldiv=1,
                                         mem_ports=1))
        ops = [Opcode.MUL, Opcode.ADD, Opcode.MUL, Opcode.LD, Opcode.ADD,
               Opcode.LD, Opcode.ADD, Opcode.DIV]
        for seq, op in enumerate(ops, start=1):
            iq.insert(_dyn(seq, op, rd=1, rs1=2, rs2=3))
        assert [d.seq for d in iq.schedule_ready(0, 8)] == [1, 2, 4, 5]
        assert [d.seq for d in iq.schedule_ready(0, 2)] == [3, 6]
        assert [d.seq for d in iq.schedule_ready(0, 8)] == [7, 8]
        assert len(iq) == 0 and not iq.schedulable(0)

    def test_woken_entry_issues_before_younger_ready_ones(self):
        from repro.g5.cpus.o3.iq import FUPool, InstructionQueue
        from repro.g5.isa import Opcode

        iq = InstructionQueue(8, FUPool(int_alu=1))
        producer = _dyn(1, Opcode.ADD, rd=1, rs1=2)
        consumer = _dyn(2, Opcode.ADD, deps=(producer,), rd=3, rs1=1)
        younger = [_dyn(seq, Opcode.ADD, rd=4, rs1=5) for seq in (3, 4)]
        for dyn in (producer, consumer, *younger):
            iq.insert(dyn)
        assert iq.schedule_ready(0, 8) == [producer]
        _complete(iq, producer, 2)
        assert iq.schedule_ready(1, 8) == [younger[0]]
        assert iq.schedule_ready(2, 8) == [consumer]
        assert iq.schedule_ready(3, 8) == [younger[1]]

    def test_schedulable_tracks_wakeup(self):
        from repro.g5.cpus.o3.iq import FUPool, InstructionQueue
        from repro.g5.isa import Opcode

        iq = InstructionQueue(4, FUPool())
        producer = _dyn(1, Opcode.LD, rd=1, rs1=2)
        consumer = _dyn(2, Opcode.ADD, deps=(producer,), rd=3, rs1=1)
        iq.insert(producer)
        iq.insert(consumer)
        assert iq.schedule_ready(0, 8) == [producer]
        assert not iq.schedulable(100)
        _complete(iq, producer, 50)
        assert not iq.schedulable(49)
        assert iq.schedule_ready(49, 8) == []
        assert iq.schedulable(50)
        assert iq.schedule_ready(50, 8) == [consumer]

    @pytest.mark.parametrize("program", [fib_program, memory_program,
                                         lambda: build_sieve(limit=120)])
    def test_schedulable_agrees_with_schedule_ready(self, program):
        system = System(SimConfig(cpu_model="o3"))
        system.set_se_workload(program())
        calls = _spy_issue(system.cpu)
        simulate(system, max_ticks=10**12)
        assert calls
        assert all(expect == bool(picked) for _, expect, picked in calls)
        assert {expect for _, expect, _ in calls} == {True, False}

    def test_load_miss_consumer_waits_for_response(self):
        asm = Assembler(base=0x1000)
        asm.li("s0", 0x40000)
        asm.ld("t0", "s0", 0)
        asm.add("a0", "t0", "t0")
        asm.li("a7", 93)
        asm.ecall()
        asm.halt()
        system = System(SimConfig(cpu_model="o3"))
        system.set_se_workload(asm.assemble())
        cpu = system.cpu
        calls = _spy_issue(cpu)
        responses = []
        recv_timing_resp = cpu.recv_timing_resp

        def spy_resp(pkt):
            if not pkt.is_instruction and pkt.is_read:
                responses.append(cpu.now)
            recv_timing_resp(pkt)

        cpu.recv_timing_resp = spy_resp
        simulate(system, max_ticks=10**12)
        issued = {dyn.seq: (now, dyn) for now, _, picked in calls
                  for dyn in picked}
        (load_at, load), = [(now, dyn) for now, dyn in issued.values()
                            if dyn.inst.is_load]
        (use_at, use), = [(now, dyn) for now, dyn in issued.values()
                          if load in dyn.deps]
        assert load.complete_tick in responses
        assert load.complete_tick - load_at > cpu.cycles(10)  # a miss
        assert use_at >= load.complete_tick

    def test_rob_records_stay_inside_rob_allocation(self, monkeypatch):
        from functools import partial

        from repro.g5.cpus import CPU_MODELS
        from repro.g5.cpus.o3 import O3CPU

        monkeypatch.setitem(CPU_MODELS, "o3", partial(O3CPU, rob_entries=32))
        result, _, system = run_program(build_sieve(limit=120), "o3",
                                        record=True)
        assert system.cpu.rob.entries == 32
        recorder = result.recorder
        rob, = [a for a in recorder.allocations if a.label == "rob"]
        retire = recorder.intern("o3::ROB::retireHead")
        daddrs = {daddr for fn, daddr in recorder.iter_records()
                  if fn == retire}
        assert len(daddrs) == 32
        assert all(rob.base <= daddr < rob.end for daddr in daddrs)


class TestStaticInstDataflow:
    def test_src_and_dst_match_per_dyninst_derivation(self):
        from repro.g5.isa import StaticInst, encode
        from repro.g5.isa.instructions import MNEMONICS

        fields = [(0, 0, 0), (1, 2, 3), (5, 0, 7), (0, 4, 0), (9, 9, 9)]
        for opcode in MNEMONICS:
            for rd, rs1, rs2 in fields:
                inst = StaticInst(encode(opcode, rd, rs1, rs2))
                assert inst.src_regs == _old_sources(inst), inst
                assert inst.dst_reg == _old_destination(inst), inst
