"""Guest-binary CFG analyzer: construction, analyses, cross-checks.

The headline assertions required by the analyzer's contract:

- the static basic-block count of the sieve equals the block count
  observed by a dynamic atomic-CPU trace (full-coverage cross-check);
- removing any opcode from the decode or executor tables makes the
  decoder-totality check fail.
"""

from __future__ import annotations

import pytest

from repro.analysis.guestcfg import (
    analyze_workload,
    build_cfg,
    cross_check,
    decoder_totality_failures,
    render_guest_report,
    run_dynamic_trace,
)
from repro.g5.isa import Assembler
from repro.g5.isa import instructions as inst_mod
from repro.g5.isa.assembler import Program
from repro.g5.isa.instructions import OP_SHIFT, Opcode


@pytest.fixture(scope="module")
def sieve_cfg():
    from repro.workloads.registry import get_workload

    return build_cfg(get_workload("sieve").build("test"))


@pytest.fixture(scope="module")
def diamond_cfg():
    """entry -> (left | right) -> join -> halt, plus a dead block."""
    asm = Assembler(base=0x1000)
    asm.li("t0", 7)                      # entry block
    asm.beq("t0", "zero", "left")
    asm.label("right")
    asm.addi("t1", "t0", 1)
    asm.j("join")
    asm.label("left")
    asm.addi("t1", "t0", 2)
    asm.label("join")
    asm.add("t2", "t1", "t0")
    asm.halt()
    asm.label("dead")
    asm.addi("t3", "zero", 9)            # unreachable
    return build_cfg(asm.assemble())


# -- decoder totality ---------------------------------------------------
def test_decoder_is_total():
    assert decoder_totality_failures() == []


@pytest.mark.parametrize("name", ["ADD", "MUL", "BLT", "JALR", "M5OP"])
def test_removed_mnemonic_fails_totality(monkeypatch, name):
    opcode = getattr(Opcode, name)
    monkeypatch.delitem(inst_mod.MNEMONICS, opcode)
    failures = decoder_totality_failures()
    assert any(f"({name})" in failure and "not decodable" in failure
               for failure in failures)


@pytest.mark.parametrize("name", ["ADD", "LB", "BEQ"])
def test_removed_executor_fails_totality(monkeypatch, name):
    opcode = getattr(Opcode, name)
    monkeypatch.delitem(inst_mod._EXECUTORS, opcode)
    failures = decoder_totality_failures()
    assert any(f"({name})" in failure and "no executor" in failure
               for failure in failures)


# -- CFG construction ---------------------------------------------------
def test_diamond_structure(diamond_cfg):
    cfg = diamond_cfg
    assert len(cfg.blocks) == 5           # entry, right, left, join, dead
    assert len(cfg.reachable) == 4        # dead block is unreachable
    entry = cfg.blocks[cfg.entry]
    assert entry.terminator == "branch"
    assert len(entry.succs) == 2
    join = {start for start in cfg.reachable
            if cfg.blocks[start].terminator == "halt"}
    assert len(join) == 1
    (join_start,) = join
    assert sorted(cfg.blocks[join_start].preds) == sorted(entry.succs)


def test_diamond_footprint(diamond_cfg):
    fp = diamond_cfg.footprint()
    assert fp["undecodable_words"] == 0
    assert fp["dead_insts"] == 1
    assert fp["branches"] == 1
    assert fp["jumps"] == 1
    assert fp["basic_blocks"] == 4
    assert fp["basic_blocks_total"] == 5
    assert fp["static_insts"] == sum(
        len(block) for block in diamond_cfg.blocks.values())


def test_undecodable_words_are_collected():
    bad_word = 0x3F << OP_SHIFT          # opcode 63 is unassigned
    program = Program(base=0x1000, words=[bad_word], labels={},
                      entry=0x1000)
    cfg = build_cfg(program)
    assert len(cfg.undecodable) == 1
    pc, word, message = cfg.undecodable[0]
    assert pc == 0x1000 and word == bad_word
    assert "undecodable" in message
    assert cfg.footprint()["undecodable_words"] == 1


# -- static vs dynamic cross-check --------------------------------------
def test_sieve_static_blocks_match_dynamic_trace(sieve_cfg):
    trace = run_dynamic_trace("sieve", scale="test")
    report = cross_check(sieve_cfg, trace)
    assert report.agrees, (report.phantom_pcs, report.phantom_leaders,
                           report.phantom_edges)
    # The sieve's test scale executes every static path; the only
    # unretired instruction is the safety `halt` after m5_exit (the
    # m5op ends the simulation first), so block counts agree exactly.
    unexecuted = set(sieve_cfg.insts) - trace.executed_pcs
    assert unexecuted == {max(sieve_cfg.insts)}
    assert sieve_cfg.insts[max(sieve_cfg.insts)].is_halt
    assert report.static_blocks == report.dynamic_blocks


def test_sieve_trace_reaches_every_branch(sieve_cfg):
    trace = run_dynamic_trace("sieve", scale="test")
    static_branch_pcs = {
        pc for pc, inst in sieve_cfg.insts.items() if inst.is_branch}
    assert trace.branch_sites == static_branch_pcs
    assert trace.taken > 0 and trace.not_taken > 0


def test_analyze_workload_report_shape():
    report = analyze_workload("sieve", scale="test", dynamic=True)
    assert report["totality_failures"] == []
    assert report["undecodable"] == []
    assert report["footprint"]["basic_blocks"] >= 1
    dynamic = report["dynamic"]
    assert dynamic["agrees"]
    assert dynamic["static_blocks"] == dynamic["dynamic_blocks"]
    text = render_guest_report(report)
    assert "cross-check    : AGREES" in text
    assert "decoder total  : yes" in text


def test_render_reports_totality_failures():
    report = analyze_workload("sieve", scale="test")
    report["totality_failures"] = ["opcode 1 (ADD) is not decodable"]
    text = render_guest_report(report)
    assert "decoder totality FAILURES:" in text
