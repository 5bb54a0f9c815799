"""Static analysis of guest binaries: basic blocks, CFG, and
instruction-footprint reports.

The paper's core finding is that gem5's host behaviour is dominated by
*static* guest-code structure — instruction footprint, branch density,
front-end pressure.  This module measures those properties directly
from an assembled :class:`~repro.g5.isa.assembler.Program`, using the
same decoder the CPU models fetch through, so the static reports
cross-check the dynamic traces behind Figs. 3–6:

- every word is decoded with a *private* :class:`Decoder`
  (undecodable words are collected, which doubles as a decoder
  totality check over real binaries);
- basic blocks are built with the standard leader algorithm, giving a
  CFG with fallthrough/branch/jump edges (``jalr`` marks an indirect
  site with statically-unknown successors);
- :func:`run_dynamic_trace` executes the workload functionally on an
  Atomic CPU and :func:`cross_check` verifies the dynamic block
  structure agrees with the static CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..g5.isa import INST_BYTES, Decoder, Program, StaticInst
from ..g5.isa.decoder import DecodeError
from ..g5.isa.instructions import OP_SHIFT, Opcode


# ---------------------------------------------------------------------------
# decoder totality
# ---------------------------------------------------------------------------
def decoder_totality_failures() -> list[str]:
    """Opcodes the decoder or executor table cannot handle.

    Checks every opcode named on :class:`Opcode` end to end: its
    canonical encoding must decode (i.e. be present in ``MNEMONICS``)
    and the decoded instruction must carry a bound executor.  An empty
    list means the decode/execute tables are total over the ISA.
    """
    failures: list[str] = []
    for name, value in sorted(vars(Opcode).items()):
        if name.startswith("_") or not isinstance(value, int):
            continue
        word = (value & 0x3F) << OP_SHIFT
        decoder = Decoder()  # private cache: see stale entries never
        try:
            inst = decoder.decode(word)
        except DecodeError:
            failures.append(f"opcode {value} ({name}) is not decodable")
            continue
        if inst._exec is None:
            failures.append(f"opcode {value} ({name}) decodes but has "
                            "no executor bound")
    return failures


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------
@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    start: int
    insts: list[tuple[int, StaticInst]] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)   # successor starts
    preds: list[int] = field(default_factory=list)
    #: "branch" | "jump" | "indirect" | "halt" | "fallthrough"
    terminator: str = "fallthrough"

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        return self.start + len(self.insts) * INST_BYTES

    @property
    def last(self) -> tuple[int, StaticInst]:
        return self.insts[-1]

    def __len__(self) -> int:
        return len(self.insts)


class GuestCFG:
    """Control-flow graph of one assembled guest program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.entry = program.entry
        #: pc -> decoded instruction, in address order.
        self.insts: dict[int, StaticInst] = {}
        #: (pc, word, message) for words the decoder rejects.
        self.undecodable: list[tuple[int, int, str]] = []
        #: pcs of ``jalr`` instructions (statically-unknown targets).
        self.indirect_sites: list[int] = []
        self.blocks: dict[int, BasicBlock] = {}
        self.reachable: set[int] = set()
        self._decode()
        self._build_blocks()
        self._compute_reachable()

    # -- decode ---------------------------------------------------------
    def _decode(self) -> None:
        decoder = Decoder()
        pc = self.program.base
        for word in self.program.words:
            try:
                self.insts[pc] = decoder.decode(word, pc)
            except DecodeError as exc:
                self.undecodable.append((pc, word, str(exc)))
            pc += INST_BYTES

    def _in_code(self, addr: int) -> bool:
        return self.program.base <= addr < self.program.end

    # -- leaders and blocks ---------------------------------------------
    def _leaders(self) -> list[int]:
        leaders = {self.entry}
        for pc, inst in self.insts.items():
            if inst.is_control:
                target = inst.branch_target(pc)
                if target is not None and self._in_code(target):
                    leaders.add(target)
                after = pc + INST_BYTES
                if self._in_code(after):
                    leaders.add(after)
            elif inst.is_halt:
                after = pc + INST_BYTES
                if self._in_code(after):
                    leaders.add(after)    # anything following is new code
        return sorted(addr for addr in leaders if addr in self.insts)

    def _build_blocks(self) -> None:
        leaders = self._leaders()
        leader_set = set(leaders)
        for start in leaders:
            block = BasicBlock(start)
            pc = start
            while pc in self.insts:
                inst = self.insts[pc]
                block.insts.append((pc, inst))
                if inst.is_control or inst.is_halt:
                    break
                if pc + INST_BYTES in leader_set:
                    break
                pc += INST_BYTES
            self.blocks[start] = block
        for block in self.blocks.values():
            self._link(block)

    def _link(self, block: BasicBlock) -> None:
        pc, inst = block.last
        fallthrough = pc + INST_BYTES
        if inst.is_branch:
            block.terminator = "branch"
            target = inst.branch_target(pc)
            if fallthrough in self.blocks:
                block.succs.append(fallthrough)
            if target is not None and target in self.blocks and \
                    target not in block.succs:
                block.succs.append(target)
        elif inst.opcode == Opcode.JAL:
            block.terminator = "jump"
            target = inst.branch_target(pc)
            if target is not None and target in self.blocks:
                block.succs.append(target)
        elif inst.is_indirect:
            block.terminator = "indirect"
            self.indirect_sites.append(pc)
        elif inst.is_halt:
            block.terminator = "halt"
        else:
            block.terminator = "fallthrough"
            if fallthrough in self.blocks:
                block.succs.append(fallthrough)
        for succ in block.succs:
            self.blocks[succ].preds.append(block.start)

    def _compute_reachable(self) -> None:
        if self.entry not in self.blocks:
            return
        stack = [self.entry]
        while stack:
            start = stack.pop()
            if start in self.reachable:
                continue
            self.reachable.add(start)
            stack.extend(self.blocks[start].succs)

    # -- reports --------------------------------------------------------
    def footprint(self) -> dict:
        """Static instruction-footprint / branch-density report.

        These are the static counterparts of the dynamic front-end
        numbers behind Figs. 3–6: footprint drives i-cache/iTLB
        pressure, branch density drives BTB/predictor pressure, and
        mean block length bounds the front-end's straight-line fetch
        runs.
        """
        mnemonics: dict[str, int] = {}
        branches = jumps = indirect = loads = stores = fp = 0
        for inst in self.insts.values():
            mnemonics[inst.mnemonic] = mnemonics.get(inst.mnemonic, 0) + 1
            branches += inst.is_branch
            jumps += inst.is_jump
            indirect += inst.is_indirect
            loads += inst.is_load
            stores += inst.is_store
            fp += inst.is_fp
        n_insts = len(self.insts)
        reachable_blocks = [self.blocks[s] for s in sorted(self.reachable)]
        reachable_insts = sum(len(b) for b in reachable_blocks)
        block_sizes = [len(b) for b in reachable_blocks]
        control = branches + jumps
        return {
            "static_insts": n_insts,
            "code_bytes": n_insts * INST_BYTES,
            "undecodable_words": len(self.undecodable),
            "basic_blocks": len(reachable_blocks),
            "basic_blocks_total": len(self.blocks),
            "dead_insts": n_insts - reachable_insts,
            "mean_block_insts": (reachable_insts / len(block_sizes)
                                 if block_sizes else 0.0),
            "max_block_insts": max(block_sizes, default=0),
            "branches": branches,
            "jumps": jumps,
            "indirect_jumps": indirect,
            "branch_density": control / n_insts if n_insts else 0.0,
            "loads": loads,
            "stores": stores,
            "mem_density": (loads + stores) / n_insts if n_insts else 0.0,
            "fp_insts": fp,
            "mnemonic_histogram": dict(sorted(mnemonics.items())),
        }


def build_cfg(program: Program) -> GuestCFG:
    """Decode ``program`` and construct its control-flow graph."""
    return GuestCFG(program)


def pc_to_block_map(cfg: GuestCFG) -> dict[int, int]:
    """pc -> start address of the basic block containing it.

    Covers every decoded instruction (reachable or not): the sampling
    profiler attributes each *executed* pc to its static block, and a
    dynamically reached pc is by construction part of some block even
    when static reachability analysis could not prove it.
    """
    mapping: dict[int, int] = {}
    for start, block in cfg.blocks.items():
        for pc, _ in block.insts:
            mapping[pc] = start
    return mapping


# ---------------------------------------------------------------------------
# dynamic cross-check
# ---------------------------------------------------------------------------
@dataclass
class DynamicTrace:
    """Block-level summary of one functional execution."""

    entry: int
    n_insts: int = 0
    executed_pcs: set[int] = field(default_factory=set)
    #: Dynamic block starts: entry plus every post-control-transfer pc.
    leaders: set[int] = field(default_factory=set)
    #: (control pc -> next pc) transitions observed.
    edges: set[tuple[int, int]] = field(default_factory=set)
    branch_sites: set[int] = field(default_factory=set)
    taken: int = 0
    not_taken: int = 0


def run_dynamic_trace(workload_name: str, scale: str = "test",
                      max_insts: int = 5_000_000) -> DynamicTrace:
    """Execute a workload functionally and summarise its block structure.

    Drives the same in-order functional stepper the detailed CPU models
    fetch from (:class:`InstStream` over an Atomic CPU), so the dynamic
    side of the cross-check shares decode and execute semantics with
    the simulator proper.
    """
    from ..g5.cpus.dyninst import InstStream
    from ..g5.system import SimConfig, System
    from ..workloads.registry import get_workload

    workload = get_workload(workload_name)
    system = System(SimConfig(cpu_model="atomic", mode=workload.mode,
                              record=False))
    program = workload.build(scale)
    if workload.mode == "se":
        system.set_se_workload(program, process_name=workload_name)
    else:
        system.set_fs_workload(program)
    trace = DynamicTrace(entry=system.cpu.regs.pc)
    trace.leaders.add(trace.entry)
    stream = InstStream(system.cpu)
    while True:
        dyn = stream.next_inst()
        if dyn is None:
            break
        trace.n_insts += 1
        trace.executed_pcs.add(dyn.pc)
        inst = dyn.inst
        if inst.is_control:
            trace.leaders.add(dyn.next_pc)
            trace.edges.add((dyn.pc, dyn.next_pc))
            if inst.is_branch:
                trace.branch_sites.add(dyn.pc)
                if dyn.taken:
                    trace.taken += 1
                else:
                    trace.not_taken += 1
        if trace.n_insts >= max_insts:
            raise RuntimeError(
                f"dynamic trace of {workload_name!r} exceeded "
                f"{max_insts} instructions; raise max_insts or use a "
                "smaller scale")
    return trace


@dataclass
class CrossCheckReport:
    """Agreement between a static CFG and a dynamic trace."""

    static_blocks: int            # reachable static basic blocks
    dynamic_blocks: int           # distinct dynamic block leaders
    static_insts: int
    dynamic_distinct_pcs: int
    coverage: float               # executed fraction of static insts
    #: Dynamic facts the static CFG cannot explain (must be empty).
    phantom_pcs: list[int]        # executed pcs not in the static image
    phantom_leaders: list[int]    # dynamic leaders not static leaders
    phantom_edges: list[tuple[int, int]]  # dynamic edges not static

    @property
    def agrees(self) -> bool:
        """Every dynamic fact is explained by the static CFG."""
        return not (self.phantom_pcs or self.phantom_leaders
                    or self.phantom_edges)


def cross_check(cfg: GuestCFG, trace: DynamicTrace) -> CrossCheckReport:
    """Validate a dynamic trace against the static CFG.

    The static CFG over-approximates (paths never taken), so the check
    is one-sided: every executed pc, dynamic block leader, and dynamic
    control transfer must be present statically.  With full coverage
    the block counts match exactly.
    """
    static_pcs = set(cfg.insts)
    static_leaders = set(cfg.blocks)
    static_edges: set[tuple[int, int]] = set()
    indirect_pcs = set(cfg.indirect_sites)
    for block in cfg.blocks.values():
        pc, _ = block.last
        for succ in block.succs:
            static_edges.add((pc, succ))
    phantom_edges = [
        edge for edge in sorted(trace.edges)
        if edge not in static_edges and edge[0] not in indirect_pcs]
    executed = trace.executed_pcs & static_pcs
    return CrossCheckReport(
        static_blocks=len(cfg.reachable),
        dynamic_blocks=len(trace.leaders),
        static_insts=len(static_pcs),
        dynamic_distinct_pcs=len(trace.executed_pcs),
        coverage=len(executed) / len(static_pcs) if static_pcs else 0.0,
        phantom_pcs=sorted(trace.executed_pcs - static_pcs),
        phantom_leaders=sorted(trace.leaders - static_leaders),
        phantom_edges=phantom_edges,
    )


# ---------------------------------------------------------------------------
# workload-level driver (CLI entry point)
# ---------------------------------------------------------------------------
def analyze_workload(workload_name: str, scale: str = "test",
                     dynamic: bool = False) -> dict:
    """Full static report for one registered workload, JSON-shaped.

    With ``dynamic=True`` the workload is also executed and the static
    CFG validated against the observed block structure.
    """
    from ..workloads.registry import get_workload

    program = get_workload(workload_name).build(scale)
    cfg = build_cfg(program)
    report: dict = {
        "workload": workload_name,
        "scale": scale,
        "entry": cfg.entry,
        "footprint": cfg.footprint(),
        "totality_failures": decoder_totality_failures(),
        "undecodable": [
            {"pc": pc, "word": word, "error": message}
            for pc, word, message in cfg.undecodable],
    }
    if dynamic:
        trace = run_dynamic_trace(workload_name, scale)
        check = cross_check(cfg, trace)
        report["dynamic"] = {
            "insts_executed": trace.n_insts,
            "distinct_pcs": check.dynamic_distinct_pcs,
            "dynamic_blocks": check.dynamic_blocks,
            "static_blocks": check.static_blocks,
            "coverage": check.coverage,
            "agrees": check.agrees,
            "phantom_pcs": check.phantom_pcs,
            "phantom_leaders": check.phantom_leaders,
            "phantom_edges": [list(edge) for edge in check.phantom_edges],
            "taken_branches": trace.taken,
            "not_taken_branches": trace.not_taken,
        }
    return report


def render_guest_report(report: dict) -> str:
    """Human-readable text form of :func:`analyze_workload` output."""
    fp = report["footprint"]
    lines = [
        f"guest workload : {report['workload']} (scale {report['scale']})",
        f"entry          : {report['entry']:#x}",
        f"static insts   : {fp['static_insts']} "
        f"({fp['code_bytes']} bytes)",
        f"basic blocks   : {fp['basic_blocks']} reachable "
        f"/ {fp['basic_blocks_total']} total "
        f"(mean {fp['mean_block_insts']:.2f} insts, "
        f"max {fp['max_block_insts']})",
        f"branch density : {fp['branch_density']:.3f} "
        f"({fp['branches']} branches, {fp['jumps']} jumps, "
        f"{fp['indirect_jumps']} indirect)",
        f"memory density : {fp['mem_density']:.3f} "
        f"({fp['loads']} loads, {fp['stores']} stores)",
        f"fp insts       : {fp['fp_insts']}",
        f"dead insts     : {fp['dead_insts']}",
    ]
    if report["totality_failures"]:
        lines.append("decoder totality FAILURES:")
        lines.extend(f"  {failure}"
                     for failure in report["totality_failures"])
    else:
        lines.append("decoder total  : yes (every opcode decodes and "
                     "executes)")
    if report["undecodable"]:
        lines.append(f"undecodable    : {len(report['undecodable'])} "
                     "word(s)")
        lines.extend(f"  pc {entry['pc']:#x}: {entry['error']}"
                     for entry in report["undecodable"][:10])
    dynamic = report.get("dynamic")
    if dynamic:
        lines.append(
            f"dynamic        : {dynamic['insts_executed']} insts, "
            f"{dynamic['dynamic_blocks']} blocks "
            f"(static {dynamic['static_blocks']}), "
            f"coverage {dynamic['coverage']:.1%}")
        lines.append(
            f"cross-check    : "
            f"{'AGREES' if dynamic['agrees'] else 'DISAGREES'} "
            f"(taken {dynamic['taken_branches']}, "
            f"not-taken {dynamic['not_taken_branches']})")
    top = sorted(fp["mnemonic_histogram"].items(),
                 key=lambda item: (-item[1], item[0]))[:8]
    lines.append("top mnemonics  : "
                 + ", ".join(f"{name}={count}" for name, count in top))
    return "\n".join(lines)
