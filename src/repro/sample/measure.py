"""Detailed measurement of one interval from a restored checkpoint.

Each representative interval is measured by restoring a checkpoint
taken ``warmup`` instructions *before* the interval into a detailed CPU
model (Timing/Minor/O3).  A restored system is architecturally exact
but microarchitecturally cold — an unwarmed window measures miss-storm
CPI, not the program's — so the pre-interval instructions run as
*functional warmup*: cheap in-order stepping whose fetch and data
addresses are pushed through the caches' packet-free atomic protocol, filling
tags, LRU state, and the L2 with the interval's true access history at
a fraction of detailed-simulation cost.  Only then does the detailed
engine engage, snapshotting every delta-able statistic around the
interval itself.  The warmup never extends before the ROI anchor, so
the guest's mid-run statistics reset (which also zeroes the committed
counter the targets are expressed in) can only fire as the very first
restored instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..g5.isa import INST_BYTES, Program
from ..g5.mem import PAGE_SIZE
from ..g5.serialize import Checkpoint, restore_checkpoint
from ..g5.stats import Scalar, VectorStat
from ..g5.system import SimConfig, System

#: Stat keys every measurement must produce (committed insts and cycles
#: anchor the per-instruction rates everything else is derived from).
COMMITTED_KEY = "system.cpu.committedInsts"
CYCLES_KEY = "system.cpu.numCycles"

#: Tail of the warmup budget that runs on the *detailed* engine rather
#: than functionally.  O3's fetch runs a full ROB (192) plus fetch
#: buffer (32) ahead of commit, so a window opened on an empty pipeline
#: charges the whole ramp to the measurement; priming the pipeline with
#: one ROB's worth of detailed execution puts the window in steady
#: state.  In-order models need far less but the cost is negligible.
DETAILED_WARMUP_INSTS = 256


def scalar_snapshot(root) -> dict[str, float]:
    """Flat map of every *delta-able* stat below ``root``.

    Scalars and vector buckets accumulate monotonically between resets,
    so ``after - before`` is the contribution of the window.  Formulas
    (recomputed from scalars) and distributions (no meaningful delta)
    are deliberately excluded.
    """
    flat: dict[str, float] = {}
    for obj in [root, *root.descendants()]:
        group = obj._stats
        if group is None:
            continue
        for stat in group:
            key = f"{obj.path}.{stat.name}"
            if isinstance(stat, VectorStat):
                flat[key] = float(stat.value())
                for label, value in stat.items():
                    flat[f"{key}::{label}"] = float(value)
            elif isinstance(stat, Scalar):
                flat[key] = float(stat.value())
    return flat


def run_to_commit(system: System, target: int) -> str:
    """Run the event queue until ``target`` instructions have committed.

    The event queue has no "stop after N commits" hook — gem5 pauses on
    tick limits — so this polls in bounded chunks.  A chunk of
    ``remaining // commit_width`` cycles can never commit more than
    ``remaining`` instructions, so the loop approaches the target from
    below and overshoots by at most one cycle's commit width; predicted
    CPI is deliberately *not* used, because right after a checkpoint
    restore the observed CPI is all cold-miss startup and any stride
    derived from it blows straight past the target.  Returns the last
    exit cause ("simulate() limit reached" when the target was hit by
    pausing, anything else when the guest finished first).
    """
    cpu = system.cpu
    eventq = system.eventq
    period = system.clock.period
    width = max(1, getattr(cpu, "width", 1))
    cause = "simulate() limit reached"
    while True:
        done = int(cpu.stat_committed.value())
        if done >= target:
            return cause
        chunk = max(1, (target - done) // width)
        cause = eventq.run(max_tick=eventq.now + chunk * period).cause
        if cause != "simulate() limit reached":
            return cause


@dataclass
class IntervalMeasurement:
    """Detailed-simulation deltas over one interval's measurement window."""

    interval: int
    warm_insts: int                 # instructions spent warming up
    insts: int                      # instructions actually measured
    cycles: int
    deltas: dict[str, float]
    exit_cause: str


def build_restore_system(program: Program, process_name: str,
                         cpu_model: str, checkpoint: Checkpoint) -> System:
    """A fresh detailed system with ``checkpoint`` restored into it."""
    system = System(SimConfig(cpu_model=cpu_model, mode="se", record=False))
    system.set_se_workload(program, process_name=process_name)
    restore_checkpoint(system, checkpoint)
    return system


def bulk_warm_caches(system: System, checkpoint: Checkpoint) -> int:
    """Prime the data-side hierarchy with every line the guest touched.

    A restored system's caches are empty, but the full run it stands in
    for has been filling them since startup — a line last referenced
    long before the warmup window is resident there and cold here, and
    each such miss charges a spurious DRAM round trip to the window.
    The checkpoint records exactly which pages the guest ever touched,
    so touching every line of those pages (ascending address order, a
    fixed deterministic sequence) reconstructs residency for any working
    set that fits in the hierarchy.  Larger working sets keep only the
    highest-addressed lines, an approximation the recency warmup that
    follows then corrects for the actual hot set.  Returns the number of
    lines touched; runs before the measurement snapshot, so the touches
    never pollute the window's deltas.
    """
    dcache_warm = system.dcache.recv_atomic_fast
    line_size = system.dcache.params.line_size
    touched = 0
    for page_num in sorted(checkpoint.pages):
        base = page_num * PAGE_SIZE
        for offset in range(0, PAGE_SIZE, line_size):
            dcache_warm(base + offset, 1, False)
            touched += 1
    return touched


def functional_warmup(system: System, n_insts: int) -> int:
    """Step ``n_insts`` functionally while warming the cache hierarchy.

    Every fetch touches the icache and every memory reference touches
    the dcache through the packet-free atomic path, so misses cascade
    into the L2 exactly as the full run's accesses would have.  The
    stepping is the shared functional layer, so it is valid on any CPU
    model *before* :meth:`activate` schedules the first tick.  Returns
    the number of instructions actually stepped (less only if the guest
    halted first).
    """
    cpu = system.cpu
    regs = cpu.regs
    fetch_decode = cpu.fetch_decode
    execute_inst = cpu.execute_inst
    icache_warm = system.icache.recv_atomic_fast
    dcache_warm = system.dcache.recv_atomic_fast
    device_at = system.device_at
    bpred = getattr(cpu, "bpred", None)
    executed = 0
    while executed < n_insts and not cpu.stop_fetch:
        pc = regs.pc
        inst = fetch_decode(pc)
        icache_warm(pc, INST_BYTES, False)
        if inst.is_mem:
            ea = inst.ea(cpu)
            if device_at(ea) is None:
                dcache_warm(ea, INST_BYTES, inst.is_store)
        next_pc = execute_inst(inst)
        if bpred is not None and inst.is_control:
            # Train the predictor exactly as the pipelines do at fetch.
            taken, target = bpred.predict(pc, inst)
            bpred.on_fetch(pc, inst)
            actually_taken = next_pc != pc + INST_BYTES
            correct = (taken == actually_taken) and (
                not actually_taken or target == next_pc)
            bpred.update(pc, inst, actually_taken, next_pc, not correct)
        regs.pc = next_pc
        executed += 1
    return executed


def measure_from_checkpoint(checkpoint: Checkpoint, program: Program,
                            process_name: str, cpu_model: str,
                            interval: int, length: int,
                            pre_insts: int) -> IntervalMeasurement:
    """Restore, warm up, and measure one interval on a detailed CPU.

    ``checkpoint`` must sit ``pre_insts`` instructions before the
    interval; those instructions split into functional warmup (cache and
    predictor state, see :func:`functional_warmup`) and a
    :data:`DETAILED_WARMUP_INSTS`-instruction detailed tail that primes
    the pipeline, then the ``length``-instruction interval is measured
    in detail.  If the guest halts before the window closes, the
    measurement covers what actually ran.
    """
    if length < 1:
        raise ValueError(f"interval length must be >= 1, got {length}")
    if pre_insts < 0:
        raise ValueError(f"warmup cannot be negative, got {pre_insts}")
    detailed_warm = min(pre_insts, DETAILED_WARMUP_INSTS)
    system = build_restore_system(program, process_name, cpu_model,
                                  checkpoint)
    bulk_warm_caches(system, checkpoint)
    functional_warmup(system, pre_insts - detailed_warm)
    system.cpu.activate()
    cause = run_to_commit(system, detailed_warm)
    before = scalar_snapshot(system)
    if cause == "simulate() limit reached":
        cause = run_to_commit(system, detailed_warm + length)
    after = scalar_snapshot(system)
    deltas = {key: after[key] - before.get(key, 0.0)
              for key in after}
    return IntervalMeasurement(
        interval=interval,
        warm_insts=pre_insts,
        insts=int(deltas.get(COMMITTED_KEY, 0.0)),
        cycles=int(deltas.get(CYCLES_KEY, 0.0)),
        deltas=deltas,
        exit_cause=cause,
    )
