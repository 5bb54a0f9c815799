"""Differential suite for multi-core simulation (repro.g5.coherence).

Two invariants pin the subsystem down (the 4-core stats.txt and trace
bytes are also frozen in ``tests/golden/kernel_digests.json``):

- **N-core runs are deterministic**: the event queue fixes one
  interleaving, so repeated runs — and runs sharded over any
  ``--domains`` partition — produce byte-identical stats and the same
  guest result, which in turn matches the 1-core reference (the
  threaded kernels are written to be interleaving-independent).  The
  zero-latency boundary links run receivers synchronously precisely so
  cross-queue same-tick ties cannot resolve differently (see
  ``BoundaryLink``).
- **LL/SC atomics are actually atomic under contention**: N threads
  hammering one counter through the spinlock always sum exactly
  (hypothesis-driven over thread count, iteration count, and model).
"""

import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.costmodel import CostModel, job_class
from repro.exec.pool import G5Job
from repro.g5 import SimConfig, System, simulate
from repro.g5.isa import Assembler
from repro.g5.statsfile import write_stats
from repro.workloads.kernels import DATA_BASE, emit_exit
from repro.workloads.mt import (
    emit_join_workers,
    emit_lock_acquire,
    emit_lock_release,
    emit_mt_init,
    emit_spawn_workers,
    emit_worker_prologue,
)
from repro.workloads.registry import get_workload

MULTICORE_MODELS = ("atomic", "timing")
MULTICORE_WORKLOADS = ("sieve", "ocean_cp")


def _memory_digest(system) -> str:
    digest = hashlib.sha256()
    pages = system.memctrl.memory._pages
    for page_num in sorted(pages):
        digest.update(page_num.to_bytes(8, "little"))
        digest.update(bytes(pages[page_num]))
    return digest.hexdigest()


def _stats_text(system) -> str:
    stream = io.StringIO()
    write_stats(system, stream)
    return stream.getvalue()


def _run(workload_name, model, *, threads=1, cores=None, domains=1):
    workload = get_workload(workload_name)
    program = workload.build("test", threads=threads)
    system = System(SimConfig(cpu_model=model, mode="se",
                              cores=cores if cores is not None
                              else max(1, threads),
                              domains=domains, record=False))
    process = system.set_se_workload(program, process_name=workload_name)
    result = simulate(system, max_ticks=10**11)
    assert result.exit_cause == "target called exit()", \
        (workload_name, model, threads, domains)
    state = {
        "memory": _memory_digest(system),
        "exit_code": process.exit_code,
        "sim_insts": result.sim_insts,
        "sim_ticks": result.sim_ticks,
        "stats_txt": _stats_text(system),
    }
    return state, result, system


def _assert_same_state(left, right, context):
    diverged = {name: value
                for name, value in right.items() if value != left[name]}
    assert not diverged, f"{context}: diverged on {sorted(diverged)}"


def test_coherence_domain_exists_exactly_when_multicore():
    assert System(SimConfig(record=False)).coherence is None
    quad = System(SimConfig(cores=4, record=False))
    assert quad.coherence is not None
    assert quad.coherence.caches == quad.dcaches


# ----------------------------------------------------------------------
# N-core determinism: repeats, sharding, and the 1-core reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", MULTICORE_WORKLOADS)
@pytest.mark.parametrize("model", MULTICORE_MODELS)
def test_multicore_runs_are_deterministic(model, workload):
    reference, _, _ = _run(workload, model, threads=1)
    state, _, system = _run(workload, model, threads=4)
    # Guest result matches the single-core reference: the threaded
    # kernels produce the same answer for any thread count.
    assert state["exit_code"] == reference["exit_code"]
    # Four cores sharing data means the snoop counters must move.
    assert sum(c.stat_snoops.value() for c in system.dcaches) > 0
    # Repeat run: byte-identical stats.
    repeat, _, _ = _run(workload, model, threads=4)
    _assert_same_state(state, repeat, f"{workload}/{model}/repeat")
    # Sharded runs: byte-identical stats across every partition shape
    # (domains=2 merges all cores onto one queue, 3 splits them over
    # two, 5 gives every core its own).
    for domains in (2, 3, 5):
        sharded, _, _ = _run(workload, model, threads=4, domains=domains)
        _assert_same_state(state, sharded,
                           f"{workload}/{model}/domains={domains}")


def test_multicore_sanitized_run_has_zero_findings():
    """The runtime ownership sanitizer validates the N-core partition."""
    workload = get_workload("ocean_cp")
    program = workload.build("test", threads=4)
    system = System(SimConfig(cpu_model="timing", mode="se", cores=4,
                              domains=3, sanitize=True, record=False))
    system.set_se_workload(program, process_name="ocean_cp")
    simulate(system, max_ticks=10**11)
    report = system.sanitizer.describe()
    assert report["violations"] == []
    assert report["checked_writes"] > 0
    assert report["boundary_crossings"] > 0


# ----------------------------------------------------------------------
# LL/SC contention (hypothesis)
# ----------------------------------------------------------------------
def _build_counter_program(threads, iters):
    """Each of ``threads`` threads adds ``iters`` to one shared counter,
    every increment under the MT spinlock; exit code is the counter."""
    asm = Assembler(base=0x1000)
    counter = DATA_BASE
    asm.li("t5", counter)
    asm.sd("zero", "t5", 0)
    emit_mt_init(asm, threads)
    asm.li("s1", iters)
    emit_spawn_workers(asm, threads)
    asm.call("inc_slice")                    # main = worker 0
    emit_join_workers(asm, threads, "cnt")
    asm.li("t5", counter)
    asm.ld("a0", "t5", 0)
    emit_exit(asm, "a0")

    emit_worker_prologue(asm, threads)
    asm.li("s1", iters)
    asm.call("inc_slice")
    asm.m5_thread_exit()
    asm.halt()

    asm.label("inc_slice")
    asm.li("s2", 0)
    asm.label("inc_loop")
    emit_lock_acquire(asm, "inc")
    asm.li("t0", counter)
    asm.ld("t1", "t0", 0)
    asm.addi("t1", "t1", 1)
    asm.sd("t1", "t0", 0)
    emit_lock_release(asm)
    asm.addi("s2", "s2", 1)
    asm.blt("s2", "s1", "inc_loop")
    asm.ret()
    return asm.assemble()


@settings(max_examples=20, deadline=None)
@given(threads=st.integers(2, 4), iters=st.integers(1, 6),
       model=st.sampled_from(MULTICORE_MODELS))
def test_llsc_contended_counter_sums_exactly(threads, iters, model):
    program = _build_counter_program(threads, iters)
    system = System(SimConfig(cpu_model=model, mode="se", cores=threads,
                              record=False))
    process = system.set_se_workload(program, process_name="counter")
    result = simulate(system, max_ticks=10**11)
    assert result.exit_cause == "target called exit()"
    assert process.exit_code == threads * iters


# ----------------------------------------------------------------------
# cost/cache plumbing: core counts are part of a job's identity
# ----------------------------------------------------------------------
def test_multicore_jobs_get_distinct_cache_keys_and_cost_classes():
    single = G5Job(workload="sieve", cpu_model="timing", mode="se",
                   scale="test")
    quad = G5Job(workload="sieve", cpu_model="timing", mode="se",
                 scale="test", threads=4)
    assert single.cache_key().digest != quad.cache_key().digest
    assert quad.cores == 4
    assert job_class(single) != job_class(quad)
    assert job_class(quad).endswith("|c4")
    # The cold model's answer is the static prior, core overhead included.
    assert CostModel().predict(quad) > CostModel().predict(single)
