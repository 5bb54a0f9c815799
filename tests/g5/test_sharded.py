"""Differential suite: sharded simulation is architecturally invisible.

Domain-partitioned runs (``SimConfig(domains=2)``: one CPU queue, one
memory-hierarchy queue under conservative per-event sync) must commit
exactly the state a single event queue commits.  Two comparisons pin
that down, over all four CPU models and two SE workloads:

- **sharded vs boundary-reference** (``boundary_reference=True``: same
  boundary links, one queue) — *full* byte identity: registers, memory
  image, stats.txt, and the execution trace.
- **sharded vs the classic single queue** (no links at all) —
  architectural state, stats, and tick/inst counts are identical for
  every model.  Trace *content as a set of records* is the same there
  too, but minor/o3 may emit same-tick records in a different order
  (a mid-event burst of sends lands in per-domain queues in link order
  rather than call order), which is why the reference engine above is
  the full-trace identity partner.
"""

import hashlib
import io

import pytest

from repro.g5 import SimConfig, System, simulate
from repro.g5.statsfile import write_stats
from repro.workloads.registry import get_workload

CPU_MODELS = ("atomic", "timing", "minor", "o3")
WORKLOADS = ("sieve", "fmm")


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


def _run(workload_name: str, model: str, *, domains: int = 1,
         reference: bool = False, record: bool = False):
    """One run; returns (comparable state dict, SimResult, System)."""
    workload = get_workload(workload_name)
    program = workload.build("test")
    system = System(SimConfig(cpu_model=model, mode=workload.mode,
                              record=record, domains=domains,
                              boundary_reference=reference))
    process = system.set_se_workload(program, process_name=workload_name)
    result = simulate(system, max_ticks=10**11)
    assert result.exit_cause == "target called exit()", \
        (workload_name, model, domains)
    state = {
        "int_regs": tuple(system.cpu.regs.ints),
        "fp_regs": tuple(system.cpu.regs.floats),
        "pc": system.cpu.regs.pc,
        "memory": _memory_digest(system),
        "exit_code": process.exit_code,
        "sim_insts": result.sim_insts,
        "sim_ticks": result.sim_ticks,
        "stats_txt": _stats_text(system),
    }
    return state, result, system


def _assert_same_state(left, right, context):
    diverged = {name: (left[name], value)
                for name, value in right.items() if value != left[name]}
    assert not diverged, f"{context}: diverged on {sorted(diverged)}"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("model", CPU_MODELS)
def test_sharded_matches_boundary_reference(model, workload):
    """Full byte identity, execution trace included."""
    ref, ref_result, _ = _run(workload, model, domains=1, reference=True,
                              record=True)
    shard, shard_result, system = _run(workload, model, domains=2,
                                       record=True)
    _assert_same_state(ref, shard, f"{workload}/{model}")
    assert shard_result.recorder.trace_fns == ref_result.recorder.trace_fns
    assert shard_result.recorder.trace_daddrs == \
        ref_result.recorder.trace_daddrs
    assert system.sharded is not None
    assert shard_result.sharding["domains"] == 2


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("model", CPU_MODELS)
def test_sharded_matches_classic_single_queue(model, workload):
    """Architectural state and stats match the link-free legacy path."""
    single, single_result, _ = _run(workload, model, domains=1,
                                    record=True)
    shard, shard_result, _ = _run(workload, model, domains=2, record=True)
    _assert_same_state(single, shard, f"{workload}/{model}")
    single_rec, shard_rec = single_result.recorder, shard_result.recorder
    if model in ("atomic", "timing"):
        # One outstanding access at a time: record order survives too.
        assert shard_rec.trace_fns == single_rec.trace_fns
        assert shard_rec.trace_daddrs == single_rec.trace_daddrs
    else:
        # minor/o3 issue same-tick bursts whose link deliveries can
        # interleave differently; the *set* of records still matches.
        assert sorted(shard_rec.trace_fns) == sorted(single_rec.trace_fns)
        assert sorted(shard_rec.trace_daddrs) == \
            sorted(single_rec.trace_daddrs)


def test_atomic_sharding_has_no_boundary_traffic():
    """Atomic accesses bypass the links, so nothing crosses them."""
    _, result, system = _run("sieve", "atomic", domains=2)
    assert result.sharding["deliveries"] == 0
    assert result.sharding["events_per_domain"][0] > 0


def test_timing_sharding_routes_packets_through_links():
    _, result, system = _run("sieve", "timing", domains=2)
    assert result.sharding["deliveries"] > 0
    assert result.sharding["windows"] > 0
    assert sum(link.deliveries for link in system.boundary_links) == \
        result.sharding["deliveries"]
    # Both domains actually execute events.
    assert all(count > 0
               for count in result.sharding["events_per_domain"])
