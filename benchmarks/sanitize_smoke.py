#!/usr/bin/env python
"""CI smoke test for the runtime ownership sanitizer.

For every CPU model, runs the sieve workload three ways —

1. classic single queue (the reference),
2. two sharded domains,
3. two sharded domains with ``sanitize=True`` —

and requires (a) bit-identical architectural state and stats across all
three, (b) zero ownership violations and exercised tripwires in the
sanitized run, and (c) a recorded violation once a known boundary
bypass is re-introduced (the detection cross-check).  Also prints the
sanitizer's host-time overhead versus the plain sharded run for
EXPERIMENTS.md.

Exits non-zero with a diagnostic on any violation; CI runs it as::

    PYTHONPATH=src python benchmarks/sanitize_smoke.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.g5 import SimConfig, System, simulate  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

CPU_MODELS = ("atomic", "timing", "minor", "o3")


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run(model: str, *, domains: int, sanitize: bool = False):
    workload = get_workload("sieve")
    system = System(SimConfig(cpu_model=model, mode=workload.mode,
                              record=False, domains=domains,
                              sanitize=sanitize))
    system.set_se_workload(workload.build("test"))
    start = time.perf_counter()
    result = simulate(system, max_ticks=10**11)
    elapsed = time.perf_counter() - start
    if result.exit_cause != "target called exit()":
        fail(f"{model}: unexpected exit {result.exit_cause!r}")
    state = {
        "int_regs": tuple(system.cpu.regs.ints),
        "pc": system.cpu.regs.pc,
        "exit_code": result.exit_code,
        "sim_insts": result.sim_insts,
        "sim_ticks": result.sim_ticks,
        "stats": tuple(sorted(result.stats.items())),
    }
    return state, result, elapsed


def main() -> int:
    for model in CPU_MODELS:
        single, _, _ = run(model, domains=1)
        sharded, _, t_plain = run(model, domains=2)
        sanitized, result, t_san = run(model, domains=2, sanitize=True)
        if sharded != single:
            fail(f"{model}: sharded diverged from single queue")
        if sanitized != single:
            fail(f"{model}: sanitized run diverged from single queue")
        report = result.sanitize
        if report["violations"]:
            fail(f"{model}: {len(report['violations'])} ownership "
                 f"violation(s): {report['violations'][:3]}")
        if report["checked_writes"] == 0:
            fail(f"{model}: tripwires never fired — sanitizer inert")
        overhead = t_san / t_plain if t_plain > 0 else float("inf")
        print(f"{model:<8} clean: {report['checked_writes']:>6} writes "
              f"checked, {report['boundary_crossings']:>5} crossings, "
              f"0 violations, {overhead:.2f}x host time")

    # Detection cross-check: a deliberate bypass must be caught.
    from repro.g5.cpus.atomic import AtomicSimpleCPU

    def bypass_activate(self):
        self._icache_fast = \
            self.icache_port._require_peer().owner.recv_atomic_fast
        self._dcache_fast = \
            self.dcache_port._require_peer().owner.recv_atomic_fast
        self.schedule_in(self._tick_event, 0)

    original = AtomicSimpleCPU.activate
    AtomicSimpleCPU.activate = bypass_activate
    try:
        _, result, _ = run("atomic", domains=2, sanitize=True)
    finally:
        AtomicSimpleCPU.activate = original
    count = len(result.sanitize["violations"])
    if count == 0:
        fail("re-introduced peer.owner bypass was not detected")
    print(f"bypass   caught: {count} violations from the direct "
          f"peer.owner binding")
    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
