#!/usr/bin/env python
"""Benchmark sampled simulation against the full detailed run.

Runs the sieve workload on the O3 model twice — once uninterrupted,
once through the SimPoint-style sampling pipeline — and gates on both
axes that make sampling worth having::

    PYTHONPATH=src python benchmarks/bench_sample.py --quick \
        --min-speedup 3.0 --max-ipc-error 0.05

- **speedup**: sampled wall time (profiling + checkpointing + the
  detailed windows) must beat the full detailed run by ``--min-speedup``;
- **accuracy**: the extrapolated IPC must land within
  ``--max-ipc-error`` (relative) of the full run's ROI IPC.

A second sampled invocation goes through ``ExecutionEngine.run``
against a disk cache and must be served without executing anything.

Writes ``BENCH_sample.json`` with the timings, the IPC comparison, and
the sampling geometry so regressions are diffable in review.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import tempfile
import time
from pathlib import Path

# Allow running as a script without installing the package.
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.exec import ExecutionEngine, ResultCache  # noqa: E402
from repro.g5 import SimConfig, System, simulate  # noqa: E402
from repro.sample import SampledJob, execute_sampled_job  # noqa: E402
from repro.workloads import get_workload  # noqa: E402


def full_run(workload: str, cpu: str, scale: str) -> dict:
    program = get_workload(workload).build(scale)
    system = System(SimConfig(cpu_model=cpu, record=False))
    system.set_se_workload(program, process_name=workload)
    start = time.perf_counter()
    result = simulate(system)
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 4),
        "insts": result.sim_insts,
        "cycles": result.sim_cycles,
        "ipc": result.sim_insts / result.sim_cycles,
    }


def sampled_run(job: SampledJob) -> tuple[dict, dict]:
    start = time.perf_counter()
    payload = execute_sampled_job(job)
    seconds = time.perf_counter() - start
    doc = {
        "seconds": round(seconds, 4),
        "ipc": payload["derived"]["ipc"]["value"],
        "ipc_ci95": payload["derived"]["ipc"]["ci95"],
        "k": payload["clusters"]["k"],
        "n_intervals": payload["profile"]["n_intervals"],
        "detailed_insts": payload["detailed_insts"],
        "roi_insts": payload["profile"]["roi_insts"],
        "exact": payload["exact"],
    }
    return doc, payload


def cached_rerun(job: SampledJob, reference: dict) -> dict:
    """The same job through the exec engine twice: execute, then hit."""
    cache_dir = tempfile.mkdtemp(prefix="bench-sample-")
    try:
        cold_engine = ExecutionEngine(cache=ResultCache(cache_dir))
        cold = cold_engine.run(job)
        warm_engine = ExecutionEngine(cache=ResultCache(cache_dir))
        start = time.perf_counter()
        warm = warm_engine.run(job)
        warm_seconds = time.perf_counter() - start
        assert cold_engine.stats.executed == 1, "cold run must execute"
        assert warm_engine.stats.disk_hits == 1, "warm run must hit disk"
        assert warm == cold == reference, "cached payload must match"
        return {"warm_seconds": round(warm_seconds, 4),
                "disk_hits": warm_engine.stats.disk_hits}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="sieve")
    parser.add_argument("--cpu", default="o3")
    parser.add_argument("--scale", default="simlarge",
                        help="scale tier (default: simlarge — sampling "
                             "only pays off on long ROIs)")
    parser.add_argument("--interval", type=int, default=1000)
    parser.add_argument("--warmup", type=int, default=1000)
    parser.add_argument("--max-k", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--max-ipc-error", type=float, default=0.05)
    parser.add_argument("--quick", action="store_true",
                        help="accepted for CI symmetry; the defaults "
                             "already are the quick configuration")
    parser.add_argument("--output", default="BENCH_sample.json")
    args = parser.parse_args(argv)

    job = SampledJob(workload=args.workload, cpu_model=args.cpu,
                     scale=args.scale, interval_insts=args.interval,
                     warmup_insts=args.warmup, max_k=args.max_k,
                     seed=args.seed)

    print(f"full {args.cpu} run of {args.workload}/{args.scale} ...")
    full = full_run(args.workload, args.cpu, args.scale)
    print(f"  {full['seconds']:.2f}s  {full['insts']} insts  "
          f"ipc {full['ipc']:.4f}")

    print(f"sampled run (interval {args.interval}, warm {args.warmup}, "
          f"max_k {args.max_k}) ...")
    sampled, payload = sampled_run(job)
    speedup = full["seconds"] / sampled["seconds"]
    ipc_error = abs(sampled["ipc"] - full["ipc"]) / full["ipc"]
    print(f"  {sampled['seconds']:.2f}s  k={sampled['k']}/"
          f"{sampled['n_intervals']}  ipc {sampled['ipc']:.4f} "
          f"± {sampled['ipc_ci95']:.4f}")
    print(f"speedup {speedup:.2f}x  ipc error {ipc_error * 100.0:.2f}%")

    print("cached rerun through the exec engine ...")
    cache = cached_rerun(job, payload)
    print(f"  disk hit in {cache['warm_seconds']:.3f}s")

    results = {
        "bench": "sample",
        "config": {**dataclasses.asdict(job), "quick": args.quick,
                   "min_speedup": args.min_speedup,
                   "max_ipc_error": args.max_ipc_error},
        "full": full,
        "sampled": sampled,
        "speedup": round(speedup, 2),
        "ipc_error": round(ipc_error, 5),
        "cache": cache,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    failed = []
    if speedup < args.min_speedup:
        failed.append(f"speedup {speedup:.2f}x < {args.min_speedup}x")
    if ipc_error > args.max_ipc_error:
        failed.append(f"ipc error {ipc_error * 100.0:.2f}% > "
                      f"{args.max_ipc_error * 100.0:.1f}%")
    if failed:
        print("FAIL: " + "; ".join(failed))
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
