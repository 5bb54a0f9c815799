#!/usr/bin/env python
"""Benchmark the parallel sampled-window fan-out against sequential.

Runs the same sampled O3 sieve job twice — once through the sequential
pipeline, once with the measurement windows fanned across the process
pool — and gates on the two properties that make the fan-out shippable::

    PYTHONPATH=src python benchmarks/bench_parallel.py --quick \
        --jobs 4 --min-speedup 1.8

- **identity**: the parallel payload must be byte-identical to the
  sequential one (the differential suite's bar, re-checked here on the
  benchmark configuration);
- **speedup**: the fan-out must beat the sequential run by
  ``--min-speedup`` at ``--jobs`` workers.  The speedup shape is
  ``(plan + sum(windows)) / (plan + makespan(windows))`` — the
  profiling and checkpointing pass is serial, so the window geometry is
  chosen so detailed-window time dominates.

The speedup gate is measured wall clock, and applies when the host
exposes at least ``--jobs`` cores.  On smaller hosts a process pool
cannot beat the sequential loop no matter how good the fan-out is, so
the speedup is reported but **not gated on this host** and the run
passes on byte-identity alone; the JSON records ``cores`` and ``gated``,
so a 4-core CI runner always enforces the measured bar.

A rerun against the same cache (whole-payload entry evicted) must
resolve every window from its per-window cache entry without executing.

Writes ``BENCH_parallel.json`` with the timings and window geometry so
regressions are diffable in review.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

# Allow running as a script without installing the package.
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.exec import ExecutionEngine, ResultCache  # noqa: E402
from repro.sample import SampledJob  # noqa: E402
from repro.sample.parallel import (merge_measurements,  # noqa: E402
                                   plan_sampled_job, unpack_measurement)


def payload_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux hosts
        return os.cpu_count() or 1


def sequential_run(job: SampledJob) -> tuple[dict, dict]:
    """The sequential pipeline, timed per phase (plan, each window)."""
    t0 = time.perf_counter()
    plan = plan_sampled_job(job)
    plan_seconds = time.perf_counter() - t0
    if plan.exact:
        raise SystemExit("benchmark config degenerated to an exact run; "
                         "lower --k or raise the scale")
    window_seconds = []
    measurements = []
    for window in plan.window_jobs():
        t0 = time.perf_counter()
        measurements.append(unpack_measurement(window.execute()))
        window_seconds.append(time.perf_counter() - t0)
    payload = merge_measurements(job, plan, measurements)
    total = plan_seconds + sum(window_seconds)
    doc = {
        "seconds": round(total, 4),
        "plan_seconds": round(plan_seconds, 4),
        "window_seconds": [round(s, 4) for s in window_seconds],
        "k": payload["clusters"]["k"],
        "n_intervals": payload["profile"]["n_intervals"],
        "detailed_insts": payload["detailed_insts"],
    }
    return doc, payload


def parallel_run(job: SampledJob, jobs: int,
                 cache_dir: str) -> tuple[dict, dict]:
    engine = ExecutionEngine(jobs=jobs, cache=ResultCache(cache_dir))
    start = time.perf_counter()
    payload = engine.run(job)
    seconds = time.perf_counter() - start
    doc = {
        "seconds": round(seconds, 4),
        "jobs": jobs,
        "windows_executed": engine.stats.windows_executed,
        "window_hits": engine.stats.window_hits,
    }
    return doc, payload


def window_cache_rerun(job: SampledJob, jobs: int, cache_dir: str,
                       reference: dict) -> dict:
    """Re-plan with the payload entry evicted: pure per-window hits.

    An equal job, because ``job`` still holds the plan it cached."""
    cache = ResultCache(cache_dir)
    assert cache.clear(kind="sample") == 1, "expected one payload entry"
    engine = ExecutionEngine(jobs=jobs, cache=cache)
    start = time.perf_counter()
    payload = engine.run(dataclasses.replace(job))
    seconds = time.perf_counter() - start
    assert engine.stats.windows_executed == 0, \
        "rerun must not re-measure any window"
    assert payload_bytes(payload) == payload_bytes(reference), \
        "window-cache rerun must reproduce the payload byte for byte"
    return {"seconds": round(seconds, 4),
            "window_hits": engine.stats.window_hits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="sieve")
    parser.add_argument("--cpu", default="o3")
    parser.add_argument("--scale", default="simlarge",
                        help="scale tier (default: simlarge — the "
                             "fan-out only pays off on long windows)")
    parser.add_argument("--interval", type=int, default=3000)
    parser.add_argument("--warmup", type=int, default=1000)
    parser.add_argument("--k", type=int, default=8,
                        help="fixed cluster count (window count)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=1.8)
    parser.add_argument("--quick", action="store_true",
                        help="accepted for CI symmetry; the defaults "
                             "already are the quick configuration")
    parser.add_argument("--output", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    job = SampledJob(workload=args.workload, cpu_model=args.cpu,
                     scale=args.scale, interval_insts=args.interval,
                     warmup_insts=args.warmup, k=args.k, seed=args.seed)
    cores = available_cores()

    print(f"sequential sampled {args.cpu} run of "
          f"{args.workload}/{args.scale} (interval {args.interval}, "
          f"k {args.k}) ...")
    sequential, seq_payload = sequential_run(job)
    print(f"  {sequential['seconds']:.2f}s  (plan "
          f"{sequential['plan_seconds']:.2f}s + "
          f"{len(sequential['window_seconds'])} windows)  "
          f"detailed {sequential['detailed_insts']} insts")

    cache_dir = tempfile.mkdtemp(prefix="bench-parallel-")
    try:
        print(f"parallel sampled run at --jobs {args.jobs} "
              f"({cores} cores available) ...")
        parallel, par_payload = parallel_run(job, args.jobs, cache_dir)
        identical = payload_bytes(par_payload) == payload_bytes(seq_payload)
        speedup = sequential["seconds"] / parallel["seconds"]
        gated = cores >= args.jobs
        print(f"  {parallel['seconds']:.2f}s  "
              f"{parallel['windows_executed']} windows executed  "
              f"byte-identical: {identical}")
        print(f"measured speedup {speedup:.2f}x at {args.jobs} workers")
        if not gated:
            print(f"  host has {cores} < {args.jobs} cores: speedup "
                  "not gated on this host")

        print("window-cache rerun (payload entry evicted) ...")
        rerun = window_cache_rerun(job, args.jobs, cache_dir, seq_payload)
        print(f"  {rerun['window_hits']} window hits in "
              f"{rerun['seconds']:.3f}s")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    results = {
        "bench": "parallel",
        "config": {**dataclasses.asdict(job), "jobs": args.jobs,
                   "quick": args.quick,
                   "min_speedup": args.min_speedup},
        "cores": cores,
        "sequential": sequential,
        "parallel": parallel,
        "rerun": rerun,
        "gated": gated,
        "speedup": round(speedup, 2),
        "byte_identical": identical,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    failed = []
    if not identical:
        failed.append("parallel payload differs from sequential")
    if gated and speedup < args.min_speedup:
        failed.append(f"measured speedup {speedup:.2f}x "
                      f"< {args.min_speedup}x")
    if failed:
        print("FAIL: " + "; ".join(failed))
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
