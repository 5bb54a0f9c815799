#!/usr/bin/env python
"""Benchmark the fleet serving path (coordinator + workers).

Starts an in-process coordinator fronting two real worker daemons on
ephemeral ports, warms the shared store with one real simulation, then
measures::

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick

- ``fleet_submit_to_result`` — the full coordinated round-trip (one
  waiting POST to the coordinator, which dispatches one waiting POST to
  the digest's worker; the store-served result rides both replies) in
  the warm steady state;
- ``direct_submit_to_result`` — the same request straight to one
  worker's daemon, bypassing the coordinator; the p50 difference is
  the **coordinator overhead** a single-node user pays for fleet
  headroom;
- ``rebalance`` — a fresh-digest job submitted while its rendezvous
  owner is already dead (but not yet detected): the wall time from
  submit to done is the failover latency a client actually observes.

Writes ``BENCH_fleet.json``; CI gates on the file being present,
well-formed, and showing a completed rebalance.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.fleet.coordinator import (  # noqa: E402
    CoordinatorConfig, CoordinatorServer)
from repro.fleet.registry import rendezvous_score  # noqa: E402
from repro.fleet.worker import FleetWorker, WorkerConfig  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.serve.jobs import parse_job_request  # noqa: E402

WORKLOAD = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
            "scale": "test"}

#: Tight cadence so failover happens on benchmark timescales.
CADENCE = {"heartbeat_timeout": 1.0, "heartbeat_interval": 0.2}


def quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def summarize(samples: list[float], total_seconds: float) -> dict:
    return {
        "requests": len(samples),
        "total_seconds": round(total_seconds, 4),
        "requests_per_sec": round(len(samples) / total_seconds, 1),
        "p50_ms": round(quantile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(quantile(samples, 0.99) * 1e3, 3),
        "max_ms": round(max(samples) * 1e3, 3),
    }


def bench_roundtrips(client: ServeClient, count: int) -> dict:
    samples = []
    start = time.perf_counter()
    for _ in range(count):
        begin = time.perf_counter()
        doc = client.run(dict(WORKLOAD), timeout=60.0)
        samples.append(time.perf_counter() - begin)
        assert doc["state"] == "done"
    return summarize(samples, time.perf_counter() - start)


def kill_worker(worker: FleetWorker) -> None:
    """In-process SIGKILL stand-in: no drain, no deregistration."""
    worker._stop.set()
    if worker._agent is not None:
        worker._agent.join(timeout=2.0)
        worker._agent = None
    worker.server.scheduler.stop(timeout=0.5)
    worker.server.httpd.shutdown()
    worker.server.httpd.server_close()


def bench_rebalance(client: ServeClient,
                    workers: dict[str, FleetWorker]) -> dict:
    """Kill a digest's owner, then measure submit->done on that digest.

    The kill happens *before* the submit but after the worker's last
    heartbeat, so the coordinator still routes to the corpse: the
    measured time covers the connection-refused detection, the
    excluded re-route, and a cold execution on the survivor.
    """
    candidates = [{"kind": "g5", "workload": workload, "cpu": "timing",
                   "scale": "test"}
                  for workload in ("fmm", "ocean_cp", "dedup",
                                   "canneal", "streamcluster")]
    # Find a candidate owned by a worker we can kill (not the one the
    # warm workload lives on, so the store stays serviceable).
    for doc in candidates:
        digest = parse_job_request(doc).digest()
        owner = max(workers,
                    key=lambda wid: rendezvous_score(digest, wid))
        victim = workers.pop(owner)
        kill_worker(victim)
        begin = time.perf_counter()
        ack = client.submit_doc(doc)
        status = client.wait(ack["id"], timeout=60.0)
        elapsed = time.perf_counter() - begin
        assert status["state"] == "done", status
        return {"victim": owner, "workload": doc["workload"],
                "rebalanced": True,
                "submit_to_done_seconds": round(elapsed, 4),
                "attempts": status["attempts"],
                "completed_on": status["worker"]}
    raise AssertionError("no candidate digest routed to a worker")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--roundtrips", type=int, default=150,
                        help="submit->result round-trips (default: 150)")
    parser.add_argument("--quick", action="store_true",
                        help="small request counts (for CI)")
    parser.add_argument("--output", default="BENCH_fleet.json")
    args = parser.parse_args(argv)
    roundtrips = 30 if args.quick else args.roundtrips

    workdir = Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    server = CoordinatorServer(CoordinatorConfig(port=0, **CADENCE))
    server.start()
    client = ServeClient(server.address, timeout=30.0)
    workers: dict[str, FleetWorker] = {}
    try:
        for index in (1, 2):
            worker = FleetWorker(WorkerConfig(
                coordinator_url=server.address, port=0, workers=2,
                cache_root=workdir / f"cache{index}"))
            worker.start()
            workers[f"w{index}"] = worker

        # Warm: one real execution seeds the store; the steady state
        # measured below is the fleet serving repeat figure work.
        warm = client.run(dict(WORKLOAD), timeout=120.0)
        assert warm["state"] == "done"

        fleet_trips = bench_roundtrips(client, roundtrips)
        direct_client = ServeClient(workers["w1"].url, timeout=30.0)
        direct_trips = bench_roundtrips(direct_client, roundtrips)
        overhead_ms = round(
            fleet_trips["p50_ms"] - direct_trips["p50_ms"], 3)
        rebalance = bench_rebalance(client, workers)

        fleet_doc = client._json("GET", "/api/v1/fleet")
        results = {
            "bench": "fleet",
            "config": {"workers": 2, "quick": args.quick,
                       "workload": WORKLOAD, "cadence": CADENCE},
            "scenarios": {
                "fleet_submit_to_result": fleet_trips,
                "direct_submit_to_result": direct_trips,
                "rebalance": rebalance,
            },
            "coordinator_overhead_p50_ms": overhead_ms,
            "jobs": fleet_doc["jobs"],
        }
    finally:
        for worker in workers.values():
            try:
                worker.stop()
            except Exception:
                pass  # the rebalance scenario already killed it
        server.drain_and_stop()
        shutil.rmtree(workdir, ignore_errors=True)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name in ("fleet_submit_to_result", "direct_submit_to_result"):
        scenario = results["scenarios"][name]
        print(f"{name:>24}: {scenario['requests_per_sec']:>8.1f} req/s  "
              f"p50 {scenario['p50_ms']:.2f} ms  "
              f"p99 {scenario['p99_ms']:.2f} ms")
    print(f"    coordinator overhead: {overhead_ms:+.2f} ms at p50")
    print(f"    rebalance after kill: "
          f"{rebalance['submit_to_done_seconds']:.2f} s "
          f"(victim {rebalance['victim']}, completed on "
          f"{rebalance['completed_on']})")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
