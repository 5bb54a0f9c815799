#!/usr/bin/env python
"""Benchmark the simulation-service HTTP path.

Starts an in-process :class:`SimServer` on an ephemeral port, warms the
result memo with one real simulation, then measures two request shapes
over real localhost HTTP::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick

- ``submit_to_result`` — the full client round-trip
  (``ServeClient.run``: one ``POST ...?wait=`` that parks until the job
  settles and carries the result back), served from the in-process memo
  the way a warm daemon serves repeat figure work;
- ``status`` — the status endpoint on its own: the cost of one bare
  request through the HTTP stack.

Writes ``BENCH_serve.json`` with requests/sec and exact p50/p99
latencies (measured client-side from raw samples, not histogram
buckets), plus the server's own latency-histogram quantiles so the
two views can be cross-checked.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

# Allow running as a script without installing the package.
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.exec.cache import ResultCache  # noqa: E402
from repro.serve import ServeClient, ServeConfig, SimServer  # noqa: E402

WORKLOAD = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
            "scale": "test"}


def quantile(samples: list[float], q: float) -> float:
    """Exact inclusive quantile over raw samples."""
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


def bench_status(client: ServeClient, job_id: str, count: int) -> dict:
    samples = []
    start = time.perf_counter()
    for _ in range(count):
        begin = time.perf_counter()
        client.status(job_id)
        samples.append(time.perf_counter() - begin)
    return summarize(samples, time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--roundtrips", type=int, default=200,
                        help="submit->result round-trips (default: 200)")
    parser.add_argument("--status-calls", type=int, default=500,
                        help="bare status requests (default: 500)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--quick", action="store_true",
                        help="small request counts (for CI)")
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    roundtrips = 50 if args.quick else args.roundtrips
    status_calls = 100 if args.quick else args.status_calls

    cache_dir = tempfile.mkdtemp(prefix="bench-serve-")
    server = SimServer(ServeConfig(port=0, workers=args.workers,
                                   cache=ResultCache(cache_dir)))
    server.start()
    client = ServeClient(server.address, timeout=30.0)
    try:
        # Warm: the one real simulation; everything measured after this
        # is memo-served, which is the daemon's steady state.
        warm = client.run(dict(WORKLOAD), timeout=120.0)
        warm_id = warm["id"]

        results = {
            "bench": "serve",
            "config": {"workers": args.workers, "quick": args.quick,
                       "workload": WORKLOAD},
            "scenarios": {
                "submit_to_result": bench_roundtrips(client, roundtrips),
                "status": bench_status(client, warm_id, status_calls),
            },
            "server_histogram": {
                endpoint: {
                    "count": histogram.count,
                    "p50_bucket_s": histogram.quantile(0.50),
                    "p99_bucket_s": histogram.quantile(0.99),
                }
                for endpoint, histogram in sorted(
                    server.metrics.request_seconds.items())
                if histogram.count
            },
        }
    finally:
        server.drain_and_stop()
        shutil.rmtree(cache_dir, ignore_errors=True)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, scenario in results["scenarios"].items():
        print(f"{name:>16}: {scenario['requests_per_sec']:>8.1f} req/s  "
              f"p50 {scenario['p50_ms']:.2f} ms  "
              f"p99 {scenario['p99_ms']:.2f} ms")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
