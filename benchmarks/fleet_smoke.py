#!/usr/bin/env python
"""CI smoke test for ``repro-g5 fleet`` multi-node serving.

Starts a real coordinator and two real worker daemons as separate OS
processes, then exercises the fleet contract the hard way:

1. wait for both workers to register and heartbeat UP;
2. build a batch of distinct jobs and — using the same rendezvous
   scores the coordinator routes by — verify both workers own part of
   the batch;
3. submit the whole batch, then immediately ``SIGKILL`` worker w1
   (no drain, no goodbye: the process is simply gone);
4. every job must still complete, and every payload must be
   byte-for-byte identical to a direct in-process execution;
5. the coordinator must log re-dispatches, eventually declare w1
   dead via heartbeat timeout, and still report a healthy fleet;
6. a repeat of a finished job the survivor owns, relayed to it, must
   be a hit that costs it exactly one request (push, not poll);
7. drain the coordinator and SIGTERM the survivor; both exit 0.

Exits non-zero with a diagnostic on any violation; CI runs it as::

    PYTHONPATH=src python benchmarks/fleet_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.exec.pool import G5Job, execute_g5_job  # noqa: E402
from repro.fleet.registry import rendezvous_score  # noqa: E402
from repro.g5.serialize import pack_sim_result  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.serve.jobs import parse_job_request  # noqa: E402

#: Distinct test-scale jobs; enough digests that rendezvous hashing is
#: certain to spread them over both workers.
BATCH = [{"kind": "g5", "workload": workload, "cpu": cpu,
          "scale": "test"}
         for workload in ("sieve", "fmm", "ocean_cp", "dedup")
         for cpu in ("atomic", "timing")]


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def spawn(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC),
             "PYTHONUNBUFFERED": "1"})


def read_banner(proc: subprocess.Popen, what: str) -> str:
    banner = proc.stdout.readline()
    match = re.search(r"listening on (http://\S+)", banner)
    if not match:
        fail(f"no {what} banner: {banner!r}")
    return match.group(1)


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="fleet-smoke-"))
    coordinator = spawn(["fleet", "coordinator", "--port", "0",
                         "--heartbeat-timeout", "2.0",
                         "--cache-dir", str(workdir / "coord")])
    procs = [coordinator]
    watchdog = threading.Timer(
        300.0, lambda: [p.kill() for p in procs])
    watchdog.start()
    try:
        coord_url = read_banner(coordinator, "coordinator")
        client = ServeClient(coord_url, timeout=15.0)
        print(f"coordinator up at {coord_url}")

        workers, urls = {}, {}
        for index in (1, 2):
            proc = spawn(["fleet", "worker", "--coordinator", coord_url,
                          "--port", "0", "--jobs", "1", "--cache-dir",
                          str(workdir / f"cache{index}")])
            procs.append(proc)
            urls[f"w{index}"] = read_banner(proc, f"worker {index}")
            workers[f"w{index}"] = proc

        deadline = time.monotonic() + 30.0
        while True:
            doc = client._json("GET", "/api/v1/fleet")
            live = [w["id"] for w in doc["workers"]
                    if w["state"] == "up"]
            if sorted(live) == ["w1", "w2"]:
                break
            if time.monotonic() > deadline:
                fail(f"workers never registered: {doc['workers']}")
            time.sleep(0.1)
        print("both workers registered and up")

        # The coordinator routes a digest to the worker with the top
        # rendezvous score; compute the same partition here so the kill
        # below provably orphans part of the batch.
        owned = {"w1": [], "w2": []}
        for job_doc in BATCH:
            digest = parse_job_request(job_doc).digest()
            owner = max(owned, key=lambda wid: rendezvous_score(digest, wid))
            owned[owner].append(job_doc)
        if not owned["w1"] or not owned["w2"]:
            fail(f"degenerate routing split: {owned}")
        print(f"w1 owns {len(owned['w1'])}/{len(BATCH)} jobs: "
              + ", ".join(f"{doc['workload']}/{doc['cpu']}"
                          for doc in owned["w1"]))

        acks = [client.submit_doc(doc) for doc in BATCH]
        # SIGKILL w1 mid-batch: dispatchers hit connection-refused on
        # its jobs and must re-route; the heartbeat sweep must then
        # declare it dead.
        workers["w1"].send_signal(signal.SIGKILL)
        print("w1 SIGKILLed mid-batch")

        for doc, ack in zip(BATCH, acks):
            status = client.wait(ack["id"], timeout=120.0)
            if status["state"] != "done":
                fail(f"{doc['workload']}/{doc['cpu']} ended "
                     f"{status['state']}: {status.get('error')}")
            served = client.result(ack["id"])["result"]
            direct = pack_sim_result(execute_g5_job(
                G5Job(doc["workload"], doc["cpu"], "se", doc["scale"])))
            if json.dumps(served, sort_keys=True) != \
                    json.dumps(direct, sort_keys=True):
                fail(f"{doc['workload']}/{doc['cpu']} result diverged "
                     "from direct execution")
        print(f"all {len(BATCH)} jobs done, byte-identical to direct "
              "runs")

        metrics = client.metrics()
        if metrics.get("repro_fleet_redispatches_total", 0) < 1:
            fail("killed worker's jobs were never re-dispatched")
        deadline = time.monotonic() + 30.0
        while True:
            doc = client._json("GET", "/api/v1/fleet")
            states = {w["id"]: w["state"] for w in doc["workers"]}
            if states.get("w1") == "dead":
                break
            if time.monotonic() > deadline:
                fail(f"w1 never declared dead: {states}")
            time.sleep(0.2)
        if states.get("w2") != "up":
            fail(f"survivor not up: {states}")
        print(f"w1 declared dead by heartbeat sweep; re-dispatches: "
              f"{metrics['repro_fleet_redispatches_total']:.0f}")

        # Repeat a job w2 owned from the start: w2 computed it, so it
        # is a hit there.  A w1-owned job would be one only by luck: a
        # result w1 relayed before the kill lived on w1 alone.
        survivor = ServeClient(urls["w2"], timeout=15.0)
        routes = [f'repro_serve_request_seconds_count{{endpoint="{name}"}}'
                  for name in ("submit", "status", "result")]
        before = survivor.metrics()
        if client.run(owned["w2"][0], timeout=60.0)["source"] == \
                "executed":
            fail("a finished job was re-executed instead of served")
        time.sleep(0.5)                 # anything more would land by now
        after = survivor.metrics()
        cost = [after[name] - before[name] for name in routes]
        if cost != [1, 0, 0]:
            fail(f"a relayed hit cost the worker {cost} "
                 "submit/status/result requests, not [1, 0, 0]")
        print("a relayed hit cost the survivor exactly one request")

        client.drain()
        code = coordinator.wait(timeout=60.0)
        if code != 0:
            fail(f"coordinator exited {code}")
        workers["w2"].send_signal(signal.SIGTERM)
        code = workers["w2"].wait(timeout=60.0)
        if code != 0:
            fail(f"surviving worker exited {code}")
        print("coordinator drained and survivor shut down cleanly")
    finally:
        watchdog.cancel()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
