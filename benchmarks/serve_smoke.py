#!/usr/bin/env python
"""CI smoke test for the ``repro-g5 serve`` daemon.

Starts the real daemon as a subprocess on an ephemeral port, then
exercises the serving contract end to end:

1. submit a slow job and wait until it occupies the single worker;
2. submit a second, distinct job (queued) and a duplicate of it —
   the duplicate must coalesce onto the queued primary;
3. wait for all three — parked server-side, so the waits cost a
   handful of status requests, not one per poll interval — and check
   the coalesce counter on ``/metrics``;
4. resubmit a finished document: the memo hit must come back in one
   round trip, ``source == "memo"``, with the first reply's result;
5. serve Fig. 3 at ``--scale test``: its rendered text must equal what
   ``repro-g5 figs fig3`` prints;
6. ``POST /api/v1/drain`` and require a clean exit (code 0 with the
   drain report on stdout).

Exits non-zero with a diagnostic on any violation; CI runs it as::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.serve import ServeClient, ServeError  # noqa: E402


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


class CountingClient(ServeClient):
    """A client that counts the requests it puts on the wire."""

    round_trips = 0

    def _open(self, request):
        self.round_trips += 1
        return super()._open(request)


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="serve-smoke-")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC),
             "PYTHONUNBUFFERED": "1"})
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        banner = proc.stdout.readline()
        match = re.search(r"listening on (http://\S+)", banner)
        if not match:
            fail(f"no listening banner: {banner!r}")
        client = ServeClient(match.group(1), timeout=15.0)
        print(f"daemon up at {match.group(1)}")

        # 1. a slow job pins the single worker.
        slow = client.submit(workload="canneal", cpu="o3",
                             scale="simsmall")
        deadline = time.monotonic() + 60.0
        while client.status(slow["id"])["state"] == "queued":
            if time.monotonic() > deadline:
                fail("slow job never started")
            time.sleep(0.02)

        # 2. a distinct queued job plus an identical duplicate.
        primary = client.submit(workload="canneal", cpu="timing",
                                scale="simsmall")
        duplicate = client.submit(workload="canneal", cpu="timing",
                                  scale="simsmall")
        if duplicate["coalesced_into"] != primary["id"]:
            fail(f"duplicate did not coalesce: {duplicate}")
        print(f"duplicate {duplicate['id']} coalesced into "
              f"{primary['id']}")

        # 3. everything completes; one execution for the pair.
        status_series = 'repro_serve_request_seconds_count{endpoint="status"}'
        polls_before = client.metrics()[status_series]
        waited_from = time.monotonic()
        for ack in (slow, primary, duplicate):
            state = client.wait(ack["id"], timeout=120.0)["state"]
            if state != "done":
                fail(f"job {ack['id']} ended {state}")
        metrics = client.metrics()
        # Each wait parks on the job (re-asking only when a wait of
        # half the 15 s socket timeout ends); polling every 50 ms would
        # have cost 20 status requests per second of simulation.
        polls = metrics[status_series] - polls_before
        allowed = 3 + (time.monotonic() - waited_from) // 7.5
        if polls > allowed:
            fail(f"3 waits cost {polls:.0f} status requests "
                 f"(> {allowed:.0f}): the client is polling")
        print(f"3 waits cost {polls:.0f} status requests")
        if metrics.get("repro_serve_jobs_coalesced_total") != 1.0:
            fail(f"coalesce counter: {metrics.get('repro_serve_jobs_coalesced_total')}")
        if metrics.get("repro_engine_g5_executed") != 2.0:
            fail(f"executed counter: {metrics.get('repro_engine_g5_executed')}")
        dup_result = client.result(duplicate["id"])
        if dup_result["source"] != f"coalesced:{primary['id']}":
            fail(f"duplicate source: {dup_result['source']}")
        print("3 jobs done via 2 executions; coalesce counter == 1")

        # 4. a finished document again: answered from the memo by the
        # submission itself.
        first = client.result(primary["id"])
        counting = CountingClient(match.group(1), timeout=15.0)
        hit = counting.run({"kind": "g5", "workload": "canneal",
                            "cpu": "timing", "scale": "simsmall"},
                           timeout=60.0)
        if counting.round_trips != 1:
            fail(f"memo hit took {counting.round_trips} round trips")
        if hit["source"] != "memo":
            fail(f"resubmission source: {hit['source']}")
        if hit["result"] != first["result"]:
            fail("memo hit result differs from the first reply's")
        print("resubmission answered from the memo in one round trip")

        # 5. a served figure is the CLI's figure.
        try:
            served = client.run({"kind": "figure", "figure": "fig3",
                                 "scale": "test"}, timeout=120.0)
        except ServeError as exc:
            fail(f"figure job did not finish: {exc}")
        printed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "figs", "fig3", "--scale",
             "test", "--no-cache", "--quiet"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
        rendered = printed.split("== executor summary ==")[0]
        if rendered != served["result"]["rendered"] + "\n\n":
            fail("served fig3 differs from `repro-g5 figs fig3`")
        print("served fig3 == `repro-g5 figs fig3` "
              f"({served['result']['g5_executed']} g5 runs and "
              f"{served['result']['replays_executed']} replays executed)")

        # 6. clean drain over HTTP.
        client.drain()
        returncode = proc.wait(timeout=60.0)
        output = banner + proc.stdout.read()
        if returncode != 0:
            fail(f"daemon exited {returncode}:\n{output}")
        if "drained: 5 done, 0 cancelled, 0 failed" not in output:
            fail(f"unexpected drain report:\n{output}")
        print("daemon drained cleanly (exit 0)")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
