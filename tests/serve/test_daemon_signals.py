"""The real daemon process: SIGTERM mid-load must drain cleanly.

Spawns ``repro-g5 serve`` as a subprocess on an ephemeral port, loads
it with a long simulation plus a queued one, sends SIGTERM, and pins
the contract: the in-flight job finishes, queued work is reported
cancelled (to a client parked on it, too), the process exits 0.  And
SIGKILL, which no handler sees, must not leave pool children behind.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient

SRC = Path(__file__).resolve().parents[2] / "src"


def _spawn_daemon(tmp_path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)


def test_sigterm_mid_load_drains_and_exits_zero(tmp_path):
    proc = _spawn_daemon(tmp_path)
    watchdog = threading.Timer(90.0, proc.kill)
    watchdog.start()
    try:
        banner = proc.stdout.readline()
        match = re.search(r"listening on (http://\S+)", banner)
        assert match, f"no listening banner, got: {banner!r}"
        client = ServeClient(match.group(1), timeout=10.0)
        assert client.health()["status"] == "ok"

        # A multi-second job (cold worker pool + o3 simsmall) plus one
        # queued behind it on the single worker.
        slow = client.submit(workload="canneal", cpu="o3",
                             scale="simsmall")
        queued = client.submit(workload="canneal", cpu="timing",
                               scale="simsmall")

        # Wait for the slow job to actually occupy the worker so the
        # SIGTERM lands mid-load.
        deadline = time.monotonic() + 30.0
        while client.status(slow["id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        queued_state = client.status(queued["id"])["state"]

        # A client parked on the queued job across the signal: the
        # drain answers it, and parked handlers do not hold up exit.
        verdict: list = []
        waiter = threading.Thread(
            target=lambda: verdict.append(client.wait(queued["id"],
                                                      timeout=60.0)),
            daemon=True)
        waiter.start()
        time.sleep(0.2)

        proc.send_signal(signal.SIGTERM)
        waiter.join(timeout=60.0)
        returncode = proc.wait(timeout=60.0)
        output = banner + proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert returncode == 0, f"daemon exited {returncode}:\n{output}"
    match = re.search(r"drained: (\d+) done, (\d+) cancelled, "
                      r"(\d+) failed", output)
    assert match, f"no drain report in output:\n{output}"
    done, cancelled, failed = map(int, match.groups())
    assert failed == 0
    # Whatever was running when the signal arrived finished...
    assert done >= 1
    # ...and if the second job was still queued at that moment, the
    # drain must have reported it cancelled rather than dropping it.
    if queued_state == "queued":
        assert cancelled >= 1
        assert verdict and verdict[0]["state"] == "cancelled"
    assert done + cancelled == 2


def test_http_drain_shuts_the_daemon_down(tmp_path):
    proc = _spawn_daemon(tmp_path)
    watchdog = threading.Timer(90.0, proc.kill)
    watchdog.start()
    try:
        banner = proc.stdout.readline()
        match = re.search(r"listening on (http://\S+)", banner)
        assert match, f"no listening banner, got: {banner!r}"
        client = ServeClient(match.group(1), timeout=10.0)

        ack = client.submit(workload="sieve", cpu="atomic",
                            scale="test")
        assert client.wait(ack["id"], timeout=60.0)["state"] == "done"
        assert client.drain()["draining"] is True
        returncode = proc.wait(timeout=60.0)
        output = banner + proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert returncode == 0, f"daemon exited {returncode}:\n{output}"
    assert "drained: 1 done, 0 cancelled, 0 failed" in output


def _proc_stat(pid) -> tuple[str, int]:
    """``(state, ppid)`` of a process; ``("Z", 0)`` once it is gone (a
    zombie nobody reaps has exited just the same)."""
    try:
        # "pid (comm) state ppid ..."; comm may contain spaces.
        state, ppid = Path(f"/proc/{pid}/stat").read_text() \
            .rpartition(")")[2].split()[:2]
    except (OSError, ValueError):
        return "Z", 0
    return state, int(ppid)


def _live_children(pid: int) -> list[int]:
    stats = {int(entry.name): _proc_stat(entry.name)
             for entry in Path("/proc").glob("[0-9]*")}
    return [child for child, (state, ppid) in stats.items()
            if ppid == pid and state != "Z"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc")
def test_sigkill_leaves_no_pool_children_behind(tmp_path):
    proc = _spawn_daemon(tmp_path)
    watchdog = threading.Timer(90.0, proc.kill)
    watchdog.start()
    children: list[int] = []
    try:
        banner = proc.stdout.readline()
        match = re.search(r"listening on (http://\S+)", banner)
        assert match, f"no listening banner, got: {banner!r}"
        client = ServeClient(match.group(1), timeout=10.0)
        reply = client.run({"kind": "g5", "workload": "sieve",
                            "cpu": "atomic", "scale": "test"},
                           timeout=60.0)
        assert reply["source"] == "executed"
        children = _live_children(proc.pid)
        assert children, "the daemon executed a job without a pool child"

        proc.send_signal(signal.SIGKILL)    # no handler, no drain
        proc.wait(timeout=10.0)
        deadline = time.monotonic() + 5.0
        while any(_proc_stat(pid)[0] != "Z" for pid in children):
            assert time.monotonic() < deadline, \
                f"pool children outlived the daemon: {children}"
            time.sleep(0.05)
    finally:
        watchdog.cancel()
        for pid in [proc.pid, *children]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        proc.wait()
