"""``?wait=<seconds>``: replies driven by completion, not by polling.

The three job routes park a request on the job's ``finished`` event.
The gated executor decides when that event fires, so every assertion
here is about *when* a parked request answers and with *what*: at the
gate, at a drain, at the cap — never at a sleep quantum.
"""

from __future__ import annotations

import statistics
import threading

import pytest

from repro.exec.pool import G5Job, execute_g5_job
from repro.g5.serialize import pack_sim_result
from repro.serve import ServeClient, ServeError, clock
from repro.serve import http as serve_http

from .conftest import GatedExecutor, make_server
from .test_coalescing import wait_until
from .test_e2e import canonical

DOC = {"kind": "g5", "workload": "sieve", "cpu": "atomic", "scale": "test"}


class Parked:
    """A client call running on its own thread, with its finish time."""

    def __init__(self, call, *args, **kwargs) -> None:
        self.reply = self.error = self.finished_at = None
        self._thread = threading.Thread(
            target=self._run, args=(call, args, kwargs), daemon=True)
        self._thread.start()

    def _run(self, call, args, kwargs) -> None:
        try:
            self.reply = call(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            self.error = exc
        self.finished_at = clock.monotonic()

    def join(self, timeout: float = 10.0) -> "Parked":
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "parked call never returned"
        return self


def request_counts(server) -> dict[str, int]:
    return {endpoint: server.metrics.request_seconds[endpoint].count
            for endpoint in ("submit", "status", "result")}


def settled_counts(server, total: int) -> dict[str, int]:
    """Counts once ``total`` job-route requests were observed (a handler
    observes its request after it has sent the reply)."""
    wait_until(lambda: sum(request_counts(server).values()) >= total)
    return request_counts(server)


def parked(call, *args, **kwargs) -> Parked:
    """Start ``call`` and give its request time to reach the server."""
    started = Parked(call, *args, **kwargs)
    clock.sleep(0.1)
    assert started.finished_at is None, (started.reply, started.error)
    return started


def test_parked_result_answers_when_the_job_finishes(tmp_path):
    latencies = []
    for trial, cpu in enumerate(("atomic", "timing", "minor", "o3",
                                 "atomic")):
        # A fresh server per trial: the gate is one-shot.
        gate = GatedExecutor()
        server, client = make_server(tmp_path / str(trial),
                                     execute_fn=gate)
        try:
            ack = client.submit(workload="sieve", cpu=cpu)
            wait_until(lambda: gate.calls)
            waiter = parked(client.result, ack["id"], wait=5.0)
            opened = clock.monotonic()
            gate.release()
            waiter.join()
            assert waiter.error is None, waiter.error
            assert waiter.reply["state"] == "done"
            assert waiter.reply["result"]["kind"] == "fake"
            latencies.append(waiter.finished_at - opened)
        finally:
            gate.release()
            server.drain_and_stop()
    # Execution result -> cache store -> event -> HTTP reply; no sleep
    # quantum of a polling design (50 ms, 20 ms) has a median under it.
    assert statistics.median(latencies) < 0.020, latencies


@pytest.mark.parametrize("wait", ["1e9", "inf"])
def test_wait_is_clamped_to_the_cap_and_answers_409_there(
        gated, monkeypatch, wait):
    server, client, executor = gated
    monkeypatch.setattr(serve_http, "MAX_WAIT_SECONDS", 0.3)
    ack = client.submit(workload="sieve", cpu="atomic")
    started = clock.monotonic()
    with pytest.raises(ServeError) as err:
        client._json("GET", f"/api/v1/jobs/{ack['id']}/result?wait={wait}")
    elapsed = clock.monotonic() - started
    assert err.value.status == 409
    assert err.value.doc["state"] in ("queued", "running")
    assert 0.3 <= elapsed < 2.0
    # The status route parks the same way and answers 200 regardless.
    started = clock.monotonic()
    doc = client._json("GET", f"/api/v1/jobs/{ack['id']}?wait={wait}")
    assert doc["state"] in ("queued", "running")
    assert 0.3 <= clock.monotonic() - started < 2.0


@pytest.mark.parametrize("wait", ["nan", "-1", "abc", "", "-inf"])
def test_invalid_wait_values_are_rejected_without_parking(gated, wait):
    server, client, executor = gated
    ack = client.submit(workload="sieve", cpu="atomic")
    started = clock.monotonic()
    for method, path, doc in (
            ("GET", f"/api/v1/jobs/{ack['id']}", None),
            ("GET", f"/api/v1/jobs/{ack['id']}/result", None),
            ("POST", "/api/v1/jobs", DOC)):
        with pytest.raises(ServeError) as err:
            client._json(method, f"{path}?wait={wait}", doc)
        assert err.value.status == 400
        assert "wait" in err.value.doc["error"]
    assert clock.monotonic() - started < 1.0
    # The rejected POST admitted nothing.
    assert server.metrics.submitted.value == 1


def test_coalesced_waiter_wakes_with_its_primary(gated):
    server, client, executor = gated
    primary = client.submit(workload="sieve", cpu="timing")
    duplicate = client.submit(workload="sieve", cpu="timing")
    assert duplicate["coalesced_into"] == primary["id"]
    wait_until(lambda: executor.calls)
    waiters = [parked(client.result, ack["id"], wait=5.0)
               for ack in (primary, duplicate)]
    executor.release()
    replies = [waiter.join().reply for waiter in waiters]
    assert [reply["source"] for reply in replies] == [
        "executed", f"coalesced:{primary['id']}"]
    assert replies[0]["result"] == replies[1]["result"]
    assert len(executor.calls) == 1


def test_drain_answers_a_waiter_on_a_queued_job_with_cancelled(gated):
    server, client, executor = gated
    running = client.submit(workload="sieve", cpu="atomic")
    wait_until(lambda: server.queue.running() == 1)
    queued = client.submit(workload="fmm", cpu="timing")
    on_status = parked(client.status, queued["id"], wait=5.0)
    on_result = parked(client.result, queued["id"], wait=5.0)
    on_running = parked(client.result, running["id"], wait=5.0)

    drainer = Parked(server.drain_and_stop)
    # The cancel verdict arrives while the running job is still gated...
    assert on_status.join().reply["state"] == "cancelled"
    assert on_result.join().error.status == 409
    assert on_result.error.doc["state"] == "cancelled"
    assert on_running.finished_at is None
    # ...and the drain still completes once it finishes, which also
    # answers the request parked on it.
    executor.release()
    assert on_running.join().reply["state"] == "done"
    report = drainer.join().reply
    assert (report["done"], report["cancelled"], report["failed"]) \
        == (1, 1, 0)


def test_submit_without_wait_acks_at_once_and_with_wait_acks_at_the_end(
        tmp_path):
    # No scheduler: nothing ever settles, so both answers are the ack.
    server, client = make_server(tmp_path, run_scheduler=False)
    try:
        started = clock.monotonic()
        plain = client.submit_doc(DOC)
        assert clock.monotonic() - started < 0.2
        waited = client.submit_doc(
            {**DOC, "cpu": "timing"}, wait=0.25)
        assert clock.monotonic() - started >= 0.25
        for ack in (plain, waited):
            assert ack["state"] == "queued"
            assert set(ack) == {"id", "state", "digest", "coalesced_into",
                                "eta_seconds", "queue_depth"}
    finally:
        server.drain_and_stop()


def test_run_is_one_request_on_a_hit_and_byte_identical(live_server):
    server, client = live_server
    # The parent's sequence: submit, wait on status, fetch the result.
    ack = client.submit_doc(DOC)
    assert client.wait(ack["id"], timeout=60.0)["state"] == "done"
    stepwise = client.result(ack["id"])
    before = settled_counts(server, 3)

    reply = client.run(DOC, timeout=60.0)
    after = settled_counts(server, sum(before.values()) + 1)
    assert {name: after[name] - before[name] for name in after} == {
        "submit": 1, "status": 0, "result": 0}
    assert reply["source"] == "memo"
    assert set(reply) == set(stepwise) == {"id", "state", "source",
                                           "result"}
    direct = pack_sim_result(execute_g5_job(G5Job(
        workload="sieve", cpu_model="atomic", mode="se", scale="test")))
    assert canonical(reply["result"]) == canonical(stepwise["result"]) \
        == canonical(direct)


def test_run_on_a_miss_rewaits_on_the_result_route_never_on_status(gated):
    server, _, executor = gated
    # A 0.4 s socket timeout makes each wait a 0.2 s slice, so the held
    # job outlives the submission's own wait.
    client = ServeClient(server.address, timeout=0.4)
    running = Parked(client.run, DOC, timeout=10.0)
    wait_until(lambda: request_counts(server)["result"] >= 2)
    executor.release()
    reply = running.join().reply
    assert running.error is None, running.error
    assert reply["source"] == "executed" and "result" in reply
    counts = settled_counts(server, 3)
    assert counts["submit"] == 1 and counts["status"] == 0


def test_run_raises_the_result_routes_error_for_a_failed_job(gated):
    server, client, executor = gated
    executor.failures.append(ValueError("boom"))
    executor.release()
    with pytest.raises(ServeError) as err:
        client.run(DOC, timeout=10.0)
    assert err.value.status == 500
    assert err.value.doc["state"] == "failed"
    assert "boom" in err.value.doc["error"]


def test_run_times_out_on_a_job_that_never_settles(gated):
    server, _, executor = gated
    client = ServeClient(server.address, timeout=0.4)
    started = clock.monotonic()
    with pytest.raises(TimeoutError):
        client.run(DOC, timeout=0.5)
    assert 0.5 <= clock.monotonic() - started < 3.0
    with pytest.raises(TimeoutError):
        client.wait("j00000001", timeout=0.3)
