"""Coordinator behaviour: routing, coalescing, backpressure, failover.

Every test runs a real coordinator and real worker daemons over HTTP
on ephemeral ports, but with :class:`GatedExecutor` fakes in place of
simulation, so the scheduling behaviour under test is driven by the
test's own release decisions instead of real execution timing.
"""

import pytest

from repro.serve import clock
from repro.serve.client import ServeError
from repro.serve.jobs import TERMINAL_STATES

from tests.fleet.conftest import GatedExecutor


def _submit_and_wait(fleet, doc, timeout=15.0):
    ack = fleet.client.submit_doc(doc)
    status = fleet.client.wait(ack["id"], timeout=timeout)
    return ack, status


def test_job_flows_through_a_worker(fleet):
    executor = GatedExecutor()
    executor.release()
    fleet.add_worker(executor)
    ack, status = _submit_and_wait(
        fleet, {"kind": "g5", "workload": "sieve", "cpu": "atomic",
                "scale": "test"})
    assert status["state"] == "done"
    assert status["worker"] == "w1"
    result = fleet.client.result(ack["id"])
    assert result["result"]["kind"] == "fake"
    assert len(executor.calls) == 1


def test_identical_submissions_coalesce_globally(fleet):
    executor = GatedExecutor()
    fleet.add_worker(executor, workers=1)
    fleet.add_worker(GatedExecutor(), workers=1)
    doc = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
           "scale": "test"}
    acks = [fleet.client.submit_doc(doc) for _ in range(5)]
    primary = acks[0]["id"]
    assert all(ack["coalesced_into"] == primary for ack in acks[1:])
    for worker in fleet.workers:
        worker.server.scheduler._execute_fn.gate.set()
    statuses = [fleet.client.wait(ack["id"]) for ack in acks]
    assert {s["state"] for s in statuses} == {"done"}
    results = [fleet.client.result(ack["id"])["result"]
               for ack in acks]
    assert all(r == results[0] for r in results)
    # One execution total, across the whole fleet.
    total_calls = sum(
        len(worker.server.scheduler._execute_fn.calls)
        for worker in fleet.workers)
    assert total_calls == 1


def test_digest_routing_pins_a_digest_to_one_worker(fleet):
    first = GatedExecutor()
    second = GatedExecutor()
    first.release()
    second.release()
    fleet.add_worker(first)
    fleet.add_worker(second)
    doc = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
           "scale": "test"}
    owners = set()
    for _ in range(3):
        _, status = _submit_and_wait(fleet, doc)
        assert status["state"] == "done"
        owners.add(status["worker"])
    assert len(owners) == 1


def test_worker_saturation_propagates_429_with_retry_after(tmp_path):
    import json
    import urllib.error
    import urllib.request

    from tests.fleet.conftest import FleetHarness

    fleet = FleetHarness(tmp_path, max_pending=2)
    try:
        executor = GatedExecutor()   # never released while submitting
        # One executor slot and a one-deep admission queue: the worker
        # saturates after two jobs, and the coordinator may hold at
        # most two more before its own admission trips.
        fleet.add_worker(executor, workers=1, max_queue=1)
        docs = [{"kind": "g5", "workload": workload, "cpu": cpu,
                 "scale": "test"}
                for workload in ("sieve", "blackscholes")
                for cpu in ("atomic", "timing", "minor", "o3")]
        rejected = None
        for doc in docs:
            try:
                fleet.client.submit_doc(doc)
            except ServeError as exc:
                rejected = exc
                break
            clock.sleep(0.15)  # let saturation reach the coordinator
        assert rejected is not None, \
            "coordinator admitted every job despite a saturated worker"
        assert rejected.status == 429
        # The 429 carries a predictor-derived Retry-After header.
        request = urllib.request.Request(
            f"{fleet.client.base_url}/api/v1/jobs",
            data=json.dumps(docs[-1]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5.0)
        assert err.value.code == 429
        assert int(err.value.headers["Retry-After"]) >= 1
        executor.release()
    finally:
        fleet.stop()


def test_draining_coordinator_rejects_with_503(fleet):
    executor = GatedExecutor()
    executor.release()
    fleet.add_worker(executor)
    fleet.coordinator.drain()
    with pytest.raises(ServeError) as err:
        fleet.client.submit_doc({"kind": "g5", "workload": "sieve",
                                 "cpu": "atomic", "scale": "test"})
    assert err.value.status == 503


def test_bad_job_documents_400_without_touching_workers(fleet):
    fleet.add_worker(GatedExecutor())
    with pytest.raises(ServeError) as err:
        fleet.client.submit_doc({"kind": "g5", "workload": "nope"})
    assert err.value.status == 400


def test_dead_worker_is_detected_and_jobs_reroute(fleet):
    victim_exec = GatedExecutor()           # holds its job forever
    survivor_exec = GatedExecutor()
    survivor_exec.release()
    victim = fleet.add_worker(victim_exec, workers=1)
    fleet.add_worker(survivor_exec, workers=1)

    doc = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
           "scale": "test"}
    ack = fleet.client.submit_doc(doc)
    # Wait until some worker has actually claimed the execution.
    for _ in range(100):
        if victim_exec.calls or survivor_exec.calls:
            break
        clock.sleep(0.05)
    if survivor_exec.calls:
        # Routing picked the survivor first; kill the other worker to
        # exercise death detection anyway, then finish normally.
        fleet.kill_worker(victim)
        status = fleet.client.wait(ack["id"], timeout=15.0)
        assert status["state"] == "done"
    else:
        # The victim owns the job: kill it mid-run.
        fleet.kill_worker(victim)
        status = fleet.client.wait(ack["id"], timeout=15.0)
        assert status["state"] == "done"
        assert status["worker"] == "w2"
        assert status["attempts"] >= 2
        assert len(survivor_exec.calls) == 1
    # The heartbeat sweep must eventually declare the victim dead.
    for _ in range(100):
        doc_fleet = fleet.client._json("GET", "/api/v1/fleet")
        states = {w["id"]: w["state"] for w in doc_fleet["workers"]}
        if states["w1"] == "dead":
            break
        clock.sleep(0.05)
    assert states["w1"] == "dead"
    assert states["w2"] == "up"


def test_fleet_doc_and_metrics_expose_the_fleet(fleet):
    executor = GatedExecutor()
    executor.release()
    fleet.add_worker(executor)
    _, status = _submit_and_wait(
        fleet, {"kind": "g5", "workload": "sieve", "cpu": "atomic",
                "scale": "test"})
    assert status["state"] in TERMINAL_STATES
    doc = fleet.client._json("GET", "/api/v1/fleet")
    assert doc["jobs"]["done"] == 1
    assert doc["workers"][0]["jobs_completed"] == 1
    assert "predictor" in doc
    metrics = fleet.client.metrics()
    assert metrics[
        'repro_fleet_jobs_completed_total{state="done"}'] == 1
    assert metrics["repro_fleet_workers_live"] == 1
    health = fleet.client.health()
    assert health["status"] == "ok"
    assert health["workers_live"] == 1


def test_worker_drain_endpoint_stops_routing(fleet):
    a = GatedExecutor()
    b = GatedExecutor()
    a.release()
    b.release()
    fleet.add_worker(a)
    fleet.add_worker(b)
    fleet.client._json("POST", "/api/v1/workers/w1/drain")
    for cpu in ("atomic", "timing", "minor", "o3"):
        _, status = _submit_and_wait(
            fleet, {"kind": "g5", "workload": "sieve", "cpu": cpu,
                    "scale": "test"})
        assert status["state"] == "done"
        assert status["worker"] == "w2"


def test_job_table_is_bounded_by_the_queue_history(fleet):
    # The coordinator's jobs live in the daemon's JobQueue, so terminal
    # ones (and their result payloads) are evicted beyond max_history.
    queue = fleet.coordinator.queue
    queue.max_history = 3
    executor = GatedExecutor()
    executor.release()
    fleet.add_worker(executor, workers=2)   # one slot will be held
    docs = [{"kind": "g5", "workload": workload, "cpu": cpu,
             "scale": "test"}
            for workload in ("sieve", "fmm") for cpu in ("atomic",
                                                         "timing", "o3")]
    done = [_submit_and_wait(fleet, doc)[0]["id"] for doc in docs]
    with pytest.raises(ServeError) as err:
        fleet.client.status(done[0])
    assert err.value.status == 404
    assert fleet.client.result(done[-1])["state"] == "done"

    # In-flight jobs — a dispatched primary and its coalesced waiter —
    # outlive any number of later completions.
    held = GatedExecutor()
    fleet.workers[0].server.scheduler._execute_fn = held
    slow = {"kind": "g5", "workload": "blackscholes", "cpu": "minor",
            "scale": "test"}
    primary = fleet.client.submit_doc(slow)
    waiter = fleet.client.submit_doc(slow)
    assert waiter["coalesced_into"] == primary["id"]
    for _ in range(200):
        if held.calls:
            break
        clock.sleep(0.02)
    assert held.calls, "the held job never reached the worker"
    # Everything cached now completes as memo hits behind the held job.
    for doc in docs:
        assert _submit_and_wait(fleet, doc)[1]["state"] == "done"
    counts = queue.counts()
    assert counts["done"] + counts["failed"] + counts["cancelled"] <= 3
    assert fleet.client.status(primary["id"])["state"] == "dispatched"
    assert fleet.client.status(waiter["id"])["state"] == "queued"
    held.release()
    assert fleet.client.wait(waiter["id"])["state"] == "done"
