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
from tests.serve.test_coalescing import wait_until


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
    # The executed job becomes the predictor's one observation once the
    # dispatcher has read its duration off the worker.
    wait_until(lambda: fleet.client._json("GET", "/api/v1/fleet")[
        "predictor"] == {"observations": 1})
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


DOC = {"kind": "g5", "workload": "sieve", "cpu": "atomic", "scale": "test"}


def test_relayed_hit_costs_the_worker_exactly_one_request(fleet):
    executor = GatedExecutor()
    executor.release()
    worker = fleet.add_worker(executor)
    seen = worker.server.metrics.request_seconds

    def counts():
        return [seen[endpoint].count
                for endpoint in ("submit", "status", "result")]

    assert fleet.client.run(DOC)["source"] == "executed"
    # A miss: the submission that carried the result back, plus the one
    # status read the predictor learns the executed duration from.
    wait_until(lambda: counts() == [1, 1, 0])
    assert fleet.client.run(DOC)["source"] == "memo"
    wait_until(lambda: counts()[0] == 2)
    clock.sleep(0.2)                    # anything more would land by now
    assert counts() == [2, 1, 0]
    assert len(fleet.coordinator.cost_model.observations()) == 1


def test_late_verdict_from_a_rerouted_worker_is_void(tmp_path):
    from tests.fleet.conftest import FleetHarness

    # One-second waits: the dispatcher parked on the victim is still in
    # the same request when the job is re-routed, finishes elsewhere,
    # and the victim's own "done" finally comes back.
    fleet = FleetHarness(tmp_path, heartbeat_interval=1.0,
                         heartbeat_timeout=60.0)
    executors = {}
    try:
        for _ in range(2):
            executor = GatedExecutor()
            worker = fleet.add_worker(executor, workers=1)
            executors[worker.worker_id] = executor
        ack = fleet.client.submit_doc(DOC)
        wait_until(lambda: any(e.calls for e in executors.values()))
        victim_id = next(wid for wid, e in executors.items() if e.calls)
        survivor_id = next(wid for wid in executors if wid != victim_id)
        victim = next(w for w in fleet.workers
                      if w.worker_id == victim_id)
        # The victim falls silent (its listener stays up): the monitor's
        # next sweep finds its heartbeat expired and re-routes the job.
        victim._stop.set()
        victim._agent.join(timeout=2.0)
        fleet.coordinator.registry.get(victim_id).last_heartbeat -= 120.0
        executors[survivor_id].release()
        status = fleet.client.wait(ack["id"], timeout=15.0)
        assert (status["state"], status["worker"]) == ("done", survivor_id)
        assert status["attempts"] == 2

        executors[victim_id].release()
        wait_until(lambda: victim.server.queue.counts()["done"] == 1)
        clock.sleep(0.3)        # its verdict has reached the dispatcher
        again = fleet.client.status(ack["id"])
        assert (again["worker"], again["finished_at"]) \
            == (survivor_id, status["finished_at"])
        workers = {w["id"]: w for w in
                   fleet.client._json("GET", "/api/v1/fleet")["workers"]}
        assert workers[victim_id]["state"] == "dead"
        assert workers[victim_id]["jobs_completed"] == 0
        assert workers[survivor_id]["jobs_completed"] == 1
        assert fleet.client.metrics()[
            'repro_fleet_jobs_completed_total{state="done"}'] == 1
    finally:
        for executor in executors.values():
            executor.release()
        fleet.stop()


def test_worker_429_bounces_without_burning_an_attempt(tmp_path):
    from tests.fleet.conftest import FleetHarness

    # Heartbeats by hand (and no death sweep), so the coordinator learns
    # the worker's queue depth exactly when the test says.
    fleet = FleetHarness(tmp_path, heartbeat_timeout=60.0)
    executor = GatedExecutor()
    try:
        worker = fleet.add_worker(executor, workers=1, max_queue=1)
        worker._stop.set()
        worker._agent.join(timeout=2.0)
        fleet.client.submit_doc(DOC)                      # runs, gated
        wait_until(lambda: executor.calls)
        fleet.client.submit_doc({**DOC, "cpu": "timing"})  # fills queue
        wait_until(lambda: worker.server.queue.depth() == 1)
        bounced = fleet.client.submit_doc({**DOC, "cpu": "o3"})
        wait_until(lambda: worker.server.metrics.rejected.value == 1)
        wait_until(lambda: fleet.client.metrics()[
            "repro_fleet_redispatches_total"] == 1)
        status = fleet.client.status(bounced["id"])
        assert (status["state"], status["attempts"]) == ("queued", 0)

        executor.release()
        wait_until(lambda: worker.server.queue.counts()["done"] == 2)
        assert worker.heartbeat()       # reports room again
        status = fleet.client.wait(bounced["id"], timeout=15.0)
        assert (status["state"], status["attempts"]) == ("done", 1)
        assert worker.server.metrics.rejected.value == 1
    finally:
        executor.release()
        fleet.stop()


def test_coordinator_drain_answers_parked_waiters_with_cancelled(fleet):
    import threading

    # No worker: the job stays queued at the coordinator.
    ack = fleet.client.submit_doc(DOC)
    verdicts = []
    waiter = threading.Thread(
        target=lambda: verdicts.append(fleet.client.wait(ack["id"],
                                                         timeout=10.0)),
        daemon=True)
    waiter.start()
    clock.sleep(0.1)
    assert not verdicts
    started = clock.monotonic()
    fleet.coordinator.drain()
    waiter.join(timeout=5.0)
    assert verdicts and verdicts[0]["state"] == "cancelled"
    assert clock.monotonic() - started < 1.0


def test_concurrent_duration_observations_are_serialised(tmp_path):
    import json
    import sys
    import threading

    from repro.fleet.coordinator import FleetJob
    from repro.serve.jobs import parse_job_request
    from tests.fleet.conftest import FleetHarness

    class Timed:
        """A worker client whose every job ran for one second."""

        def status(self, remote_id):
            return {"started_at": 100.0, "finished_at": 101.0}

    path = tmp_path / "costs.json"
    fleet = FleetHarness(tmp_path, cost_path=path)
    coordinator = fleet.coordinator
    request = parse_job_request(DOC)
    job = FleetJob(id="f0", request=request, digest=request.digest())
    threads = [threading.Thread(target=lambda: [
        coordinator._observe_duration(job, Timed(), "j1")
        for _ in range(12)]) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        fleet.stop()
    # Every observation was folded in, and every flush along the way
    # (the last one included) wrote a whole document.
    assert len(coordinator.cost_model.observations()) == 96
    assert len(json.loads(path.read_text())["observations"]) == 96
    assert [p.name for p in tmp_path.iterdir()
            if p.suffix == ".tmp"] == []
