"""Memo hits are answered on the request thread.

A submission whose digest is in the scheduler's memo is admitted
already done: it never enters the queue, never wakes a scheduler
thread and is never priced by the cost model, yet it is counted
exactly like a hit that went through the queue.  Stopping the
scheduler after the first job settles makes that observable: any hit
that still needed a worker would never be answered.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.serve import ServeError
from repro.serve.jobs import parse_job_request

DOC = {"kind": "g5", "workload": "sieve", "cpu": "atomic", "scale": "test"}

SERIES = ("repro_serve_jobs_submitted_total",
          'repro_serve_jobs_completed_total{state="done"}',
          "repro_serve_cache_memo_hits_total",
          "repro_serve_jobs_rejected_total")


def scrape(client) -> dict[str, float]:
    metrics = client.metrics()
    return {series: metrics.get(series, 0.0) for series in SERIES}


def test_a_hit_is_answered_without_the_queue_or_a_worker(gated,
                                                         monkeypatch):
    server, client, executor = gated
    executor.release()
    first = client.run(DOC, timeout=10.0)
    assert first["source"] == "executed"

    server.scheduler.stop()
    monkeypatch.setattr(server.scheduler, "predict", lambda request:
                        pytest.fail("a memo hit was priced"))
    enqueued = []
    monkeypatch.setattr(server.queue, "_enqueue", lambda record:
                        enqueued.append(record.id))
    before = scrape(client)

    reply = client.submit_doc(DOC, wait=5.0)

    assert reply["state"] == "done"
    assert reply["source"] == "memo"
    assert reply["result"] == first["result"]
    assert enqueued == [] and server.queue.depth() == 0
    after = scrape(client)
    assert {name: after[name] - before[name] for name in SERIES} == {
        "repro_serve_jobs_submitted_total": 1,
        'repro_serve_jobs_completed_total{state="done"}': 1,
        "repro_serve_cache_memo_hits_total": 1,
        "repro_serve_jobs_rejected_total": 0}
    assert len(executor.calls) == 1

    # The hit is a retained job like any other: status and result
    # routes answer for it.
    status = client.status(reply["id"])
    assert (status["state"], status["source"]) == ("done", "memo")
    assert client.result(reply["id"]) == reply


def test_a_hit_without_wait_is_acknowledged_done(gated):
    server, client, executor = gated
    executor.release()
    client.run(DOC, timeout=10.0)

    ack = client.submit_doc(DOC)
    assert ack["state"] == "done"
    assert ack["eta_seconds"] == 0
    assert client.result(ack["id"])["source"] == "memo"


def test_a_hit_during_a_drain_is_refused(gated):
    server, client, executor = gated
    executor.release()
    client.run(DOC, timeout=10.0)
    assert server.scheduler.memo_get(parse_job_request(DOC).digest())

    server.queue.start_drain()
    before = scrape(client)
    with pytest.raises(ServeError) as refused:
        client.submit_doc(DOC, wait=1.0)
    assert refused.value.status == 503
    after = scrape(client)
    assert {name: after[name] - before[name] for name in SERIES} == {
        "repro_serve_jobs_submitted_total": 0,
        'repro_serve_jobs_completed_total{state="done"}': 0,
        "repro_serve_cache_memo_hits_total": 0,
        "repro_serve_jobs_rejected_total": 1}


def test_concurrent_hits_are_each_counted_once(gated):
    server, client, executor = gated
    executor.release()
    client.run(DOC, timeout=10.0)
    threads, per_thread = 8, 25
    replies: list = []

    def hammer() -> None:
        for _ in range(per_thread):
            replies.append(server.submit_response(DOC))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)

    hits = threads * per_thread
    assert [reply[1]["state"] for reply in replies] == ["done"] * hits
    assert len({reply[1]["id"] for reply in replies}) == hits
    assert server.queue.submitted == server.metrics.submitted.value \
        == hits + 1
    assert server.metrics.memo_hits.value == hits
    assert server.metrics.completed["done"].value == hits + 1
    assert server.queue.counts()["done"] == hits + 1
