"""JobQueue semantics: priority, coalescing, admission, drain."""

from __future__ import annotations

import pytest

from repro.serve.jobs import CANCELLED, DONE, JobRecord
from repro.serve.queue import JobQueue, QueueFull, ServerDraining


def _record(queue: JobQueue, digest: str,
            predicted: float = 1.0) -> JobRecord:
    # Queue tests only exercise digest/priority bookkeeping, so the
    # request payload itself is irrelevant.
    return JobRecord(id=queue.next_id(), request=None, digest=digest,
                     predicted_seconds=predicted)


def test_claims_cheapest_predicted_first():
    queue = JobQueue()
    slow = queue.submit(_record(queue, "d-slow", predicted=30.0))
    fast = queue.submit(_record(queue, "d-fast", predicted=0.5))
    medium = queue.submit(_record(queue, "d-med", predicted=5.0))
    order = [queue.claim_next(timeout=0).id for _ in range(3)]
    assert order == [fast.id, medium.id, slow.id]
    assert queue.claim_next(timeout=0) is None


def test_equal_predictions_claim_in_submission_order():
    queue = JobQueue()
    first = queue.submit(_record(queue, "d1", predicted=1.0))
    second = queue.submit(_record(queue, "d2", predicted=1.0))
    assert queue.claim_next(timeout=0).id == first.id
    assert queue.claim_next(timeout=0).id == second.id


def test_coalesce_attaches_waiter_without_depth():
    queue = JobQueue(max_depth=8)
    primary = queue.submit(_record(queue, "same"))
    duplicate = queue.submit(_record(queue, "same"))
    assert duplicate.coalesced_into == primary.id
    assert primary.waiters == [duplicate.id]
    assert queue.depth() == 1
    assert queue.coalesced == 1
    assert queue.submitted == 2


def test_finish_fans_out_to_waiters():
    queue = JobQueue()
    primary = queue.submit(_record(queue, "same"))
    duplicate = queue.submit(_record(queue, "same"))
    claimed = queue.claim_next(timeout=0)
    assert claimed.id == primary.id
    settled = queue.finish(claimed, state=DONE, result={"x": 1},
                           source="executed", finished_at=1.0)
    assert [job.id for job in settled] == [primary.id, duplicate.id]
    assert duplicate.state == DONE
    assert duplicate.result == {"x": 1}
    assert duplicate.source == f"coalesced:{primary.id}"
    assert primary.source == "executed"
    assert primary.finished.is_set() and duplicate.finished.is_set()
    # The digest is no longer in flight: a fresh submission queues anew.
    fresh = queue.submit(_record(queue, "same"))
    assert fresh.coalesced_into is None


def test_queue_full_rejects_but_coalesced_is_exempt():
    queue = JobQueue(max_depth=2)
    queue.submit(_record(queue, "a"))
    queue.submit(_record(queue, "b"))
    with pytest.raises(QueueFull):
        queue.submit(_record(queue, "c"))
    assert queue.rejected == 1
    # An identical job dedupes onto "a" even though the queue is full.
    waiter = queue.submit(_record(queue, "a"))
    assert waiter.coalesced_into is not None
    assert queue.depth() == 2


def test_running_jobs_do_not_count_against_depth():
    queue = JobQueue(max_depth=1)
    queue.submit(_record(queue, "a"))
    queue.claim_next(timeout=0)
    # "a" now occupies a worker, not the queue.
    queue.submit(_record(queue, "b"))
    with pytest.raises(QueueFull):
        queue.submit(_record(queue, "c"))


def test_drain_cancels_queued_and_refuses_new_work():
    queue = JobQueue()
    running = queue.submit(_record(queue, "a"))
    queued = queue.submit(_record(queue, "b"))
    waiter = queue.submit(_record(queue, "b"))
    queue.claim_next(timeout=0)

    cancelled = queue.start_drain()
    assert sorted(job.id for job in cancelled) == sorted(
        [queued.id, waiter.id])
    assert queued.state == CANCELLED
    assert queued.error == "server drained before execution"
    assert waiter.finished.is_set()
    assert queue.draining
    assert queue.cancelled == 2
    with pytest.raises(ServerDraining):
        queue.submit(_record(queue, "c"))
    # Workers see None and exit; the running job can still finish.
    assert queue.claim_next(timeout=0) is None
    queue.finish(running, state=DONE, result={}, finished_at=2.0)
    assert queue.counts()["done"] == 1


def test_history_eviction_bounds_the_job_table():
    queue = JobQueue(max_history=2)
    records = [queue.submit(_record(queue, f"d{i}")) for i in range(4)]
    for _ in records:
        queue.finish(queue.claim_next(timeout=0), state=DONE,
                     result={}, finished_at=1.0)
    assert queue.get(records[0].id) is None
    assert queue.get(records[1].id) is None
    assert queue.get(records[3].id) is not None


def test_counts_reports_states_and_totals():
    queue = JobQueue()
    queue.submit(_record(queue, "a"))
    queue.submit(_record(queue, "b"))
    queue.claim_next(timeout=0)
    counts = queue.counts()
    assert counts["queued"] == 1
    assert counts["running"] == 1
    assert counts["depth"] == 1
    assert counts["submitted"] == 2
    assert len(queue.running_records()) == 1


def test_claim_takes_the_cheapest_job_the_predicate_accepts():
    queue = JobQueue()
    cheap = queue.submit(_record(queue, "cheap", predicted=1.0))
    dear = queue.submit(_record(queue, "dear", predicted=9.0))
    claimed = queue.claim_next(timeout=0,
                               accept=lambda job: job.digest != "cheap")
    assert claimed.id == dear.id
    # Nothing acceptable: the skipped job stays queued, in order.
    assert queue.claim_next(timeout=0, accept=lambda job: False) is None
    assert queue.depth() == 1
    assert queue.claim_next(timeout=0).id == cheap.id


def test_requeue_returns_a_claimed_job_to_the_queue_once():
    queue = JobQueue(max_depth=1)
    record = queue.submit(_record(queue, "a"))
    waiter = queue.submit(_record(queue, "a"))
    assert not queue.requeue(record)            # still queued
    claimed = queue.claim_next(timeout=0)
    assert queue.requeue(claimed)
    assert not queue.requeue(claimed)           # no second entry
    assert (claimed.state, queue.depth(), queue.running()) == (
        "queued", 1, 0)
    # It is still the in-flight primary for its digest.
    assert queue.inflight("a") is record
    assert queue.inflight("b") is None
    settled = queue.finish(queue.claim_next(timeout=0), state=DONE,
                           result={}, finished_at=1.0)
    assert [job.id for job in settled] == [record.id, waiter.id]
    assert queue.claim_next(timeout=0) is None
    assert not queue.requeue(record)            # terminal
