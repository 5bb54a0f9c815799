"""A drain against a served sampled run, at each of its stages.

A drain cancels a sampled run that has not planned yet (it never plans)
or whose windows are still measuring (completed windows stay cached).
A started merge or exact run is running work: it finishes and is
stored, as the drain promises every running job.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future

import pytest

import repro.sample.orchestrate as orchestrate
from repro.exec.cache import ResultCache
from repro.sample import SampledJob
from repro.serve.jobs import CANCELLED, DONE, JobRecord, parse_job_request
from repro.serve.queue import JobQueue
from repro.serve.scheduler import Scheduler

from .test_sampled_parallel import SAMPLE_DOC


def claimed(queue: JobQueue, doc: dict) -> JobRecord:
    request = parse_job_request(doc)
    record = queue.submit(JobRecord(id=queue.next_id(), request=request,
                                    digest=request.digest()))
    assert queue.claim_next(timeout=1.0) is record
    return record


@pytest.mark.parametrize("k", [1000, 2], ids=["exact", "merge"])
def test_drain_lets_a_started_sampled_execute_finish(tmp_path, k):
    cache = ResultCache(tmp_path / "cache")
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=cache, workers=1)
    record = claimed(queue, {**SAMPLE_DOC, "k": k})
    submit = scheduler.engine._submit

    def submit_then_drain(job, *values):
        future = submit(job, *values)
        if not isinstance(job, SampledJob):
            return future
        queue.start_drain()
        # A running job that settles late, so the engine polls the
        # drain while it waits.
        late = Future()
        late.set_running_or_notify_cancel()
        threading.Timer(
            0.3, lambda: late.set_result(future.result())).start()
        return late

    scheduler.engine._submit = submit_then_drain
    try:
        scheduler._resolve(record)
    finally:
        scheduler.stop()
    assert record.state == DONE, record.error
    assert json.loads(record.result)["exact"] is (k == 1000)
    assert [entry.kind for entry in cache.entries()].count("sample") == 1


def test_a_sampled_run_claimed_after_the_drain_never_plans(tmp_path,
                                                           monkeypatch):
    plans = []
    monkeypatch.setattr(orchestrate, "plan_sampled_job", plans.append)
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=ResultCache(tmp_path / "cache"),
                          workers=1)
    record = claimed(queue, SAMPLE_DOC)
    queue.start_drain()
    scheduler._resolve(record)
    assert record.state == CANCELLED
    assert "cancelled: " in record.error
    assert plans == []
