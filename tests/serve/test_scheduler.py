"""Scheduler resolution layers: memo, disk cache, retry, timeout.

These tests drive ``Scheduler._resolve`` synchronously on claimed
records (no worker threads), so every path is deterministic.
"""

from __future__ import annotations

import pytest

from repro.exec import costmodel
from repro.exec.cache import ResultCache
from repro.serve.jobs import JobRecord, parse_job_request
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import JobQueue
from repro.serve.scheduler import MEMO_CAPACITY, Scheduler, WorkerCrashed

from .conftest import GatedExecutor


def _submit(queue: JobQueue, **doc_overrides) -> JobRecord:
    doc = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
           "scale": "test"}
    doc.update(doc_overrides)
    request = parse_job_request(doc)
    record = JobRecord(id=queue.next_id(), request=request,
                       digest=request.digest())
    return queue.submit(record)


@pytest.fixture
def rig(tmp_path):
    """Queue + metrics + released gated executor + scheduler factory."""
    queue = JobQueue()
    metrics = ServeMetrics()
    executor = GatedExecutor()
    executor.release()  # resolve synchronously unless a test re-arms it

    def build(**kwargs) -> Scheduler:
        kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
        kwargs.setdefault("backoff_base", 0.001)
        scheduler = Scheduler(queue, metrics=metrics,
                              execute_fn=executor, **kwargs)
        return scheduler

    return queue, metrics, executor, build


def test_execute_then_memo_then_disk(rig, tmp_path):
    queue, metrics, executor, build = rig
    scheduler = build()

    _submit(queue)
    scheduler._resolve(queue.claim_next(timeout=0))
    first = queue.counts()
    assert first["done"] == 1
    assert len(executor.calls) == 1
    assert metrics.cache_misses.value == 1

    # Identical resubmission: served from the in-process memo.
    second = _submit(queue)
    scheduler._resolve(queue.claim_next(timeout=0))
    assert second.state == "done"
    assert second.source == "memo"
    assert len(executor.calls) == 1
    assert metrics.memo_hits.value == 1

    # A fresh scheduler (cold memo) over the same cache dir: disk hit.
    rebooted = build()
    third = _submit(queue)
    rebooted._resolve(queue.claim_next(timeout=0))
    assert third.source == "disk-cache"
    assert len(executor.calls) == 1
    assert metrics.disk_hits.value == 1
    assert rebooted.stats.as_dict()["g5_disk_hits"] == 1
    scheduler.stop()
    rebooted.stop()


def test_worker_crash_retries_with_backoff(rig):
    queue, metrics, executor, build = rig
    executor.failures = [WorkerCrashed("boom"), WorkerCrashed("boom")]
    scheduler = build(max_retries=2)

    record = _submit(queue)
    scheduler._resolve(queue.claim_next(timeout=0))
    assert record.state == "done"
    assert record.attempts == 3
    assert metrics.retries.value == 2
    assert len(executor.calls) == 3
    scheduler.stop()


def test_crashes_beyond_retry_budget_fail_the_job(rig):
    queue, metrics, executor, build = rig
    executor.failures = [WorkerCrashed("boom")] * 3
    scheduler = build(max_retries=2)

    record = _submit(queue)
    scheduler._resolve(queue.claim_next(timeout=0))
    assert record.state == "failed"
    assert "crashed 3 time(s)" in record.error
    assert metrics.completed["failed"].value >= 1
    scheduler.stop()


def test_job_timeout_fails_without_retry(rig):
    queue, metrics, executor, build = rig
    executor.gate.clear()  # never completes within the budget
    scheduler = build(job_timeout=0.05)

    record = _submit(queue)
    scheduler._resolve(queue.claim_next(timeout=0))
    assert record.state == "failed"
    assert "budget" in record.error
    assert metrics.timeouts.value == 1
    assert record.attempts == 1  # timeouts are not retried
    executor.release()
    scheduler.stop()


def test_predict_covers_both_job_kinds(rig):
    queue, _, _, build = rig
    scheduler = build()
    g5 = parse_job_request({"workload": "sieve"})
    figure = parse_job_request({"kind": "figure", "figure": "fig3"})
    assert scheduler.predict(g5) >= 0.0
    # A figure aggregates its required g5 runs, so it predicts at
    # least as long as any single sim.
    assert scheduler.predict(figure) >= scheduler.predict(g5)
    scheduler.stop()


def test_figure_prediction_reads_requirements_as_the_runner_does(
        rig, monkeypatch):
    """A ``mode=None`` requirement means the workload's registered mode
    (FS for boot_exit) to the predictor exactly as to the runner."""
    from repro.exec import G5Job
    from repro.experiments import FIGURES
    from repro.experiments.common import requirement_job

    assert requirement_job(("boot_exit", "o3", None), "test") \
        == G5Job("boot_exit", "o3", "fs", "test")
    assert requirement_job(("sieve", "o3", None, 4), "test") \
        == G5Job("sieve", "o3", "se", "test", threads=4)

    _, _, _, build = rig
    scheduler = build()
    monkeypatch.setattr(FIGURES["fig3"], "required_g5",
                        lambda: [("boot_exit", "o3", None)])
    monkeypatch.setattr(FIGURES["fig3"], "required_replays",
                        lambda runner: [], raising=False)
    figure = parse_job_request({"kind": "figure", "figure": "fig3",
                                "scale": "test"})
    assert scheduler.predict(figure) == costmodel.predict(
        G5Job("boot_exit", "o3", "fs", "test"))
    scheduler.stop()


def test_figure_prediction_covers_its_replays(rig):
    """Fig 14 is priced as everything it runs: its three g5 runs plus
    its 21 replays (three walks), not the g5 runs alone."""
    from repro.experiments import FIGURES
    from repro.experiments.common import requirement_job
    from repro.experiments.runner import ExperimentRunner

    _, _, _, build = rig
    scheduler = build()
    module = FIGURES["fig14"]
    replays = module.required_replays(ExperimentRunner(scale="test"))
    assert len(replays) == 21
    replay_s = sum(map(costmodel.predict, replays))
    g5_s = sum(costmodel.predict(requirement_job(requirement, "test"))
               for requirement in module.required_g5())
    figure = parse_job_request({"kind": "figure", "figure": "fig14",
                                "scale": "test"})
    assert replay_s > 0
    assert scheduler.predict(figure) >= replay_s
    assert scheduler.predict(figure) == pytest.approx(g5_s + replay_s)
    scheduler.stop()


def test_a_memo_hit_refreshes_its_entry(rig):
    _, _, _, build = rig
    scheduler = build()
    for index in range(MEMO_CAPACITY):
        scheduler._memo_put(f"digest{index}", f"[{index}]")

    # The first-produced entry is hit before the 257th insert, so the
    # least recently used one is now the second.
    assert scheduler.memo_get("digest0") == "[0]"
    scheduler._memo_put("digest-new", "[]")

    assert scheduler.memo_get("digest0") == "[0]"
    assert scheduler.memo_get("digest1") is None
    assert scheduler.memo_get("digest-new") == "[]"
    scheduler.stop()
