"""A served figure resolves like every other job.

Its g5 runs and replays go through the scheduler's engine, so the
daemon's per-job timeout, drain abort and disk cache apply to it: a
figure whose g5 runs are held by a :class:`GatedExecutor` times out or
is cancelled, a drain while its replays run cancels the rest, and a
second daemon over the same cache serves it without executing
anything.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import repro.exec.pool as pool
from repro.exec import G5Job
from repro.exec.cache import ResultCache
from repro.experiments import FIGURES
from repro.experiments.runner import ExperimentRunner
from repro.serve.jobs import CANCELLED, FAILED
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import JobQueue
from repro.serve.scheduler import Scheduler

from .conftest import GatedExecutor, make_server
from .test_sampled_drain import claimed


def test_a_figure_over_the_budget_times_out(tmp_path):
    executor = GatedExecutor()          # holds the figure's g5 runs
    metrics = ServeMetrics()
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=ResultCache(tmp_path / "cache"),
                          workers=1, job_timeout=0.2, metrics=metrics,
                          execute_fn=executor)
    record = claimed(queue, {"kind": "figure", "figure": "fig13",
                             "scale": "test"})
    try:
        scheduler._resolve(record)
    finally:
        executor.release()
        scheduler.stop()
    assert record.state == FAILED
    assert record.error == "job exceeded the 0.2s budget"
    assert metrics.timeouts.value == 1
    assert record.attempts == 1
    assert len(executor.calls) == 1
    assert scheduler.stats.replays_executed == Counter()


def test_a_drain_cancels_a_figure_whose_runs_are_gated(tmp_path):
    executor = GatedExecutor()
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=ResultCache(tmp_path / "cache"),
                          workers=1, execute_fn=executor)
    record = claimed(queue, {"kind": "figure", "figure": "fig3",
                             "scale": "test"})
    assert len(FIGURES["fig3"].required_g5()) > 1
    resolving = threading.Thread(target=scheduler._resolve,
                                 args=(record,))
    resolving.start()
    try:
        deadline = time.monotonic() + 10.0
        while not executor.calls and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(executor.calls) == 1, "the figure never reached its runs"
        queue.start_drain()
        resolving.join(timeout=10.0)
        assert not resolving.is_alive()
        assert record.state == CANCELLED
        assert record.error.startswith("figure fig3 (test) cancelled: ")
        # The one worker thread runs the held call, then this marker:
        # the figure's other runs were cancelled before they started.
        executor.release()
        scheduler._injected_pool().submit(lambda: None).result(timeout=10)
        assert len(executor.calls) == 1
        assert scheduler.stats.replays_executed == Counter()
    finally:
        executor.release()
        resolving.join(timeout=10.0)
        scheduler.stop()


def test_a_held_figure_blocks_in_one_wait_until_the_drain(tmp_path,
                                                         monkeypatch):
    """The completion loop sleeps on its futures and the drain: a
    figure whose runs are held for 0.3 s makes one ``wait`` call, not
    one per poll interval, and the drain wakes it."""
    waits = []
    real_wait = pool.wait

    def counted_wait(*args, **kwargs):
        waits.append(args)
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(pool, "wait", counted_wait)
    executor = GatedExecutor()
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=ResultCache(tmp_path / "cache"),
                          workers=1, execute_fn=executor)
    record = claimed(queue, {"kind": "figure", "figure": "fig3",
                             "scale": "test"})
    resolving = threading.Thread(target=scheduler._resolve,
                                 args=(record,))
    resolving.start()
    try:
        deadline = time.monotonic() + 10.0
        while not executor.calls and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(executor.calls) == 1, "the figure never reached its runs"
        time.sleep(0.3)
        held = len(waits)
        queue.start_drain()
        resolving.join(timeout=10.0)
        assert not resolving.is_alive()
        assert held <= 1
        assert record.state == CANCELLED
    finally:
        executor.release()
        resolving.join(timeout=10.0)
        scheduler.stop()


def test_a_drain_during_a_figures_replays_cancels_the_rest(tmp_path):
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=ResultCache(tmp_path / "cache"),
                          workers=1)
    record = claimed(queue, {"kind": "figure", "figure": "fig14",
                             "scale": "test"})
    submit = scheduler.engine._submit

    def submit_then_drain(job, *values):
        if not isinstance(job, G5Job):     # the first replay walk
            queue.start_drain()
        return submit(job, *values)

    scheduler.engine._submit = submit_then_drain
    try:
        scheduler._resolve(record)
    finally:
        scheduler.stop()
    assert record.state == CANCELLED
    assert record.error.startswith("figure fig14 (test) cancelled: ")
    assert scheduler.stats.executed == 3
    assert sum(scheduler.stats.replays_executed.values()) < 21


def test_a_second_daemon_serves_a_figure_from_disk(tmp_path):
    doc = {"kind": "figure", "figure": "fig13", "scale": "test",
           "max_records": 5000}
    first, client = make_server(tmp_path, workers=2)
    try:
        cold = client.run(doc, timeout=120.0)
    finally:
        first.drain_and_stop()
    assert cold["source"] == "executed"
    jobs = ExperimentRunner(scale="test", max_records=5000).figure_jobs(
        [FIGURES["fig13"]])
    payload = cold["result"]
    assert payload["g5_executed"] == 1
    assert payload["replays_executed"] == len(jobs) - 1 > 0
    assert payload["g5_disk_hits"] == payload["replay_disk_hits"] == 0

    second, client = make_server(tmp_path, workers=2)
    try:
        warm = client.run(doc, timeout=120.0)
        stats = second.scheduler.stats
        assert stats.executed == 0
        assert stats.replays_executed == Counter()
    finally:
        second.drain_and_stop()
    assert warm["source"] == "disk-cache"
    payload = warm["result"]
    assert payload["g5_executed"] == payload["replays_executed"] == 0
    assert payload["g5_disk_hits"] == 1
    assert payload["replay_disk_hits"] == len(jobs) - 1
    assert payload["rendered"] == cold["result"]["rendered"]
