"""Sampled jobs through the daemon: window sharing, coalescing, drain.

Sampled submissions now fan their measurement windows out as per-window
cache entries (see ``repro.exec.windows``), sharing both the coalescing
layer (identical submissions collapse to one execution) and the cache
layer (distinct submissions that plan the same windows reuse each
other's measurements).  Draining mid-fan-out must cancel cleanly — no
partial payload, state ``cancelled``, a human-readable error.
"""

from __future__ import annotations

import threading

from repro.exec.cache import ResultCache
from repro.serve import clock
from repro.serve.jobs import CANCELLED, JobRecord, parse_job_request
from repro.serve.queue import JobQueue
from repro.serve.scheduler import Scheduler

from .conftest import GatedExecutor, make_server


def wait_until(predicate, timeout: float = 5.0, poll: float = 0.01):
    deadline = clock.monotonic() + timeout
    while not predicate():
        assert clock.monotonic() < deadline, "condition never held"
        clock.sleep(poll)


SAMPLE_DOC = {"kind": "sample", "workload": "sieve", "cpu": "timing",
              "scale": "test", "interval_insts": 100, "warmup_insts": 200,
              "k": 2, "max_k": 4}


def test_concurrent_sampled_submissions_coalesce_and_share_windows(
        tmp_path):
    executor = GatedExecutor()
    server, client = make_server(tmp_path, execute_fn=executor, workers=1)
    try:
        # First sampled run populates the per-window cache entries.
        first = client.submit_doc(SAMPLE_DOC)
        assert client.wait(first["id"], timeout=120.0)["state"] == "done"
        stats = server.scheduler.stats
        baseline_windows = stats.windows_executed
        assert baseline_windows > 0
        assert stats.window_hits == 0

        # Pin the single worker on a gated g5 job, then submit two
        # identical sampled jobs with a different sample-level key (the
        # unused max_k knob): the second coalesces onto the first.
        blocker = client.submit(workload="fmm", cpu="atomic")
        wait_until(lambda: server.queue.running() == 1)
        variant = {**SAMPLE_DOC, "max_k": 6}
        acks = [client.submit_doc(variant) for _ in range(2)]
        assert acks[0]["coalesced_into"] is None
        assert acks[1]["coalesced_into"] == acks[0]["id"]

        executor.release()
        for ack in [blocker] + acks:
            assert client.wait(ack["id"],
                               timeout=120.0)["state"] == "done"

        # Job-level coalescing: one execution for the pair...
        results = [client.result(ack["id"]) for ack in acks]
        assert results[0]["source"] == "executed"
        assert results[1]["source"] == f"coalesced:{acks[0]['id']}"
        assert results[0]["result"] == results[1]["result"]
        # ...and window-level sharing: k is set, so max_k never feeds
        # the clustering — the variant plans the very same windows and
        # resolves every one from the first run's cache entries.
        assert stats.windows_executed == baseline_windows
        assert stats.window_hits == baseline_windows
        estimates = results[0]["result"]["estimates"]
        direct = client.result(first["id"])["result"]["estimates"]
        assert estimates == direct
    finally:
        executor.release()
        server.drain_and_stop()


def test_drain_mid_fanout_cancels_cleanly(tmp_path):
    """A claimed sampled job aborts its fan-out when the drain begins."""
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=ResultCache(tmp_path / "cache"),
                          workers=1)
    request = parse_job_request(SAMPLE_DOC)
    record = queue.submit(JobRecord(id=queue.next_id(), request=request,
                                    digest=request.digest()))
    claimed = queue.claim_next(timeout=1.0)
    assert claimed is record

    # The worker has the job; the drain starts while it resolves.  The
    # engine sees the queue's drain_started future settled and raises
    # WindowsCancelled, which the scheduler maps to a clean terminal
    # CANCELLED state.
    queue.start_drain()
    scheduler._resolve(record)
    assert record.state == CANCELLED
    assert record.result is None
    assert "cancelled: " in record.error
    assert record.finished.is_set()
    assert scheduler.stats.windows_executed == 0


def test_drain_during_fanout_stops_inflight_windows(tmp_path):
    """Drain fired from another thread interrupts a live fan-out."""
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=ResultCache(tmp_path / "cache"),
                          workers=1)
    request = parse_job_request(SAMPLE_DOC)
    record = queue.submit(JobRecord(id=queue.next_id(), request=request,
                                    digest=request.digest()))
    claimed = queue.claim_next(timeout=1.0)

    # Trip the drain as soon as resolution starts: planning finishes,
    # but the window loop's abort check fires before measuring.
    drainer = threading.Timer(0.0, queue.start_drain)
    drainer.start()
    try:
        wait_until(queue_draining(queue), timeout=5.0)
        scheduler._resolve(claimed)
    finally:
        drainer.cancel()
    assert record.state == CANCELLED
    assert record.result is None
    assert record.error and "cancelled" in record.error


def queue_draining(queue):
    return lambda: queue.draining


def test_concurrent_sampled_jobs_share_the_schedulers_one_pool(
        tmp_path, monkeypatch):
    """Window fan-outs run on the scheduler's persistent pool — a served
    sampled job never opens a process pool of its own."""
    from concurrent.futures import ProcessPoolExecutor

    pools = []
    real_init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        pools.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
    server, client = make_server(tmp_path, workers=2)
    try:
        # Distinct digests, so neither coalesces: both really fan out.
        acks = [client.submit_doc(doc)
                for doc in (SAMPLE_DOC, {**SAMPLE_DOC, "cpu": "atomic"})]
        n_windows = 0
        for ack in acks:
            assert client.wait(ack["id"],
                               timeout=120.0)["state"] == "done"
            result = client.result(ack["id"])
            assert result["source"] == "executed"
            n_windows += len(
                result["result"]["clusters"]["representatives"])
        assert server.scheduler.stats.windows_executed == n_windows
        assert len(pools) == 1
        assert pools[0] is server.scheduler._pool
    finally:
        server.drain_and_stop()


def test_drain_mid_fanout_keeps_completed_windows_cached(tmp_path):
    """The drain lands after the first window is stored: the job ends
    cancelled, and what completed is there for the next submission."""
    cache = ResultCache(tmp_path / "cache")
    queue = JobQueue()
    # One pool worker and four windows: they finish one at a time.
    scheduler = Scheduler(queue, cache=cache, workers=1)
    request = parse_job_request({**SAMPLE_DOC, "k": 4})
    record = queue.submit(JobRecord(id=queue.next_id(), request=request,
                                    digest=request.digest()))
    real_put = cache.put

    def put_then_drain(key, payload):
        real_put(key, payload)
        queue.start_drain()

    cache.put = put_then_drain
    try:
        scheduler._resolve(queue.claim_next(timeout=1.0))
    finally:
        cache.put = real_put
        scheduler.stop()
    assert record.state == CANCELLED
    assert record.result is None
    assert "cancelled: " in record.error
    kinds = [entry.kind for entry in cache.entries()]
    assert "sample" not in kinds
    assert 1 <= kinds.count("window") < 4
    assert kinds.count("window") == scheduler.stats.windows_executed

    # A later submission resolves those windows from disk.
    rerun = Scheduler(JobQueue(), cache=cache, workers=2)
    resubmitted = rerun.queue.submit(JobRecord(
        id=rerun.queue.next_id(), request=request, digest=request.digest()))
    try:
        rerun._resolve(rerun.queue.claim_next(timeout=1.0))
    finally:
        rerun.stop()
    assert resubmitted.state == "done"
    assert rerun.stats.window_hits == kinds.count("window")
