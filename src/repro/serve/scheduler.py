"""The daemon's execution core: workers resolving jobs through layers.

``workers`` scheduler threads claim jobs off the :class:`JobQueue`
(cheapest-first) and resolve each through:

1. **memo** — a bounded, least-recently-used map from digest to the
   JSON text of a recently produced packed result (encoded once, when
   it is produced), so a burst of identical requests after the first
   completes never touches the disk or the encoder.  The daemon reads
   it through :meth:`Scheduler.memo_get` before admission and answers
   a hit on the request thread; the check here catches jobs that were
   queued before their twin finished;
2. **the exec engine** — a request's :meth:`JobRequest.jobs` (a g5
   job, a sampled run, or a figure's g5 runs and replays) go through
   :meth:`ExecutionEngine.resolve <repro.exec.pool.ExecutionEngine
   .resolve>`, the pipeline the batch CLI uses (disk cache shared with
   every CLI run on the machine, same decode rule, same packing code),
   with this scheduler's one persistent process pool as its execute
   step; a figure then renders from exactly the resolved values.

What the scheduler adds on top is one policy for every kind: a
worker-process crash (``BrokenProcessPool``) rebuilds the pool and
retries with exponential backoff up to ``max_retries`` times; a
per-job ``timeout`` fails a job without retry (a deterministic
simulation that ran long once will run long again); a drain aborts a
sampled run's or a figure's unstarted jobs.  Neither is polled: the
engine blocks on its futures and the queue's ``drain_started`` until
one settles or the budget runs out.  The queue's priorities and the
ETAs are each job's static price (:func:`predict_request`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from collections import Counter, OrderedDict
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Callable, Optional

from ..exec.cache import ResultCache
from ..exec.pool import ExecutionEngine, G5Job, JobTimeout, \
    WindowsCancelled, execute_job, predict_jobs
from . import clock
from .jobs import CANCELLED, DONE, FAILED, JobRecord, JobRequest
from .queue import JobQueue

__all__ = ["Scheduler", "WorkerCrashed", "JobTimeout", "predict_request"]


def predict_request(request: JobRequest) -> float:
    """The static price of one job request (shared by the daemon's
    admission/ETA path and the fleet coordinator's routing): everything
    it resolves, grouped into the tasks (walks) the engine would
    execute."""
    return predict_jobs(request.jobs())


#: How many encoded results the in-process memo retains.
MEMO_CAPACITY = 256

#: Disk-cache stores between prune sweeps (when a byte cap is set).
PRUNE_EVERY = 16


def _exit_with_parent() -> None:
    """Pool-child initializer: exit when the daemon dies, however it
    dies (a SIGKILLed daemon cannot shut its pool down)."""
    def watch() -> None:
        # Blocks on the death pipe multiprocessing gives every child
        # (its write end closes with the parent): nothing polls.
        multiprocessing.parent_process().join()
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _source(resolved: dict) -> str:
    """``"disk-cache"`` when none of a request's jobs executed."""
    executed = any(got.source == "executed" for got in resolved.values())
    return "executed" if executed else "disk-cache"


def _figure_payload(request: JobRequest, resolved: dict) -> dict:
    """The figure ``run`` renders from exactly the resolved values (so
    it resolves nothing), and what this request executed or read."""
    from ..experiments import FIGURES
    from ..experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=request.scale,
                              max_records=request.max_records)
    runner.engine.memo.update((job, got.value)
                              for job, got in resolved.items())
    counts = Counter(
        ("g5" if isinstance(job, G5Job) else "replays",
         "executed" if got.source == "executed" else "disk_hits")
        for job, got in resolved.items())
    return {"kind": "figure", "figure": request.figure_id,
            "scale": request.scale, "max_records": request.max_records,
            "rendered": FIGURES[request.figure_id].run(runner).render(),
            "g5_executed": counts["g5", "executed"],
            "g5_disk_hits": counts["g5", "disk_hits"],
            "replays_executed": counts["replays", "executed"],
            "replay_disk_hits": counts["replays", "disk_hits"]}


class WorkerCrashed(RuntimeError):
    """An execution attempt died underneath the scheduler (retryable)."""


class Scheduler:
    """Worker threads resolving queued jobs: memo -> disk -> execute."""

    def __init__(self, queue: JobQueue,
                 cache: Optional[ResultCache] = None,
                 workers: int = 2,
                 job_timeout: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base: float = 0.25,
                 cache_max_bytes: Optional[int] = None,
                 metrics=None,
                 execute_fn: Optional[Callable] = None) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.queue = queue
        self.cache = cache
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.cache_max_bytes = cache_max_bytes
        self.metrics = metrics
        self.engine = ExecutionEngine(jobs=workers, cache=cache,
                                      submit=self._submit)
        self.stats = self.engine.stats
        #: test seam: replaces pool execution for g5 jobs; signature
        #: ``fn(g5job) -> (packed_result, seconds)``.
        self._execute_fn = execute_fn
        #: digest -> the payload's JSON text, least recently used first
        self._memo: OrderedDict[str, str] = OrderedDict()
        self._memo_lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # execute_fn runs through a thread pool so timeouts still apply.
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._stores_since_prune = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the worker loops (after the queue has drained)."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._reset_pool()
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            self._thread_pool = None

    def predict(self, request: JobRequest) -> float:
        """The static price for admission/ETA (seconds-ish)."""
        return predict_request(request)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.claim_next(timeout=0.2)
            if record is None:
                if self.queue.draining:
                    return
                continue
            self._resolve(record)

    def _resolve(self, record: JobRecord) -> None:
        record.started_at = clock.wall()
        try:
            payload, source = self._obtain(record)
        except JobTimeout as exc:
            self._count("timeouts")
            self._finish(record, state=FAILED, error=str(exc))
        except WindowsCancelled as exc:
            # Drain or shutdown interrupted a sampled run or a figure:
            # no partial payload is published; completed jobs stay in
            # the cache for the next submission to reuse.
            self._finish(record, state=CANCELLED,
                         error=f"{record.request.label} {exc}")
        except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
            self._finish(record, state=FAILED,
                         error=f"{type(exc).__name__}: {exc}")
        else:
            self._finish(record, state=DONE, result=payload,
                         source=source)

    def _finish(self, record: JobRecord, *, state: str,
                result: Optional[str] = None,
                error: Optional[str] = None,
                source: Optional[str] = None) -> None:
        settled = self.queue.finish(record, state=state, result=result,
                                    error=error, source=source,
                                    finished_at=clock.wall())
        if self.metrics is not None:
            for job in settled:
                counter = self.metrics.completed.get(job.state)
                if counter is not None:
                    counter.inc()

    # ------------------------------------------------------------------
    # resolution layers
    # ------------------------------------------------------------------
    def _obtain(self, record: JobRecord) -> tuple[str, str]:
        """The packed payload's JSON text for a job plus where it came
        from."""
        memo = self.memo_get(record.digest)
        if memo is not None:
            self._count("memo_hits")
            return memo, "memo"
        request = record.request
        jobs = request.jobs()
        source = "executed"              # whatever fails was a miss
        try:
            resolved = self._resolve_with_retry(record, jobs)
            source = _source(resolved)
        finally:
            self._count("disk_hits" if source == "disk-cache"
                        else "cache_misses")
        if source == "executed":
            self._maybe_prune()
        payload = (_figure_payload(request, resolved)
                   if request.kind == "figure" else resolved[jobs[0]].payload)
        text = json.dumps(payload, sort_keys=True)
        self._memo_put(record.digest, text)
        return text, source

    # ------------------------------------------------------------------
    # execution with timeout + crash retry
    # ------------------------------------------------------------------
    def _resolve_with_retry(self, record: JobRecord, jobs: list) -> dict:
        """``{job: Resolved}`` for a request's jobs on the engine (disk
        probe, execution on the shared pool, store) under this
        scheduler's timeout, drain-abort and crash-retry policy."""
        last_crash: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            record.attempts = attempt + 1
            if attempt:
                self._count("retries")
                clock.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                # A drain stops a sampled run's or a figure's unstarted
                # jobs; a started g5 job finishes.
                resolved = self.engine.resolve(
                    jobs, None if record.request.kind == "g5"
                    else self.queue.drain_started, self.job_timeout)
            except (BrokenExecutor, WorkerCrashed) as exc:
                last_crash = exc
                self._reset_pool()
                continue
            if _source(resolved) == "disk-cache":
                record.attempts = attempt    # a hit is not an execution
            return resolved
        raise WorkerCrashed(
            f"execution crashed {self.max_retries + 1} time(s); "
            f"last error: {last_crash}")

    def _submit(self, job, *values) -> Future:
        """The engine's execute step: this scheduler's persistent pool
        (or the injected executor, for g5 jobs, under test)."""
        if self._execute_fn is not None and isinstance(job, G5Job):
            return self._injected_pool().submit(self._execute_fn, job)
        return self._process_pool().submit(execute_job, job, *values)

    def _process_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_exit_with_parent)
            return self._pool

    def _injected_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="serve-exec")
            return self._thread_pool

    def _reset_pool(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    # ------------------------------------------------------------------
    # memo + prune
    # ------------------------------------------------------------------
    def memo_get(self, digest: str) -> Optional[str]:
        """The memoised JSON text for ``digest`` (a hit makes it the
        most recently used entry), or None."""
        with self._memo_lock:
            text = self._memo.get(digest)
            if text is not None:
                self._memo.move_to_end(digest)
            return text

    def _memo_put(self, digest: str, text: str) -> None:
        with self._memo_lock:
            self._memo[digest] = text
            self._memo.move_to_end(digest)
            while len(self._memo) > MEMO_CAPACITY:
                self._memo.popitem(last=False)

    def _maybe_prune(self) -> None:
        if self.cache is None or self.cache_max_bytes is None:
            return
        with self._memo_lock:
            self._stores_since_prune += 1
            if self._stores_since_prune < PRUNE_EVERY:
                return
            self._stores_since_prune = 0
        removed, _ = self.cache.prune(self.cache_max_bytes)
        if removed:
            self._count("pruned", removed)

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            getattr(self.metrics, name).inc(amount)
