"""The daemon's execution core: workers resolving jobs through layers.

``workers`` scheduler threads claim jobs off the :class:`JobQueue`
(cheapest-predicted-first) and resolve each through:

1. **memo** — a bounded in-process map of recently produced packed
   results, so a burst of identical requests after the first completes
   never touches the disk;
2. **the exec engine** — g5 and sampled jobs go through
   :meth:`ExecutionEngine.resolve <repro.exec.pool.ExecutionEngine
   .resolve>`, the pipeline the batch CLI uses (disk cache shared with
   every CLI run on the machine, same decode rule, same packing code),
   with this scheduler's one persistent process pool as its execute
   step — g5 misses and sampled-window fan-outs share that pool;
   figure jobs run in-thread through an :class:`ExperimentRunner`
   backed by the same disk cache.

What the scheduler adds on top is policy: a worker-process crash
(``BrokenProcessPool``) rebuilds the pool and retries with exponential
backoff up to ``max_retries`` times; a per-job ``timeout`` fails a g5
job without retry (a deterministic simulation that ran long once will
run long again); a drain aborts a sampled fan-out.  Every executed job
is an observation of the shared :class:`CostModel`, whose one
regression answers the queue's priority estimates and ETAs.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Callable, Optional

from ..exec.cache import ResultCache
from ..exec.costmodel import CostModel, job_class
from ..exec.pool import ExecutionEngine, G5Job, WindowsCancelled, execute_job
from . import clock
from .jobs import CANCELLED, DONE, FAILED, JobRecord, JobRequest
from .queue import JobQueue

__all__ = ["Scheduler", "WorkerCrashed", "JobTimeout", "predict_request"]


def predict_request(cost_model: CostModel, request: JobRequest) -> float:
    """Predicted duration of one job request (shared by the daemon's
    admission/ETA path and the fleet coordinator's routing)."""
    if request.kind != "figure":
        return cost_model.predict(request.g5 or request.sampled)
    from ..experiments import FIGURES
    from ..experiments.common import requirement_job

    return sum(cost_model.predict(requirement_job(requirement,
                                                  request.scale))
               for requirement in FIGURES[request.figure_id].required_g5())

#: How many result payloads the in-process memo retains.
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


class WorkerCrashed(RuntimeError):
    """An execution attempt died underneath the scheduler (retryable)."""


class JobTimeout(RuntimeError):
    """A job exceeded the per-job wall-clock budget (not retryable)."""


class Scheduler:
    """Worker threads resolving queued jobs: memo -> disk -> execute."""

    def __init__(self, queue: JobQueue,
                 cache: Optional[ResultCache] = None,
                 workers: int = 2,
                 job_timeout: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base: float = 0.25,
                 cache_max_bytes: Optional[int] = None,
                 cost_model: Optional[CostModel] = None,
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
                                      cost_model=cost_model,
                                      submit=self._submit)
        self.cost_model = self.engine.cost_model
        self.stats = self.engine.stats
        #: test seam: replaces pool execution for g5 jobs; signature
        #: ``fn(g5job) -> (packed_result, seconds)``.
        self._execute_fn = execute_fn
        self._memo: dict[str, dict] = {}
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
        self.cost_model.flush()

    def predict(self, request: JobRequest) -> float:
        """Predicted duration for admission/ETA (seconds-ish)."""
        return predict_request(self.cost_model, request)

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
            # Drain or shutdown interrupted a sampled fan-out: no partial
            # payload is published; completed windows stay in the cache
            # for the next submission to reuse.
            self._finish(record, state=CANCELLED,
                         error=f"sampled run {record.request.label} {exc}")
        except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
            self._finish(record, state=FAILED,
                         error=f"{type(exc).__name__}: {exc}")
        else:
            if source == "executed":
                self._note_prediction(record)
            self._finish(record, state=DONE, result=payload,
                         source=source)

    def _note_prediction(self, record: JobRecord) -> None:
        """Export predicted-vs-actual drift for an executed job."""
        if self.metrics is None or record.started_at is None:
            return
        actual = clock.wall() - record.started_at
        if actual <= 0:
            return
        request = record.request
        if request.kind == "figure":
            cost_class = f"figure|{request.figure_id}|{request.scale}"
        else:
            cost_class = job_class(request.g5 or request.sampled)
        self.metrics.note_prediction(cost_class,
                                     record.predicted_seconds, actual)

    def _finish(self, record: JobRecord, *, state: str,
                result: Optional[dict] = None,
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
    def _obtain(self, record: JobRecord) -> tuple[dict, str]:
        """The packed payload for a job plus where it came from."""
        memo = self._memo_get(record.digest)
        if memo is not None:
            self._count("memo_hits")
            return memo, "memo"
        if record.request.kind == "figure":
            payload, source = self._run_figure(record.request), "executed"
        else:
            payload, source = self._obtain_cached(record)
        self._memo_put(record.digest, payload)
        return payload, source

    def _obtain_cached(self, record: JobRecord) -> tuple[dict, str]:
        """Resolve a g5 or sampled job on the engine (disk probe,
        execution on the shared pool, store) under this scheduler's
        timeout, drain-abort and crash-retry policy."""
        request = record.request
        job = request.g5 or request.sampled
        source = "executed"              # whatever fails was a miss
        try:
            resolved = self._resolve_with_retry(record, job)
            source = resolved.source
        finally:
            self._count("disk_hits" if source == "disk-cache"
                        else "cache_misses")
        if source == "executed":
            self._maybe_prune()
        return resolved.payload, source

    def _run_figure(self, request: JobRequest) -> dict:
        from ..experiments import FIGURES
        from ..experiments.runner import ExperimentRunner

        module = FIGURES[request.figure_id]
        runner = ExperimentRunner(scale=request.scale,
                                  max_records=request.max_records,
                                  jobs=1, cache=self.cache)
        runner.prefetch_figures([module])
        figure = module.run(runner)
        stats = runner.cache_stats()
        self.stats.note_executed_batch(stats["g5_executed"])
        self.stats.note_disk_hit(stats["g5_disk_hits"])
        return {"kind": "figure", "figure": request.figure_id,
                "scale": request.scale,
                "max_records": request.max_records,
                "rendered": figure.render(),
                "g5_executed": stats["g5_executed"],
                "g5_disk_hits": stats["g5_disk_hits"]}

    # ------------------------------------------------------------------
    # execution with timeout + crash retry
    # ------------------------------------------------------------------
    def _resolve_with_retry(self, record: JobRecord, job):
        last_crash: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            record.attempts = attempt + 1
            if attempt:
                self._count("retries")
                clock.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                resolved = self.engine.resolve(
                    [job], self._interrupt(record.request.kind))[job]
            except (BrokenExecutor, WorkerCrashed) as exc:
                last_crash = exc
                self._reset_pool()
                continue
            if resolved.source == "disk-cache":
                record.attempts = attempt    # a hit is not an execution
            return resolved
        raise WorkerCrashed(
            f"execution crashed {self.max_retries + 1} time(s); "
            f"last error: {last_crash}")

    def _interrupt(self, kind: str) -> Optional[Callable[[], bool]]:
        """The engine's abort poll for one attempt: a drain aborts a
        sampled fan-out (in-flight g5 jobs finish); a g5 job that
        outlives the per-job budget raises :class:`JobTimeout`."""
        if kind == "sample":
            return lambda: self._stop.is_set() or self.queue.draining
        if self.job_timeout is None:
            return None
        deadline = clock.monotonic() + self.job_timeout

        def check() -> bool:
            if clock.monotonic() > deadline:
                raise JobTimeout(
                    f"job exceeded the {self.job_timeout:.1f}s budget")
            return False
        return check

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
    def _memo_get(self, digest: str) -> Optional[dict]:
        with self._memo_lock:
            return self._memo.get(digest)

    def _memo_put(self, digest: str, payload: dict) -> None:
        with self._memo_lock:
            self._memo[digest] = payload
            while len(self._memo) > MEMO_CAPACITY:
                self._memo.pop(next(iter(self._memo)))

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
