"""Priority job queue: admission control, coalescing, drain.

The queue is the single synchronisation point between HTTP handler
threads (submitting), scheduler worker threads (claiming and
finishing), and the drain path.  One lock guards all state; a condition
variable wakes idle workers.  The fleet coordinator's job table is
this class too: its dispatchers claim, and requeue what a dead worker
held.

**Scheduling.**  Ready jobs pop in cheapest-first order (priority =
the cost model's static price, ties broken by submission sequence).
A batch CLI wants longest-first to minimise makespan; an interactive
service wants shortest-first to minimise mean response time — a queued
microbenchmark should never wait behind an O3 full-system boot.

**Admission control.**  At most ``max_depth`` jobs may be queued
(running jobs do not count — they occupy workers, not the queue).
Submissions beyond that raise :class:`QueueFull`, which the HTTP layer
maps to ``429 Too Many Requests``.  Coalesced submissions are exempt:
they add a waiter entry to an existing in-flight job instead of queue
depth, which is the whole point of coalescing.  So are memo hits:
the daemon admits one already settled (:meth:`JobQueue.submit_settled`),
so it never occupies the queue or wakes a worker.

**Coalescing.**  Submissions whose digest matches a queued or running
job attach to that primary and complete with it — one execution, many
responses.  The digest is the exec-cache key for g5 jobs, so "identical"
means exactly what the disk cache means by it.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from collections import deque
from concurrent.futures import Future
from typing import Callable, Optional

from .jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING, JobRecord

__all__ = ["JobQueue", "QueueFull", "ServerDraining"]


class QueueFull(Exception):
    """Submission rejected: the queue is at max depth (HTTP 429)."""


class ServerDraining(Exception):
    """Submission rejected: the server is draining (HTTP 503)."""


class JobQueue:
    """Bounded, cost-prioritised queue with in-flight coalescing."""

    def __init__(self, max_depth: int = 64,
                 max_history: int = 4096) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        #: terminal records retained for status/result queries; beyond
        #: this the oldest are forgotten so the daemon's job table is
        #: bounded like its disk cache.
        self.max_history = max_history
        self._terminal_order: deque[str] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: (price, sequence, job id), cheapest first.
        self._queued: list[tuple[float, int, str]] = []
        self._jobs: dict[str, JobRecord] = {}
        #: digest -> primary job id, for every queued or running primary.
        self._inflight: dict[str, str] = {}
        self._seq = itertools.count(1)
        #: settled once, by the first :meth:`start_drain`: a resolve
        #: that waits on it wakes when the drain starts.
        self.drain_started: Future = Future()
        # lifetime counters (monotone; mirrored into /metrics)
        self.submitted = 0
        self.coalesced = 0
        self.rejected = 0
        self.cancelled = 0

    # ------------------------------------------------------------------
    # submission side
    # ------------------------------------------------------------------
    def submit(self, record: JobRecord) -> JobRecord:
        """Admit ``record``; returns the record, now queued or coalesced.

        Raises :class:`ServerDraining` or :class:`QueueFull` when the
        job cannot be admitted; the caller maps those to HTTP statuses.
        """
        with self._lock:
            if self.draining:
                self.rejected += 1
                raise ServerDraining("server is draining")
            primary_id = self._inflight.get(record.digest)
            if primary_id is not None:
                primary = self._jobs[primary_id]
                record.coalesced_into = primary.id
                primary.waiters.append(record.id)
                self._jobs[record.id] = record
                self.submitted += 1
                self.coalesced += 1
                return record
            if self.depth() >= self.max_depth:
                self.rejected += 1
                raise QueueFull(
                    f"queue is full ({self.max_depth} jobs deep)")
            self._jobs[record.id] = record
            self._inflight[record.digest] = record.id
            self._enqueue(record)
            self.submitted += 1
            return record

    def submit_settled(self, record: JobRecord, *, result: str,
                       source: str, finished_at: float) -> JobRecord:
        """Admit ``record`` already done (a memo hit answered on the
        request thread): counted as submitted, settled and retained
        like a finished job, but never queued.

        Raises :class:`ServerDraining` like :meth:`submit`.
        """
        with self._lock:
            if self.draining:
                self.rejected += 1
                raise ServerDraining("server is draining")
            self._jobs[record.id] = record
            self.submitted += 1
            self._settle(record, state=DONE, result=result, error=None,
                         source=source, finished_at=finished_at)
            self._evict_history()
        record.finished.set()
        return record

    def _enqueue(self, record: JobRecord) -> None:
        bisect.insort(self._queued, (record.predicted_seconds,
                                     next(self._seq), record.id))
        self._ready.notify()

    def next_id(self) -> str:
        """A fresh job id (monotone; no entropy, so ids are replayable)."""
        with self._lock:
            return f"j{next(self._seq):08d}"

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def claim_next(self, timeout: Optional[float] = None,
                   accept: Optional[Callable[[JobRecord], bool]] = None
                   ) -> Optional[JobRecord]:
        """Pop the cheapest queued job and mark it claimed.

        With ``accept``, the cheapest job it returns true for (the
        coordinator passes "has a live, unsaturated route"); it runs
        under the queue lock, so it must not call back into the queue.
        Blocks up to ``timeout`` seconds for work; returns None on
        timeout or when draining with nothing to claim (the worker's
        cue to exit its loop).
        """
        with self._ready:
            while True:
                for index, (_, _, job_id) in enumerate(self._queued):
                    record = self._jobs[job_id]
                    if accept is None or accept(record):
                        del self._queued[index]
                        record.state = record.claimed_state
                        return record
                if self.draining or not self._ready.wait(timeout=timeout):
                    return None

    def requeue(self, record: JobRecord) -> bool:
        """Send a claimed job back to the queue (whoever ran it was
        lost); false if the job is no longer claimed."""
        with self._lock:
            if record.state != record.claimed_state:
                return False
            record.state = QUEUED
            self._enqueue(record)
            return True

    def finish(self, record: JobRecord, *, state: str,
               result: Optional[str] = None,
               error: Optional[str] = None,
               source: Optional[str] = None,
               finished_at: Optional[float] = None) -> list[JobRecord]:
        """Complete a primary job and fan its outcome out to waiters.

        Returns every record that reached a terminal state (the primary
        first), so the caller can bump metrics per job.
        """
        if state not in (DONE, FAILED, CANCELLED):
            raise ValueError(f"finish() needs a terminal state, "
                             f"got {state!r}")
        with self._lock:
            settled = self._settle(record, state=state, result=result,
                                   error=error, source=source,
                                   finished_at=finished_at)
            self._evict_history()
        for job in settled:
            job.finished.set()
        return settled

    def _evict_history(self) -> None:
        """Forget the oldest terminal records beyond ``max_history``."""
        while len(self._terminal_order) > self.max_history:
            old_id = self._terminal_order.popleft()
            old = self._jobs.get(old_id)
            if old is not None and old.terminal:
                del self._jobs[old_id]

    def _settle(self, record, *, state, result, error, source,
                finished_at) -> list[JobRecord]:
        record.state = state
        record.result = result
        record.error = error
        record.source = source
        record.finished_at = finished_at
        if self._inflight.get(record.digest) == record.id:
            del self._inflight[record.digest]
        settled = [record]
        for waiter_id in record.waiters:
            waiter = self._jobs.get(waiter_id)
            if waiter is None or waiter.terminal:
                continue
            waiter.state = state
            waiter.result = result
            waiter.error = error
            waiter.source = f"coalesced:{record.id}"
            waiter.finished_at = finished_at
            settled.append(waiter)
        self._terminal_order.extend(job.id for job in settled)
        return settled

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def start_drain(self) -> list[JobRecord]:
        """Refuse new work and cancel everything still queued.

        Running jobs are left to finish.  Returns the cancelled records
        (queued primaries and their waiters).
        """
        with self._lock:
            if not self.draining:
                self.drain_started.set_result(None)
            cancelled: list[JobRecord] = []
            for _, _, job_id in self._queued:
                cancelled.extend(self._settle(
                    self._jobs[job_id], state=CANCELLED, result=None,
                    error="server drained before execution",
                    source=None, finished_at=None))
            self._queued.clear()
            self.cancelled += len(cancelled)
            self._ready.notify_all()
        for job in cancelled:
            job.finished.set()
        return cancelled

    @property
    def draining(self) -> bool:
        return self.drain_started.done()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def inflight(self, digest: str) -> Optional[JobRecord]:
        """The queued or claimed primary a submission would ride."""
        with self._lock:
            return self._jobs.get(self._inflight.get(digest))

    def depth(self) -> int:
        """Queued (not yet claimed) primary jobs."""
        return len(self._queued)

    def running(self) -> int:
        return len(self.running_records())

    def running_records(self) -> list[JobRecord]:
        """Snapshot of the records currently claimed."""
        with self._lock:
            return [job for job in self._jobs.values()
                    if job.state == job.claimed_state]

    def counts(self) -> dict[str, int]:
        """Job counts by state plus lifetime totals."""
        with self._lock:
            by_state = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0,
                        CANCELLED: 0}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {**by_state,
                    "depth": len(self._queued),
                    "submitted": self.submitted,
                    "coalesced": self.coalesced,
                    "rejected": self.rejected,
                    "cancelled_total": self.cancelled}
