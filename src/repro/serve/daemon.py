"""`repro.serve` daemon: queue + scheduler on the serving core.

:class:`SimServer` owns the queue, the scheduler and the metrics, and
answers the routes in :meth:`SimServer.routes`; the HTTP handler, the
lifecycle (``start`` / ``request_shutdown`` / ``wait``) and the signal
loop are :mod:`repro.serve.http`'s.

**Graceful drain.**  A shutdown request (SIGTERM, SIGINT, or
``POST /api/v1/drain``) flips the queue into draining mode: new
submissions get 503, everything still queued is reported ``cancelled``,
and the workers finish the jobs they are already running before the
HTTP listener stops.  :func:`serve` — the ``repro-g5 serve`` entry
point — returns exit code 0 on any clean drain, which is what the
SIGTERM acceptance test pins.

A fleet worker's server (``fleet.worker.WorkerServer``) is this class
plus the shared-store route; a plain daemon serves no store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO

from ..exec.cache import ResultCache
from . import clock
from .http import API_PREFIX, JSONText, Route, Service, run_until_signal
from .jobs import JobRecord, JobRequestError, parse_job_request
from .metrics import ServeMetrics
from .queue import JobQueue, QueueFull, ServerDraining
from .scheduler import Scheduler

__all__ = ["ServeConfig", "SimServer", "job_routes", "serve"]


@dataclass
class ServeConfig:
    """Everything `repro-g5 serve` can tune."""

    host: str = "127.0.0.1"
    port: int = 8091
    workers: int = 2
    max_queue: int = 64
    cache: Optional[ResultCache] = None
    job_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.25
    cache_max_bytes: Optional[int] = None
    quiet: bool = True
    #: stream for http/lifecycle lines (printed unless ``quiet``)
    log: Optional[TextIO] = None


def job_routes(queue: JobQueue, submit) -> list[Route]:
    """The job API over a job table: ``submit`` (the application's
    admission: the 202 acknowledgement or a rejection), status and
    result.  The coordinator's jobs live in a :class:`JobQueue` too, so
    it serves these as is.  With ``?wait=`` each parks the request on
    the job's ``finished`` event (set by a finish or a drain's cancel)
    instead of answering "not yet".  A result reply splices the
    record's stored JSON text in, so no reply re-encodes a payload."""

    def parked(answer):
        def route(job_id: str, wait: float) -> tuple[int, dict]:
            record = queue.get(job_id)
            if record is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            record.finished.wait(wait)
            return answer(record)
        return route

    def submit_and_wait(doc: object, wait: float) -> tuple:
        # Settled within the wait: answered as the result route would.
        reply = submit(doc)
        if reply[0] == 202 and wait:
            record = queue.get(reply[1]["id"])
            if record is not None and record.finished.wait(wait):
                return result(record)
        return reply

    def status(record: JobRecord) -> tuple[int, dict]:
        return 200, record.status_doc()

    def result(record: JobRecord) -> tuple[int, dict]:
        if record.state == "done":
            return 200, {"id": record.id, "state": record.state,
                         "source": record.source,
                         "result": JSONText(record.result)}
        if record.state == "failed":
            return 500, {"id": record.id, "state": record.state,
                         "error": record.error}
        return 409, {"id": record.id, "state": record.state,
                     "error": f"job is {record.state}, not done"}

    return [
        Route("POST", f"{API_PREFIX}/jobs", "submit", submit_and_wait,
              body="json", wait=True),
        Route("GET", f"{API_PREFIX}/jobs/<id>", "status",
              parked(status), wait=True),
        Route("GET", f"{API_PREFIX}/jobs/<id>/result", "result",
              parked(result), wait=True),
    ]


class SimServer(Service):
    """The simulation service: one instance per daemon process."""

    def __init__(self, config: ServeConfig,
                 execute_fn=None) -> None:
        self.metrics = ServeMetrics()
        self.queue = JobQueue(max_depth=config.max_queue)
        self.scheduler = Scheduler(
            self.queue,
            cache=config.cache,
            workers=config.workers,
            job_timeout=config.job_timeout,
            max_retries=config.max_retries,
            backoff_base=config.backoff_base,
            cache_max_bytes=config.cache_max_bytes,
            metrics=self.metrics,
            execute_fn=execute_fn)
        self.metrics.attach_queue(self.queue)
        self.metrics.attach_engine(self.scheduler.stats)
        self._started_at = clock.wall()
        super().__init__(config)

    def routes(self) -> list[Route]:
        return [
            *job_routes(self.queue, self.submit_response),
            Route("GET", f"{API_PREFIX}/stats", "stats",
                  lambda: (200, self.stats_doc())),
            Route("GET", "/healthz", "health",
                  lambda: (200, self.health_doc())),
            Route("GET", "/metrics", "metrics",
                  lambda: (200, self.metrics.render())),
            Route("POST", f"{API_PREFIX}/drain", "drain",
                  lambda: (202, self.drain_response())),
        ]

    def observe_request(self, endpoint: str, seconds: float) -> None:
        self.metrics.observe_request(endpoint, seconds)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, run_scheduler: bool = True) -> None:
        """Start serving.  ``run_scheduler=False`` accepts submissions
        without executing them (tests use this to stage a queue state
        deterministically, then call ``self.scheduler.start()``)."""
        if run_scheduler:
            self.scheduler.start()
        super().start()

    def _drain(self) -> dict:
        """Cancel what is queued, wait for what is running."""
        cancelled = self.queue.start_drain()
        self.metrics.completed["cancelled"].inc(len(cancelled))
        for record in self.queue.running_records():
            record.finished.wait()
        self.scheduler.stop(timeout=2.0)
        counts = self.queue.counts()
        return {"cancelled": len(cancelled),
                "done": counts["done"],
                "failed": counts["failed"],
                "uptime_seconds": round(
                    clock.wall() - self._started_at, 3)}

    # ------------------------------------------------------------------
    # application responses (the route table's callables)
    # ------------------------------------------------------------------
    def submit_response(self, doc: object) -> tuple:
        """Admit a job document.  A memo hit is answered here, on the
        request thread: admitted already done, it never enters the
        queue, wakes a worker or is priced by the cost model."""
        try:
            request = parse_job_request(doc)
        except JobRequestError as exc:
            return 400, {"error": str(exc)}
        record = JobRecord(id=self.queue.next_id(), request=request,
                           digest=request.digest())
        memo = self.scheduler.memo_get(record.digest)
        try:
            if memo is None:
                record.predicted_seconds = self.scheduler.predict(request)
                self.queue.submit(record)
            else:
                record.started_at = clock.wall()
                self.queue.submit_settled(record, result=memo,
                                          source="memo",
                                          finished_at=record.started_at)
        except ServerDraining as exc:
            self.metrics.rejected.inc()
            return 503, {"error": str(exc), "state": "rejected"}
        except QueueFull as exc:
            self.metrics.rejected.inc()
            return (429, {"error": str(exc), "state": "rejected",
                          "queue_depth": self.queue.depth(),
                          "max_queue": self.queue.max_depth},
                    {"Retry-After": "1"})
        self.metrics.submitted.inc()
        if record.coalesced_into is not None:
            self.metrics.coalesced.inc()
        if memo is not None:
            self.metrics.memo_hits.inc()
            self.metrics.completed[record.state].inc()
        return 202, {
            "id": record.id,
            "state": record.state,
            "digest": record.digest,
            "coalesced_into": record.coalesced_into,
            "eta_seconds": round(record.predicted_seconds, 4),
            "queue_depth": self.queue.depth(),
        }

    def stats_doc(self) -> dict:
        counts = self.queue.counts()
        return {
            "uptime_seconds": round(clock.wall() - self._started_at, 3),
            "queue": counts,
            "engine": self.scheduler.stats.as_dict(),
            "draining": self.queue.draining,
            "workers": self.config.workers,
            "max_queue": self.config.max_queue,
            "cache_dir": (str(self.config.cache.root)
                          if self.config.cache is not None else None),
        }

    def health_doc(self) -> dict:
        return {"status": "draining" if self.queue.draining else "ok",
                "draining": self.queue.draining}

    def drain_response(self) -> dict:
        """Initiate a full graceful shutdown over HTTP."""
        counts_before = self.queue.counts()
        self.request_shutdown()
        return {"draining": True,
                "queued_at_drain": counts_before["depth"],
                "running_at_drain": counts_before["running"]}


def serve(config: ServeConfig) -> int:
    """The ``repro-g5 serve`` body: run the daemon until SIGTERM/SIGINT."""
    server = SimServer(config)
    cache_note = (str(config.cache.root) if config.cache is not None
                  else "disabled")
    return run_until_signal(
        server,
        lambda: (f"[serve] listening on {server.address} "
                 f"({config.workers} worker(s), queue depth "
                 f"{config.max_queue}, cache {cache_note})"),
        "[serve] drained: {done} done, {cancelled} cancelled, "
        "{failed} failed in {uptime_seconds:.1f}s")
