"""The fleet coordinator: admission, routing, dispatch, and failover.

The coordinator accepts the same job documents as a single daemon —
:meth:`CoordinatorServer.routes` is the daemon's job API plus the
worker control plane — and farms them out to registered workers.  Its
job table is the daemon's own :class:`~repro.serve.queue.JobQueue`, so
coalescing (fleet-wide: with digest routing, N identical requests cost
one execution on one worker), admission depth, drain-cancel and bounded
history are the queue's.  What the coordinator adds:

- **admission** — submissions are also rejected (429, with the
  daemon's constant Retry-After) while every live worker reports a
  saturated queue; that is how worker-level backpressure propagates
  end to end;
- **dispatch** — ``dispatchers`` threads claim the cheapest-priced
  job that has a route through the registry's rendezvous hash, submit
  it to the worker over the ordinary
  :class:`~repro.serve.client.ServeClient`, and park on the worker
  until it settles (``?wait=``: a hit costs the worker one request);
- **failover** — a worker that refuses connections, 429s, or misses
  heartbeats gets its jobs requeued with that worker excluded, so the
  retry deterministically lands on the digest's next-choice worker;
  jobs fail only after ``max_job_attempts`` distinct attempts.

A job's ETA and claim order are its static price
(:func:`~repro.serve.scheduler.predict_request`), as on a daemon.
"""

from __future__ import annotations

import json
import threading
import urllib.error
from dataclasses import dataclass, field
from typing import ClassVar, Optional, TextIO

from ..serve import clock
from ..serve.client import ServeClient, ServeError
from ..serve.daemon import job_routes
from ..serve.http import API_PREFIX, Route, Service, run_until_signal
from ..serve.jobs import (CANCELLED, DONE, FAILED, QUEUED, JobRecord,
                          JobRequestError, parse_job_request)
from ..serve.metrics import MetricsRegistry, endpoint_histograms
from ..serve.queue import JobQueue, QueueFull, ServerDraining
from ..serve.scheduler import predict_request
from .registry import WorkerInfo, WorkerRegistry

__all__ = ["Coordinator", "CoordinatorConfig", "CoordinatorServer",
           "FleetJob", "run_coordinator"]

#: Coordinator-side job state between queued and terminal.
DISPATCHED = "dispatched"


@dataclass
class CoordinatorConfig:
    """Everything ``repro-g5 fleet coordinator`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8090
    heartbeat_timeout: float = 3.0
    heartbeat_interval: float = 0.5
    max_pending: int = 256
    max_job_attempts: int = 3
    dispatchers: int = 8
    job_timeout: float = 300.0
    quiet: bool = True
    log: Optional[TextIO] = None


@dataclass
class FleetJob(JobRecord):
    """The daemon's job record plus where the coordinator sent it."""

    claimed_state: ClassVar[str] = DISPATCHED

    #: the submitted document, forwarded to the worker as is
    doc: dict = field(default_factory=dict)
    worker_id: Optional[str] = None
    remote_id: Optional[str] = None
    #: workers that already failed this job (excluded from re-routing)
    excluded: set = field(default_factory=set)

    def status_doc(self) -> dict:
        doc = super().status_doc()
        # A coordinator never starts a job itself and keeps the
        # submitted document private; it says where the job went.
        del doc["request"], doc["started_at"]
        doc.update(label=self.request.label, worker=self.worker_id,
                   remote_id=self.remote_id)
        return doc


class Coordinator:
    """Routing/admission brain; :class:`CoordinatorServer` serves it."""

    def __init__(self, config: CoordinatorConfig, log) -> None:
        self.config = config
        self.log = log
        self.registry = WorkerRegistry(
            heartbeat_timeout=config.heartbeat_timeout)
        self.queue = JobQueue(max_depth=config.max_pending)
        #: guards job ids and each job's dispatch state (worker,
        #: attempts, exclusions); taken before the queue's lock.
        self._lock = threading.Lock()
        #: one client per worker URL, made when the worker registers
        self._clients: dict[str, ServeClient] = {}
        self._next_job = 0
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started_at = clock.wall()
        self._build_metrics()

    def _build_metrics(self) -> None:
        reg = MetricsRegistry()
        self.metrics_registry = reg
        self.m_submitted = reg.counter(
            "repro_fleet_jobs_submitted_total",
            "Jobs accepted by the coordinator")
        self.m_coalesced = reg.counter(
            "repro_fleet_jobs_coalesced_total",
            "Submissions coalesced onto an identical in-flight job")
        self.m_rejected = reg.counter(
            "repro_fleet_jobs_rejected_total",
            "Submissions rejected by admission control")
        self.m_completed = {
            state: reg.counter(
                "repro_fleet_jobs_completed_total",
                "Jobs reaching a terminal state, by state",
                labels={"state": state})
            for state in (DONE, FAILED, CANCELLED)}
        self.m_dispatches = reg.counter(
            "repro_fleet_dispatches_total",
            "Job dispatches to workers, including re-dispatches")
        self.m_redispatches = reg.counter(
            "repro_fleet_redispatches_total",
            "Jobs re-routed after a worker failure or rejection")
        self.m_worker_deaths = reg.counter(
            "repro_fleet_worker_deaths_total",
            "Workers declared dead by heartbeat timeout")
        reg.gauge("repro_fleet_jobs_pending",
                  "Jobs queued at the coordinator awaiting dispatch",
                  fn=self.queue.depth)
        reg.gauge("repro_fleet_workers_live",
                  "Workers currently routable",
                  fn=lambda: len(self.registry.live_workers()))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for index in range(self.config.dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"fleet-dispatch-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)
        monitor = threading.Thread(target=self._monitor_loop,
                                   name="fleet-monitor", daemon=True)
        monitor.start()
        self._threads.append(monitor)

    def stop(self, timeout: Optional[float] = 2.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()

    def drain(self) -> dict:
        """Stop admitting; cancel everything still queued."""
        cancelled = self.queue.start_drain()
        self.m_completed[CANCELLED].inc(len(cancelled))
        return {"draining": True, "cancelled": len(cancelled),
                "dispatched_at_drain": self.queue.running()}

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------
    def submit_response(self, doc: object) -> tuple:
        try:
            request = parse_job_request(doc)
        except JobRequestError as exc:
            return 400, {"error": str(exc)}
        with self._lock:
            self._next_job += 1
            job_id = f"f{self._next_job}"
        job = FleetJob(
            id=job_id, request=request, digest=request.digest(),
            predicted_seconds=predict_request(request),
            doc=dict(doc))
        live = self.registry.live_workers()
        try:
            # Worker backpressure, propagated end to end.  A duplicate
            # of an in-flight job costs no capacity and still coalesces.
            if (live and all(worker.saturated for worker in live)
                    and not self.queue.draining
                    and self.queue.inflight(job.digest) is None):
                raise QueueFull("every worker reports a full queue")
            self.queue.submit(job)
        except ServerDraining:
            self.m_rejected.inc()
            return 503, {"error": "coordinator is draining",
                         "state": "rejected"}
        except QueueFull as exc:
            self.m_rejected.inc()
            return (429, {"error": str(exc), "state": "rejected",
                          "pending": self.queue.depth()},
                    {"Retry-After": "1"})
        self.m_submitted.inc()
        if job.coalesced_into is not None:
            self.m_coalesced.inc()
        return 202, {"id": job.id, "state": job.state,
                     "digest": job.digest,
                     "coalesced_into": job.coalesced_into,
                     "eta_seconds": round(job.predicted_seconds, 4),
                     "pending": self.queue.depth()}

    def fleet_doc(self) -> dict:
        counts = self.queue.counts()
        return {
            "uptime_seconds": round(clock.wall() - self._started_at, 3),
            "draining": self.queue.draining,
            "workers": [w.status_doc() for w in self.registry.workers()],
            "jobs": {state: counts[state]
                     for state in (QUEUED, DISPATCHED, DONE, FAILED,
                                   CANCELLED) if counts.get(state)},
            "pending": counts["depth"],
        }

    def health_doc(self) -> dict:
        draining = self.queue.draining
        return {"status": "draining" if draining else "ok",
                "draining": draining,
                "workers_live": len(self.registry.live_workers())}

    # ------------------------------------------------------------------
    # worker control plane
    # ------------------------------------------------------------------
    def register_response(self, doc: object) -> tuple[int, dict]:
        if not isinstance(doc, dict) or not isinstance(doc.get("url"),
                                                       str):
            return 400, {"error": "registration needs a 'url' string"}
        worker = self.registry.register(doc["url"])
        self._clients[worker.url] = ServeClient(worker.url, timeout=30.0)
        self.registry.heartbeat(worker.id, doc.get("report") or {})
        self.log(f"worker {worker.id} registered at {worker.url}")
        return 200, {"id": worker.id,
                     "heartbeat_interval": self.config.heartbeat_interval,
                     "heartbeat_timeout": self.config.heartbeat_timeout,
                     "peers": self.registry.peers_doc()}

    def heartbeat_response(self, worker_id: str,
                           doc: object) -> tuple[int, dict]:
        report = doc if isinstance(doc, dict) else {}
        worker = self.registry.heartbeat(worker_id, report)
        if worker is None:
            return 404, {"error": f"unknown worker {worker_id!r}; "
                                  "re-register"}
        return 200, {"ok": True, "state": worker.state,
                     "peers": self.registry.peers_doc()}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            route: dict[str, Optional[WorkerInfo]] = {}

            def routable(job: FleetJob) -> bool:
                worker = route[job.id] = self.registry.route(
                    job.digest, exclude=tuple(job.excluded))
                return worker is not None and not worker.saturated

            # Wakes on the queue's condition; the timeout only bounds
            # how stale a "no routable worker" verdict can get.
            job = self.queue.claim_next(self.config.heartbeat_interval,
                                        accept=routable)
            if job is None:
                if self.queue.draining:
                    return
                continue
            worker = route[job.id]
            with self._lock:
                job.worker_id = worker.id
                job.attempts += 1
                worker.jobs_dispatched += 1
            self.m_dispatches.inc()
            self._run_on_worker(job, worker)

    def _run_on_worker(self, job: FleetJob, worker: WorkerInfo) -> None:
        """Submit one job to one worker and park on it to a verdict.

        The submission itself waits, so a hit comes back inline (one
        request); a longer job is re-awaited on the worker's result
        route, one heartbeat interval at a time so a re-route, a stop
        or the job timeout is noticed that promptly.
        """
        client = self._clients[worker.url]
        deadline = clock.monotonic() + self.config.job_timeout
        wait = self.config.heartbeat_interval
        remote_id = None
        try:
            reply = client.submit_doc(job.doc, wait=wait)
            remote_id = job.remote_id = reply["id"]
            while "result" not in reply:     # the 202 ack: not settled yet
                if self._stop.is_set() or not self._owns(job, worker):
                    return  # e.g. the monitor re-routed it under us
                if clock.monotonic() >= deadline:
                    self._settle(job, worker, FAILED,
                                 error=f"timed out after "
                                       f"{self.config.job_timeout:.0f}s on "
                                       f"worker {worker.id}")
                    return
                try:
                    reply = client.result(remote_id, wait=wait)
                except ServeError as exc:
                    if exc.status != 409 \
                            or exc.doc.get("state") == CANCELLED:
                        raise
        except ServeError as exc:
            state = exc.doc.get("state")
            if state in (FAILED, CANCELLED):
                self._settle(job, worker, FAILED,
                             error=f"worker {worker.id} reported "
                                   f"{state}: {exc.doc.get('error')}")
            elif exc.status == 429:
                # Worker backpressure: remember the saturation so
                # admission propagates it, and try another worker.
                self.registry.heartbeat(worker.id, {
                    "queue_depth": max(1, worker.max_queue),
                    "max_queue": max(1, worker.max_queue)})
                self._requeue(job, worker, exclude=False,
                              why="worker queue full",
                              count_attempt=False)
            elif remote_id is None:
                self._settle(job, worker, FAILED,
                             error=f"worker {worker.id} rejected job: "
                                   f"{exc}")
            else:
                self._requeue(job, worker, exclude=True,
                              why=f"lost worker mid-run: {exc}")
            return
        except (urllib.error.URLError, OSError) as exc:
            self._requeue(job, worker, exclude=True,
                          why=f"connection failed: {exc}")
            return
        # Stored as its JSON text, like a daemon's result: the relayed
        # dict is dropped here and every reply splices the text in.
        self._settle(job, worker, DONE,
                     result=json.dumps(reply["result"], sort_keys=True),
                     source=reply.get("source"))

    # ------------------------------------------------------------------
    # job settlement
    # ------------------------------------------------------------------
    @staticmethod
    def _owns(job: FleetJob, worker: WorkerInfo) -> bool:
        """Whether ``job`` is still dispatched to ``worker`` (a late
        verdict from a worker it was re-routed away from is void)."""
        return job.state == DISPATCHED and job.worker_id == worker.id

    def _settle(self, job: FleetJob, worker: WorkerInfo, state: str,
                **outcome) -> None:
        """Finish a job (and its waiters) on ``worker``'s verdict."""
        with self._lock:
            if not self._owns(job, worker):
                return
            if state == DONE:
                worker.jobs_completed += 1
            for settled in self.queue.finish(
                    job, state=state, finished_at=clock.wall(), **outcome):
                self.m_completed[settled.state].inc()

    def _requeue(self, job: FleetJob, worker: WorkerInfo, *,
                 exclude: bool, why: str,
                 count_attempt: bool = True) -> None:
        """Send a dispatched job back to the queue (or fail it for
        good)."""
        with self._lock:
            if not self._owns(job, worker):
                return
            if exclude:
                job.excluded.add(worker.id)
            if not count_attempt:
                # Backpressure bounce, not a failure: don't burn one of
                # the job's attempts on a momentarily-full queue.
                job.attempts -= 1
            if job.attempts < self.config.max_job_attempts:
                job.worker_id = job.remote_id = None
                self.queue.requeue(job)
                self.m_redispatches.inc()
                self.log(f"requeued {job.id} ({why})")
                return
        self._settle(job, worker, FAILED,
                     error=f"gave up after {job.attempts} attempt(s); "
                           f"last: {why}")

    # ------------------------------------------------------------------
    # failure monitor
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(timeout=self.config.heartbeat_interval):
            for worker in self.registry.sweep():
                self.m_worker_deaths.inc()
                self.log(f"worker {worker.id} missed heartbeats "
                         f"(> {self.registry.heartbeat_timeout:.1f}s); "
                         "re-routing its jobs")
                for job in self.queue.running_records():
                    if job.worker_id == worker.id:
                        self._requeue(job, worker, exclude=True,
                                      why=f"worker {worker.id} died")


class CoordinatorServer(Service):
    """A :class:`Coordinator` on the serving core."""

    tag = "fleet"

    def __init__(self, config: CoordinatorConfig) -> None:
        self.coordinator = Coordinator(config, log=self.log)
        super().__init__(config)
        self.request_seconds = endpoint_histograms(
            self.coordinator.metrics_registry,
            "repro_fleet_request_seconds",
            sorted({route.endpoint for route in self.routes()}
                   | {"other"}))

    def routes(self) -> list[Route]:
        coord = self.coordinator
        workers = f"{API_PREFIX}/workers"
        return [
            *job_routes(coord.queue, coord.submit_response),
            Route("GET", f"{API_PREFIX}/fleet", "fleet",
                  lambda: (200, coord.fleet_doc())),
            Route("GET", "/healthz", "health",
                  lambda: (200, coord.health_doc())),
            Route("GET", "/metrics", "metrics",
                  lambda: (200, coord.metrics_registry.render())),
            Route("POST", f"{API_PREFIX}/drain", "drain",
                  lambda: (202, self.drain_response())),
            Route("POST", f"{workers}/register", "register",
                  coord.register_response, body="json"),
            Route("POST", f"{workers}/<id>/heartbeat", "heartbeat",
                  coord.heartbeat_response, body="json"),
        ]

    def observe_request(self, endpoint: str, seconds: float) -> None:
        self.request_seconds[endpoint].observe(seconds)

    def start(self) -> None:
        self.coordinator.start()
        super().start()

    def drain_response(self) -> dict:
        report = self.coordinator.drain()
        self.request_shutdown()
        return report

    def _drain(self) -> dict:
        report = self.coordinator.drain()
        self.coordinator.stop()
        return report


def run_coordinator(config: CoordinatorConfig) -> int:
    """``repro-g5 fleet coordinator`` body: serve until SIGTERM/SIGINT."""
    server = CoordinatorServer(config)
    return run_until_signal(
        server,
        lambda: (f"[fleet] coordinator listening on {server.address} "
                 f"({config.dispatchers} dispatcher(s), heartbeat "
                 f"timeout {config.heartbeat_timeout:.1f}s)"),
        "[fleet] coordinator drained: {cancelled} cancelled, "
        "{dispatched_at_drain} still on workers")
