"""Simulation-as-a-service: the `repro-g5 serve` daemon.

The serving axis of the ROADMAP: a long-running HTTP/JSON service that
lets many clients share the executor's caching and pooling wins
concurrently.  Submissions dedupe onto identical in-flight jobs by
their exec-cache key (request coalescing), queued work is ordered by
the cost model's duration estimates, results resolve memo → disk cache
→ process pool, and everything the daemon does is observable at
``/metrics`` in Prometheus text format.

Pieces: :mod:`~repro.serve.jobs` (job model), :mod:`~repro.serve.queue`
(admission control + coalescing), :mod:`~repro.serve.scheduler`
(workers, timeouts, crash retry), :mod:`~repro.serve.http` (the
serving core the fleet shares: handler, lifecycle, signal loop),
:mod:`~repro.serve.daemon` (the daemon's routes),
:mod:`~repro.serve.client` (blocking stdlib client),
:mod:`~repro.serve.metrics` (registry), :mod:`~repro.serve.clock` (the
one sanctioned wall-clock window).
"""

from .client import ServeClient, ServeError
from .daemon import ServeConfig, SimServer, serve
from .jobs import (
    JobRecord,
    JobRequest,
    JobRequestError,
    parse_job_request,
)
from .metrics import MetricsRegistry, ServeMetrics
from .queue import JobQueue, QueueFull, ServerDraining
from .scheduler import JobTimeout, Scheduler, WorkerCrashed

__all__ = [
    "JobQueue",
    "JobRecord",
    "JobRequest",
    "JobRequestError",
    "JobTimeout",
    "MetricsRegistry",
    "QueueFull",
    "Scheduler",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeMetrics",
    "ServerDraining",
    "SimServer",
    "WorkerCrashed",
    "parse_job_request",
    "serve",
]
