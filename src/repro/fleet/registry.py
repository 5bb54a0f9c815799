"""Worker membership: registration, heartbeats, and digest routing.

The registry is the coordinator's single source of truth about the
fleet.  Workers register with their base URL, then heartbeat with a
small load report (queue depth, capacity); a worker whose last
heartbeat is older than the timeout is swept to ``dead`` and its jobs
become re-routable.

Routing uses **rendezvous (highest-random-weight) hashing** over the
live workers: every (digest, worker) pair gets a deterministic score
and the job goes to the top scorer.  Identical jobs therefore always
land on the same worker while it lives — which is what keeps request
coalescing *global* — and when a worker dies only its digests move,
each to its second-choice worker, instead of the wholesale reshuffle a
modulo scheme would cause.

Liveness is measured on the monotonic clock (``serve.clock``), never
wall time, so an NTP step cannot kill a healthy fleet.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Optional

from ..serve import clock

__all__ = ["WorkerInfo", "WorkerRegistry", "rendezvous_score"]

#: Worker lifecycle states.
UP = "up"
DEAD = "dead"


def rendezvous_score(digest: str, worker_id: str) -> int:
    """Deterministic per-(digest, worker) weight for HRW hashing."""
    blob = f"{digest}:{worker_id}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass
class WorkerInfo:
    """One registered worker daemon, as the coordinator sees it."""

    id: str
    url: str
    state: str = UP
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    queue_depth: int = 0
    max_queue: int = 0
    jobs_dispatched: int = 0
    jobs_completed: int = 0
    heartbeats: int = 0

    @property
    def routable(self) -> bool:
        """Whether new jobs may be sent to this worker."""
        return self.state == UP

    @property
    def saturated(self) -> bool:
        """Whether the worker reported a full admission queue."""
        return self.max_queue > 0 and self.queue_depth >= self.max_queue

    def status_doc(self) -> dict:
        return {
            "id": self.id,
            "url": self.url,
            "state": self.state,
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_completed": self.jobs_completed,
            "heartbeats": self.heartbeats,
        }


class WorkerRegistry:
    """Thread-safe membership map with heartbeat-based liveness."""

    def __init__(self, heartbeat_timeout: float = 3.0) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive, got "
                             f"{heartbeat_timeout}")
        self.heartbeat_timeout = heartbeat_timeout
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerInfo] = {}
        self._by_url: dict[str, str] = {}
        self._next_index = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, url: str) -> WorkerInfo:
        """Admit a worker (idempotent per URL: re-registration after a
        restart revives the same id with a fresh heartbeat)."""
        url = url.rstrip("/")
        now = clock.monotonic()
        with self._lock:
            worker_id = self._by_url.get(url)
            if worker_id is None:
                self._next_index += 1
                worker_id = f"w{self._next_index}"
                self._by_url[url] = worker_id
            worker = WorkerInfo(id=worker_id, url=url,
                                registered_at=now, last_heartbeat=now)
            previous = self._workers.get(worker_id)
            if previous is not None:
                worker.jobs_dispatched = previous.jobs_dispatched
                worker.jobs_completed = previous.jobs_completed
            self._workers[worker_id] = worker
            return worker

    def heartbeat(self, worker_id: str,
                  report: Optional[dict] = None) -> Optional[WorkerInfo]:
        """Record a heartbeat; returns None for unknown workers (the
        worker should re-register).  A heartbeat from a ``dead`` worker
        revives it — the process was slow, not gone."""
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return None
            worker.last_heartbeat = clock.monotonic()
            worker.heartbeats += 1
            if worker.state == DEAD:
                worker.state = UP
            if report:
                worker.queue_depth = int(report.get(
                    "queue_depth", worker.queue_depth))
                worker.max_queue = int(report.get(
                    "max_queue", worker.max_queue))
            return worker

    def get(self, worker_id: str) -> Optional[WorkerInfo]:
        with self._lock:
            return self._workers.get(worker_id)

    def workers(self) -> list[WorkerInfo]:
        """Every known worker, stable id order."""
        with self._lock:
            return sorted(self._workers.values(),
                          key=lambda w: int(w.id[1:]))

    def live_workers(self) -> list[WorkerInfo]:
        return [w for w in self.workers() if w.routable]

    # ------------------------------------------------------------------
    # liveness + routing
    # ------------------------------------------------------------------
    def sweep(self) -> list[WorkerInfo]:
        """Mark heartbeat-expired workers dead; returns the newly dead."""
        now = clock.monotonic()
        newly_dead = []
        with self._lock:
            for worker in self._workers.values():
                if worker.state == DEAD:
                    continue
                if now - worker.last_heartbeat > self.heartbeat_timeout:
                    worker.state = DEAD
                    newly_dead.append(worker)
        return newly_dead

    def route(self, digest: str,
              exclude: tuple[str, ...] = ()) -> Optional[WorkerInfo]:
        """The rendezvous-hash winner among routable workers.

        ``exclude`` skips workers that already failed this job, so a
        retry lands on the digest's next-choice worker deterministically.
        """
        candidates = [w for w in self.live_workers()
                      if w.id not in exclude]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda w: (rendezvous_score(digest, w.id), w.id))

    def peers_doc(self) -> list[dict]:
        """The live peer list shipped to workers on every heartbeat
        (feeds each worker's shared-store read-through)."""
        return [{"id": w.id, "url": w.url} for w in self.live_workers()]
