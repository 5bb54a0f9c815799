"""A fleet worker: the ordinary daemon plus a coordinator agent.

:class:`FleetWorker` runs a :class:`WorkerServer` — the stock
:class:`~repro.serve.daemon.SimServer` plus one route — with three
fleet-specific behaviours:

- its cache is a :class:`~repro.fleet.store.FleetCache`, so cache
  misses read through to live peer workers;
- its one extra route, the shared store, serves *this* worker's
  verified cache envelopes to those peers;
- an agent thread registers with the coordinator and heartbeats at the
  coordinator-assigned interval, reporting queue depth (which is how
  worker backpressure reaches coordinator admission) and refreshing
  the peer list from every heartbeat response.

The agent is deliberately resilient: a coordinator restart surfaces as
a 404 on heartbeat (re-register) or a connection error (keep trying);
the worker keeps serving direct traffic throughout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO, Union

from ..serve import clock
from ..serve.client import ServeClient, ServeError
from ..serve.daemon import ServeConfig, SimServer
from ..serve.http import API_PREFIX, Route, run_until_signal
from .store import FleetCache

__all__ = ["FleetWorker", "WorkerConfig", "WorkerServer", "run_worker"]


@dataclass
class WorkerConfig:
    """Everything ``repro-g5 fleet worker`` can tune."""

    coordinator_url: str = "http://127.0.0.1:8090"
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    max_queue: int = 64
    cache_root: Union[str, Path, None] = None
    job_timeout: Optional[float] = None
    #: URL peers should use to reach this worker (defaults to the
    #: bound address; set when workers sit behind distinct hostnames).
    advertise_url: Optional[str] = None
    quiet: bool = True
    log: Optional[TextIO] = None


class WorkerServer(SimServer):
    """The daemon plus the shared-store route peers read through."""

    def routes(self) -> list[Route]:
        return [*super().routes(),
                Route("GET", f"{API_PREFIX}/store/<digest>", "store",
                      self.store_get_response)]

    def store_get_response(self, digest: str):
        """``(200, bytes)``: the verified envelope, checksummed by the
        handler; a JSON 404 when this worker holds no valid entry."""
        blob = self.config.cache.raw_get(digest)
        if blob is None:
            return 404, {"error": f"no entry for digest {digest!r}"}
        return 200, blob


class FleetWorker:
    """One worker daemon wired into a coordinator."""

    def __init__(self, config: WorkerConfig, execute_fn=None) -> None:
        self.config = config
        self.cache = FleetCache(config.cache_root)
        serve_config = ServeConfig(host=config.host, port=config.port,
                                   workers=config.workers,
                                   max_queue=config.max_queue,
                                   cache=self.cache,
                                   job_timeout=config.job_timeout,
                                   quiet=config.quiet, log=config.log)
        self.server = WorkerServer(serve_config, execute_fn=execute_fn)
        self.url = config.advertise_url or self.server.address
        self.cache.self_url = self.url.rstrip("/")
        self.coordinator = ServeClient(config.coordinator_url)
        self.worker_id: Optional[str] = None
        self.heartbeat_interval = 0.5
        self._agent: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.server.start()
        self.register()
        self._agent = threading.Thread(target=self._agent_loop,
                                       name="fleet-agent", daemon=True)
        self._agent.start()

    def stop(self) -> dict:
        """Stop heartbeating and drain the underlying daemon."""
        self._stop.set()
        if self._agent is not None:
            self._agent.join(timeout=2.0)
            self._agent = None
        return self.server.drain_and_stop()

    def wait(self) -> dict:
        """Serve until the daemon is asked to shut down."""
        report = self.server.wait()
        self._stop.set()
        return report

    def request_shutdown(self) -> None:
        self.server.request_shutdown()

    # ------------------------------------------------------------------
    # coordinator agent
    # ------------------------------------------------------------------
    def _report(self) -> dict:
        return {"queue_depth": self.server.queue.depth(),
                "max_queue": self.config.max_queue}

    def register(self) -> bool:
        """One registration attempt; returns success."""
        try:
            reply = self.coordinator._json(
                "POST", "/api/v1/workers/register",
                {"url": self.url, "report": self._report()})
        except (ServeError, OSError):
            return False
        self.worker_id = reply["id"]
        self.heartbeat_interval = float(
            reply.get("heartbeat_interval", self.heartbeat_interval))
        self.cache.set_peers(reply.get("peers") or [])
        return True

    def heartbeat(self) -> bool:
        """One heartbeat; re-registers if the coordinator forgot us."""
        if self.worker_id is None:
            return self.register()
        try:
            reply = self.coordinator._json(
                "POST", f"/api/v1/workers/{self.worker_id}/heartbeat",
                self._report())
        except ServeError as exc:
            if exc.status == 404:
                self.worker_id = None
                return self.register()
            return False
        except OSError:
            return False
        self.cache.set_peers(reply.get("peers") or [])
        return True

    def _agent_loop(self) -> None:
        while not self._stop.wait(timeout=self.heartbeat_interval):
            self.heartbeat()


def run_worker(config: WorkerConfig) -> int:
    """``repro-g5 fleet worker`` body: serve until SIGTERM/SIGINT."""
    worker = FleetWorker(config)

    def banner() -> str:
        registered = "registered" if worker.worker_id else \
            "coordinator unreachable, will keep retrying"
        return (f"[fleet] worker listening on {worker.url} "
                f"({registered} with {config.coordinator_url})")

    return run_until_signal(
        worker, banner,
        "[fleet] worker drained: {done} done, {cancelled} cancelled, "
        "{failed} failed")
