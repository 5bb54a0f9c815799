"""Fixtures for the fleet test suite.

The central piece is :class:`FleetHarness`: a real coordinator plus N
real worker daemons, all on ephemeral ports in one process, with
heartbeat cadence tightened so liveness transitions happen in tens of
milliseconds instead of seconds.  Workers take an optional fake
executor (the serve suite's :class:`GatedExecutor`) so scheduling
behaviour is testable without racing real simulation durations; left
at None, a worker executes real test-scale simulations, which is what
the byte-identity end-to-end tests need.
"""

from __future__ import annotations

import pytest

from repro.fleet.coordinator import CoordinatorConfig, CoordinatorServer
from repro.fleet.worker import FleetWorker, WorkerConfig
from repro.serve import ServeClient, clock

from tests.serve.conftest import GatedExecutor  # noqa: F401 - re-export

#: Fast cadence for tests: death detection within ~0.6s.
FAST = {"heartbeat_timeout": 0.6, "heartbeat_interval": 0.1}

#: Longest :meth:`FleetHarness.add_worker` waits for the peer lists.
PEER_WAIT_SECONDS = 10.0


class FleetHarness:
    """A coordinator and its workers, torn down in one call."""

    def __init__(self, tmp_path, **config_kwargs) -> None:
        self.tmp_path = tmp_path
        kwargs = {**FAST, **config_kwargs}
        self.server = CoordinatorServer(
            CoordinatorConfig(port=0, **kwargs))
        self.server.start()
        self.coordinator = self.server.coordinator
        self.client = ServeClient(self.server.address, timeout=10.0)
        self.workers: list[FleetWorker] = []

    def add_worker(self, execute_fn=None, *, workers: int = 2,
                   max_queue: int = 64,
                   job_timeout=None) -> FleetWorker:
        index = len(self.workers)
        worker = FleetWorker(
            WorkerConfig(coordinator_url=self.server.address,
                         port=0, workers=workers, max_queue=max_queue,
                         cache_root=self.tmp_path / f"cache{index}",
                         job_timeout=job_timeout),
            execute_fn=execute_fn)
        worker.start()
        self.workers.append(worker)
        self.wait_for_peers()
        return worker

    def wait_for_peers(self) -> None:
        """Block until every live worker's peer list names every other
        live worker.

        Registration returns only the peers that already exist, so an
        earlier worker learns of a new one at its next heartbeat; a job
        submitted before then could route a read-through to a worker
        that cannot see the peer holding the result.
        """
        live = [w for w in self.workers if not w._stop.is_set()]
        deadline = clock.monotonic() + PEER_WAIT_SECONDS
        while not all(
                {peer["id"] for peer in worker.cache.peers()}
                >= {other.worker_id for other in live if other is not worker}
                for worker in live):
            if clock.monotonic() > deadline:
                raise AssertionError("the workers never listed each other")
            clock.sleep(0.01)

    def kill_worker(self, worker: FleetWorker) -> None:
        """Abrupt death: stop heartbeats and the HTTP listener without
        draining anything (the in-process stand-in for SIGKILL)."""
        worker._stop.set()
        if worker._agent is not None:
            worker._agent.join(timeout=2.0)
            worker._agent = None
        worker.server.scheduler.stop(timeout=0.5)
        worker.server.httpd.shutdown()
        worker.server.httpd.server_close()

    def stop(self) -> None:
        for worker in self.workers:
            try:
                worker.stop()
            except Exception:
                pass  # already killed by the test
        self.server.drain_and_stop()


@pytest.fixture
def fleet(tmp_path):
    """An empty fleet harness; tests add the workers they need."""
    harness = FleetHarness(tmp_path)
    yield harness
    harness.stop()
