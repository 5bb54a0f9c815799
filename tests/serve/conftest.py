"""Fixtures for the serve test suite.

Two server shapes cover everything:

- ``live_server`` runs real simulations (test-scale, disk-cached in a
  tmp dir) over real HTTP on an ephemeral port — the end-to-end tests
  use it to prove served results match direct in-process runs.
- ``gated_server`` replaces execution with a :class:`GatedExecutor`
  whose completions the test releases explicitly, so coalescing,
  backpressure, timeout, and drain behaviour are exercised without any
  races on real simulation durations.
"""

from __future__ import annotations

import threading

import pytest

from repro.exec.cache import ResultCache
from repro.g5.serialize import pack_sim_result
from repro.g5.system import SimResult
from repro.host.trace import ExecutionRecorder
from repro.serve import ServeClient, ServeConfig, SimServer


def fake_packed(**markers) -> dict:
    """A packed g5 result no simulation produced, tagged with ``markers``.

    It has the real stored-payload shape, because the engine refuses to
    store or serve a payload its decode rule rejects.
    """
    empty = SimResult(exit_cause="fake", sim_ticks=0, sim_insts=0,
                      sim_cycles=0, stats={},
                      recorder=ExecutionRecorder(enabled=False))
    return {**pack_sim_result(empty), "kind": "fake", **markers}


class GatedExecutor:
    """A fake g5 executor the test opens and closes like a valve.

    Each call records the job, then blocks until :meth:`release` (or
    the safety timeout, so a buggy test cannot hang the suite).  The
    returned payload embeds the job label and a call ordinal, making it
    easy to assert exactly how many executions happened.
    """

    def __init__(self, duration: float = 0.01,
                 safety_timeout: float = 10.0) -> None:
        self.gate = threading.Event()
        self.safety_timeout = safety_timeout
        self.duration = duration
        self.calls: list = []
        self._lock = threading.Lock()
        #: exceptions to raise, one per call, before any succeed.
        self.failures: list = []

    def release(self) -> None:
        self.gate.set()

    def __call__(self, job):
        with self._lock:
            ordinal = len(self.calls)
            self.calls.append(job)
            failure = self.failures.pop(0) if self.failures else None
        if failure is not None:
            raise failure
        if not self.gate.wait(timeout=self.safety_timeout):
            raise RuntimeError("GatedExecutor was never released")
        return (fake_packed(label=job.label, ordinal=ordinal),
                self.duration)


def make_server(tmp_path, *, execute_fn=None, workers=1, max_queue=64,
                cache=True, start=True, run_scheduler=True,
                server_class=SimServer,
                **config_kwargs) -> tuple[SimServer, ServeClient]:
    """A SimServer (or ``server_class``) on an ephemeral port plus a
    client pointed at it."""
    result_cache = (ResultCache(tmp_path / "cache") if cache else None)
    config = ServeConfig(port=0, workers=workers, max_queue=max_queue,
                         cache=result_cache, **config_kwargs)
    server = server_class(config, execute_fn=execute_fn)
    if start:
        server.start(run_scheduler=run_scheduler)
    return server, ServeClient(server.address, timeout=10.0)


@pytest.fixture
def live_server(tmp_path):
    """Real-execution server over HTTP; drains on teardown."""
    server, client = make_server(tmp_path, workers=2)
    yield server, client
    server.drain_and_stop()


@pytest.fixture
def gated(tmp_path):
    """Single-worker server with a gated fake executor."""
    executor = GatedExecutor()
    server, client = make_server(tmp_path, execute_fn=executor,
                                 workers=1, max_queue=4)
    yield server, client, executor
    executor.release()
    server.drain_and_stop()
