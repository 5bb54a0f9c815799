"""A small blocking client for the simulation service.

Stdlib-only (``urllib``); used by the test suite, the serve benchmark,
and anything that wants a warm shared daemon instead of running
simulations in-process::

    client = ServeClient("http://127.0.0.1:8091")
    job = client.submit(workload="sieve", cpu="atomic", scale="test")
    status = client.wait(job["id"])         # parked server-side, no polling
    result = client.sim_result(job["id"])   # a real SimResult

Server-side errors surface as :class:`ServeError` carrying the HTTP
status and the decoded error document, so callers can distinguish
backpressure (429) from drain (503) from bad requests (400).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import urllib.error
import urllib.request
from typing import Callable, Optional

from ..g5.serialize import unpack_sim_result
from ..g5.system import SimResult
from . import clock
from .jobs import CANCELLED, TERMINAL_STATES

__all__ = ["ServeClient", "ServeError", "retry_delays"]

#: Transport failures worth retrying: the daemon is cold, restarting,
#: or dropped the connection before answering.
RETRYABLE_ERRORS = (ConnectionRefusedError, ConnectionResetError,
                    http.client.RemoteDisconnected)


def retry_delays(key: str, retries: int, base: float) -> list[float]:
    """The jittered exponential backoff schedule for one request.

    Pure function of its inputs: delay ``i`` is ``base * 2**i`` scaled
    into ``[0.5, 1.0)`` by a hash of ``key`` and the attempt number, so
    a thundering herd of identical clients still spreads out while the
    schedule stays reproducible (and testable) — no live RNG involved.
    """
    delays = []
    for attempt in range(retries):
        seed = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        jitter = 0.5 + (seed[0] / 256.0) * 0.5
        delays.append(base * (2 ** attempt) * jitter)
    return delays


class ServeError(RuntimeError):
    """An HTTP-level failure from the daemon."""

    def __init__(self, status: int, doc: dict) -> None:
        message = doc.get("error") if isinstance(doc, dict) else None
        super().__init__(f"HTTP {status}: {message or doc}")
        self.status = status
        self.doc = doc if isinstance(doc, dict) else {}


class ServeClient:
    """Blocking JSON client over ``urllib`` (no extra dependencies)."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 3, backoff_base: float = 0.05,
                 sleep: Callable[[float], None] = clock.sleep) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self._sleep = sleep

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _open(self, request) -> tuple[int, object]:
        """One attempt on the wire (the retry loop's test seam)."""
        with urllib.request.urlopen(request,
                                    timeout=self.timeout) as reply:
            return reply.status, self._decode(reply)

    def _request(self, method: str, path: str,
                 doc: Optional[dict] = None) -> tuple[int, object]:
        body = None
        headers = {"Accept": "application/json"}
        if doc is not None:
            body = json.dumps(doc).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, headers=headers,
            method=method)
        delays = retry_delays(f"{self.base_url}{path}", self.retries,
                              self.backoff_base)
        attempts = 0
        while True:
            try:
                return self._open(request)
            except urllib.error.HTTPError as exc:
                return exc.code, self._decode(exc)
            except RETRYABLE_ERRORS:
                if attempts >= self.retries:
                    raise
            except urllib.error.URLError as exc:
                # urllib wraps socket-level failures; unwrap and retry
                # the same set (a cold daemon surfaces this way).
                if not isinstance(exc.reason, RETRYABLE_ERRORS) \
                        or attempts >= self.retries:
                    raise
            self._sleep(delays[attempts])
            attempts += 1

    @staticmethod
    def _decode(reply) -> object:
        raw = reply.read().decode()
        content_type = reply.headers.get("Content-Type", "")
        if "json" in content_type:
            return json.loads(raw)
        return raw

    def _json(self, method: str, path: str,
              doc: Optional[dict] = None,
              ok: tuple[int, ...] = (200,),
              wait: Optional[float] = None) -> dict:
        if wait is not None:
            # Parked server-side, for at most half the socket timeout
            # so the reply always beats this client giving up on it.
            path += f"?wait={max(0.0, min(wait, self.timeout / 2)):.3f}"
        status, payload = self._request(method, path, doc)
        if status not in ok:
            raise ServeError(status, payload
                             if isinstance(payload, dict) else {})
        return payload

    # ------------------------------------------------------------------
    # API (``wait``: seconds the server may park the request until the
    # job settles, instead of answering "not yet")
    # ------------------------------------------------------------------
    def submit_doc(self, doc: dict,
                   wait: Optional[float] = None) -> dict:
        """Submit a raw job document; returns the 202 acknowledgement or,
        if the job settles within ``wait``, what :meth:`result` would."""
        return self._json("POST", "/api/v1/jobs", doc, ok=(200, 202),
                          wait=wait)

    def submit(self, workload: Optional[str] = None, cpu: str = "atomic",
               scale: str = "test", mode: Optional[str] = None,
               figure: Optional[str] = None,
               max_records: Optional[int] = None,
               sampled: bool = False) -> dict:
        """Submit a g5 job (default), a figure job (``figure=...``), or
        a sampled simulation (``sampled=True``)."""
        if figure is not None:
            doc: dict = {"kind": "figure", "figure": figure,
                         "scale": scale}
            if max_records is not None:
                doc["max_records"] = max_records
        else:
            doc = {"kind": "g5", "workload": workload, "cpu": cpu,
                   "scale": scale}
            if mode is not None:
                doc["mode"] = mode
            if sampled:
                doc["sampled"] = True
        return self.submit_doc(doc)

    def status(self, job_id: str, wait: Optional[float] = None) -> dict:
        return self._json("GET", f"/api/v1/jobs/{job_id}", wait=wait)

    def result(self, job_id: str, wait: Optional[float] = None) -> dict:
        """The raw result document (``result`` key holds the payload)."""
        return self._json("GET", f"/api/v1/jobs/{job_id}/result",
                          wait=wait)

    def sim_result(self, job_id: str) -> SimResult:
        """The job's payload unpacked into a real :class:`SimResult`."""
        return unpack_sim_result(self.result(job_id)["result"])

    def wait(self, job_id: str, timeout: float = 120.0) -> dict:
        """Park on the status route until the job settles; returns status."""
        deadline = clock.monotonic() + timeout
        while True:
            status = self.status(job_id, wait=deadline - clock.monotonic())
            if status["state"] in TERMINAL_STATES:
                return status
            if clock.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:.1f}s")

    def run(self, doc: dict, timeout: float = 120.0) -> dict:
        """Submit and wait; returns the result document.  One request
        when the job settles within the first wait (a memo hit), then
        re-waits on the result route, whose :class:`ServeError` a
        failed or cancelled job raises."""
        deadline = clock.monotonic() + timeout
        reply = self.submit_doc(doc, wait=timeout)
        while "result" not in reply:         # the 202 ack: not settled yet
            if clock.monotonic() >= deadline:
                raise TimeoutError(f"job {reply['id']} not done after "
                                   f"{timeout:.1f}s")
            try:
                reply = self.result(reply["id"],
                                    wait=deadline - clock.monotonic())
            except ServeError as exc:
                if exc.status != 409 or exc.doc.get("state") == CANCELLED:
                    raise
        return reply

    # ------------------------------------------------------------------
    # server-level endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def server_stats(self) -> dict:
        return self._json("GET", "/api/v1/stats")

    def drain(self) -> dict:
        """Ask the daemon to drain and shut down."""
        return self._json("POST", "/api/v1/drain", ok=(202,))

    def metrics_text(self) -> str:
        status, payload = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, {})
        return payload

    def metrics(self) -> dict[str, float]:
        """The scrape parsed into ``{series-with-labels: value}``."""
        parsed: dict[str, float] = {}
        for line in self.metrics_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            try:
                parsed[name] = float(value)
            except ValueError:
                continue
        return parsed
