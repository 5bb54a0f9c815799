"""The serving core: one HTTP handler, one lifecycle, one signal loop.

Daemon, fleet worker and coordinator all serve through this module.  An
application is a :class:`Service` subclass whose :meth:`Service.routes`
returns its route table; that table is the wire documentation, so the
modules that define one (``serve.daemon``, ``fleet.worker``,
``fleet.coordinator``) list no routes in prose.  The handler parses the
path, reads and validates the body, times the request into the route's
latency histogram, and sends whatever the route's callable returns.
``ThreadingHTTPServer`` gives each connection its own handler thread;
shared state lives behind the application's locks.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing.util
import re
import signal
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, NamedTuple, Optional

from . import clock

__all__ = ["API_PREFIX", "CHECKSUM_HEADER", "JSONText", "Route",
           "Service", "encode_json", "run_until_signal"]

API_PREFIX = "/api/v1"

#: Largest JSON request body the server will read (a job document is tiny).
MAX_BODY_BYTES = 1 << 20

#: Transport-integrity header on byte replies (hex sha256 of the body).
CHECKSUM_HEADER = "X-Repro-Sha256"

#: Longest a ``?wait=<seconds>`` request is parked, whatever it asks for.
MAX_WAIT_SECONDS = 30.0


def parse_wait(query: str) -> float:
    """Seconds a request asks to be parked: ``wait`` of the query string
    (0 when absent), clamped to :data:`MAX_WAIT_SECONDS`; ``ValueError``
    unless it is a number >= 0."""
    values = urllib.parse.parse_qs(query, keep_blank_values=True).get("wait")
    wait = float(values[-1]) if values else 0.0
    if not wait >= 0:                    # negatives and nan
        raise ValueError(f"wait must be >= 0 seconds, got {values[-1]!r}")
    return min(wait, MAX_WAIT_SECONDS)


class JSONText(str):
    """A value already encoded as ``json.dumps(value, sort_keys=True)``.

    As a member of a reply document it is spliced in verbatim by
    :func:`encode_json`, so a stored result is encoded once, not once
    per reply.
    """


def encode_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True)`` with each :class:`JSONText`
    member spliced in as is: byte-identical to encoding the document
    with that member decoded."""
    if not any(isinstance(value, JSONText) for value in doc.values()):
        return json.dumps(doc, sort_keys=True)
    return "{" + ", ".join(
        f"{json.dumps(key)}: " + (value if isinstance(value, JSONText)
                                  else json.dumps(value, sort_keys=True))
        for key, value in sorted(doc.items())) + "}"


class Route(NamedTuple):
    """One row of an application's route table.

    ``pattern`` is a literal path whose ``<name>`` segments are captured
    and passed to ``call`` positionally, followed by the decoded JSON
    request body when ``body`` is ``"json"`` (an empty body is
    ``None``).  ``call`` returns ``(status, payload)`` or
    ``(status, payload, headers)``; a dict payload goes out as JSON
    (:func:`encode_json`), ``str`` as Prometheus text, ``bytes`` as a
    blob carrying its :data:`CHECKSUM_HEADER`.
    ``endpoint`` labels the request in the latency histogram.  A
    ``wait`` route gets one more argument, :func:`parse_wait`'s seconds:
    how long it may park the request for a job to settle.
    """

    method: str
    pattern: str
    endpoint: str
    call: Callable[..., tuple]
    body: Optional[str] = None
    wait: bool = False


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def server_version(self) -> str:
        return f"repro-{self.server.app.tag}/1.0"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        self.server.app.log(f"{self.address_string()} {format % args}")

    def _handle(self) -> None:
        app = self.server.app
        started = clock.monotonic()
        endpoint = "other"
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            route, args = app.match(self.command, path)
            if route is not None:
                endpoint = route.endpoint
            self._send(*self._respond(route, args, path))
        except BrokenPipeError:
            pass  # client went away mid-response
        finally:
            app.observe_request(endpoint, clock.monotonic() - started)

    do_GET = do_POST = _handle  # noqa: N815 - stdlib naming

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own error replies (an unbound method's 501, a
        malformed request line's 400, 414, ...) with the stdlib's status
        and ``Connection: close``, but a JSON ``{"error": ...}`` body,
        observed under the ``other`` endpoint."""
        started = clock.monotonic()
        # A request line that did not parse leaves the version at
        # HTTP/0.9, for which the stdlib writes no status line and no
        # headers: the body would go out bare.
        self.request_version = self.protocol_version
        message = message or self.responses.get(code, ("error",))[0]
        self.log_error("code %d, message %s", code, message)
        try:
            self._send(code, {"error": message}, {"Connection": "close"})
        finally:
            self.server.app.observe_request(
                "other", clock.monotonic() - started)

    def _respond(self, route: Optional[Route], args: list,
                 path: str) -> tuple:
        try:
            body = self._read_body()
        except ValueError as exc:
            # The body stays unread, so the connection cannot be reused:
            # its bytes would be parsed as the next request.
            self.close_connection = True
            return (400, {"error": f"bad request body: {exc}"},
                    {"Connection": "close"})
        if route is None:
            return 404, {"error": f"no route for {path}"}
        if route.body == "json":
            try:
                args.append(json.loads(body.decode() or "null"))
            except (ValueError, UnicodeDecodeError) as exc:
                return 400, {"error": f"bad request body: {exc}"}
        if route.wait:
            try:
                args.append(parse_wait(self.path.partition("?")[2]))
            except ValueError as exc:
                return 400, {"error": f"bad wait parameter: {exc}"}
        return route.call(*args)

    def _read_body(self) -> bytes:
        """The request body, read in full so a keep-alive connection
        starts its next request at a request line."""
        if self.headers.get("Transfer-Encoding"):
            raise ValueError("Transfer-Encoding is not supported")
        raw = self.headers.get("Content-Length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError(f"invalid Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        return self.rfile.read(length)

    def _send(self, status: int, payload,
              headers: Optional[dict] = None) -> None:
        headers = headers or {}
        if isinstance(payload, bytes):
            body, content_type = payload, "application/octet-stream"
            headers = {CHECKSUM_HEADER: hashlib.sha256(body).hexdigest(),
                       **headers}
        elif isinstance(payload, str):
            body, content_type = (payload.encode(),
                                  "text/plain; version=0.0.4")
        else:
            body = (encode_json(payload) + "\n").encode()
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)


class _HTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying a reference to the application."""

    def __init__(self, address, app: "Service") -> None:
        super().__init__(address, _Handler)
        self.app = app


class Service:
    """An HTTP application and its lifecycle.

    ::

        server.start()              # HTTP thread (plus the app's own)
        server.request_shutdown()   # SIGTERM, or the app's drain route
        server.wait()               # drains, stops, returns the report

    Subclasses provide :meth:`routes`, :meth:`observe_request` and
    :meth:`_drain`; ``config`` carries ``host``, ``port``, ``quiet`` and
    ``log``.
    """

    #: Prefix of log lines and name of the HTTP thread.
    tag = "serve"

    def __init__(self, config) -> None:
        self.config = config
        self._routes = [
            (route, re.compile(re.sub(r"<\w+>", "([^/]+)",
                                      re.escape(route.pattern))))
            for route in self.routes()]
        self.httpd = _HTTPServer((config.host, config.port), self)
        # A ProcessPoolExecutor forked after the listen socket exists
        # hands its fd to every child.  Without this hook a dead
        # daemon's port stays half-open (children never accept), and
        # fleet peers hang out their full timeout instead of getting
        # connection-refused.  Close the inherited fd in every forked
        # child so the parent alone owns the port.
        multiprocessing.util.register_after_fork(
            self.httpd, lambda httpd: httpd.socket.close())
        self._http_thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_report: Optional[dict] = None

    # -- what an application provides ------------------------------------
    def routes(self) -> list[Route]:
        raise NotImplementedError

    def observe_request(self, endpoint: str, seconds: float) -> None:
        raise NotImplementedError

    def _drain(self) -> dict:
        """Refuse new work, finish what is in flight, stop the app's
        threads; returns the drain report."""
        raise NotImplementedError

    # -- plumbing --------------------------------------------------------
    def match(self, method: str, path: str
              ) -> tuple[Optional[Route], list]:
        for route, regex in self._routes:
            if route.method == method:
                found = regex.fullmatch(path)
                if found:
                    return route, list(found.groups())
        return None, []

    def log(self, line: str) -> None:
        if not self.config.quiet and self.config.log is not None:
            print(f"[{self.tag}] {line}", file=self.config.log, flush=True)

    @property
    def address(self) -> str:
        """The bound address (``port=0`` binds an ephemeral port)."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever, name=f"{self.tag}-http",
            daemon=True)
        self._http_thread.start()

    def request_shutdown(self) -> None:
        """Ask for a graceful drain (signal-handler safe)."""
        self._shutdown_requested.set()

    def wait(self) -> dict:
        """Block until a shutdown is requested, then drain and stop.

        Polls so signal handlers run promptly on every platform.
        """
        while not self._shutdown_requested.wait(timeout=0.2):
            pass
        return self.drain_and_stop()

    def drain_and_stop(self) -> dict:
        """Drain the application, then stop the listener.

        Idempotent; returns the drain report from the first invocation.
        """
        with self._drain_lock:
            if self._drain_report is None:
                self._drain_report = self._drain()
                # Give in-flight handler threads a beat to flush
                # responses (e.g. the 202 acknowledging the drain
                # request itself).
                clock.sleep(0.1)
                self.httpd.shutdown()
                self.httpd.server_close()
            return self._drain_report


def run_until_signal(server, banner: Callable[[], str],
                     report_line: str) -> int:
    """Serve until SIGTERM/SIGINT; returns the exit code.

    The body of ``repro-g5 serve``, ``fleet coordinator`` and ``fleet
    worker``: installs the signal handlers (main thread only — signal
    delivery wakes the wait below), starts ``server``, prints
    ``banner()`` once it listens and ``report_line`` formatted with the
    drain report on the way out, and exits 0 on any clean drain.
    """
    def _request_shutdown(signum, frame):  # noqa: ARG001
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)
    server.start()
    print(banner(), flush=True)
    print(report_line.format(**server.wait()), flush=True)
    return 0
