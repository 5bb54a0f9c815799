"""The serving core as a contract, checked against every application.

The daemon, the fleet worker (the daemon plus the shared store) and the
coordinator serve through one handler (:mod:`repro.serve.http`); these
tests walk each application's route table over real HTTP and pin what a
later refactor must not change silently: the status of every route's
happy path, JSON errors for everything else, the latency histogram
every request lands in, and the key sets of the job documents.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.serve import clock
from repro.serve.http import MAX_BODY_BYTES

from tests.fleet.conftest import FleetHarness, GatedExecutor
from tests.serve.conftest import make_server

DOC = {"kind": "g5", "workload": "sieve", "cpu": "atomic", "scale": "test"}


class App:
    """One application under test plus how to look inside it."""

    def __init__(self, name, server, histograms, teardown) -> None:
        self.name = name
        self.server = server
        self.histograms = histograms
        self.teardown = teardown
        self.host, self.port = server.httpd.server_address[:2]

    def request(self, method, path, body=None, headers=None):
        """One request on a fresh connection: (status, headers, body)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            reply = conn.getresponse()
            return reply.status, reply.headers, reply.read()
        finally:
            conn.close()

    def json(self, method, path, doc=None):
        body = None if doc is None else json.dumps(doc).encode()
        return _json_reply(self.request(method, path, body))

    def count(self, endpoint) -> int:
        return self.histograms()[endpoint].count

    def timed(self, endpoint, expected: int) -> bool:
        """Whether the histogram reaches ``expected`` (the handler
        observes a request after it has sent the reply)."""
        for _ in range(200):
            if self.count(endpoint) == expected:
                return True
            clock.sleep(0.01)
        return False

    def finished_job(self) -> dict:
        """Submit DOC and wait for it; returns the acknowledgement once
        the histograms account for every request made here."""
        submits, polls = self.count("submit"), self.count("status")
        status, ack = self.json("POST", "/api/v1/jobs", DOC)
        assert status == 202, ack
        for _ in range(500):
            polls += 1
            if self.json("GET", f"/api/v1/jobs/{ack['id']}")[1][
                    "state"] == "done":
                assert self.timed("submit", submits + 1)
                assert self.timed("status", polls)
                return ack
            clock.sleep(0.02)
        raise AssertionError(f"{ack['id']} never finished")


@pytest.fixture(params=["daemon", "worker", "coordinator"])
def app(request, tmp_path):
    executor = GatedExecutor()
    executor.release()
    if request.param == "daemon":
        server, _ = make_server(tmp_path, execute_fn=executor)
        made = App("daemon", server,
                   lambda: server.metrics.request_seconds,
                   server.drain_and_stop)
    else:
        # A quiet cadence: the worker's own heartbeats would otherwise
        # land in the histograms the walk counts exactly.
        fleet = FleetHarness(tmp_path, heartbeat_interval=30.0,
                             heartbeat_timeout=120.0)
        worker = fleet.add_worker(executor)
        if request.param == "worker":
            made = App("worker", worker.server,
                       lambda: worker.server.metrics.request_seconds,
                       fleet.stop)
        else:
            made = App("coordinator", fleet.server,
                       lambda: fleet.server.request_seconds, fleet.stop)
    yield made
    made.teardown()


#: (method, pattern) -> (path template, JSON body, documented status),
#: in the order the walk exercises them (drains last).
DAEMON = {
    ("POST", "/api/v1/jobs"): ("/api/v1/jobs", DOC, 202),
    ("GET", "/api/v1/jobs/<id>"): ("/api/v1/jobs/{id}", None, 200),
    ("GET", "/api/v1/jobs/<id>/result"):
        ("/api/v1/jobs/{id}/result", None, 200),
    ("GET", "/api/v1/stats"): ("/api/v1/stats", None, 200),
    ("GET", "/healthz"): ("/healthz", None, 200),
    ("GET", "/metrics"): ("/metrics", None, 200),
}
DRAIN = {("POST", "/api/v1/drain"): ("/api/v1/drain", None, 202)}
HAPPY = {
    "daemon": {**DAEMON, **DRAIN},
    "worker": {**DAEMON,
               ("GET", "/api/v1/store/<digest>"):
                   ("/api/v1/store/{digest}", None, 200),
               **DRAIN},
    "coordinator": {
        ("POST", "/api/v1/jobs"): ("/api/v1/jobs", DOC, 202),
        ("GET", "/api/v1/jobs/<id>"): ("/api/v1/jobs/{id}", None, 200),
        ("GET", "/api/v1/jobs/<id>/result"):
            ("/api/v1/jobs/{id}/result", None, 200),
        ("GET", "/api/v1/fleet"): ("/api/v1/fleet", None, 200),
        ("GET", "/healthz"): ("/healthz", None, 200),
        ("GET", "/metrics"): ("/metrics", None, 200),
        ("POST", "/api/v1/workers/register"):
            ("/api/v1/workers/register",
             {"url": "http://127.0.0.1:9"}, 200),
        ("POST", "/api/v1/workers/<id>/heartbeat"):
            ("/api/v1/workers/w1/heartbeat", {"queue_depth": 0}, 200),
        ("POST", "/api/v1/drain"): ("/api/v1/drain", None, 202),
    },
}


def test_route_table_conformance(app):
    routes = {(route.method, route.pattern): route
              for route in app.server.routes()}
    happy = HAPPY[app.name]
    assert set(routes) == set(happy), \
        "route table and documented happy paths disagree"
    ack = app.finished_job()
    for key, (template, body, documented) in happy.items():
        route = routes[key]
        method = key[0]
        path = template.format(id=ack["id"], digest=ack["digest"])
        before = app.count(route.endpoint)
        raw = None if body is None else json.dumps(body).encode()
        status, _, _ = app.request(method, path, raw)
        assert status == documented, (key, status)
        assert app.timed(route.endpoint, before + 1), \
            f"{key} was not timed under {route.endpoint!r}"
        # The same path under a method it is not routed for, then a
        # path nothing routes: JSON errors, timed as "other".
        wrong = next(method for method in ("GET", "POST")
                     if (method, key[1]) not in routes)
        for method, unrouted in ((wrong, path),
                                 ("GET", "/api/v1/no/such/route")):
            other = app.count("other")
            status, doc = app.json(method, unrouted)
            assert status in (404, 405) and set(doc) == {"error"}, \
                (method, unrouted, doc)
            assert app.timed("other", other + 1)


def test_body_routes_reject_malformed_and_oversized_bodies(app):
    for route in app.server.routes():
        if route.body is None:
            continue
        path = route.pattern.replace("<id>", "w1")
        status, doc = _json_reply(
            app.request(route.method, path, b"{not json"))
        assert status == 400 and "error" in doc, (route, doc)
        # Announce an oversized body without sending it: the reply must
        # come at once and close the connection.
        conn = http.client.HTTPConnection(app.host, app.port, timeout=10)
        try:
            conn.putrequest(route.method, path)
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            reply = conn.getresponse()
            doc = json.loads(reply.read())
            assert reply.status == 400 and "too large" in doc["error"]
            assert reply.headers["Connection"] == "close"
        finally:
            conn.close()


def _json_reply(reply):
    status, headers, raw = reply
    assert headers["Content-Type"] == "application/json", raw
    return status, json.loads(raw)


def _raw_exchange(app, request: bytes, replies: int = 1) -> list[bytes]:
    """Send bytes on one socket; returns that many raw HTTP replies."""
    with socket.create_connection((app.host, app.port), timeout=5) as sock:
        sock.sendall(request)
        handle = sock.makefile("rb")
        out = []
        for _ in range(replies):
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = handle.readline()
                assert line, f"connection closed after {head!r}"
                head += line
            length = int([line.split(b":")[1] for line in head.split(b"\r\n")
                          if line.lower().startswith(b"content-length")][0])
            out.append(head + handle.read(length))
        return out


@pytest.mark.parametrize("length", ["-1", "ten", "1.5"])
def test_invalid_content_length_answers_400_at_once(app, length):
    # At the parent commit ``-1`` parked the handler thread in
    # ``rfile.read(-1)``: no reply until the peer closed the socket.
    request = (f"POST /api/v1/jobs HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {length}\r\n\r\n").encode()
    (reply,) = _raw_exchange(app, request)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in reply
    assert "Content-Length" in json.loads(
        reply.split(b"\r\n\r\n", 1)[1])["error"]


@pytest.mark.parametrize("path", ["/api/v1/nowhere", "/api/v1/drain"])
def test_unread_bodies_do_not_poison_keep_alive(app, path):
    body = b'{"kind": "g5"}'
    request = (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode() + body \
        + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    first, second = _raw_exchange(app, request, replies=2)
    assert first.split(b" ", 2)[1] in (b"404", b"202")
    assert second.startswith(b"HTTP/1.1 200 ")
    assert json.loads(second.split(b"\r\n\r\n", 1)[1])["draining"] in (
        True, False)


@pytest.mark.parametrize("method", ["PUT", "DELETE", "HEAD"])
def test_unbound_methods_answer_json_501(app, method):
    # No do_PUT/do_DELETE/do_HEAD: the stdlib answers these itself, and
    # send_error must make that a timed JSON error.
    other = app.count("other")
    status, headers, body = app.request(method, "/api/v1/jobs")
    assert status == 501
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    if method == "HEAD":
        assert body == b""
    else:
        doc = json.loads(body)
        assert set(doc) == {"error"} and method in doc["error"]
    assert app.timed("other", other + 1)


@pytest.mark.parametrize("raw, status", [
    (b"GET /a b HTTP/1.1\r\nHost: x\r\n\r\n", 400),
    # One byte past the stdlib's 65536-byte request line, and no more:
    # unread bytes would reset the connection before the reply is read.
    ((b"GET /" + b"a" * 65536)[:65537], 414),
    # Before a version is parsed the stdlib takes the request for
    # HTTP/0.9, whose replies carry no status line and no headers.
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET / HTTP/x.y\r\n\r\n", 400),
], ids=["four-words", "line-too-long", "one-word", "bad-version"])
def test_malformed_request_lines_answer_json(app, raw, status):
    other = app.count("other")
    with socket.create_connection((app.host, app.port), timeout=5) as sock:
        sock.sendall(raw)
        reply = sock.makefile("rb").read()      # the server closes
    head, body = reply.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"Content-Type: application/json" in head
    assert b"Content-Length: %d" % len(body) in head
    assert b"Connection: close" in head
    assert set(json.loads(body)) == {"error"}
    assert app.timed("other", other + 1)


ACK_KEYS = {"id", "state", "digest", "coalesced_into", "eta_seconds"}
STATUS_KEYS = {"id", "state", "digest", "predicted_seconds",
               "submitted_at", "finished_at", "attempts", "source",
               "error", "coalesced_into", "waiters"}
WIRE_KEYS = {
    "daemon": {"ack": ACK_KEYS | {"queue_depth"},
               "status": STATUS_KEYS | {"request", "started_at"}},
    "coordinator": {"ack": ACK_KEYS | {"pending"},
                    "status": STATUS_KEYS | {"label", "worker",
                                             "remote_id"}},
}
WIRE_KEYS["worker"] = WIRE_KEYS["daemon"]


def test_job_document_key_sets_are_pinned(app):
    ack = app.finished_job()
    assert set(ack) == WIRE_KEYS[app.name]["ack"]
    _, status = app.json("GET", f"/api/v1/jobs/{ack['id']}")
    assert set(status) == WIRE_KEYS[app.name]["status"]
    code, result = app.json("GET", f"/api/v1/jobs/{ack['id']}/result")
    assert (code, set(result)) == (200, {"id", "state", "source",
                                         "result"})
    code, missing = app.json("GET", "/api/v1/jobs/nope/result")
    assert (code, set(missing)) == (404, {"error"})
