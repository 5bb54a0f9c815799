"""ServeClient's jittered exponential backoff on transport failures.

A fake socket layer (monkeypatched ``_open``) scripts the failures, an
injected sleep records the schedule, so every assertion here is exact:
which errors retry, how many times, and with precisely which delays.
"""

from __future__ import annotations

import http.client
import urllib.error

import pytest

from repro.serve.client import ServeClient, ServeError, retry_delays


class FakeSocket:
    """Scripted transport: raise each queued failure, then succeed."""

    def __init__(self, failures, response=(200, {"ok": True})):
        self.failures = list(failures)
        self.response = response
        self.attempts = 0

    def __call__(self, request):
        self.attempts += 1
        if self.failures:
            raise self.failures.pop(0)
        return self.response


def make_client(failures, retries=3, base=0.05):
    sleeps: list[float] = []
    client = ServeClient("http://127.0.0.1:1", timeout=1.0,
                         retries=retries, backoff_base=base,
                         sleep=sleeps.append)
    socket = FakeSocket(failures)
    client._open = socket
    return client, socket, sleeps


def test_connection_refused_retries_until_success():
    client, socket, sleeps = make_client(
        [ConnectionRefusedError(), ConnectionRefusedError()])
    assert client.health() == {"ok": True}
    assert socket.attempts == 3
    # The recorded sleeps are exactly the first two schedule entries.
    expected = retry_delays("http://127.0.0.1:1/healthz", 3, 0.05)
    assert sleeps == expected[:2]


def test_wrapped_urlerror_reasons_retry_too():
    failures = [urllib.error.URLError(ConnectionRefusedError()),
                urllib.error.URLError(ConnectionResetError()),
                http.client.RemoteDisconnected("gone")]
    client, socket, sleeps = make_client(failures)
    assert client.health() == {"ok": True}
    assert socket.attempts == 4
    assert len(sleeps) == 3


def test_retries_exhaust_and_reraise():
    client, socket, sleeps = make_client(
        [ConnectionRefusedError()] * 10, retries=3)
    with pytest.raises(ConnectionRefusedError):
        client.health()
    assert socket.attempts == 4          # initial + 3 retries
    assert len(sleeps) == 3


def test_non_retryable_urlerror_fails_immediately():
    client, socket, sleeps = make_client(
        [urllib.error.URLError(OSError("no route to host"))])
    with pytest.raises(urllib.error.URLError):
        client.health()
    assert socket.attempts == 1
    assert sleeps == []


def test_http_errors_never_retry():
    import io

    sleeps: list[float] = []
    client = ServeClient("http://127.0.0.1:1", retries=3,
                         sleep=sleeps.append)
    calls = []

    def open_once(request):
        calls.append(request)
        raise urllib.error.HTTPError(
            request.full_url, 404, "nope",
            {"Content-Type": "application/json"},
            io.BytesIO(b'{"error": "nope"}'))

    client._open = open_once
    with pytest.raises(ServeError) as err:
        client.health()
    assert err.value.status == 404
    assert len(calls) == 1
    assert sleeps == []


def test_schedule_is_jittered_exponential_and_deterministic():
    base, retries = 0.1, 5
    first = retry_delays("http://a/jobs", retries, base)
    assert first == retry_delays("http://a/jobs", retries, base)
    # Each delay stays inside [0.5, 1.0) x base x 2^i ...
    for i, delay in enumerate(first):
        assert base * (2 ** i) * 0.5 <= delay < base * (2 ** i)
    # ... so consecutive delays always grow (2x beats max jitter).
    assert all(b > a for a, b in zip(first, first[1:]))
    # Different clients jitter differently (herd dispersal).
    other = retry_delays("http://b/jobs", retries, base)
    assert other != first


def test_zero_retries_disables_backoff():
    client, socket, sleeps = make_client(
        [ConnectionRefusedError()], retries=0)
    with pytest.raises(ConnectionRefusedError):
        client.health()
    assert socket.attempts == 1
    assert sleeps == []


def test_run_is_submit_then_result_waits_through_the_same_seam():
    # The long-poll path is built from the ordinary calls, so the seam
    # sees it: a submission answered with the result is one request...
    done = {"id": "j1", "state": "done", "source": "memo", "result": {}}
    client, socket, _ = make_client([])
    socket.response = (200, done)
    assert client.run({"kind": "g5"}, timeout=5.0) == done
    assert socket.attempts == 1

    # ...and a 202 ack is followed by waits on the result route, with a
    # transport failure in between retried like any other.
    urls = []
    replies = [(202, {"id": "j1", "state": "queued"}),
               ConnectionResetError(), (200, done)]

    def scripted(request):
        urls.append(f"{request.get_method()} {request.full_url}")
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    client._open = scripted
    assert client.run({"kind": "g5"}, timeout=5.0) == done
    base = "http://127.0.0.1:1/api/v1/jobs"
    assert [url.split("=")[0] for url in urls] == [
        f"POST {base}?wait", f"GET {base}/j1/result?wait",
        f"GET {base}/j1/result?wait"]
    # No wait exceeds half the socket timeout (1.0 s here).
    assert all(float(url.split("=")[1]) <= 0.5 for url in urls)
