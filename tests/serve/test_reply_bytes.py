"""Every job reply is byte-identical to encoding its document whole.

Results are stored as JSON text and spliced into replies, so each body
is checked against ``json.dumps(doc, sort_keys=True) + "\\n"`` of the
same document with the payload as a dict — the encoding every reply
had before results were kept as text.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.exec.pool import execute_g5_job
from repro.g5.serialize import pack_sim_result
from repro.serve.http import JSONText, encode_json
from repro.serve.jobs import parse_job_request

from .conftest import fake_packed
from .test_coalescing import wait_until

DOC = {"kind": "g5", "workload": "sieve", "cpu": "atomic", "scale": "test"}


def encoded(doc: dict) -> bytes:
    """A reply body as the whole-document encoder writes it."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def fetch(server, path: str, doc: dict | None = None) -> tuple[int, bytes]:
    """Status and raw body of one request (no client-side decoding)."""
    request = urllib.request.Request(
        f"{server.address}/api/v1/{path}",
        data=None if doc is None else json.dumps(doc).encode(),
        method="GET" if doc is None else "POST")
    try:
        with urllib.request.urlopen(request, timeout=60.0) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@pytest.mark.parametrize("doc", [
    {"result": {"b": [1, 2.5, None], "a": "é\n"}, "id": "j1",
     "state": "done", "source": "memo"},
    {"result": [], "source": None},
    {"result": {}},
])
def test_spliced_text_encodes_like_the_decoded_document(doc):
    spliced = {**doc, "result": JSONText(json.dumps(doc["result"],
                                                    sort_keys=True))}
    assert encode_json(spliced) == json.dumps(doc, sort_keys=True)


def test_g5_result_and_memo_hit_replies(live_server):
    server, client = live_server
    direct = pack_sim_result(execute_g5_job(parse_job_request(DOC).g5))

    ack = client.submit_doc(DOC)
    client.wait(ack["id"], timeout=60.0)
    status, body = fetch(server, f"jobs/{ack['id']}/result")
    assert status == 200
    assert body == encoded({"id": ack["id"], "state": "done",
                            "source": "executed", "result": direct})

    status, hit = fetch(server, "jobs?wait=10", DOC)
    assert status == 200
    hit_id = json.loads(hit)["id"]
    assert hit == encoded({"id": hit_id, "state": "done",
                           "source": "memo", "result": direct})
    for reply in (body, hit):
        assert json.loads(reply)["result"] == json.loads(json.dumps(direct))


def test_figure_result_reply(live_server):
    server, client = live_server
    reply = client.run({"kind": "figure", "figure": "fig3",
                        "scale": "test", "max_records": 20000},
                       timeout=120.0)
    status, body = fetch(server, f"jobs/{reply['id']}/result")
    assert status == 200
    doc = json.loads(body)
    assert doc["result"]["kind"] == "figure"
    assert body == encoded(doc)


def test_coalesced_waiter_and_error_replies(gated):
    server, client, executor = gated
    executor.failures.append(RuntimeError("boom"))
    failed = client.submit(workload="fmm", cpu="atomic")
    wait_until(lambda: client.status(failed["id"])["state"] == "failed")
    blocker = client.submit(workload="fmm", cpu="timing")
    wait_until(lambda: server.queue.running() == 1)
    primary = client.submit(workload="sieve", cpu="timing")
    waiter = client.submit(workload="sieve", cpu="timing")
    assert waiter["coalesced_into"] == primary["id"]

    status, body = fetch(server, f"jobs/{waiter['id']}/result")
    assert status == 409
    assert body == encoded({"id": waiter["id"], "state": "queued",
                            "error": "job is queued, not done"})
    status, body = fetch(server, f"jobs/{failed['id']}/result")
    assert status == 500
    assert body == encoded({"id": failed["id"], "state": "failed",
                            "error": "RuntimeError: boom"})

    executor.release()
    for ack in (blocker, primary, waiter):
        assert client.wait(ack["id"])["state"] == "done"
    status, body = fetch(server, f"jobs/{waiter['id']}/result")
    assert status == 200
    # Calls: the failure, the blocker, then the pair's one execution.
    assert len(executor.calls) == 3
    assert body == encoded({
        "id": waiter["id"], "state": "done",
        "source": f"coalesced:{primary['id']}",
        "result": fake_packed(label=executor.calls[2].label, ordinal=2)})
