"""The shared result store: raw transport, the store route, read-through.

Integrity is the theme: every path that moves an envelope between
machines verifies it twice (transport checksum, then the envelope's
recorded digest), so these tests spend most of their time proving that
corruption at any layer degrades to a miss instead of propagating.
"""

import hashlib
import pickle
import urllib.error
import urllib.request

import pytest

from repro.exec.cache import ENVELOPE_VERSION, ResultCache
from repro.exec.pool import G5Job
from repro.fleet import store
from repro.fleet.store import FleetCache
from repro.fleet.worker import WorkerServer
from tests.fleet.conftest import GatedExecutor
from tests.serve.conftest import make_server


def _key(workload="sieve", cpu="atomic"):
    return G5Job(workload, cpu, "se", "test").cache_key()


def _payload(tag="alpha"):
    return {"kind": "fake", "tag": tag}


# ---------------------------------------------------------------------------
# raw envelope transport (ResultCache)
# ---------------------------------------------------------------------------
def test_raw_roundtrip_between_two_caches(tmp_path):
    a = ResultCache(tmp_path / "a")
    b = ResultCache(tmp_path / "b")
    key = _key()
    a.put(key, _payload())
    blob = a.raw_get(key.digest)
    assert blob is not None
    assert b.raw_put(key.digest, blob)
    assert b.get(key) == _payload()


def test_raw_put_rejects_wrong_digest_and_garbage(tmp_path):
    a = ResultCache(tmp_path / "a")
    b = ResultCache(tmp_path / "b")
    key, other = _key(), _key(cpu="o3")
    a.put(key, _payload())
    blob = a.raw_get(key.digest)
    # Valid envelope addressed at the wrong digest: refused.
    assert not b.raw_put(other.digest, blob)
    # Unpicklable bytes: refused.
    assert not b.raw_put(key.digest, b"not a pickle")
    # Version from the future: refused.
    envelope = pickle.loads(blob)
    envelope["version"] = ENVELOPE_VERSION + 1
    assert not b.raw_put(key.digest, pickle.dumps(envelope))
    assert b.get(key) is None


def test_raw_get_purges_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    key = _key()
    cache.put(key, _payload())
    path = cache._path(key.digest)
    path.write_bytes(b"\x80corrupted")
    assert cache.raw_get(key.digest) is None
    assert not path.exists()


# ---------------------------------------------------------------------------
# the fleet worker's store route
# ---------------------------------------------------------------------------
@pytest.fixture
def store_server(tmp_path):
    server, client = make_server(tmp_path, server_class=WorkerServer)
    yield server, client
    server.drain_and_stop()


def test_store_get_serves_verified_envelopes(store_server, tmp_path):
    server, client = store_server
    key = _key()
    server.config.cache.put(key, _payload())
    url = f"{client.base_url}/api/v1/store/{key.digest}"
    with urllib.request.urlopen(url, timeout=5.0) as reply:
        blob = reply.read()
        checksum = reply.headers["X-Repro-Sha256"]
    assert checksum == hashlib.sha256(blob).hexdigest()
    sink = ResultCache(tmp_path / "sink")
    assert sink.raw_put(key.digest, blob)
    assert sink.get(key) == _payload()


def test_store_routes_disabled_by_default(tmp_path):
    server, client = make_server(tmp_path)   # a plain daemon
    try:
        url = f"{client.base_url}/api/v1/store/{'0' * 64}"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=5.0)
        assert err.value.code == 404
    finally:
        server.drain_and_stop()


# ---------------------------------------------------------------------------
# FleetCache: read-through, nothing pushed
# ---------------------------------------------------------------------------
def test_fleet_cache_reads_through_to_a_peer(store_server, tmp_path):
    server, client = store_server
    key = _key()
    server.config.cache.put(key, _payload("remote"))
    local = FleetCache(tmp_path / "local")
    local.set_peers([{"id": "w1", "url": client.base_url}])
    assert local.get(key) == _payload("remote")
    stats = local.fleet_stats()
    assert stats["remote_hits"] == 1
    # The fetched entry is now local: the second read never leaves disk.
    assert local.get(key) == _payload("remote")
    assert local.fleet_stats()["local_hits"] == 1


def test_fleet_cache_miss_everywhere_is_a_miss(store_server, tmp_path):
    _, client = store_server
    local = FleetCache(tmp_path / "local")
    local.set_peers([{"id": "w1", "url": client.base_url}])
    assert local.get(_key(cpu="timing")) is None
    assert local.fleet_stats()["remote_misses"] == 1


def test_fleet_cache_filters_itself_from_peers(tmp_path):
    cache = FleetCache(tmp_path, self_url="http://127.0.0.1:9999")
    cache.set_peers([{"id": "w1", "url": "http://127.0.0.1:9999/"},
                     {"id": "w2", "url": "http://127.0.0.1:8888"}])
    assert cache.peers() == [{"id": "w2",
                              "url": "http://127.0.0.1:8888"}]


def test_fleet_cache_survives_dead_peers(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "PEER_TIMEOUT", 0.2)
    local = FleetCache(tmp_path / "local")
    # Nothing listens here; a read degrades to a miss.
    local.set_peers([{"id": "w1", "url": "http://127.0.0.1:1"}])
    key = _key()
    assert local.get(key) is None
    local.put(key, _payload())
    stats = local.fleet_stats()
    assert stats["fetch_failures"] >= 1
    assert local.get(key) == _payload()  # local entry still fine


def test_a_fresh_result_stays_on_the_worker_that_computed_it(fleet):
    executor = GatedExecutor()
    executor.release()
    # add_worker returns once both peer lists are full, so a push, if
    # there were one, could reach the other worker.
    workers = [fleet.add_worker(executor), fleet.add_worker(executor)]
    doc = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
           "scale": "test"}
    ack = fleet.client.submit_doc(doc)
    status = fleet.client.wait(ack["id"], timeout=30.0)
    assert status["state"] == "done", status
    owner, = (w for w in workers if w.worker_id == status["worker"])
    other, = (w for w in workers if w is not owner)
    assert owner.cache.raw_get(ack["digest"]) is not None
    assert other.cache.raw_get(ack["digest"]) is None
