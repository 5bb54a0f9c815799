"""Unit tests for worker membership and rendezvous routing."""

import hashlib

from repro.fleet.registry import DEAD, UP, WorkerRegistry, rendezvous_score
from repro.serve import clock


def _digests(n):
    return [hashlib.sha256(str(i).encode()).hexdigest()
            for i in range(n)]


def test_register_assigns_stable_sequential_ids():
    registry = WorkerRegistry()
    a = registry.register("http://127.0.0.1:1001")
    b = registry.register("http://127.0.0.1:1002")
    assert (a.id, b.id) == ("w1", "w2")
    # Re-registration (a restarted worker) revives the same identity.
    again = registry.register("http://127.0.0.1:1001/")
    assert again.id == "w1"
    assert [w.id for w in registry.workers()] == ["w1", "w2"]


def test_heartbeat_updates_load_and_unknown_is_rejected():
    registry = WorkerRegistry()
    worker = registry.register("http://127.0.0.1:1001")
    assert registry.heartbeat("w99", {}) is None
    updated = registry.heartbeat(worker.id, {"queue_depth": 3,
                                             "max_queue": 4})
    assert updated.queue_depth == 3
    assert not updated.saturated
    registry.heartbeat(worker.id, {"queue_depth": 4})
    assert registry.get(worker.id).saturated


def test_routing_is_deterministic_and_covers_the_fleet():
    registry = WorkerRegistry()
    for port in (1001, 1002, 1003):
        registry.register(f"http://127.0.0.1:{port}")
    routed = {digest: registry.route(digest).id
              for digest in _digests(64)}
    # Same digest, same winner, every time.
    for digest, winner in routed.items():
        assert registry.route(digest).id == winner
    # HRW spreads load: every worker owns some digests.
    assert {winner for winner in routed.values()} == {"w1", "w2", "w3"}


def test_worker_death_only_moves_its_own_digests():
    registry = WorkerRegistry(heartbeat_timeout=0.05)
    for port in (1001, 1002, 1003):
        registry.register(f"http://127.0.0.1:{port}")
    before = {digest: registry.route(digest).id
              for digest in _digests(64)}
    # Only w2 expires.
    clock.sleep(0.08)
    for worker_id in ("w1", "w3"):
        registry.heartbeat(worker_id, {})
    dead = registry.sweep()
    assert [w.id for w in dead] == ["w2"]
    after = {digest: registry.route(digest).id
             for digest in _digests(64)}
    for digest, owner in before.items():
        if owner != "w2":
            assert after[digest] == owner  # undisturbed
        else:
            assert after[digest] != "w2"   # rerouted somewhere live


def test_heartbeat_revives_a_dead_worker():
    registry = WorkerRegistry(heartbeat_timeout=0.05)
    worker = registry.register("http://127.0.0.1:1001")
    clock.sleep(0.08)
    assert [w.id for w in registry.sweep()] == [worker.id]
    assert registry.get(worker.id).state == DEAD
    registry.heartbeat(worker.id, {})
    assert registry.get(worker.id).state == UP


def test_route_exclusion_falls_to_second_choice():
    registry = WorkerRegistry()
    for port in (1001, 1002):
        registry.register(f"http://127.0.0.1:{port}")
    digest = _digests(1)[0]
    first = registry.route(digest).id
    second = registry.route(digest, exclude=(first,)).id
    assert second != first
    assert registry.route(digest, exclude=(first, second)) is None


def test_rendezvous_score_is_pure():
    assert rendezvous_score("abc", "w1") == rendezvous_score("abc", "w1")
    assert rendezvous_score("abc", "w1") != rendezvous_score("abc", "w2")
