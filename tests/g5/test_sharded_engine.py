"""Unit and property tests for the sharded event-queue scheduler.

The :class:`~repro.g5.sharded.ShardedEngine` promises exactly two
things, and hypothesis hammers both on synthetic event soups:

- **No domain executes past the global horizon.**  An event only fires
  when its ``(tick, priority, seq)`` key is the globally smallest live
  key, so at the moment a callback runs, no other domain's clock has
  passed it — the merged order is the single-queue order.
- **Boundary delivery preserves per-tick send order.**  Cross-domain
  sends through a :class:`~repro.g5.sharded.BoundaryLink` reach the
  receiver in send order at each tick (the receiver runs at the
  sender's position in the merged order).

The rest pins the engine's EventQueue-facade contract: pause/resume at
``max_tick``, drain exits, config validation, and the counters that
flow out through ``SimResult.sharding``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import EventQueue
from repro.events.queue import EventQueueError
from repro.g5.serialize import pack_sim_result, unpack_sim_result
from repro.g5.sharded import BoundaryLink, ShardedEngine
from repro.g5.system import SimConfig


def _fresh_queues(n=2):
    return [EventQueue(name=f"q{i}") for i in range(n)]


# -- property: global horizon ------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2)),
                min_size=1, max_size=40))
def test_no_domain_executes_past_the_global_horizon(plan):
    """Every firing is globally next; clocks never pass a live event."""
    n_domains = max(2, 1 + max(domain for _, domain in plan))
    queues = _fresh_queues(n_domains)
    fired = []

    def make_callback(index, tick):
        def callback():
            # At fire time no other domain may have advanced past this
            # event's tick, and no smaller live key may exist anywhere.
            assert all(queue.now <= tick for queue in queues)
            for queue in queues:
                entry = queue._peek_live()
                assert entry is None or entry[0] >= (tick, 0, 0)
            fired.append(index)
        return callback

    for index, (tick, domain) in enumerate(plan):
        queues[domain].call_at(tick, make_callback(index, tick))
    engine = ShardedEngine(queues, links=[])
    exit_event = engine.run()
    assert exit_event.cause == "event queue empty"
    # The merged order is the single-queue order: sorted by tick, ties
    # broken by scheduling order (the shared global sequence counter).
    expected = sorted(range(len(plan)), key=lambda i: plan[i][0])
    assert fired == expected
    assert engine.windows >= 1
    assert engine.events_processed == len(plan)


# -- property: boundary delivery order ---------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 3)),
                min_size=1, max_size=15))
def test_boundary_flush_preserves_per_tick_delivery_order(plan):
    """Same-tick cross-domain sends drain in exactly send order."""
    sender, receiver = _fresh_queues()
    link = BoundaryLink("l", sender, receiver)
    received = []
    # Sender-side events emit their payload bursts through the link.
    for index, (tick, sends) in enumerate(plan):
        payloads = [(tick, index, j) for j in range(sends)]

        def make_burst(payloads=payloads):
            def burst():
                for payload in payloads:
                    link._deliver(sender, receiver, received.append,
                                  payload)
            return burst

        sender.call_at(tick, make_burst())
    engine = ShardedEngine([sender, receiver], [link])
    engine.run()
    # Expected: sender events fire tick-major / schedule-order-minor,
    # and each burst's payloads arrive contiguously, in send order.
    expected = []
    for index, (tick, sends) in sorted(enumerate(plan),
                                       key=lambda e: (e[1][0], e[0])):
        expected.extend((tick, index, j) for j in range(sends))
    assert received == expected
    assert link.deliveries == len(received)
    assert engine.deliveries == link.deliveries


def test_delivery_event_retry_shape():
    """``pkt=None`` deliveries (retries) invoke the target bare."""
    sender, receiver = _fresh_queues()
    link = BoundaryLink("l", sender, receiver)
    calls = []
    link._deliver(sender, receiver, lambda: calls.append("bare"), None)
    assert calls == ["bare"]
    assert link.deliveries == 1


# -- engine facade ------------------------------------------------------
def test_engine_requires_two_domains():
    with pytest.raises(ValueError):
        ShardedEngine(_fresh_queues(1), links=[])


def test_engine_rejects_max_events():
    engine = ShardedEngine(_fresh_queues(), links=[])
    with pytest.raises(EventQueueError):
        engine.run(max_events=10)


def test_pause_at_max_tick_and_resume_matches_uninterrupted():
    def build():
        queues = _fresh_queues()
        log = []
        queues[0].call_at(5, lambda: log.append(5))
        queues[1].call_at(10, lambda: log.append(10))
        queues[0].call_at(20, lambda: log.append(20))
        return ShardedEngine(queues, links=[]), queues, log

    engine, queues, log = build()
    paused = engine.run(max_tick=12)
    assert paused.cause == "simulate() limit reached"
    assert log == [5, 10]
    # Pausing parks *every* domain at the limit so resume is seamless.
    assert all(queue.now == 12 for queue in queues)
    resumed = engine.run()
    assert resumed.cause == "event queue empty"
    assert resumed.code == 0

    straight_engine, _, straight_log = build()
    straight_engine.run()
    assert log == straight_log == [5, 10, 20]


def _run_soup(n_domains):
    """One fixed cross-scheduling soup; returns what ran."""
    queues = _fresh_queues(n_domains)
    log = []

    def fire(tag, spawn=None):
        def callback():
            log.append((tag, queues[0].now, queues[1].now))
            if spawn is not None:
                domain, delay, child = spawn
                queues[domain].call_at(queues[domain].now + delay,
                                       fire(child))
        return callback

    # Same-tick ties across domains, a burst one window can batch, and
    # callbacks that schedule below the other domain's head.
    queues[0].call_at(1, fire("a1", spawn=(1, 1, "a1>b")))
    queues[1].call_at(1, fire("b1"))
    for tick in (3, 4, 5):
        queues[0].call_at(tick, fire(f"a{tick}"))
    queues[1].call_at(4, fire("b4", spawn=(0, 0, "b4>a")))
    queues[1].call_at(30, fire("b30"))
    queues[0].call_at(40, fire("a40"))
    engine = ShardedEngine(queues, links=[])
    paused = engine.run(max_tick=10)
    parked = [queue.now for queue in queues[:2]]
    done = engine.run()
    return {
        "log": log, "parked": parked, "windows": engine.windows,
        "events": engine.events_processed, "now": engine.now,
        "exits": (paused.cause, done.cause),
    }


def test_an_empty_domain_changes_nothing():
    """A third, empty domain fires the same events at the same clocks
    in the same number of windows as two."""
    pair = _run_soup(2)
    many = _run_soup(3)
    assert pair == many
    assert [tag for tag, _, _ in pair["log"]] == [
        "a1", "b1", "a1>b", "a3", "a4", "b4", "b4>a", "a5", "b30", "a40"]
    assert pair["exits"] == ("simulate() limit reached",
                             "event queue empty")


def test_facade_inspection_mirrors_the_queues():
    queues = _fresh_queues()
    engine = ShardedEngine(queues, links=[])
    assert engine.empty() and len(engine) == 0
    assert engine.next_tick() is None
    queues[0].call_at(7, lambda: None)
    queues[1].call_at(3, lambda: None)
    assert len(engine) == 2
    assert engine.next_tick() == 3
    engine.run()
    assert engine.now == max(queue.now for queue in queues)
    assert engine.events_processed == 2


def test_describe_is_json_safe_counters():
    queues = _fresh_queues()
    queues[0].call_at(1, lambda: None)
    engine = ShardedEngine(queues, links=[])
    engine.run()
    doc = engine.describe()
    assert doc == {
        "domains": 2,
        "domain_names": ["q0", "q1"],
        "events_per_domain": [1, 0],
        "windows": doc["windows"],
        "deliveries": 0,
    }
    assert doc["windows"] >= 1


# -- config plumbing ----------------------------------------------------
def test_sim_config_validates_sharding_knobs():
    with pytest.raises(ValueError):
        SimConfig(domains=0)
    with pytest.raises(ValueError):
        SimConfig(boundary_reference=True, domains=2)


def test_sim_result_sharding_survives_serialization():
    from repro.g5 import System, simulate
    from repro.workloads.registry import get_workload

    workload = get_workload("sieve")
    system = System(SimConfig(cpu_model="timing", mode=workload.mode,
                              domains=2))
    system.set_se_workload(workload.build("test"), process_name="sieve")
    result = simulate(system, max_ticks=10**11)
    assert result.sharding is not None
    packed = pack_sim_result(result)
    restored = unpack_sim_result(packed)
    assert restored.sharding == result.sharding
    assert restored.sharding["deliveries"] > 0
