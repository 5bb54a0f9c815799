"""Sharded simulation: domain-partitioned event queues with exact merge.

The paper attributes most of gem5's host time to the single global event
loop; parti-gem5 (PAPERS.md) breaks that bottleneck by partitioning the
SimObject graph into *domains* — one per CPU plus one memory domain
holding the crossbar, caches, and DRAM — each with its own event queue,
synchronized conservatively at domain boundaries.  This module is that
architecture for the repro simulator, wired so sharded runs stay
**bit-identical** to single-queue runs.

Design
------
- Every :class:`~repro.events.queue.EventQueue` draws event sequence
  numbers from one global counter, so head keys ``(tick, priority,
  seq)`` from different queues are directly comparable and never tie.
- The engine repeatedly picks the queue holding the globally-smallest
  head key and runs it as a *window* bounded (exclusively) by the
  smallest head key of any other queue — only events a single merged
  queue would fire next ever execute, so the total event order is
  exactly the single-queue order.
- Cross-domain timing traffic goes through a :class:`BoundaryLink`
  installed on the port pair.  A link runs the receiver
  *synchronously* at the sender's position in the merged order (the
  single-queue call graph, reproduced exactly), then clamps the
  sender's window to the receiver's new head so no later local event
  can overtake the packet's consequences.  Links carry no latency, so
  guest timing is untouched.

Intra-domain scheduling is completely untouched: each domain queue keeps
the zero-heap tick loop, and the atomic protocol bypasses the
links entirely (it carries no event-queue state), so Atomic-mode runs
shard with no boundary traffic at all.  The engine never reads the wall
clock; host time is measured from outside (``perf/``, ``sim_multi``).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..events import EventQueue, ExitEvent
from ..events.queue import EventQueueError
from .mem.port import Port, RequestPort

#: Window bound meaning "unbounded": sorts after every real event key.
_NO_BOUND = (2 ** 63, 2 ** 31, 0)

#: Sorts before any real priority at a given tick (gem5's span is small).
_MIN_PRI = -(2 ** 31)


class BoundaryLink:
    """Cross-domain connection between a request/response port pair.

    The link runs the receiver's protocol callback *synchronously*,
    inside the sender's window, exactly where a single merged queue
    would run it — so every schedule the receiver performs draws the
    same global sequence number it would on a single queue.  That is
    what keeps same-``(tick, priority)`` ties anywhere downstream
    resolving identically, and therefore registers, memory, stats, and
    traces bit-identical.  (A deferred delivery event cannot guarantee
    this: it would execute after every same-tick event of lower
    priority, so the receiver's schedules — and hence later tie breaks
    — could reorder against the sender's.  Harmless with one CPU in
    flight; observable the moment two cores race a spinlock.)
    """

    __slots__ = ("name", "req_queue", "resp_queue", "deliveries")

    def __init__(self, name: str, req_queue: EventQueue,
                 resp_queue: EventQueue) -> None:
        self.name = name
        self.req_queue = req_queue      # queue of the request-port owner
        self.resp_queue = resp_queue    # queue of the response-port owner
        self.deliveries = 0

    def install(self, req_port: Port, resp_port: Port) -> None:
        req_port.link = self
        resp_port.link = self

    # -- timing protocol (called from repro.g5.mem.port) ----------------
    def send_req(self, resp_port: Port, pkt) -> bool:
        self._deliver(self.req_queue, self.resp_queue,
                      resp_port.owner.recv_timing_req, pkt)
        # Boundary targets are never busy: the receiver accepts at
        # delivery time (no model in this tree rejects requests).
        return True

    def send_resp(self, req_port: Port, pkt) -> None:
        self._deliver(self.resp_queue, self.req_queue,
                      req_port.recv_timing_resp, pkt)

    def send_retry(self, req_port: Port) -> None:
        self._deliver(self.resp_queue, self.req_queue,
                      req_port.recv_req_retry, None)

    # -- internals ------------------------------------------------------
    def _deliver(self, sender: EventQueue, receiver: EventQueue,
                 target: Callable, pkt) -> None:
        self.deliveries += 1
        # The receiver's clock may lag — pull it up so the callback's
        # relative schedules land at the global tick.
        if receiver.now < sender.now:
            receiver.now = sender.now
        if pkt is not None:
            target(pkt)
        else:
            target()
        # The callback may have scheduled receiver-side events below
        # the sender's window bound; stop the sender there so the
        # merged order stays exact.  No-op outside a window.
        head = receiver._peek_live()
        if head is not None:
            sender.clamp_window(head[0])


class ShardedEngine:
    """Merged run loop over per-domain event queues.

    Drop-in for the slice of the :class:`~repro.events.queue.EventQueue`
    interface the simulation drivers use (``run``, ``now``,
    ``events_processed``, ``next_tick``, ``empty``), so ``System.eventq``
    can point at the engine once the graph is partitioned.
    """

    def __init__(self, domains: List[EventQueue],
                 links: List[BoundaryLink]) -> None:
        if len(domains) < 2:
            raise ValueError("a sharded engine needs at least two domains")
        self.domains = list(domains)
        self.links = list(links)
        self.windows = 0                 # domain windows executed

    # -- EventQueue-facade inspection -----------------------------------
    @property
    def now(self) -> int:
        return max(queue.now for queue in self.domains)

    @property
    def events_processed(self) -> int:
        return sum(queue.events_processed for queue in self.domains)

    def __len__(self) -> int:
        return sum(len(queue) for queue in self.domains)

    def empty(self) -> bool:
        return len(self) == 0

    def next_tick(self) -> Optional[int]:
        ticks = [queue.next_tick() for queue in self.domains]
        live = [tick for tick in ticks if tick is not None]
        return min(live) if live else None

    @property
    def deliveries(self) -> int:
        return sum(link.deliveries for link in self.links)

    def describe(self) -> dict:
        """JSON-safe sharding counters (carried on ``SimResult``)."""
        return {
            "domains": len(self.domains),
            "domain_names": [queue.name for queue in self.domains],
            "events_per_domain": [queue.events_processed
                                  for queue in self.domains],
            "windows": self.windows,
            "deliveries": self.deliveries,
        }

    # -- execution ------------------------------------------------------
    def run(self, max_tick: Optional[int] = None,
            max_events: Optional[int] = None) -> ExitEvent:
        """Run the merged loop until exit, drain, or the tick limit.

        Mirrors :meth:`EventQueue.run` semantics: events at exactly
        ``max_tick`` still fire, and pausing leaves every domain at
        ``max_tick`` so a resumed run continues seamlessly.
        """
        if max_events is not None:
            raise EventQueueError(
                "sharded simulation does not support max_events; "
                "use max_tick or run unsharded")
        limit_key = (None if max_tick is None
                     else (max_tick + 1, _MIN_PRI, 0))
        return self._run_many(max_tick, limit_key)

    def _run_many(self, max_tick, limit_key) -> ExitEvent:
        """The N-domain loop: run the domain holding the globally
        smallest head key up to the smallest head key of any other."""
        domains = self.domains
        while True:
            best = -1
            best_key = None
            bound = None    # smallest head key of any *other* domain
            for index, queue in enumerate(domains):
                entry = queue._peek_live()
                if entry is None:
                    continue
                key = entry[0]
                if best_key is None or key < best_key:
                    bound = best_key
                    best_key = key
                    best = index
                elif bound is None or key < bound:
                    bound = key
            if best_key is None:
                return ExitEvent("event queue empty", code=0)
            if limit_key is not None and best_key >= limit_key:
                for queue in domains:
                    queue.now = max_tick
                return ExitEvent("simulate() limit reached", code=0)
            if bound is None:
                bound = _NO_BOUND
            if limit_key is not None and limit_key < bound:
                bound = limit_key
            exit_event = domains[best].run_window(bound)
            self.windows += 1
            if exit_event is not None:
                # Bring lagging domains up to the exit tick; no live
                # event below it can exist (the exit was globally next).
                for queue in domains:
                    if queue.now < exit_event.when:
                        queue.now = exit_event.when
                return exit_event


# ----------------------------------------------------------------------
# partitioning a built System
# ----------------------------------------------------------------------
def memory_domain_objects(system) -> list:
    """The SimObjects of the memory domain (hierarchy roots + subtrees).

    Single-core systems keep the legacy partition (both L1s live with
    the rest of the hierarchy); on a multi-core system each L1 pair is
    private to its core's domain, so only the shared levels — crossbar,
    L2, memory controller — belong to the memory domain.
    """
    if len(system.cpus) > 1:
        roots = [system.l2bus, system.l2cache, system.memctrl]
    else:
        roots = [system.icache, system.dcache, system.l2bus,
                 system.l2cache, system.memctrl]
    members = []
    for root in roots:
        members.append(root)
        members.extend(root.descendants())
    return members


def core_domain_objects(system, index: int) -> list:
    """The SimObjects of core ``index``'s domain (CPU plus private L1s).

    Only meaningful on multi-core systems; a single-core system has its
    L1s on the memory domain (see :func:`memory_domain_objects`).
    """
    roots = [system.cpus[index], system.icaches[index],
             system.dcaches[index]]
    members = []
    for root in roots:
        members.append(root)
        members.extend(root.descendants())
    return members


def object_ports(obj) -> list:
    """Every Port reachable from ``obj``'s attributes (lists included)."""
    ports = []
    attrs = vars(obj)
    for name in sorted(attrs):
        value = attrs[name]
        if isinstance(value, Port):
            ports.append(value)
        elif isinstance(value, list):
            ports.extend(item for item in value if isinstance(item, Port))
    return ports


def boundary_pairs(system) -> list:
    """Bound ``(request, response)`` port pairs that span the boundary."""
    member_ids = {id(obj) for obj in memory_domain_objects(system)}
    pairs = []
    for obj in [system] + list(system.descendants()):
        for port in object_ports(obj):
            if not isinstance(port, RequestPort) or port.peer is None:
                continue
            if (id(port.owner) in member_ids) != \
                    (id(port.peer.owner) in member_ids):
                pairs.append((port, port.peer))
    return pairs


def shard_system(system) -> Optional[ShardedEngine]:
    """Partition a built ``System`` according to its ``SimConfig``.

    With ``domains > 1`` the memory hierarchy moves onto its own event
    queue, boundary links bridge the CPU<->L1 port pairs, and the
    returned engine replaces ``system.eventq``.  With
    ``boundary_reference=True`` the same links are installed but every
    object stays on the single construction queue — the "single-queue
    path" the differential suite compares sharded runs against, with
    identical link semantics and one event queue.
    """
    config = system.config
    engine: Optional[ShardedEngine] = None
    if config.domains > 1:
        cpu_queue = system.eventq
        cpu_queue.name = "cpu0"
        mem_queue = EventQueue(name="mem")
        for obj in memory_domain_objects(system):
            obj.eventq = mem_queue
        core_queues = [cpu_queue]
        cores = len(system.cpus)
        if cores > 1:
            # One queue per core up to the requested domain count (the
            # memory domain takes the last slot); surplus cores share
            # queues round-robin.
            n_core_queues = min(config.domains - 1, cores)
            core_queues += [EventQueue(name=f"cpu{index}")
                            for index in range(1, n_core_queues)]
            for index in range(cores):
                queue = core_queues[index % n_core_queues]
                for obj in core_domain_objects(system, index):
                    obj.eventq = queue
    links = []
    for req_port, resp_port in boundary_pairs(system):
        link = BoundaryLink(
            name=f"link:{req_port.full_name}",
            req_queue=req_port.owner.eventq,
            resp_queue=resp_port.owner.eventq,
        )
        link.install(req_port, resp_port)
        links.append(link)
    system.boundary_links = links
    if config.domains > 1:
        engine = ShardedEngine(core_queues + [mem_queue], links)
        system.eventq = engine
    return engine
