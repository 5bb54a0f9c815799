"""Runtime ownership sanitizer: dynamic validation of the race pass.

``SimConfig(sanitize=True)`` (CLI: ``repro-g5 simulate --sanitize``)
arms a sharded run with ownership-checking hooks:

- the :class:`~repro.g5.sharded.ShardedEngine` publishes which domain's
  window is currently executing (``current_domain``);
- the hot SimObjects of both domains (CPU, L1s, crossbar, L2, memory
  controller) have their ``__setattr__`` replaced by an
  attribute-access tripwire that records a violation whenever state is
  written from a window its owner domain is not running;
- the boundary request ports wrap their synchronous crossing channels
  (the atomic/functional protocol and ``atomic_fast_fn``) to mark the
  access *boundary-mediated* — crossing through the port is the
  sanctioned path, so the tripwire sees the peer's domain as active for
  the duration of the call.  Zero-latency timing sends cross the same
  way (the :class:`~repro.g5.sharded.BoundaryLink` runs the receiver
  synchronously to keep the merged order exact) and publish their
  crossings through the link's ``sanitizer`` hook.

The sanitizer only observes: it never reorders, delays, or suppresses
an access, so a sanitized sharded run stays bit-identical to the plain
single-queue run (``tests/g5/test_sanitize.py`` enforces this for all
four CPU models).  A run with zero recorded violations is the dynamic
proof that the static ``race`` lint verdicts are sound for that
workload; re-introducing a known bypass (binding ``peer.owner`` entry
points directly) makes the tripwires fire, which is the precision
cross-check.

``PhysicalMemory`` is deliberately unmonitored: it is the shared data
plane (see ``repro.analysis.ownership.SHARED_DATA_CLASSES``) — layer
(c) maps it into shared memory rather than assigning it a domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class OwnershipViolation:
    """One cross-domain write observed outside the boundary channel."""

    path: str            # dotted SimObject path of the written object
    attr: str            # attribute written
    owner_domain: str    # domain that owns the object
    active_domain: str   # domain whose window performed the write
    tick: int            # simulated tick of the write

    def to_json(self) -> dict:
        return {"path": self.path, "attr": self.attr,
                "owner_domain": self.owner_domain,
                "active_domain": self.active_domain, "tick": self.tick}


class OwnershipSanitizer:
    """Current-domain bookkeeping plus the violation log."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.domain_names = [queue.name for queue in engine.domains]
        #: Index of the domain whose window is executing (None outside
        #: the run loop: construction, workload load, stat dump).
        self.current_domain: Optional[int] = None
        self.checked_writes = 0
        self.boundary_crossings = 0
        self.violations: List[OwnershipViolation] = []
        self.monitored: List[str] = []
        self._domains_by_id: dict = {}
        self._stack: List[Optional[int]] = []   # boundary-crossing marks
        self._object_classes: dict = {}
        self._port_classes: dict = {}

    # -- domain bookkeeping ---------------------------------------------
    def claim(self, obj, domain_index: int) -> None:
        self._domains_by_id[id(obj)] = domain_index

    def domain_of(self, obj) -> Optional[int]:
        return self._domains_by_id.get(id(obj))

    def enter(self, target) -> None:
        """Mark a sanctioned boundary crossing into ``target``'s domain."""
        self.boundary_crossings += 1
        self._stack.append(self._domains_by_id.get(id(target)))

    def leave(self) -> None:
        self._stack.pop()

    # -- the tripwire ---------------------------------------------------
    def check(self, obj, attr: str) -> None:
        self.checked_writes += 1
        active = self._stack[-1] if self._stack else self.current_domain
        if active is None:
            return
        owner = self._domains_by_id.get(id(obj))
        if owner is None or owner == active:
            return
        self.violations.append(OwnershipViolation(
            path=obj.path,
            attr=attr,
            owner_domain=self.domain_names[owner],
            active_domain=self.domain_names[active],
            tick=self.engine.now,
        ))

    # -- instrumented classes -------------------------------------------
    def tripwired_class(self, cls):
        """Subclass of ``cls`` whose ``__setattr__`` checks ownership."""
        cached = self._object_classes.get(cls)
        if cached is not None:
            return cached
        sanitizer = self
        original = cls.__setattr__

        def __setattr__(self, name, value):
            sanitizer.check(self, name)
            original(self, name, value)

        sub = type(cls.__name__, (cls,), {"__setattr__": __setattr__})
        sub.__module__ = cls.__module__
        sub.__qualname__ = cls.__qualname__
        self._object_classes[cls] = sub
        return sub

    def sanitized_port_class(self, cls):
        """Subclass of ``cls`` marking synchronous sends as mediated.

        Timing sends cross via the boundary links, which publish their
        own mediation marks (latency-delayed ones execute in the
        receiver's window anyway); the synchronous protocols — atomic,
        functional, and the cached ``atomic_fast_fn`` entry points —
        run peer code inside the sender's window and need the explicit
        mark here.
        """
        cached = self._port_classes.get(cls)
        if cached is not None:
            return cached
        sanitizer = self
        namespace = {"__slots__": ()}

        def _crossing(method_name):
            original = getattr(cls, method_name)

            def wrapper(self, *args):
                peer = self.peer
                sanitizer.enter(peer.owner if peer is not None else None)
                try:
                    return original(self, *args)
                finally:
                    sanitizer.leave()

            wrapper.__name__ = method_name
            wrapper.__qualname__ = f"{cls.__qualname__}.{method_name}"
            return wrapper

        for method in ("send_atomic_fast", "send_atomic_wb_fast",
                       "send_functional"):
            if hasattr(cls, method):
                namespace[method] = _crossing(method)

        if hasattr(cls, "atomic_fast_fn"):
            def atomic_fast_fn(self):
                peer_owner = self._require_peer().owner
                fn = peer_owner.recv_atomic_fast

                def checked(addr, size, is_write,
                            _fn=fn, _target=peer_owner):
                    sanitizer.enter(_target)
                    try:
                        return _fn(addr, size, is_write)
                    finally:
                        sanitizer.leave()

                return checked

            namespace["atomic_fast_fn"] = atomic_fast_fn

        sub = type(cls.__name__, (cls,), namespace)
        sub.__module__ = cls.__module__
        sub.__qualname__ = cls.__qualname__
        self._port_classes[cls] = sub
        return sub

    # -- reporting ------------------------------------------------------
    def describe(self) -> dict:
        """JSON-safe sanitizer report (carried on ``SimResult``)."""
        return {
            "domains": list(self.domain_names),
            "monitored": list(self.monitored),
            "checked_writes": self.checked_writes,
            "boundary_crossings": self.boundary_crossings,
            "violations": [v.to_json() for v in self.violations],
        }


def install_sanitizer(system) -> OwnershipSanitizer:
    """Arm a sharded system with ownership tripwires.

    Called by ``System.__init__`` when ``config.sanitize`` is set,
    after :func:`~repro.g5.sharded.shard_system` has partitioned the
    graph (every SimObject's ``eventq`` names its owning domain).
    """
    from .sharded import ShardedEngine, boundary_pairs

    engine = system.sharded
    if not isinstance(engine, ShardedEngine):
        raise ValueError(
            "the ownership sanitizer requires a sharded system "
            "(SimConfig(domains >= 2))")
    sanitizer = OwnershipSanitizer(engine)
    queue_index = {id(queue): index
                   for index, queue in enumerate(engine.domains)}
    for obj in [system, *system.descendants()]:
        index = queue_index.get(id(obj.eventq))
        if index is not None:
            sanitizer.claim(obj, index)
    # Attribute tripwires on the hot objects of every domain (per-core
    # CPU + L1 triples, then the shared hierarchy; at one core this is
    # the legacy cpu/icache/dcache/l2bus/l2/mem_ctrl order).
    # PhysicalMemory stays out: shared data plane by design.
    hot: list = []
    for cpu, icache, dcache in zip(system.cpus, system.icaches,
                                   system.dcaches):
        hot.extend((cpu, icache, dcache))
    hot.extend((system.l2bus, system.l2cache, system.memctrl))
    for obj in hot:
        obj.__class__ = sanitizer.tripwired_class(type(obj))
        sanitizer.monitored.append(obj.path)
    # Mediation marks on the boundary request ports (synchronous
    # protocols run peer code inside the sender's window).
    for req_port, _resp_port in boundary_pairs(system):
        req_port.__class__ = sanitizer.sanitized_port_class(type(req_port))
    # Zero-latency timing sends also run peer code synchronously — the
    # links publish those crossings themselves.
    for link in engine.links:
        link.sanitizer = sanitizer
    # Coherence probes walk peer L1 tag stores synchronously; the
    # CoherenceDomain publishes each probe as a mediated crossing.
    if getattr(system, "coherence", None) is not None:
        system.coherence.sanitizer = sanitizer
    engine.sanitizer = sanitizer
    return sanitizer
