"""Ports: the point-to-point connection fabric between memory objects.

Mirrors gem5's master/slave (request/response) port pairs with the three
access protocols:

- **atomic** — caller blocks, callee returns total latency in ticks;
- **timing** — requests and responses are separate events; and
- **functional** — debug access with no timing side effects.
"""

from __future__ import annotations

from typing import Optional

from .packet import Packet


class PortError(RuntimeError):
    """Raised on unbound ports or protocol misuse."""


class Port:
    """Common port plumbing: naming and peer binding.

    ``link`` is normally ``None`` (peer calls are direct).  Sharded
    simulation installs a :class:`~repro.g5.sharded.BoundaryLink` on
    both ports of a pair whose owners live on different event queues;
    the timing protocol then routes through the link, which calls the
    peer and keeps the merged event order exact (atomic and functional
    accesses stay direct — they carry no event-queue state).
    """

    __slots__ = ("name", "owner", "peer", "link")

    def __init__(self, name: str, owner) -> None:
        self.name = name
        self.owner = owner
        self.peer: Optional[Port] = None
        self.link = None

    @property
    def connected(self) -> bool:
        return self.peer is not None

    def bind(self, peer: "Port") -> None:
        if self.peer is not None or peer.peer is not None:
            raise PortError(
                f"port {self.full_name} or {peer.full_name} already bound")
        self.peer = peer
        peer.peer = self

    @property
    def full_name(self) -> str:
        owner_path = getattr(self.owner, "path", repr(self.owner))
        return f"{owner_path}.{self.name}"

    def _require_peer(self) -> "Port":
        if self.peer is None:
            raise PortError(f"port {self.full_name} is not connected")
        return self.peer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer.full_name if self.peer else "<unbound>"
        return f"<{type(self).__name__} {self.full_name} -> {peer}>"


class RequestPort(Port):
    """Initiates transactions (CPU side of a cache, cache's memory side)."""

    __slots__ = ()

    def send_atomic_fast(self, addr: int, size: int, is_write: bool) -> int:
        """Perform an atomic access; returns latency in ticks."""
        return self._require_peer().owner.recv_atomic_fast(
            addr, size, is_write)

    def atomic_fast_fn(self):
        """Bound packet-free atomic entry point of the connected peer.

        The port is the mediation point for every cross-object access:
        model code that wants to cache the peer's fast atomic callable
        must obtain it here rather than reaching through
        ``.peer.owner`` itself, so a boundary layer can wrap the
        crossing.
        """
        return self._require_peer().owner.recv_atomic_fast

    def send_atomic_wb_fast(self, addr: int, size: int) -> int:
        """Perform an atomic writeback; returns latency in ticks."""
        return self._require_peer().owner.recv_atomic_wb_fast(addr, size)

    def send_timing_req(self, pkt: Packet) -> bool:
        """Send a timing request; False means the target is busy (retry)."""
        peer = self._require_peer()
        assert isinstance(peer, ResponsePort)
        if self.link is not None:
            return self.link.send_req(peer, pkt)
        return peer.owner.recv_timing_req(pkt)

    def send_functional(self, pkt: Packet) -> None:
        peer = self._require_peer()
        assert isinstance(peer, ResponsePort)
        peer.owner.recv_functional(pkt)

    # Called by the peer ResponsePort:
    def recv_timing_resp(self, pkt: Packet) -> None:
        self.owner.recv_timing_resp(pkt)

    def recv_req_retry(self) -> None:
        self.owner.recv_req_retry()


class ResponsePort(Port):
    """Receives transactions (memory side of a CPU, CPU side of a cache)."""

    __slots__ = ()

    def send_timing_resp(self, pkt: Packet) -> None:
        """Deliver a response back to the requesting port."""
        peer = self._require_peer()
        assert isinstance(peer, RequestPort)
        if self.link is not None:
            self.link.send_resp(peer, pkt)
            return
        peer.recv_timing_resp(pkt)

    def send_retry(self) -> None:
        """Tell the requester a previously-rejected request may retry."""
        peer = self._require_peer()
        assert isinstance(peer, RequestPort)
        if self.link is not None:
            self.link.send_retry(peer)
            return
        peer.recv_req_retry()
