"""Coherent crossbar: routes packets between caches and the level below.

A simplified gem5 ``CoherentXBar``: N CPU-side response ports funnel into
one memory-side request port with a fixed forward/response latency.
Responses are routed back using the packet's sender-state stack.
"""

from __future__ import annotations

from ...events import CallbackEvent, SimObject
from .packet import Packet
from .port import RequestPort, ResponsePort


class _XBarSlavePort(ResponsePort):
    """CPU-side port; delegates protocol callbacks to the crossbar."""

    __slots__ = ("xbar",)

    def __init__(self, name: str, xbar: "CoherentXBar") -> None:
        super().__init__(name, xbar)
        self.xbar = xbar


class CoherentXBar(SimObject):
    """N-to-1 packet router with fixed latency."""

    def __init__(self, name: str, parent, forward_latency: int = 1,
                 response_latency: int = 1, width_bytes: int = 32) -> None:
        super().__init__(name, parent)
        self.forward_latency = forward_latency
        self.response_latency = response_latency
        self.width_bytes = width_bytes
        self.mem_side = RequestPort("mem_side", self)
        self._slave_ports: list[_XBarSlavePort] = []
        self._fn_forward = self.host_fn("CoherentXBar::recvTimingReq")
        self._fn_response = self.host_fn("CoherentXBar::recvTimingResp")

    def reg_stats(self) -> None:
        self.stat_packets = self.stats.scalar(
            "pktCount", "packets routed through this crossbar")
        self.stat_retries = self.stats.scalar(
            "retryCount", "requests initially rejected")

    def new_cpu_side_port(self) -> _XBarSlavePort:
        """Create another CPU-side port (one per upstream cache/CPU)."""
        port = _XBarSlavePort(f"cpu_side[{len(self._slave_ports)}]", self)
        self._slave_ports.append(port)
        return port

    # ------------------------------------------------------------------
    # protocol callbacks (shared by all CPU-side ports)
    # ------------------------------------------------------------------
    def recv_atomic_fast(self, addr: int, size: int, is_write: bool) -> int:
        """Atomic routing: one pktCount, forward latency plus below."""
        self.stat_packets.inc()
        return (self.cycles(self.forward_latency)
                + self.mem_side.send_atomic_fast(addr, size, is_write))

    def recv_atomic_wb_fast(self, addr: int, size: int) -> int:
        self.stat_packets.inc()
        return (self.cycles(self.forward_latency)
                + self.mem_side.send_atomic_wb_fast(addr, size))

    def recv_timing_req(self, pkt: Packet) -> bool:
        self.stat_packets.inc()
        self.host_record(self._fn_forward)
        if pkt.needs_response:
            pkt.push_state(self._source_port_for(pkt))
        self.schedule_in(
            CallbackEvent(lambda: self.mem_side.send_timing_req(pkt),
                          name=f"{self.name}.fwd"),
            self.cycles(self.forward_latency))
        return True

    def _source_port_for(self, pkt: Packet) -> _XBarSlavePort:
        # The immediate requester is the peer whose owner last touched the
        # packet; with point-to-point ports we recover it by asking each
        # slave port whether its peer sent this request.  In practice the
        # current sender is recorded by the port layer: the peer of the
        # port that called us.  Since Python port callbacks do not carry
        # the port, we route by the requester object pushed by caches, or
        # fall back to the single-port case.
        if len(self._slave_ports) == 1:
            return self._slave_ports[0]
        # Multi-port: the requester pushed itself (cache) or the CPU did;
        # find the slave port whose peer belongs to that owner.
        requester = pkt._sender_states[-1] if pkt._sender_states else None
        for port in self._slave_ports:
            peer = port.peer
            if peer is not None and peer.owner is requester:
                return port
        raise RuntimeError(
            f"{self.path}: cannot route response for packet {pkt!r}")

    def recv_timing_resp(self, pkt: Packet) -> None:
        self.host_record(self._fn_response)
        source = pkt.pop_state()
        assert isinstance(source, _XBarSlavePort)
        self.schedule_in(
            CallbackEvent(lambda: source.send_timing_resp(pkt),
                          name=f"{self.name}.resp"),
            self.cycles(self.response_latency))

    def recv_req_retry(self) -> None:  # pragma: no cover - targets never busy
        pass

    def recv_functional(self, pkt: Packet) -> None:
        self.mem_side.send_functional(pkt)
