"""Memory controller + DRAM timing model.

Owns the guest :class:`~repro.g5.mem.physmem.PhysicalMemory` backing
store (data correctness lives here) and models access timing as a fixed
device latency plus a bandwidth constraint: bursts are serialised at
``line_size / bandwidth`` intervals, so a flood of misses queues up.
"""

from __future__ import annotations

from ...events import CallbackEvent, SimObject, TICKS_PER_SECOND
from .packet import Packet
from .physmem import PhysicalMemory
from .port import ResponsePort


class MemCtrl(SimObject):
    """Single-channel memory controller."""

    def __init__(self, name: str, parent, size: int,
                 latency_ns: float = 60.0,
                 bandwidth_gbps: float = 12.8) -> None:
        super().__init__(name, parent)
        if latency_ns <= 0 or bandwidth_gbps <= 0:
            raise ValueError("latency and bandwidth must be positive")
        self.port = ResponsePort("port", self)
        self.memory = PhysicalMemory("memory", self, size)
        self.access_latency = int(latency_ns * TICKS_PER_SECOND / 1e9)
        self._ticks_per_byte = TICKS_PER_SECOND / (bandwidth_gbps * 1e9)
        self._next_free_tick = 0
        self._fn_access = self.host_fn("MemCtrl::recvTimingReq")
        self._fn_respond = self.host_fn("MemCtrl::processRespondEvent")

    def reg_stats(self) -> None:
        stats = self.stats
        self.stat_reads = stats.scalar("numReads", "read bursts serviced")
        self.stat_writes = stats.scalar("numWrites", "write bursts serviced")
        self.stat_bytes = stats.scalar("bytesAccessed", "total bytes moved")
        self.stat_queue_delay = stats.scalar(
            "totQueueDelay", "total ticks requests waited for bandwidth")

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def recv_atomic_fast(self, addr: int, size: int, is_write: bool) -> int:
        """Atomic access: one read or write burst, fixed latency."""
        if is_write:
            self.stat_writes.inc()
        else:
            self.stat_reads.inc()
        self.stat_bytes.inc(size)
        return self.access_latency

    def recv_atomic_wb_fast(self, addr: int, size: int) -> int:
        # A writeback is a write burst with no response.
        self.stat_writes.inc()
        self.stat_bytes.inc(size)
        return self.access_latency

    def recv_timing_req(self, pkt: Packet) -> bool:
        self.host_record(self._fn_access)
        self._account(pkt)
        burst_ticks = int(pkt.size * self._ticks_per_byte)
        start = max(self.now, self._next_free_tick)
        self.stat_queue_delay.inc(start - self.now)
        self._next_free_tick = start + burst_ticks
        if pkt.needs_response:
            pkt.make_response()
            respond_at = start + self.access_latency + burst_ticks
            self.schedule(
                CallbackEvent(self._make_responder(pkt),
                              name=f"{self.name}.resp"),
                respond_at)
        return True

    def _make_responder(self, pkt: Packet):
        def respond() -> None:
            self.host_record(self._fn_respond)
            self.port.send_timing_resp(pkt)
        return respond

    def recv_functional(self, pkt: Packet) -> None:
        # Functional accesses move data; timing accesses above do not.
        if pkt.is_write and pkt.data is not None:
            self.memory.write(pkt.addr, pkt.size, pkt.data)
        elif pkt.is_read:
            pkt.data = self.memory.read(pkt.addr, pkt.size)

    def _account(self, pkt: Packet) -> None:
        if pkt.is_write:
            self.stat_writes.inc()
        else:
            self.stat_reads.inc()
        self.stat_bytes.inc(pkt.size)
