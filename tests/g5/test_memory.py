"""Tests for physical memory, packets, and ports."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import ClockDomain, EventQueue, Root
from repro.g5.mem.packet import (
    MemCmd,
    Packet,
    ifetch_req,
    read_req,
    write_req,
    writeback,
)
from repro.g5.mem.physmem import PAGE_SIZE, MemoryError_, PhysicalMemory
from repro.g5.mem.port import PortError, RequestPort, ResponsePort
from repro.host.trace import ExecutionRecorder


def make_memory(size=1 << 20) -> PhysicalMemory:
    root = Root("root", EventQueue(), ClockDomain(1e9), ExecutionRecorder())
    return PhysicalMemory("memory", root, size)


class TestPhysicalMemory:
    def test_roundtrip_basic(self):
        memory = make_memory()
        memory.write(0x100, 8, 0xDEADBEEF12345678)
        assert memory.read(0x100, 8) == 0xDEADBEEF12345678

    def test_little_endian_layout(self):
        memory = make_memory()
        memory.write(0x10, 4, 0x11223344)
        assert memory.read(0x10, 1) == 0x44
        assert memory.read(0x13, 1) == 0x11

    def test_cross_page_access(self):
        memory = make_memory()
        addr = PAGE_SIZE - 2
        memory.write(addr, 8, 0x0102030405060708)
        assert memory.read(addr, 8) == 0x0102030405060708

    def test_write_truncates_to_size(self):
        memory = make_memory()
        memory.write(0x20, 2, 0x12345)
        assert memory.read(0x20, 2) == 0x2345

    def test_out_of_range_rejected(self):
        memory = make_memory(size=PAGE_SIZE)
        with pytest.raises(MemoryError_):
            memory.read(PAGE_SIZE, 1)
        with pytest.raises(MemoryError_):
            memory.write(PAGE_SIZE - 1, 4, 0)
        with pytest.raises(MemoryError_):
            memory.read(0, 0)

    def test_lazy_page_allocation(self):
        memory = make_memory()
        assert memory.pages_touched == 0
        memory.write(0x0, 1, 1)
        memory.write(PAGE_SIZE * 5, 1, 1)
        assert memory.pages_touched == 2

    def test_host_addr_stable(self):
        memory = make_memory()
        first = memory.host_addr(0x123)
        again = memory.host_addr(0x123)
        assert first == again
        other_page = memory.host_addr(0x123 + PAGE_SIZE)
        assert other_page != first

    def test_block_roundtrip(self):
        memory = make_memory()
        data = bytes(range(100))
        memory.write_block(0x40, data)
        assert memory.read_block(0x40, 100) == data

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            make_memory(size=100)  # not page multiple

    @settings(max_examples=50)
    @given(st.integers(0, (1 << 20) - 9),
           st.sampled_from([1, 2, 4, 8]),
           st.integers(0, (1 << 64) - 1))
    def test_roundtrip_property(self, addr, size, value):
        memory = make_memory()
        memory.write(addr, size, value)
        assert memory.read(addr, size) == value & ((1 << (size * 8)) - 1)


class TestPacket:
    def test_request_to_response(self):
        pkt = read_req(0x1000, 8)
        assert pkt.is_request and pkt.needs_response
        pkt.make_response()
        assert pkt.cmd is MemCmd.READ_RESP
        assert pkt.is_response

    def test_ifetch_flag(self):
        pkt = ifetch_req(0x1000, 64)
        assert pkt.is_instruction
        pkt.make_response()
        assert pkt.cmd is MemCmd.IFETCH_RESP
        assert pkt.is_instruction

    def test_writeback_needs_no_response(self):
        pkt = writeback(0x40, 64)
        assert pkt.is_request
        assert not pkt.needs_response
        with pytest.raises(ValueError):
            pkt.cmd.response()

    def test_line_addr(self):
        pkt = read_req(0x1234, 4)
        assert pkt.line_addr(64) == 0x1200

    def test_sender_state_stack(self):
        pkt = write_req(0x10, 4, 7)
        pkt.push_state("a")
        pkt.push_state("b")
        assert pkt.pop_state() == "b"
        assert pkt.pop_state() == "a"
        with pytest.raises(RuntimeError):
            pkt.pop_state()

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Packet(MemCmd.READ_REQ, 0x10, 0)
        with pytest.raises(ValueError):
            Packet(MemCmd.READ_REQ, -1, 4)

    def test_packet_ids_unique(self):
        assert read_req(0, 4).packet_id != read_req(0, 4).packet_id


class _Responder:
    """Trivial response-port owner for port plumbing tests."""

    def __init__(self):
        self.port = ResponsePort("port", self)
        self.atomic_accesses = []
        self.timing_packets = []

    def recv_atomic_fast(self, addr, size, is_write):
        self.atomic_accesses.append((addr, size, is_write))
        return 100

    def recv_timing_req(self, pkt):
        self.timing_packets.append(pkt)
        return True

    def recv_functional(self, pkt):
        pkt.data = 0x55


class _Requester:
    def __init__(self):
        self.port = RequestPort("port", self)
        self.responses = []

    def recv_timing_resp(self, pkt):
        self.responses.append(pkt)

    def recv_req_retry(self):
        pass


class TestPorts:
    def test_bind_and_atomic(self):
        requester, responder = _Requester(), _Responder()
        requester.port.bind(responder.port)
        latency = requester.port.send_atomic_fast(0, 8, False)
        assert latency == 100
        assert responder.atomic_accesses == [(0, 8, False)]

    def test_unbound_port_raises(self):
        requester = _Requester()
        with pytest.raises(PortError):
            requester.port.send_atomic_fast(0, 8, False)

    def test_double_bind_rejected(self):
        requester, responder = _Requester(), _Responder()
        requester.port.bind(responder.port)
        other = _Responder()
        with pytest.raises(PortError):
            requester.port.bind(other.port)

    def test_timing_response_routes_back(self):
        requester, responder = _Requester(), _Responder()
        requester.port.bind(responder.port)
        pkt = read_req(0, 8)
        requester.port.send_timing_req(pkt)
        pkt.make_response()
        responder.port.send_timing_resp(pkt)
        assert requester.responses == [pkt]

    def test_functional(self):
        requester, responder = _Requester(), _Responder()
        requester.port.bind(responder.port)
        pkt = read_req(0, 8)
        requester.port.send_functional(pkt)
        assert pkt.data == 0x55
