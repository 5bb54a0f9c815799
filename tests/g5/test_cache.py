"""Tests for the g5 classic cache, crossbar, and memory controller."""

import pytest

from repro.events import ClockDomain, EventQueue, Root
from repro.g5.mem import (
    Cache,
    CacheParams,
    CoherentXBar,
    MemCtrl,
    read_req,
    write_req,
)
from repro.host.trace import ExecutionRecorder


def make_system(cache_params=None):
    """Root + cache + memory controller wired directly."""
    root = Root("root", EventQueue(), ClockDomain(1e9), ExecutionRecorder())
    params = cache_params or CacheParams(size=4096, assoc=2, line_size=64)
    cache = Cache("l1", root, params)
    memctrl = MemCtrl("mem", root, size=1 << 20)
    cache.mem_side.bind(memctrl.port)
    root.reg_all_stats()
    return root, cache, memctrl


class _CPUStub:
    """Owner for the cpu-side port capturing timing responses."""

    def __init__(self, cache):
        from repro.g5.mem.port import RequestPort

        self.port = RequestPort("port", self)
        self.port.bind(cache.cpu_side)
        self.responses = []

    def recv_timing_resp(self, pkt):
        self.responses.append(pkt)

    def recv_req_retry(self):
        pass


class TestCacheParams:
    def test_n_sets(self):
        params = CacheParams(size=8192, assoc=2, line_size=64)
        assert params.n_sets == 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheParams(size=1000, assoc=3, line_size=64)
        with pytest.raises(ValueError):
            CacheParams(size=0, assoc=1)


class TestAtomicProtocol:
    def test_miss_then_hit(self):
        root, cache, _ = make_system()
        stub = _CPUStub(cache)
        first = stub.port.send_atomic_fast(0x100, 8, False)
        second = stub.port.send_atomic_fast(0x108, 8, False)  # same line
        assert cache.stat_misses.value() == 1
        assert cache.stat_hits.value() == 1
        assert first > second  # miss latency includes memory

    def test_eviction_on_conflict(self):
        params = CacheParams(size=128, assoc=1, line_size=64)  # 2 sets
        root, cache, _ = make_system(params)
        stub = _CPUStub(cache)
        stub.port.send_atomic_fast(0x000, 8, False)
        stub.port.send_atomic_fast(0x080, 8, False)  # same set, evicts
        stub.port.send_atomic_fast(0x000, 8, False)  # miss again
        assert cache.stat_misses.value() == 3

    def test_dirty_eviction_writes_back(self):
        params = CacheParams(size=128, assoc=1, line_size=64)
        root, cache, memctrl = make_system(params)
        stub = _CPUStub(cache)
        stub.port.send_atomic_fast(0x000, 8, True)
        stub.port.send_atomic_fast(0x080, 8, False)  # evict dirty line
        assert cache.stat_writebacks.value() == 1
        assert memctrl.stat_writes.value() == 1

    def test_lru_keeps_recently_used(self):
        params = CacheParams(size=256, assoc=2, line_size=64)  # 2 sets
        root, cache, _ = make_system(params)
        stub = _CPUStub(cache)
        # Set 0 lines: 0x000, 0x100, 0x200 (all map to set 0).
        stub.port.send_atomic_fast(0x000, 8, False)
        stub.port.send_atomic_fast(0x100, 8, False)
        stub.port.send_atomic_fast(0x000, 8, False)  # touch A again
        stub.port.send_atomic_fast(0x200, 8, False)  # evicts B (LRU)
        assert cache.contains(0x000)
        assert not cache.contains(0x100)

    def test_write_allocates_and_dirties(self):
        root, cache, _ = make_system()
        stub = _CPUStub(cache)
        stub.port.send_atomic_fast(0x40, 8, True)
        assert cache.contains(0x40)
        assert cache.resident_lines == 1


class TestTimingProtocol:
    def test_hit_responds_after_latency(self):
        root, cache, _ = make_system()
        stub = _CPUStub(cache)
        warm = read_req(0x100, 8)
        warm.push_state(stub)
        stub.port.send_timing_req(warm)
        root.eventq.run()
        assert len(stub.responses) == 1
        first_done = root.eventq.now
        hit = read_req(0x108, 8)
        hit.push_state(stub)
        stub.port.send_timing_req(hit)
        root.eventq.run()
        hit_latency = root.eventq.now - first_done
        assert len(stub.responses) == 2
        assert 0 < hit_latency < 10_000  # a few cycles at 1GHz

    def test_miss_goes_to_memory_and_back(self):
        root, cache, memctrl = make_system()
        stub = _CPUStub(cache)
        pkt = read_req(0x500, 8)
        pkt.push_state(stub)
        stub.port.send_timing_req(pkt)
        root.eventq.run()
        assert stub.responses == [pkt]
        assert pkt.is_response
        assert memctrl.stat_reads.value() == 1

    def test_mshr_merges_same_line(self):
        root, cache, memctrl = make_system()
        stub = _CPUStub(cache)
        a = read_req(0x600, 8)
        b = read_req(0x608, 8)  # same line
        a.push_state(stub)
        b.push_state(stub)
        stub.port.send_timing_req(a)
        stub.port.send_timing_req(b)
        root.eventq.run()
        assert len(stub.responses) == 2
        assert memctrl.stat_reads.value() == 1  # one fill for both
        assert cache.stat_mshr_merges.value() >= 1

    def test_timing_write_responds(self):
        root, cache, _ = make_system()
        stub = _CPUStub(cache)
        pkt = write_req(0x700, 8, 5)
        pkt.push_state(stub)
        stub.port.send_timing_req(pkt)
        root.eventq.run()
        assert stub.responses == [pkt]
        assert cache.contains(0x700)


class TestXBar:
    def test_routes_requests_and_responses(self):
        root = Root("root", EventQueue(), ClockDomain(1e9),
                    ExecutionRecorder())
        xbar = CoherentXBar("xbar", root)
        memctrl = MemCtrl("mem", root, size=1 << 20)
        xbar.mem_side.bind(memctrl.port)
        root.reg_all_stats()

        class Source:
            from repro.g5.mem.port import RequestPort

            def __init__(self, name):
                from repro.g5.mem.port import RequestPort
                self.port = RequestPort(name, self)
                self.responses = []

            def recv_timing_resp(self, pkt):
                self.responses.append(pkt)

            def recv_req_retry(self):
                pass

        a, b = Source("a"), Source("b")
        a.port.bind(xbar.new_cpu_side_port())
        b.port.bind(xbar.new_cpu_side_port())
        pkt_a = read_req(0x100, 64)
        pkt_a.push_state(a)
        pkt_b = read_req(0x200, 64)
        pkt_b.push_state(b)
        a.port.send_timing_req(pkt_a)
        b.port.send_timing_req(pkt_b)
        root.eventq.run()
        # Each source got exactly its own packet back... routing is by
        # the sender-state stack, so cross-delivery would fail pop_state.
        assert [p.addr for p in a.responses] == [0x100]
        assert [p.addr for p in b.responses] == [0x200]
        assert xbar.stat_packets.value() == 2

    def test_atomic_adds_latency(self):
        root = Root("root", EventQueue(), ClockDomain(1e9),
                    ExecutionRecorder())
        xbar = CoherentXBar("xbar", root, forward_latency=3)
        memctrl = MemCtrl("mem", root, size=1 << 20)
        xbar.mem_side.bind(memctrl.port)
        root.reg_all_stats()
        port = xbar.new_cpu_side_port()

        class Source:
            def __init__(self):
                from repro.g5.mem.port import RequestPort
                self.port = RequestPort("p", self)

            def recv_timing_resp(self, pkt):
                pass

            def recv_req_retry(self):
                pass

        src = Source()
        src.port.bind(port)
        latency = src.port.send_atomic_fast(0, 64, False)
        assert latency == memctrl.access_latency + 3 * 1000  # 3 cycles


class TestMemCtrl:
    def test_bandwidth_serialises_bursts(self):
        root = Root("root", EventQueue(), ClockDomain(1e9),
                    ExecutionRecorder())
        memctrl = MemCtrl("mem", root, size=1 << 20, latency_ns=10,
                          bandwidth_gbps=1.0)  # 1 byte/ns
        root.reg_all_stats()

        class Sink:
            def __init__(self):
                from repro.g5.mem.port import RequestPort
                self.port = RequestPort("p", self)
                self.times = []

            def recv_timing_resp(self, pkt):
                self.times.append(root.eventq.now)

            def recv_req_retry(self):
                pass

        sink = Sink()
        sink.port.bind(memctrl.port)
        for index in range(3):
            sink.port.send_timing_req(read_req(index * 64, 64))
        root.eventq.run()
        assert len(sink.times) == 3
        gaps = [b - a for a, b in zip(sink.times, sink.times[1:])]
        # 64B at 1GB/s = 64ns = 64000 ticks between completions.
        assert all(gap >= 64_000 for gap in gaps)
        assert memctrl.stat_queue_delay.value() > 0

    def test_functional_moves_data(self):
        root = Root("root", EventQueue(), ClockDomain(1e9),
                    ExecutionRecorder())
        memctrl = MemCtrl("mem", root, size=1 << 20)
        root.reg_all_stats()
        wpkt = write_req(0x30, 8, 0x1234)
        memctrl.recv_functional(wpkt)
        rpkt = read_req(0x30, 8)
        memctrl.recv_functional(rpkt)
        assert rpkt.data == 0x1234

    def test_invalid_params_rejected(self):
        root = Root("root", EventQueue(), ClockDomain(1e9),
                    ExecutionRecorder())
        with pytest.raises(ValueError):
            MemCtrl("bad", root, size=1 << 20, latency_ns=0)
