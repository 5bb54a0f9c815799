"""Classic set-associative cache model (gem5's ``BaseCache`` analogue).

Timing is modelled through the event queue; data correctness is handled
functionally at the memory controller (see :mod:`repro.g5.mem.dram`), so
packets here carry addresses and sizes only.  The cache supports the
packet-free atomic protocol and the timing protocol, write-allocate +
write-back policy, LRU replacement, and MSHR merging of outstanding
misses.

Host instrumentation: every lookup/fill/eviction reports the simulator
function executed plus the host address of the tag-store slice touched,
so the *host* data-cache behaviour of running this simulator emerges from
the tag-store layout — one of the mechanisms behind the paper's claim
that gem5's data set is small and cache-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...events import CallbackEvent, SimObject
from .packet import MemCmd, Packet, writeback
from .port import RequestPort, ResponsePort


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency parameters of one cache."""

    size: int
    assoc: int
    line_size: int = 64
    tag_latency: int = 1       # cycles to check tags
    data_latency: int = 1      # extra cycles to return data on a hit
    response_latency: int = 1  # cycles to forward a fill upward
    mshrs: int = 8
    write_back: bool = True
    prefetcher: str = "none"   # "none" or "nextline"

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ValueError("cache size/assoc/line_size must be positive")
        if self.size % (self.assoc * self.line_size):
            raise ValueError(
                f"cache size {self.size} not divisible by assoc*line "
                f"({self.assoc}*{self.line_size})")
        if self.prefetcher not in ("none", "nextline"):
            raise ValueError(
                f"unknown prefetcher {self.prefetcher!r}; choose "
                f"'none' or 'nextline'")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)


class _Line:
    """One tag-store entry."""

    __slots__ = ("tag", "valid", "dirty", "lru", "prefetched")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.lru = 0
        self.prefetched = False


class _MSHR:
    """Miss-status holding register: one outstanding line fill."""

    __slots__ = ("line_addr", "targets", "is_prefetch")

    def __init__(self, line_addr: int) -> None:
        self.line_addr = line_addr
        self.targets: list[Packet] = []
        self.is_prefetch = False


class Cache(SimObject):
    """A single cache level."""

    def __init__(self, name: str, parent, params: CacheParams) -> None:
        super().__init__(name, parent)
        self.params = params
        self.cpu_side = ResponsePort("cpu_side", self)
        self.mem_side = RequestPort("mem_side", self)
        # Snooping bus membership (multi-core L1 data caches only); set
        # by CoherenceDomain.attach.  None keeps every hook dormant.
        self.coherence = None
        # Sets start empty and grow to ``assoc`` lines on fill.
        self._sets: list[list[_Line]] = [[] for _ in range(params.n_sets)]
        self._lru_clock = 0
        self._mshrs: dict[int, _MSHR] = {}
        # Latencies in ticks, precomputed for the atomic protocol.
        self._tag_ticks = self.cycles(params.tag_latency)
        self._data_ticks = self.cycles(params.data_latency)
        self._resp_ticks = self.cycles(params.response_latency)
        # Host-side identity of this instance's tag store: ~10 bytes/line of
        # metadata, mirroring gem5's tag arrays.
        self._tags_host_base = self.host_alloc(
            max(16, params.n_sets * params.assoc * 10), "tagstore")
        self._fn_access = self.host_fn("BaseCache::access")
        self._fn_recv_timing = self.host_fn("BaseCache::recvTimingReq")
        self._fn_fill = self.host_fn("BaseCache::handleFill")
        self._fn_evict = self.host_fn("Cache::evictBlock")
        self._fn_wb = self.host_fn("Cache::writebackBlk")
        self._fn_mshr = self.host_fn("MSHR::allocateTarget")
        self._fn_resp = self.host_fn("BaseCache::recvTimingResp")
        self._fn_atomic = self.host_fn("Cache::recvAtomic")
        self._fn_prefetch = self.host_fn("Prefetcher::notify")

    def reg_stats(self) -> None:
        stats = self.stats
        self.stat_hits = stats.scalar("overallHits", "hits for all accesses")
        self.stat_misses = stats.scalar("overallMisses", "misses for all accesses")
        self.stat_accesses = stats.formula(
            "overallAccesses", lambda: self.stat_hits.value()
            + self.stat_misses.value(), "total accesses")
        self.stat_miss_rate = stats.formula(
            "overallMissRate",
            lambda: self.stat_misses.value() / max(1, self.stat_hits.value()
                                                   + self.stat_misses.value()),
            "miss rate for all accesses")
        self.stat_writebacks = stats.scalar("writebacks", "dirty evictions")
        self.stat_mshr_merges = stats.scalar(
            "mshrMerges", "misses merged into an outstanding MSHR")
        self.stat_fills = stats.scalar("fills", "lines filled")
        self.stat_prefetches = stats.scalar(
            "prefetchesIssued", "prefetch fills issued")
        self.stat_prefetch_useful = stats.scalar(
            "prefetchUseful", "demand hits on prefetched lines")
        self.stat_snoops = stats.scalar(
            "snoops", "coherence probes received from peer caches")
        self.stat_snoop_invalidates = stats.scalar(
            "snoopInvalidates", "resident lines invalidated by snoops")
        self.stat_snoop_writebacks = stats.scalar(
            "snoopWritebacks", "dirty lines demoted (M->S) by snoops")

    # ------------------------------------------------------------------
    # tag-store helpers
    # ------------------------------------------------------------------
    def _index(self, line_addr: int) -> int:
        return (line_addr // self.params.line_size) % self.params.n_sets

    def _set_host_addr(self, set_index: int) -> int:
        return self._tags_host_base + set_index * self.params.assoc * 10

    def _lookup(self, line_addr: int,
                demand: bool = True) -> Optional[_Line]:
        set_index = self._index(line_addr)
        self.host_record(self._fn_access, self._set_host_addr(set_index))
        for line in self._sets[set_index]:
            if line.valid and line.tag == line_addr:
                self._lru_clock += 1
                line.lru = self._lru_clock
                if demand and line.prefetched:
                    line.prefetched = False
                    self.stat_prefetch_useful.inc()
                    # Chain: a hit on a prefetched line keeps the stream
                    # running ahead (standard next-line behaviour).
                    if self._timing_mode:
                        self._maybe_prefetch_timing(line_addr)
                    else:
                        self._maybe_prefetch_atomic(line_addr)
                return line
        return None

    def _fill(self, line_addr: int, prefetched: bool = False) -> None:
        """Insert ``line_addr``; evict (and maybe write back) the LRU victim."""
        set_index = self._index(line_addr)
        self.host_record(self._fn_fill, self._set_host_addr(set_index))
        cache_set = self._sets[set_index]
        if len(cache_set) < self.params.assoc:
            # A never-used way: what min(lru) would pick (lru 0, after
            # every used way) if the set were built up front.
            victim = _Line()
            cache_set.append(victim)
        else:
            victim = min(cache_set, key=lambda line: line.lru)
        if victim.valid:
            self.host_record(self._fn_evict, self._set_host_addr(set_index))
            if victim.dirty and self.params.write_back:
                self.stat_writebacks.inc()
                self.host_record(self._fn_wb)
                if self._timing_mode:
                    self.mem_side.send_timing_req(
                        writeback(victim.tag, self.params.line_size))
                else:
                    self.mem_side.send_atomic_wb_fast(
                        victim.tag, self.params.line_size)
        self._lru_clock += 1
        victim.tag = line_addr
        victim.valid = True
        victim.dirty = False
        victim.lru = self._lru_clock
        victim.prefetched = prefetched
        self.stat_fills.inc()
        if self.coherence is not None:
            # I -> S: peer M copies demote (and count a writeback).
            self.coherence.snoop_read(self, line_addr)

    def _maybe_prefetch_atomic(self, line_addr: int) -> None:
        """Next-line prefetch after an atomic demand miss (off the
        critical path: its latency is not charged to the request)."""
        if self.params.prefetcher != "nextline":
            return
        next_line = line_addr + self.params.line_size
        if self.contains(next_line):
            return
        self.host_record(self._fn_prefetch)
        self.stat_prefetches.inc()
        self.mem_side.send_atomic_fast(next_line, self.params.line_size,
                                       False)
        self._fill(next_line, prefetched=True)

    def _maybe_prefetch_timing(self, line_addr: int) -> None:
        """Next-line prefetch after a timing demand miss."""
        if self.params.prefetcher != "nextline":
            return
        next_line = line_addr + self.params.line_size
        if self.contains(next_line) or next_line in self._mshrs:
            return
        self.host_record(self._fn_prefetch)
        self.stat_prefetches.inc()
        mshr = _MSHR(next_line)
        mshr.is_prefetch = True
        self._mshrs[next_line] = mshr
        fill_pkt = Packet(MemCmd.READ_REQ, next_line, self.params.line_size)
        fill_pkt.push_state(self)
        self.mem_side.send_timing_req(fill_pkt)

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no LRU update)."""
        line_addr = addr & ~(self.params.line_size - 1)
        set_index = self._index(line_addr)
        return any(line.valid and line.tag == line_addr
                   for line in self._sets[set_index])

    def handle_snoop(self, line_addr: int, invalidate: bool) -> None:
        """Coherence probe from a peer L1 (via the CoherenceDomain).

        Scans the set without touching LRU state or the prefetcher:
        snoops are bus traffic, not demand accesses.  Data movement is
        functional, so a dirty copy is demoted by clearing the dirty bit
        and counting the writeback.
        """
        self.stat_snoops.inc()
        for line in self._sets[self._index(line_addr)]:
            if line.valid and line.tag == line_addr:
                if line.dirty:
                    self.stat_snoop_writebacks.inc()
                    line.dirty = False
                if invalidate:
                    self.stat_snoop_invalidates.inc()
                    line.valid = False
                return

    @property
    def resident_lines(self) -> int:
        return sum(1 for cache_set in self._sets
                   for line in cache_set if line.valid)

    #: Set by the last request's protocol; routes victim writebacks.
    _timing_mode = False

    # ------------------------------------------------------------------
    # atomic protocol (packet-free)
    # ------------------------------------------------------------------
    def recv_atomic_fast(self, addr: int, size: int, is_write: bool) -> int:
        """Atomic read/write access; returns the full latency in ticks."""
        self._timing_mode = False
        if self._rec_live:
            self.recorder.record(self._fn_atomic, 0)
        params = self.params
        line_addr = addr & ~(params.line_size - 1)
        latency = self._tag_ticks
        line = self._lookup(line_addr)
        if line is not None:
            self.stat_hits.inc()
            if is_write:
                if not line.dirty and self.coherence is not None:
                    self.coherence.snoop_write(self, line_addr)
                line.dirty = True
            return latency + self._data_ticks
        self.stat_misses.inc()
        latency += self.mem_side.send_atomic_fast(
            line_addr, params.line_size, False)
        self._fill(line_addr)
        self._maybe_prefetch_atomic(line_addr)
        line = self._lookup(line_addr)
        assert line is not None
        if is_write:
            if not line.dirty and self.coherence is not None:
                self.coherence.snoop_write(self, line_addr)
            line.dirty = True
        return latency + self._resp_ticks

    def recv_atomic_wb_fast(self, addr: int, size: int) -> int:
        """Atomic writeback of a dirty line from the level above."""
        self._timing_mode = False
        if self._rec_live:
            self.recorder.record(self._fn_atomic, 0)
        line_addr = addr & ~(self.params.line_size - 1)
        line = self._lookup(line_addr)
        if line is not None:
            line.dirty = True
            return self._tag_ticks
        # Not resident here: pass down (no allocation on writeback).
        return self.mem_side.send_atomic_wb_fast(addr, size)

    # ------------------------------------------------------------------
    # timing protocol
    # ------------------------------------------------------------------
    def recv_timing_req(self, pkt: Packet) -> bool:
        self._timing_mode = True
        self.host_record(self._fn_recv_timing)
        if pkt.cmd is MemCmd.WRITEBACK:
            # Absorb or forward writebacks without a response.
            line_addr = pkt.line_addr(self.params.line_size)
            line = self._lookup(line_addr)
            if line is not None:
                line.dirty = True
            else:
                self.mem_side.send_timing_req(pkt)
            return True
        delay = self.cycles(self.params.tag_latency)
        self.schedule_in(
            CallbackEvent(lambda: self._handle_timing(pkt),
                          name=f"{self.name}.lookup"),
            delay)
        return True

    def _handle_timing(self, pkt: Packet) -> None:
        line_addr = pkt.line_addr(self.params.line_size)
        line = self._lookup(line_addr)
        if line is not None:
            self.stat_hits.inc()
            if pkt.is_write:
                if not line.dirty and self.coherence is not None:
                    self.coherence.snoop_write(self, line_addr)
                line.dirty = True
            if pkt.needs_response:
                pkt.make_response()
                self.schedule_in(
                    CallbackEvent(lambda: self.cpu_side.send_timing_resp(pkt),
                                  name=f"{self.name}.hit_resp"),
                    self.cycles(self.params.data_latency))
            return
        self.stat_misses.inc()
        mshr = self._mshrs.get(line_addr)
        if mshr is not None:
            self.host_record(self._fn_mshr)
            self.stat_mshr_merges.inc()
            mshr.targets.append(pkt)
            return
        mshr = _MSHR(line_addr)
        mshr.targets.append(pkt)
        self._mshrs[line_addr] = mshr
        self.host_record(self._fn_mshr)
        fill_pkt = Packet(MemCmd.READ_REQ, line_addr, self.params.line_size)
        fill_pkt.push_state(self)
        self.mem_side.send_timing_req(fill_pkt)
        self._maybe_prefetch_timing(line_addr)

    def recv_timing_resp(self, pkt: Packet) -> None:
        """Fill returning from the level below."""
        self.host_record(self._fn_resp)
        owner = pkt.pop_state()
        assert owner is self, "response routed to the wrong cache"
        line_addr = pkt.line_addr(self.params.line_size)
        mshr = self._mshrs.pop(line_addr, None)
        self._fill(line_addr,
                   prefetched=bool(mshr is not None and mshr.is_prefetch))
        if mshr is None:
            return
        line = self._lookup(line_addr)
        assert line is not None
        delay = self.cycles(self.params.response_latency)
        for target in mshr.targets:
            if target.is_write:
                if not line.dirty and self.coherence is not None:
                    self.coherence.snoop_write(self, line_addr)
                line.dirty = True
            if target.needs_response:
                target.make_response()
                self.schedule_in(
                    CallbackEvent(self._make_responder(target),
                                  name=f"{self.name}.miss_resp"),
                    delay)

    def _make_responder(self, pkt: Packet):
        return lambda: self.cpu_side.send_timing_resp(pkt)

    def recv_req_retry(self) -> None:  # pragma: no cover - targets never busy
        pass

    # ------------------------------------------------------------------
    # functional protocol
    # ------------------------------------------------------------------
    def recv_functional(self, pkt: Packet) -> None:
        self.mem_side.send_functional(pkt)
