"""O3CPU: out-of-order superscalar CPU model.

Modelled on gem5's O3 (itself loosely based on the Alpha 21264): a
seven-stage machine collapsed into per-cycle fetch → rename/dispatch →
issue → writeback → commit evaluation with a reorder buffer, instruction
queue, split load/store queues, a functional-unit pool, and a tournament
branch predictor.  Like Minor, the model is timing-directed (see
:mod:`repro.g5.cpus.dyninst`): functional execution follows the correct
path, mispredicted branches stall fetch until resolution plus a resteer
penalty.

This is the most work per simulated instruction of the four models —
which is exactly the property the paper measures (O3 simulations touch
the most simulator code and are the slowest to run on the host).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ....events import CPU_TICK_PRI, Event
from ...mem.packet import Packet
from ..base import BaseCPU
from ..branchpred import TournamentBP
from ..dyninst import DynInst, InstStream
from .iq import FUPool, InstructionQueue
from .lsq import LSQ
from .rob import ROB


class _O3Tick(Event):
    __slots__ = ("cpu",)

    def __init__(self, cpu: "O3CPU") -> None:
        super().__init__(name=f"{cpu.name}.tick", priority=CPU_TICK_PRI)
        self.cpu = cpu

    def process(self) -> None:
        self.cpu.tick()


class O3CPU(BaseCPU):
    """Out-of-order superscalar CPU."""

    cpu_type = "o3"
    defer_halt = True

    def __init__(self, name: str, parent, cpu_id: int = 0,
                 width: int = 8, rob_entries: int = 192,
                 iq_entries: int = 64, lq_entries: int = 32,
                 sq_entries: int = 32, fu_pool: Optional[FUPool] = None,
                 resteer_penalty: int = 8, fetch_buffer: int = 32,
                 line_size: int = 64) -> None:
        super().__init__(name, parent, cpu_id)
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width
        self.resteer_penalty = resteer_penalty
        self.fetch_buffer_size = fetch_buffer
        self.line_size = line_size
        self.rob = ROB(rob_entries)
        self.iq = InstructionQueue(iq_entries, fu_pool or FUPool())
        self.lsq = LSQ(lq_entries, sq_entries)
        self.bpred = TournamentBP()
        self.stream = InstStream(self)
        self._fetch_q: deque[DynInst] = deque()
        self._producers: dict[tuple[bool, int], DynInst] = {}
        self._inflight_loads: dict[int, DynInst] = {}
        self._store_resps_pending: set[int] = set()
        self._fetch_line: Optional[int] = None
        self._ifetch_pending = False
        self._fetch_blocked_on: Optional[DynInst] = None
        self._pc_cursor: Optional[int] = None
        self._tick_event = _O3Tick(self)
        self._tick_scheduled = False
        self._last_account_tick = 0
        # Host instrumentation: the O3 stage zoo (large code footprint).
        self._fn_tick = self.host_fn("O3CPU::tick")
        self._fn_fetch_stage = self.host_fn("o3::Fetch::tick")
        self._fn_fetch_line = self.host_fn("o3::Fetch::fetchCacheLine")
        self._fn_decode_stage = self.host_fn("o3::Decode::tick")
        self._fn_rename = self.host_fn("o3::Rename::renameInsts")
        self._fn_rename_map = self.host_fn("o3::UnifiedRenameMap::rename")
        self._fn_iew = self.host_fn("o3::IEW::tick")
        self._fn_iq_sched = self.host_fn(
            "o3::InstructionQueue::scheduleReadyInsts")
        self._fn_iq_wake = self.host_fn("o3::InstructionQueue::wakeDependents")
        self._fn_lsq_push = self.host_fn("o3::LSQUnit::executeLoad")
        self._fn_lsq_store = self.host_fn("o3::LSQUnit::executeStore")
        self._fn_commit = self.host_fn("o3::Commit::commitInsts")
        self._fn_rob_fn = self.host_fn("o3::ROB::retireHead")
        self._fn_bp = self.host_fn("BPredUnit::predict")
        self._fn_bp_update = self.host_fn("BPredUnit::update")
        self._fn_squash = self.host_fn("o3::Fetch::squash")
        self._rob_host = self.host_alloc(rob_entries * 64, "rob")
        self._iq_host = self.host_alloc(iq_entries * 48, "iq")
        self._lsq_host = self.host_alloc((lq_entries + sq_entries) * 48, "lsq")
        self._rename_host = self.host_alloc(64 * 16, "renameMap")

    def reg_stats(self) -> None:
        super().reg_stats()
        stats = self.stats
        self.stat_mispredicts = stats.scalar(
            "branchMispredicts", "resolved mispredicted branches")
        self.stat_fetch_stall_cycles = stats.scalar(
            "fetchStallCycles", "cycles fetch was blocked on a resteer")
        self.stat_issued = stats.scalar("numIssued", "instructions issued")
        self.stat_rob_occupancy = stats.distribution(
            "robOccupancy", 0, 1.0, 10, "ROB occupancy fraction per cycle")
        self.stat_forwarded = stats.formula(
            "lsqForwardedLoads", lambda: self.lsq.forwarded,
            "loads satisfied by store forwarding")

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------
    def activate(self) -> None:
        self._pc_cursor = self.regs.pc
        self._schedule_tick(0)

    def _schedule_tick(self, delay_cycles: int) -> None:
        if not self._tick_scheduled and not self._halted:
            self._tick_scheduled = True
            self.schedule_in(self._tick_event, self.cycles(delay_cycles))

    # ------------------------------------------------------------------
    # per-cycle evaluation (back to front, like gem5)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        self._tick_scheduled = False
        self.host_record(self._fn_tick)
        self._account_cycles()
        self.stat_rob_occupancy.sample(self.rob.occupancy)
        self._commit_stage()
        self._issue_stage()
        self._dispatch_stage()
        self._fetch_stage()
        if self._halted:
            return
        if self._drained():
            self.finish_halt()
            return
        if self._work_pending():
            self._schedule_tick(1)

    def _drained(self) -> bool:
        return (self._halt_pending and not self._fetch_q and not len(self.rob)
                and not self._inflight_loads)

    def _work_pending(self) -> bool:
        if self._fetch_q or len(self.rob):
            if self._only_waiting_on_memory():
                return False
            return True
        if self._inflight_loads or self._ifetch_pending:
            return False
        return not self.stream.exhausted

    def _only_waiting_on_memory(self) -> bool:
        """True when no pipeline stage can advance until a response arrives."""
        if not self._inflight_loads and not self._ifetch_pending:
            return False
        head = self.rob.head()
        if head is not None and head.is_ready(self.now):
            return False
        if self._fetch_q and not self.rob.full:
            return False
        if self._can_fetch_more():
            return False
        # Anything ready in the IQ?
        return not self.iq.schedulable(self.now)

    # -- commit ----------------------------------------------------------
    def _commit_stage(self) -> None:
        self.host_record(self._fn_commit)
        committed = 0
        while committed < self.width:
            head = self.rob.head()
            if head is None or not head.is_ready(self.now):
                break
            self.host_record(self._fn_rob_fn, self._rob_host
                             + (head.seq % self.rob.entries) * 64)
            self.rob.retire_head()
            if head.inst.is_mem:
                self.lsq.retire(head)
                if head.inst.is_store:
                    self._send_store(head)
            if head.mispredicted:
                self.stat_mispredicts.inc()
            self.stat_committed.inc()
            committed += 1

    def _send_store(self, dyn: DynInst) -> None:
        """Write the committed store out through the dcache."""
        assert dyn.mem_addr is not None
        if self._device_at(dyn.mem_addr) is not None:
            return
        self.host_record(self._fn_lsq_store, self._lsq_host)
        pkt = self.make_data_req(dyn.inst, dyn.mem_addr)
        pkt.push_state(self)
        self._store_resps_pending.add(pkt.packet_id)
        self.dcache_port.send_timing_req(pkt)

    # -- issue ----------------------------------------------------------
    def _issue_stage(self) -> None:
        self.host_record(self._fn_iew)
        self.host_record(self._fn_iq_sched, self._iq_host)
        for dyn in self.iq.schedule_ready(self.now, self.width):
            dyn.issued = True
            self.stat_issued.inc()
            self.host_record(self._fn_iq_wake, self._iq_host)
            if dyn.inst.is_load:
                self._issue_load(dyn)
            elif dyn.inst.is_store:
                # Address generation only; data leaves at commit.
                self._complete(dyn, self.now + self.cycles(1))
            else:
                self._complete(dyn, self.now + self.cycles(dyn.inst.op_latency))

    def _complete(self, dyn: DynInst, tick: int) -> None:
        """Set ``dyn``'s completion tick (the only place it is set) and
        wake the IQ entries waiting on it."""
        dyn.complete_tick = tick
        if dyn.waiters:
            self.iq.wake(dyn, tick)

    def _issue_load(self, dyn: DynInst) -> None:
        assert dyn.mem_addr is not None
        self.host_record(self._fn_lsq_push, self._lsq_host)
        if self._device_at(dyn.mem_addr) is not None:
            self._complete(dyn, self.now + self.cycles(2))
            return
        store = self.lsq.forwarding_store(dyn)
        if store is not None:
            self._complete(dyn, self.now + self.cycles(1))
            return
        pkt = self.make_data_req(dyn.inst, dyn.mem_addr)
        pkt.push_state(self)
        self._inflight_loads[pkt.packet_id] = dyn
        self.dcache_port.send_timing_req(pkt)

    # -- rename / dispatch -------------------------------------------------
    def _dispatch_stage(self) -> None:
        self.host_record(self._fn_decode_stage)
        self.host_record(self._fn_rename)
        dispatched = 0
        while (dispatched < self.width and self._fetch_q
               and not self.rob.full and not self.iq.full):
            dyn = self._fetch_q[0]
            if not self.lsq.can_insert(dyn):
                break
            self._fetch_q.popleft()
            self.host_record(self._fn_rename_map,
                             self._rename_host + (dyn.seq % 64) * 16)
            dyn.deps = tuple(
                producer for src in dyn.src_regs
                if (producer := self._producers.get(src)) is not None
                and not producer.done)
            if dyn.dst_reg is not None:
                self._producers[dyn.dst_reg] = dyn
            self.rob.insert(dyn)
            self.lsq.insert(dyn)
            if self._is_pipelined_nop(dyn):
                self._complete(dyn, self.now + self.cycles(1))
            else:
                self.iq.insert(dyn)
            dispatched += 1

    @staticmethod
    def _is_pipelined_nop(dyn: DynInst) -> bool:
        op = dyn.inst
        return op.is_halt or op.is_syscall or (
            not op.is_mem and not op.is_control and dyn.dst_reg is None
            and not dyn.src_regs)

    # -- fetch ----------------------------------------------------------
    def _can_fetch_more(self) -> bool:
        return (self._fetch_blocked_on is None
                and not self._ifetch_pending
                and len(self._fetch_q) < self.fetch_buffer_size
                and not self.stream.exhausted)

    def _fetch_stage(self) -> None:
        self.host_record(self._fn_fetch_stage)
        if self._fetch_blocked_on is not None:
            blocker = self._fetch_blocked_on
            resume = (None if blocker.complete_tick is None else
                      blocker.complete_tick + self.cycles(self.resteer_penalty))
            if resume is not None and self.now >= resume:
                self.host_record(self._fn_squash)
                self._fetch_blocked_on = None
            else:
                self.stat_fetch_stall_cycles.inc()
                return
        if self._ifetch_pending:
            return
        fetched = 0
        while fetched < self.width and self._can_fetch_more():
            cursor = self._pc_cursor
            line = None if cursor is None else cursor & ~(self.line_size - 1)
            if line is not None and line != self._fetch_line:
                self._issue_ifetch(line)
                return
            dyn = self.stream.next_inst()
            if dyn is None:
                return
            self._pc_cursor = dyn.next_pc
            fetched += 1
            self._predict(dyn)
            self._fetch_q.append(dyn)
            if dyn.mispredicted:
                self._fetch_blocked_on = dyn
                return

    def _issue_ifetch(self, line: int) -> None:
        self.host_record(self._fn_fetch_line)
        pkt = self.make_ifetch(line, self.line_size)
        pkt.push_state(self)
        self._ifetch_pending = True
        self.icache_port.send_timing_req(pkt)

    def _predict(self, dyn: DynInst) -> None:
        if not dyn.inst.is_control:
            return
        self.host_record(self._fn_bp)
        taken, target = self.bpred.predict(dyn.pc, dyn.inst)
        self.bpred.on_fetch(dyn.pc, dyn.inst)
        correct = (taken == dyn.taken) and (not dyn.taken
                                            or target == dyn.next_pc)
        dyn.mispredicted = not correct
        self.host_record(self._fn_bp_update)
        self.bpred.update(dyn.pc, dyn.inst, dyn.taken, dyn.next_pc,
                          dyn.mispredicted)

    # ------------------------------------------------------------------
    # memory responses
    # ------------------------------------------------------------------
    def recv_timing_resp(self, pkt: Packet) -> None:
        owner = pkt.pop_state()
        assert owner is self
        if pkt.is_instruction:
            self._ifetch_pending = False
            self._fetch_line = pkt.addr
        elif pkt.packet_id in self._store_resps_pending:
            self._store_resps_pending.discard(pkt.packet_id)
        else:
            self._complete(self._inflight_loads.pop(pkt.packet_id), self.now)
        self._schedule_tick(1)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _account_cycles(self) -> None:
        now = self.now
        self.stat_cycles.inc(self.clock.ticks_to_cycles(
            now - self._last_account_tick))
        self._last_account_tick = now
