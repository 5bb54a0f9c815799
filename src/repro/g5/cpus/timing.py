"""TimingSimpleCPU: CPI=1 plus real memory timing.

Mirrors gem5's TimingSimpleCPU: each instruction fetch is a timing
request through the icache; memory instructions issue a timing request
through the dcache and stall the CPU until the response returns.  The
CPU is otherwise unpipelined.
"""

from __future__ import annotations

from typing import Optional

from ...events import CallbackEvent
from ..isa import StaticInst
from ..mem.packet import Packet
from .base import BaseCPU, CPUError


class TimingSimpleCPU(BaseCPU):
    """Unpipelined CPU with event-driven memory accesses."""

    cpu_type = "timing"

    def __init__(self, name: str, parent, cpu_id: int = 0) -> None:
        super().__init__(name, parent, cpu_id)
        self._waiting_inst: Optional[StaticInst] = None
        self._fetch_outstanding = False
        self._last_advance_tick = 0
        # One persistent, reusable fetch event: only a single fetch is
        # ever in flight, so there is no need to allocate a CallbackEvent
        # (plus closure) per instruction.
        self._fetch_event = CallbackEvent(
            self._send_fetch, name=f"{name}.fetch")
        self._fn_icache_resp = self.host_fn("TimingSimpleCPU::IcachePort::recvTimingResp")
        self._fn_dcache_resp = self.host_fn("TimingSimpleCPU::DcachePort::recvTimingResp")
        self._fn_complete = self.host_fn("TimingSimpleCPU::completeDataAccess")

    def activate(self) -> None:
        """Start execution by issuing the first instruction fetch."""
        self.schedule_in(self._fetch_event, 0)

    def thread_start_event(self, when: int):
        """Revive a parked core for a spawned thread (see pseudo.py).

        The cycle accountant must not charge the parked gap to the new
        thread, so the advance clock restarts at the start tick.
        """
        self._last_advance_tick = when
        return self._fetch_event

    # ------------------------------------------------------------------
    # fetch path
    # ------------------------------------------------------------------
    def _send_fetch(self) -> None:
        if self._halted:
            return
        self._account_cycles()
        self.host_record(self._fn_fetch)
        pkt = self.make_ifetch(self.regs.pc)
        pkt.push_state(self)
        self._fetch_outstanding = True
        self.icache_port.send_timing_req(pkt)

    def recv_timing_resp(self, pkt: Packet) -> None:
        if pkt.is_instruction:
            self._recv_ifetch_resp(pkt)
        else:
            self._recv_data_resp(pkt)

    def _recv_ifetch_resp(self, pkt: Packet) -> None:
        owner = pkt.pop_state()
        assert owner is self
        self.host_record(self._fn_icache_resp)
        self._fetch_outstanding = False
        if self._halted:
            return
        inst = self.fetch_decode(self.regs.pc)
        if inst.is_mem:
            addr = inst.ea(self)
            if self._device_at(addr) is None:
                self._waiting_inst = inst
                self.host_record(self._fn_mem)
                data_pkt = self.make_data_req(inst, addr)
                data_pkt.push_state(self)
                self.dcache_port.send_timing_req(data_pkt)
                return
        self._finish_inst(inst)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _recv_data_resp(self, pkt: Packet) -> None:
        owner = pkt.pop_state()
        assert owner is self
        self.host_record(self._fn_dcache_resp)
        inst = self._waiting_inst
        if inst is None:
            raise CPUError(f"{self.path}: data response with no waiting inst")
        self._waiting_inst = None
        self.host_record(self._fn_complete)
        self._finish_inst(inst)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _finish_inst(self, inst: StaticInst) -> None:
        self._account_cycles()
        next_pc = self.execute_inst(inst)
        self.regs.pc = next_pc
        self.stat_committed.inc()
        if not self._halted:
            self.schedule_in(self._fetch_event, self.cycles(1))

    def _account_cycles(self) -> None:
        """Charge wall-clock cycles between fetch issues (stall-inclusive)."""
        now = self.now
        elapsed = self.clock.ticks_to_cycles(now - self._last_advance_tick)
        self.stat_cycles.inc(elapsed)
        self._last_advance_tick = now
