"""Memory-system packets, mirroring gem5's ``Packet``.

A packet carries one memory transaction between ports.  Requests become
responses in place (``make_response``), and components stack *sender
state* on the packet to route responses back, exactly like gem5's
``Packet::pushSenderState``.
"""

from __future__ import annotations

import itertools
from enum import Enum, auto
from typing import Any, Optional


class MemCmd(Enum):
    """Transaction commands (subset of gem5's MemCmd)."""

    READ_REQ = auto()
    READ_RESP = auto()
    WRITE_REQ = auto()
    WRITE_RESP = auto()
    WRITEBACK = auto()          # dirty line eviction, no response
    IFETCH_REQ = auto()
    IFETCH_RESP = auto()

    @property
    def is_read(self) -> bool:
        return self in (MemCmd.READ_REQ, MemCmd.READ_RESP,
                        MemCmd.IFETCH_REQ, MemCmd.IFETCH_RESP)

    @property
    def is_write(self) -> bool:
        return self in (MemCmd.WRITE_REQ, MemCmd.WRITE_RESP, MemCmd.WRITEBACK)

    @property
    def is_request(self) -> bool:
        return self in (MemCmd.READ_REQ, MemCmd.WRITE_REQ,
                        MemCmd.IFETCH_REQ, MemCmd.WRITEBACK)

    @property
    def is_response(self) -> bool:
        return self in (MemCmd.READ_RESP, MemCmd.WRITE_RESP,
                        MemCmd.IFETCH_RESP)

    @property
    def needs_response(self) -> bool:
        return self in (MemCmd.READ_REQ, MemCmd.WRITE_REQ, MemCmd.IFETCH_REQ)

    def response(self) -> "MemCmd":
        table = {
            MemCmd.READ_REQ: MemCmd.READ_RESP,
            MemCmd.WRITE_REQ: MemCmd.WRITE_RESP,
            MemCmd.IFETCH_REQ: MemCmd.IFETCH_RESP,
        }
        try:
            return table[self]
        except KeyError:
            raise ValueError(f"{self} has no response command") from None


_packet_ids = itertools.count(1)


class Packet:
    """One memory transaction."""

    __slots__ = ("packet_id", "cmd", "addr", "size", "data",
                 "_sender_states", "req_tick", "is_instruction")

    def __init__(self, cmd: MemCmd, addr: int, size: int,
                 data: Optional[int] = None, req_tick: int = 0) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        if addr < 0:
            raise ValueError(f"packet address cannot be negative: {addr}")
        self.packet_id = next(_packet_ids)
        self.cmd = cmd
        self.addr = addr
        self.size = size
        self.data = data
        self.req_tick = req_tick
        self.is_instruction = cmd in (MemCmd.IFETCH_REQ, MemCmd.IFETCH_RESP)
        self._sender_states: list[Any] = []

    # -- classification ----------------------------------------------------
    @property
    def is_read(self) -> bool:
        return self.cmd.is_read

    @property
    def is_write(self) -> bool:
        return self.cmd.is_write

    @property
    def is_request(self) -> bool:
        return self.cmd.is_request

    @property
    def is_response(self) -> bool:
        return self.cmd.is_response

    @property
    def needs_response(self) -> bool:
        return self.cmd.needs_response

    def line_addr(self, line_size: int) -> int:
        """Address of the cache line containing this access."""
        return self.addr & ~(line_size - 1)

    # -- state transitions ---------------------------------------------------
    def make_response(self) -> None:
        """Turn this request into its response, in place."""
        self.cmd = self.cmd.response()

    # -- sender-state stack ----------------------------------------------------
    def push_state(self, state: Any) -> None:
        self._sender_states.append(state)

    def pop_state(self) -> Any:
        if not self._sender_states:
            raise RuntimeError(
                f"packet {self.packet_id} has no sender state to pop")
        return self._sender_states.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.packet_id} {self.cmd.name} "
                f"addr={self.addr:#x} size={self.size}>")


def read_req(addr: int, size: int, req_tick: int = 0) -> Packet:
    return Packet(MemCmd.READ_REQ, addr, size, req_tick=req_tick)


def write_req(addr: int, size: int, data: int, req_tick: int = 0) -> Packet:
    return Packet(MemCmd.WRITE_REQ, addr, size, data, req_tick=req_tick)


def ifetch_req(addr: int, size: int, req_tick: int = 0) -> Packet:
    return Packet(MemCmd.IFETCH_REQ, addr, size, req_tick=req_tick)


def writeback(addr: int, size: int, data: Optional[int] = None) -> Packet:
    return Packet(MemCmd.WRITEBACK, addr, size, data)
