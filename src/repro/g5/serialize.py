"""Checkpointing: save and restore simulated-machine state.

The paper's methodology depends on checkpoints — the M1 machines cannot
*take* readable checkpoints, so they restore from checkpoints taken on
the Xeon (paper §III).  We reproduce gem5's checkpoint workflow for SE
mode: architectural state (registers, PC), the touched guest memory
pages, and the process's kernel-visible state (brk, console, syscall
counts) serialize to a JSON document; restoring rebuilds that state in
a *fresh* system — which may use a different CPU model, the classic
"fast-forward with Atomic, measure with O3" flow.

Checkpoints are taken at instruction boundaries (run with ``max_ticks``
to pause); the pipelined models drain before halting, so any paused
Atomic/Timing system and any *completed* system is checkpointable.
"""

from __future__ import annotations

import base64
import json
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..host.trace import ExecutionRecorder, HostAllocation
from .isa.registers import NUM_FP_REGS, NUM_INT_REGS

if TYPE_CHECKING:  # pragma: no cover
    from .system import SimResult, System

#: Format version stamped into every checkpoint.
CHECKPOINT_VERSION = 1

#: Format version of packed traces / SimResults (the exec cache payload).
#: Version 2 packs each trace column as compressed fixed-width integers;
#: an entry of any other version is unreadable, so it is recomputed.
TRACE_FORMAT_VERSION = 2

#: ``array`` typecodes of the packed trace columns: 32-bit function ids
#: and 64-bit host data addresses, both little-endian on the wire.
FN_TYPECODE = "I"
DADDR_TYPECODE = "Q"


class CheckpointError(RuntimeError):
    """Raised for unusable or incompatible checkpoints."""


@dataclass
class Checkpoint:
    """One serialized machine state."""

    version: int
    tick: int
    committed_insts: int
    pc: int
    int_regs: list[int]
    fp_regs: list[float]
    pages: dict[int, bytes]            # page number -> raw page bytes
    mem_size: int
    process_name: str
    brk: int
    console: bytes
    syscall_counts: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "version": self.version,
            "tick": self.tick,
            "committed_insts": self.committed_insts,
            "pc": self.pc,
            "int_regs": self.int_regs,
            "fp_regs": self.fp_regs,
            "pages": {str(num): base64.b64encode(raw).decode("ascii")
                      for num, raw in self.pages.items()},
            "mem_size": self.mem_size,
            "process_name": self.process_name,
            "brk": self.brk,
            "console": base64.b64encode(self.console).decode("ascii"),
            "syscall_counts": {str(k): v
                               for k, v in self.syscall_counts.items()},
        })

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {data.get('version')} not supported "
                f"(expected {CHECKPOINT_VERSION})")
        return cls(
            version=data["version"],
            tick=data["tick"],
            committed_insts=data["committed_insts"],
            pc=data["pc"],
            int_regs=list(data["int_regs"]),
            fp_regs=list(data["fp_regs"]),
            pages={int(num): base64.b64decode(raw)
                   for num, raw in data["pages"].items()},
            mem_size=data["mem_size"],
            process_name=data["process_name"],
            brk=data["brk"],
            console=base64.b64decode(data["console"]),
            syscall_counts={int(k): v
                            for k, v in data["syscall_counts"].items()},
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, encoding="ascii") as handle:
            return cls.from_json(handle.read())

    @property
    def touched_bytes(self) -> int:
        return sum(len(raw) for raw in self.pages.values())

    def describe(self) -> dict:
        """JSON-safe summary (``repro-g5 ckpt info``) — no page bytes."""
        return {
            "version": self.version,
            "process": self.process_name,
            "tick": self.tick,
            "committed_insts": self.committed_insts,
            "pc": f"{self.pc:#x}",
            "pages": len(self.pages),
            "touched_bytes": self.touched_bytes,
            "mem_size": self.mem_size,
            "brk": f"{self.brk:#x}",
            "console_bytes": len(self.console),
            "syscalls": sum(self.syscall_counts.values()),
        }


def take_checkpoint(system: "System") -> Checkpoint:
    """Capture the current state of an SE-mode system."""
    if system.process is None:
        raise CheckpointError(
            "checkpointing requires an SE-mode system with a bound process")
    cpu = system.cpu
    if cpu._halt_pending or (not cpu.halted and _pipeline_in_flight(cpu)):
        raise CheckpointError(
            "cannot checkpoint a CPU with instructions in flight; pause an "
            "Atomic/Timing run at a tick boundary or let the run complete")
    memory = system.memctrl.memory
    pages = {num: bytes(page) for num, page in memory._pages.items()}
    process = system.process
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        tick=system.eventq.now,
        committed_insts=int(cpu.stat_committed.value()),
        pc=cpu.regs.pc,
        int_regs=list(cpu.regs.ints),
        fp_regs=list(cpu.regs.floats),
        pages=pages,
        mem_size=memory.size,
        process_name=process.name,
        brk=process.brk,
        console=bytes(process.console),
        syscall_counts=dict(process.syscall_counts),
    )


def restore_checkpoint(system: "System", checkpoint: Checkpoint) -> None:
    """Load ``checkpoint`` into a freshly built SE-mode system.

    The system must already have its process bound (the loader sets up
    the text segment and stack); the checkpoint then overwrites all
    architectural and memory state.  The CPU model may differ from the
    one that took the checkpoint.
    """
    if system.process is None:
        raise CheckpointError(
            "restore requires an SE-mode system with a bound process")
    if system.config.mem_size != checkpoint.mem_size:
        raise CheckpointError(
            f"memory size mismatch: checkpoint has "
            f"{checkpoint.mem_size:#x}, system has "
            f"{system.config.mem_size:#x}")
    if len(checkpoint.int_regs) != NUM_INT_REGS \
            or len(checkpoint.fp_regs) != NUM_FP_REGS:
        raise CheckpointError("register file shape mismatch")
    memory = system.memctrl.memory
    for page_num, raw in checkpoint.pages.items():
        memory.write_block(page_num << 12, raw)
    cpu = system.cpu
    cpu.regs.ints = list(checkpoint.int_regs)
    cpu.regs.floats = list(checkpoint.fp_regs)
    cpu.regs.pc = checkpoint.pc
    process = system.process
    process.brk = checkpoint.brk
    process.console = bytearray(checkpoint.console)
    process.syscall_counts = dict(checkpoint.syscall_counts)


# ----------------------------------------------------------------------
# packed traces and SimResults (the repro.exec cache payload)
# ----------------------------------------------------------------------
def _pack_column(values: list[int], typecode: str) -> str:
    """Base64 text of the zlib-compressed little-endian ``array`` of
    ``values``; ``OverflowError`` for a value its typecode cannot hold."""
    column = array(typecode, values)
    if sys.byteorder == "big":
        column.byteswap()
    return base64.b64encode(zlib.compress(column.tobytes())).decode("ascii")


def _unpack_column(text: str, typecode: str) -> list[int]:
    """The list of ints :func:`_pack_column` packed into ``text``."""
    column = array(typecode)
    column.frombytes(zlib.decompress(base64.b64decode(text)))
    if sys.byteorder == "big":
        column.byteswap()
    return column.tolist()


def pack_recorder(recorder: ExecutionRecorder) -> dict:
    """Flatten an :class:`ExecutionRecorder` into plain builtins.

    The packed form is the exec cache's value format: everything a host
    replay needs (interned names, the record stream, ROI markers, and the
    host heap map), with no live objects.  The record stream is its two
    columns, ``trace_fns`` and ``trace_daddrs``, each a string: base64
    of the zlib-compressed little-endian bytes of an ``array`` of
    :data:`FN_TYPECODE` / :data:`DADDR_TYPECODE` integers.  Every hop
    that carries a result (pool, disk cache, HTTP reply, fleet store)
    moves and parses that text instead of a JSON list of integers.
    """
    return {
        "format": TRACE_FORMAT_VERSION,
        "enabled": recorder.enabled,
        "fn_names": list(recorder.fn_names),
        "trace_fns": _pack_column(recorder.trace_fns, FN_TYPECODE),
        "trace_daddrs": _pack_column(recorder.trace_daddrs, DADDR_TYPECODE),
        "allocations": [[a.base, a.size, a.label]
                        for a in recorder.allocations],
        "brk": recorder._brk,
        "roi_begin": recorder.roi_begin,
        "roi_end": recorder.roi_end,
    }


def unpack_recorder(data: dict) -> ExecutionRecorder:
    """Rebuild an :class:`ExecutionRecorder` from :func:`pack_recorder`;
    its trace columns come back as plain lists of ints."""
    if data.get("format") != TRACE_FORMAT_VERSION:
        raise CheckpointError(
            f"packed trace format {data.get('format')} not supported "
            f"(expected {TRACE_FORMAT_VERSION})")
    recorder = ExecutionRecorder(enabled=data["enabled"])
    recorder.fn_names = list(data["fn_names"])
    recorder._ids = {name: i for i, name in enumerate(recorder.fn_names)}
    recorder.trace_fns = _unpack_column(data["trace_fns"], FN_TYPECODE)
    recorder.trace_daddrs = _unpack_column(data["trace_daddrs"],
                                           DADDR_TYPECODE)
    recorder.allocations = [HostAllocation(base, size, label)
                            for base, size, label in data["allocations"]]
    recorder._brk = data["brk"]
    recorder.roi_begin = data["roi_begin"]
    recorder.roi_end = data["roi_end"]
    return recorder


def pack_sim_result(result: "SimResult") -> dict:
    """Flatten a :class:`~repro.g5.system.SimResult` into plain builtins."""
    return {
        "format": TRACE_FORMAT_VERSION,
        "exit_cause": result.exit_cause,
        "sim_ticks": result.sim_ticks,
        "sim_insts": result.sim_insts,
        "sim_cycles": result.sim_cycles,
        "stats": dict(result.stats),
        "recorder": pack_recorder(result.recorder),
        "console": result.console,
        "exit_code": result.exit_code,
        "sharding": result.sharding,
    }


def unpack_sim_result(data: dict) -> "SimResult":
    """Rebuild a :class:`~repro.g5.system.SimResult` from its packed form."""
    from .system import SimResult

    if data.get("format") != TRACE_FORMAT_VERSION:
        raise CheckpointError(
            f"packed SimResult format {data.get('format')} not supported "
            f"(expected {TRACE_FORMAT_VERSION})")
    return SimResult(
        exit_cause=data["exit_cause"],
        sim_ticks=data["sim_ticks"],
        sim_insts=data["sim_insts"],
        sim_cycles=data["sim_cycles"],
        stats=dict(data["stats"]),
        recorder=unpack_recorder(data["recorder"]),
        console=data["console"],
        exit_code=data["exit_code"],
        sharding=data.get("sharding"),
    )


def _pipeline_in_flight(cpu) -> bool:
    """True when a CPU model holds uncommitted work."""
    if getattr(cpu, "_waiting_inst", None) is not None:  # TimingSimple
        return True
    for attr in ("_fetch_q", "_exec_q", "_inflight_loads"):
        if getattr(cpu, attr, None):
            return True
    rob = getattr(cpu, "rob", None)
    if rob is not None and len(rob):
        return True
    return False
