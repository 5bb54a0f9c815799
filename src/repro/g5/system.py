"""System assembly: wiring CPUs, caches, interconnect, memory, devices.

This module plays the role of gem5's ``configs/`` scripts: a
:class:`SimConfig` describes the simulated machine, :func:`build_system`
instantiates and wires it, and :func:`simulate` runs it to completion and
returns a :class:`SimResult` with gem5-style statistics plus the recorded
host execution trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..events import ClockDomain, EventQueue, Root, ticks_to_seconds
from ..host.trace import ExecutionRecorder, NullRecorder
from .coherence import CoherenceDomain, ReservationSet
from .cpus import CPU_MODELS, BaseCPU
from .fs import MiniKernel, PowerController, Rtc, Uart
from .isa import Program
from .mem import Cache, CacheParams, CoherentXBar, MemCtrl
from .pseudo import PseudoOpHandler
from .se import Process
from .stats import dump_stats

#: Default simulated-system memory size (deliberately small, like the
#: paper's observation that simulated memory is rarely fully touched).
DEFAULT_MEM_SIZE = 32 * 1024 * 1024


@dataclass(frozen=True)
class SimConfig:
    """Configuration of the simulated (guest) machine."""

    cpu_model: str = "atomic"
    mode: str = "se"                      # "se" or "fs"
    cpu_clock_ghz: float = 3.0
    mem_size: int = DEFAULT_MEM_SIZE
    #: Guest cores.  Each core gets a private L1 pair behind the shared
    #: xbar; cores beyond the boot core start parked and are claimed by
    #: the guest thread runtime (m5 thread ops).  Multi-core is SE-only
    #: and limited to the simple (atomic/timing) CPU models.  With more
    #: than one core the L1 data caches snoop each other with MSI
    #: coherence (:mod:`repro.g5.coherence`).
    cores: int = 1
    l1i: CacheParams = field(default_factory=lambda: CacheParams(
        size=32 * 1024, assoc=2, tag_latency=1, data_latency=1))
    l1d: CacheParams = field(default_factory=lambda: CacheParams(
        size=64 * 1024, assoc=2, tag_latency=1, data_latency=1))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        size=1024 * 1024, assoc=8, tag_latency=4, data_latency=8))
    record: bool = True
    #: Event-queue domains (:mod:`repro.g5.sharded`).  1 = the classic
    #: single global queue.  >1 partitions the graph into one domain per
    #: CPU plus a memory domain; the graph caps the effective count, so
    #: a single-CPU system shards into at most 2 domains.  Sharded runs
    #: are bit-identical to single-queue runs.
    domains: int = 1
    #: Install the sharded boundary links but keep every SimObject on
    #: one event queue — the single-queue reference partner for the
    #: sharded differential suite (identical link semantics, one queue).
    boundary_reference: bool = False

    def __post_init__(self) -> None:
        if self.cpu_model not in CPU_MODELS:
            raise ValueError(
                f"unknown CPU model {self.cpu_model!r}; choose from "
                f"{sorted(CPU_MODELS)}")
        if self.mode not in ("se", "fs"):
            raise ValueError(f"mode must be 'se' or 'fs', got {self.mode!r}")
        if not 1 <= self.cores <= 8:
            raise ValueError(f"cores must be in 1..8, got {self.cores}")
        if self.cores > 1:
            if self.mode != "se":
                raise ValueError("multi-core systems are SE-only for now")
            if self.cpu_model not in ("atomic", "timing"):
                raise ValueError(
                    "multi-core systems require a simple CPU model "
                    f"(atomic/timing), got {self.cpu_model!r}")
        if self.domains < 1:
            raise ValueError(f"domains must be >= 1, got {self.domains}")
        if self.boundary_reference and self.domains > 1:
            raise ValueError(
                "boundary_reference is the single-queue partner of a "
                "sharded run; it requires domains=1")

    def with_cpu(self, cpu_model: str) -> "SimConfig":
        return replace(self, cpu_model=cpu_model)

    def with_mode(self, mode: str) -> "SimConfig":
        return replace(self, mode=mode)


class System(Root):
    """The simulated machine: CPU + caches + interconnect + memory."""

    def __init__(self, config: SimConfig,
                 recorder: Optional[ExecutionRecorder] = None) -> None:
        if recorder is None:
            recorder = (ExecutionRecorder() if config.record
                        else NullRecorder())
        super().__init__(
            name="system",
            eventq=EventQueue(),
            clock=ClockDomain(config.cpu_clock_ghz * 1e9),
            recorder=recorder,
        )
        self.config = config
        self.memctrl = MemCtrl("mem_ctrl", self, size=config.mem_size)
        cpu_cls = CPU_MODELS[config.cpu_model]
        cores = config.cores
        if cores == 1:
            # Legacy names: single-core object paths (and therefore
            # stats.txt, traces, and goldens) are unchanged.
            self.cpus: list[BaseCPU] = [cpu_cls("cpu", self)]
            self.icaches = [Cache("icache", self, config.l1i)]
            self.dcaches = [Cache("dcache", self, config.l1d)]
        else:
            self.cpus = [cpu_cls(f"cpu{i}", self, cpu_id=i)
                         for i in range(cores)]
            self.icaches = [Cache(f"icache{i}", self, config.l1i)
                            for i in range(cores)]
            self.dcaches = [Cache(f"dcache{i}", self, config.l1d)
                            for i in range(cores)]
        self.cpu: BaseCPU = self.cpus[0]
        self.icache = self.icaches[0]
        self.dcache = self.dcaches[0]
        self.l2bus = CoherentXBar("l2bus", self)
        self.l2cache = Cache("l2", self, config.l2)
        self._wire()
        self.reservations = ReservationSet()
        self.coherence: Optional[CoherenceDomain] = None
        if cores > 1:
            self.coherence = CoherenceDomain()
            for dcache in self.dcaches:
                self.coherence.attach(dcache)
        # Non-boot cores start parked; the guest thread runtime claims
        # them via m5 thread-spawn.
        for cpu in self.cpus[1:]:
            cpu.park()
        self.pseudo_ops = PseudoOpHandler(self)
        self.devices: list = []
        self.kernel: Optional[MiniKernel] = None
        self.process: Optional[Process] = None
        if config.mode == "fs":
            self._add_fs_devices()
        self.reg_all_stats()
        self.boundary_links: list = []
        self.sharded = None
        if config.domains > 1 or config.boundary_reference:
            from .sharded import shard_system

            self.sharded = shard_system(self)

    def _wire(self) -> None:
        for cpu, icache, dcache in zip(self.cpus, self.icaches,
                                       self.dcaches):
            cpu.icache_port.bind(icache.cpu_side)
            cpu.dcache_port.bind(dcache.cpu_side)
            icache.mem_side.bind(self.l2bus.new_cpu_side_port())
            dcache.mem_side.bind(self.l2bus.new_cpu_side_port())
        self.l2bus.mem_side.bind(self.l2cache.cpu_side)
        self.l2cache.mem_side.bind(self.memctrl.port)

    def _add_fs_devices(self) -> None:
        uart = Uart("uart", self)
        rtc = Rtc("rtc", self)
        power = PowerController("power", self)
        self.devices = [uart, rtc, power]
        self.kernel = MiniKernel(uart, power)

    # ------------------------------------------------------------------
    # workload binding
    # ------------------------------------------------------------------
    def set_se_workload(self, program: Program,
                        process_name: str = "guest") -> Process:
        """Bind an SE-mode process built from ``program``."""
        if self.config.mode != "se":
            raise ValueError("set_se_workload requires an SE-mode system")
        process = Process(process_name, program, self.config.mem_size)
        process.load(self.memctrl.memory)
        self.process = process
        for cpu in self.cpus:
            cpu.bind(self, process)
        return process

    def set_fs_workload(self, program: Program) -> None:
        """Load an FS-mode kernel image and point the CPU at its entry."""
        if self.config.mode != "fs":
            raise ValueError("set_fs_workload requires an FS-mode system")
        addr = program.base
        for word in program.words:
            self.memctrl.memory.write(addr, 4, word)
            addr += 4
        self.cpu.bind(self, None)
        self.cpu.regs.pc = program.entry
        self.cpu.regs.write_int(2, self.config.mem_size - 16)  # sp

    def device_at(self, addr: int):
        """Device mapped at guest address ``addr``, or None."""
        for device in self.devices:
            if device.contains(addr):
                return device
        return None


@dataclass
class SimResult:
    """Outcome of one g5 simulation."""

    exit_cause: str
    sim_ticks: int
    sim_insts: int
    sim_cycles: int
    stats: dict[str, float]
    recorder: ExecutionRecorder
    console: str = ""
    exit_code: int = 0
    #: Sharding counters (:meth:`repro.g5.sharded.ShardedEngine.
    #: describe`); ``None`` for single-queue runs.
    sharding: Optional[dict] = None

    @property
    def sim_seconds(self) -> float:
        return ticks_to_seconds(self.sim_ticks)

    @property
    def ipc(self) -> float:
        return self.sim_insts / max(1, self.sim_cycles)


def simulate(system: System, max_ticks: Optional[int] = None) -> SimResult:
    """Run the system to completion (gem5's ``m5.simulate``)."""
    system.cpu.activate()
    exit_event = system.eventq.run(max_tick=max_ticks)
    stats = dump_stats(system)
    console = ""
    exit_code = 0
    if system.process is not None:
        console = system.process.console_text
        exit_code = system.process.exit_code or 0
    elif system.kernel is not None:
        console = system.kernel.console_text
    return SimResult(
        exit_cause=exit_event.cause,
        sim_ticks=system.eventq.now,
        sim_insts=sum(int(cpu.stat_committed.value())
                      for cpu in system.cpus),
        sim_cycles=int(system.cpu.stat_cycles.value()),
        stats=stats,
        recorder=system.recorder,
        console=console,
        exit_code=exit_code,
        sharding=(system.sharded.describe()
                  if system.sharded is not None else None),
    )
