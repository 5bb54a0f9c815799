"""Host platform parameter sets (the paper's Table II and Table I).

Each :class:`HostPlatform` captures the microarchitectural parameters
the paper identifies as decisive for gem5 performance: L1/L2/LLC
geometry, TLB reach and page size, branch-prediction capacity, decode
path widths (MITE vs DSB), pipeline width, and memory latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CacheGeometry:
    """One host cache level."""

    size: int
    assoc: int
    line_size: int = 64
    latency: int = 4          # hit latency in cycles

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size % (self.assoc * self.line_size):
            raise ValueError(
                f"cache size {self.size} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_size})")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)


@dataclass(frozen=True)
class HostPlatform:
    """A machine the paper runs gem5 on."""

    name: str
    freq_ghz: float
    pipeline_width: int            # retire/allocation slots per cycle
    mite_width: int                # µops/cycle the legacy decoder sustains
    dsb_width: int                 # µops/cycle out of the µop cache
    dsb_uops: int                  # µop-cache capacity (0 = none)
    l1i: CacheGeometry
    l1d: CacheGeometry
    l2: CacheGeometry
    llc: CacheGeometry
    page_size: int
    itlb_entries: int
    dtlb_entries: int
    stlb_entries: int              # unified second-level TLB
    tlb_walk_cycles: int
    btb_entries: int
    bp_table_bits: int             # log2 of direction-predictor entries
    mispredict_penalty: int        # front-end resteer cycles
    unknown_branch_penalty: int    # BTB-miss resteer cycles
    l2_latency: int
    llc_latency: int
    dram_latency_ns: float
    dram_bw_gbps: float
    turbo_ghz: float = 0.0
    smt: bool = False
    physical_cores: int = 1

    def with_frequency(self, freq_ghz: float) -> "HostPlatform":
        return replace(self, name=f"{self.name}@{freq_ghz:.1f}GHz",
                       freq_ghz=freq_ghz)

    @property
    def dram_latency_cycles(self) -> int:
        return int(self.dram_latency_ns * self.freq_ghz)


def intel_xeon() -> HostPlatform:
    """Xeon Gold 6242R (Cascade Lake), the paper's Dell server."""
    return HostPlatform(
        name="Intel_Xeon",
        freq_ghz=3.1,
        turbo_ghz=4.1,
        pipeline_width=4,
        mite_width=4,
        dsb_width=6,
        dsb_uops=1536,
        l1i=CacheGeometry(32 * 1024, 8, 64, latency=4),
        l1d=CacheGeometry(32 * 1024, 8, 64, latency=4),
        l2=CacheGeometry(1024 * 1024, 16, 64, latency=14),
        llc=CacheGeometry(36 * 1024 * 1024, 16, 64, latency=44),
        page_size=4096,
        itlb_entries=128,
        dtlb_entries=64,
        stlb_entries=1536,
        tlb_walk_cycles=36,
        btb_entries=4096,
        bp_table_bits=14,
        mispredict_penalty=17,
        unknown_branch_penalty=9,
        l2_latency=14,
        llc_latency=44,
        dram_latency_ns=96.0,
        dram_bw_gbps=141.0,
        smt=True,
        physical_cores=20,
    )


def m1_pro() -> HostPlatform:
    """Apple MacBook Pro M1 (Firestorm performance cores)."""
    return HostPlatform(
        name="M1_Pro",
        freq_ghz=3.2,
        pipeline_width=8,
        mite_width=8,           # ARM fixed-width decode: no MITE penalty
        dsb_width=8,
        dsb_uops=0,             # no µop cache; decode is wide enough
        l1i=CacheGeometry(192 * 1024, 12, 128, latency=3),
        l1d=CacheGeometry(128 * 1024, 8, 128, latency=3),
        l2=CacheGeometry(12 * 1024 * 1024, 12, 128, latency=16),
        llc=CacheGeometry(8 * 1024 * 1024, 16, 128, latency=40),
        page_size=16 * 1024,
        itlb_entries=192,
        dtlb_entries=160,
        stlb_entries=3072,
        tlb_walk_cycles=28,
        btb_entries=12288,
        bp_table_bits=16,
        mispredict_penalty=13,
        unknown_branch_penalty=7,
        l2_latency=16,
        llc_latency=40,
        dram_latency_ns=97.0,
        dram_bw_gbps=68.0,
        physical_cores=4,
    )


def m1_ultra() -> HostPlatform:
    """Apple Mac Studio M1 Ultra (same Firestorm cores, bigger uncore)."""
    base = m1_pro()
    return replace(
        base,
        name="M1_Ultra",
        l2=CacheGeometry(48 * 1024 * 1024, 12, 128, latency=18),
        llc=CacheGeometry(96 * 1024 * 1024, 16, 128, latency=42),
        dram_bw_gbps=819.2,
        physical_cores=16,
    )


def firesim_rocket(icache_kb: int = 8, icache_assoc: int = 2,
                   dcache_kb: int = 8, dcache_assoc: int = 2,
                   l2_kb: int = 512, l2_assoc: int = 8) -> HostPlatform:
    """The FireSim-simulated RISC-V host core (Table I), parameterised.

    The paper fixes 64 L1 sets and grows associativity to keep the VIPT
    constraint; callers pass geometry in KB to mirror Fig. 14's labels.
    """
    return HostPlatform(
        name=(f"FireSim({icache_kb}K/{icache_assoc}:"
              f"{dcache_kb}K/{dcache_assoc}:{l2_kb}K/{l2_assoc})"),
        freq_ghz=4.0,
        pipeline_width=8,
        mite_width=8,
        dsb_width=8,
        dsb_uops=0,             # RISC-V: fixed-width decode
        l1i=CacheGeometry(icache_kb * 1024, icache_assoc, 64, latency=2),
        l1d=CacheGeometry(dcache_kb * 1024, dcache_assoc, 64, latency=2),
        l2=CacheGeometry(l2_kb * 1024, l2_assoc, 64, latency=20),
        # No L3 on the Rocket-style host: a minimal direct-mapped stub
        # keeps the shared hierarchy code happy without adding capacity.
        llc=CacheGeometry(4 * 1024, 1, 64, latency=20),
        page_size=4096,
        itlb_entries=32,
        dtlb_entries=32,
        stlb_entries=512,
        tlb_walk_cycles=40,
        btb_entries=4096,
        bp_table_bits=13,
        mispredict_penalty=12,
        unknown_branch_penalty=8,
        l2_latency=20,
        llc_latency=20,
        dram_latency_ns=80.0,
        dram_bw_gbps=12.8,
        physical_cores=4,
    )


PLATFORMS = {
    "Intel_Xeon": intel_xeon,
    "M1_Pro": m1_pro,
    "M1_Ultra": m1_ultra,
}


def get_platform(name: str) -> HostPlatform:
    try:
        return PLATFORMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; choose from "
            f"{sorted(PLATFORMS)}") from None
