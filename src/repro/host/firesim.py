"""FireSim-style host cache sweeps (paper §V-B, Fig. 14).

The paper runs unmodified gem5 *as a workload on FireSim*, where the
simulated host is the Table-I RISC-V core, and sweeps the host's L1/L2
geometry.  Here the FireSim side is
:func:`~repro.host.platform.firesim_rocket` and the gem5 side is a g5
trace of the sieve workload; Fig. 14 replays the trace on the
:func:`platform_for` every configuration and reports speedups over the
8KB/2-way baseline, in the paper's
``(i$size/assoc : d$size/assoc : L2size/assoc)`` label format.

The paper keeps 64 L1 sets fixed (VIPT constraint: a way must not exceed
the 4KB page) and grows associativity with capacity; the configuration
list below is Fig. 14's x-axis.
"""

from __future__ import annotations

from .platform import HostPlatform, firesim_rocket

#: Fig. 14's swept configurations:
#: (i$KB, i$assoc, d$KB, d$assoc, L2KB, L2assoc).
FIG14_CONFIGS: list[tuple[int, int, int, int, int, int]] = [
    (8, 2, 8, 2, 512, 8),        # baseline
    (16, 4, 16, 4, 512, 8),
    (16, 4, 16, 4, 1024, 8),
    (32, 8, 32, 8, 512, 8),
    (32, 8, 32, 8, 1024, 8),
    (32, 8, 32, 8, 2048, 16),
    (64, 16, 64, 16, 512, 8),
]

def config_label(config: tuple[int, int, int, int, int, int]) -> str:
    """Fig. 14's label format: ``i$/assoc : d$/assoc : L2/assoc``."""
    i_kb, i_assoc, d_kb, d_assoc, l2_kb, l2_assoc = config
    return f"{i_kb}KB/{i_assoc}:{d_kb}KB/{d_assoc}:{l2_kb}KB/{l2_assoc}"


def platform_for(config: tuple[int, int, int, int, int, int]) -> HostPlatform:
    i_kb, i_assoc, d_kb, d_assoc, l2_kb, l2_assoc = config
    return firesim_rocket(icache_kb=i_kb, icache_assoc=i_assoc,
                          dcache_kb=d_kb, dcache_assoc=d_assoc,
                          l2_kb=l2_kb, l2_assoc=l2_assoc)


#: The RISC-V gem5 build the paper runs under FireMarshal is leaner than
#: the x86 one (SE mode only, minimal config, static RISC-V codegen);
#: its code footprint is modelled at this fraction of the full build.
FIRESIM_CLUSTER_SCALE = 0.18
