"""Host microarchitecture model: the machinery that profiles g5 runs.

- :mod:`trace` — instrumentation recording a g5 run;
- :mod:`binary` — the synthetic gem5 binary layout;
- :mod:`platform` — Xeon / M1 / FireSim parameter sets (Tables I & II);
- :mod:`cpu` — the replay engine producing Top-Down profiles;
- :mod:`hugepages`, :mod:`corun`, :mod:`firesim` — the paper's tuning knobs.
"""

from .binary import BinaryImage, FunctionCluster, SimFunction, synthetic_image
from .branch import HostBranchUnit
from .caches import HostCache, HostHierarchy
from .corun import Contention, corun_contention, no_contention
from .cpu import HostCPU, HostRunResult, profile_g5_run
from .frontend import DSB
from .hugepages import CodeBacking, HugePagePolicy, resolve_backing
from .platform import (
    CacheGeometry,
    HostPlatform,
    PLATFORMS,
    firesim_rocket,
    get_platform,
    intel_xeon,
    m1_pro,
    m1_ultra,
)
from .tlb import HostTLB
from .trace import ExecutionRecorder, NullRecorder

__all__ = [
    "BinaryImage", "CacheGeometry", "CodeBacking", "Contention", "DSB",
    "ExecutionRecorder", "FunctionCluster", "HostBranchUnit", "HostCPU",
    "HostCache", "HostHierarchy", "HostPlatform", "HostRunResult",
    "HostTLB", "HugePagePolicy", "NullRecorder", "PLATFORMS",
    "SimFunction", "corun_contention", "firesim_rocket",
    "get_platform", "intel_xeon", "m1_pro", "m1_ultra", "no_contention",
    "profile_g5_run", "resolve_backing", "synthetic_image",
]
