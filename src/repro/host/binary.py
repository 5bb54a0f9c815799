"""Synthetic gem5 binary image: code layout for the host model.

The real gem5 binary contains tens of thousands of small functions —
event handlers, template instantiations, virtual-dispatch thunks, stats
updates — and the paper shows its host behaviour is dominated by that
code's *footprint*: every logical operation touches many distinct,
rarely-reused functions, defeating the iCache, iTLB and µop cache.

We reproduce the footprint structurally.  Each *logical* simulator
function recorded by :class:`~repro.host.trace.ExecutionRecorder`
expands to a **cluster** of synthetic host functions: a small hot set
executed on every invocation (the inlined fast path) plus a cold tail
rotated through deterministically (slow paths, stats, helpers,
template variants).  Cluster sizes are keyed by subsystem prefix and
calibrated against the paper's Fig. 15 function counts (1602 / 2557 /
3957 / 5209 executed functions for Atomic / Timing / Minor / O3).

The image also fixes each function's address, size, basic-block count,
branch profile and virtual-call density, from which the host front-end
model derives fetch lines, iTLB pages, µop counts and branch events.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

#: Where the text segment starts (x86-64-style).
TEXT_BASE = 0x0040_0000

#: Host functions' static data (globals, vtables) live above the text.
GLOBALS_BASE = 0x0800_0000

#: Cluster sizing by subsystem prefix: (subfunctions, mean code bytes).
#: Calibrated so per-model executed-function totals land near the
#: paper's Fig. 15 (see module docstring).
CLUSTER_PROFILES: dict[str, tuple[int, int]] = {
    "O3CPU::tick": (60, 130),
    "MinorCPU::tick": (60, 130),
    "Fetch1::": (110, 150),
    "Fetch2::": (110, 150),
    "Minor::Execute::evaluate": (130, 100),
    "Minor::Decode::evaluate": (130, 100),
    "Minor::Scoreboard::": (130, 100),
    "o3::": (280, 330),
    "Minor::": (340, 330),
    "TimingSimpleCPU::": (160, 330),
    "MSHR::": (130, 300),
    "CoherentXBar::": (140, 310),
    "MemCtrl::": (150, 320),
    "BaseCache::recvTiming": (160, 340),
    "BPredUnit::": (90, 300),
}

#: Default cluster for anything unmatched (base/ISA/SE/FS code).
DEFAULT_CLUSTER = (62, 280)

#: Functions executed once at simulator start-up regardless of config
#: (option parsing, stats registration, python config, allocator warmup).
STARTUP_FUNCTIONS = 420

#: Fraction of a cluster executed on *every* invocation (the hot path).
HOT_SET_SIZE = 2

#: Every COLD_EVERY-th invocation also executes COLD_PER_VISIT cold-tail
#: functions (rotating through the tail), modelling slow paths, stats
#: dumps and rare template variants.
COLD_EVERY = 8
COLD_PER_VISIT = 2


def _branch_slot_biases(rng: random.Random,
                        hostility: float = 0.0) -> tuple[float, ...]:
    """Taken-bias per representative branch slot.

    Most real branches are fully determined (loop back-edges, never-taken
    error checks); a minority are strongly biased; few are genuinely
    data-dependent.  This mixture puts the baseline mispredict rate in
    the sub-percent range the paper reports (Fig. 8: 0.22% on the Xeon),
    with the residual coming from counter aliasing in finite tables.
    """
    biases = []
    for _ in range(3):
        if hostility and rng.random() < hostility:
            biases.append(rng.uniform(0.55, 0.8))
            continue
        roll = rng.random()
        if roll < 0.94:
            biases.append(1.0 if rng.random() < 0.6 else 0.0)
        elif roll < 0.98:
            biases.append(0.995 if rng.random() < 0.5 else 0.005)
        else:
            biases.append(0.85)
    return tuple(biases)


def _seed_for(name: str, salt: int) -> int:
    digest = hashlib.blake2b(f"{name}:{salt}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class SimFunction:
    """One synthetic host function."""

    index: int
    name: str
    addr: int
    size: int                 # code bytes
    n_insts: int              # dynamic instructions per execution
    n_uops: int               # µops per execution
    n_branches: int           # conditional branches per execution
    branch_slots: tuple[float, ...]  # taken-bias of representative branches
    n_indirect: int           # indirect (virtual) calls per execution
    data_addr: int            # this function's static data (stats, vtable)
    loopy: bool               # tight-loop body (µop-cache friendly)

    @property
    def end(self) -> int:
        return self.addr + self.size

    def cache_lines(self, line_size: int) -> range:
        """Line indices (addr // line_size) covered by this function."""
        first = self.addr // line_size
        last = (self.end - 1) // line_size
        return range(first, last + 1)


@dataclass
class FunctionCluster:
    """The synthetic expansion of one logical simulator function.

    ``hot`` runs on every invocation; the replay loop
    (:mod:`repro.host.cpu`) walks ``cold`` ``COLD_PER_VISIT`` functions
    at a time, on every ``COLD_EVERY``-th invocation.
    """

    logical_name: str
    hot: list[SimFunction]
    cold: list[SimFunction]

    @property
    def size(self) -> int:
        return len(self.hot) + len(self.cold)


class BinaryImage:
    """The laid-out synthetic gem5 binary."""

    def __init__(self, opt_level: int = 2, seed: int = 1,
                 layout_quality: float = 1.0,
                 cluster_scale: float = 1.0) -> None:
        """``opt_level`` 2 or 3 (gem5's default vs. the paper's -O3 build).

        ``layout_quality`` scales code-layout compactness; libhugetlbfs'
        "sub-optimal binary layout" (paper §V-A) maps to values < 1.
        ``cluster_scale`` scales cluster populations and the startup set:
        the FireSim experiments use < 1 to model the leaner RISC-V gem5
        build the paper ran under FireMarshal (SE-only, minimal config).
        """
        if opt_level not in (2, 3):
            raise ValueError(f"opt_level must be 2 or 3, got {opt_level}")
        if not 0.25 <= layout_quality <= 1.0:
            raise ValueError(
                f"layout_quality must be in [0.25, 1], got {layout_quality}")
        if not 0.1 <= cluster_scale <= 1.0:
            raise ValueError(
                f"cluster_scale must be in [0.1, 1], got {cluster_scale}")
        self.opt_level = opt_level
        self.seed = seed
        self.layout_quality = layout_quality
        self.cluster_scale = cluster_scale
        self.clusters: dict[str, FunctionCluster] = {}
        self.functions: list[SimFunction] = []
        self.startup: list[SimFunction] = []
        self._cursor = TEXT_BASE
        self._build_startup()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def for_recorder_functions(cls, names: list[str], opt_level: int = 2,
                               seed: int = 1,
                               layout_quality: float = 1.0,
                               cluster_scale: float = 1.0) -> "BinaryImage":
        """Lay out an image covering all recorded logical functions."""
        image = cls(opt_level=opt_level, seed=seed,
                    layout_quality=layout_quality,
                    cluster_scale=cluster_scale)
        for name in names:
            image.cluster_for(name)
        return image

    def cluster_for(self, logical_name: str) -> FunctionCluster:
        """Get (building on demand) the cluster for a logical function."""
        cluster = self.clusters.get(logical_name)
        if cluster is None:
            cluster = self._build_cluster(logical_name)
            self.clusters[logical_name] = cluster
        return cluster

    def _profile_for(self, logical_name: str) -> tuple[int, int]:
        for prefix, profile in CLUSTER_PROFILES.items():
            if logical_name.startswith(prefix):
                return profile
        return DEFAULT_CLUSTER

    def _build_startup(self) -> None:
        rng = random.Random(_seed_for("startup", self.seed))
        for index in range(max(16, int(STARTUP_FUNCTIONS
                                       * self.cluster_scale))):
            self.startup.append(self._new_function(
                f"startup::init{index}", rng, mean_size=320, loopy=False))

    def _build_cluster(self, logical_name: str) -> FunctionCluster:
        n_subfns, mean_size = self._profile_for(logical_name)
        n_subfns = max(HOT_SET_SIZE + 1, int(n_subfns * self.cluster_scale))
        rng = random.Random(_seed_for(logical_name, self.seed))
        subfns = []
        for index in range(n_subfns):
            # The hot path is loopier (dispatch loops, LRU updates).
            loopy = index < HOT_SET_SIZE and rng.random() < 0.15
            subfns.append(self._new_function(
                f"{logical_name}#{index}", rng, mean_size, loopy))
        return FunctionCluster(
            logical_name=logical_name,
            hot=subfns[:HOT_SET_SIZE],
            cold=subfns[HOT_SET_SIZE:],
        )

    def _new_function(self, name: str, rng: random.Random,
                      mean_size: int, loopy: bool,
                      branch_hostility: float = 0.0) -> SimFunction:
        # -O3 inlines harder: slightly fewer bytes executed per function
        # (the paper measured only ~1% end-to-end from the -O3 rebuild).
        size_scale = 0.96 if self.opt_level == 3 else 1.0
        size = max(48, int(rng.gauss(mean_size, mean_size * 0.45)
                           * size_scale))
        # Sparse layout (padding, alignment, unexecuted siblings between
        # executed functions) modelled as address gaps.
        gap = int(size * (1.6 - self.layout_quality) * rng.uniform(0.4, 1.0))
        addr = self._cursor
        self._cursor += size + gap
        n_insts = max(8, size // 4)
        n_uops = int(n_insts * rng.uniform(1.05, 1.25))  # x86 µop expansion
        n_branches = max(1, n_insts // 8)
        fn = SimFunction(
            index=len(self.functions),
            name=name,
            addr=addr,
            size=size,
            n_insts=n_insts,
            n_uops=n_uops,
            n_branches=n_branches,
            branch_slots=_branch_slot_biases(rng, branch_hostility),
            n_indirect=1 if rng.random() < 0.4 else 0,
            data_addr=GLOBALS_BASE + len(self.functions) * 128,
            loopy=loopy,
        )
        self.functions.append(fn)
        return fn

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def text_bytes(self) -> int:
        """Extent of the text segment laid out so far."""
        return self._cursor - TEXT_BASE

    def total_functions(self) -> int:
        return len(self.functions)


def synthetic_image(spec: list[tuple[str, int, int, float, bool]],
                    seed: int = 7,
                    branch_hostility: float = 0.0) -> BinaryImage:
    """Build a hand-specified image (used by the SPEC-like workloads).

    ``spec`` entries are ``(name, n_subfns, mean_size, hot_fraction,
    loopy)``; each becomes one cluster whose hot set is
    ``max(1, int(n_subfns * hot_fraction))`` functions.
    ``branch_hostility`` is the chance a branch slot is genuinely
    data-dependent (mcf-style hard branches).
    """
    # SPEC binaries are far smaller than gem5: scale the startup set down.
    image = BinaryImage(seed=seed, cluster_scale=0.15)
    for name, n_subfns, mean_size, hot_fraction, loopy in spec:
        if n_subfns <= 0:
            raise ValueError(f"cluster {name!r} needs >=1 subfunction")
        rng = random.Random(_seed_for(name, seed))
        subfns = [image._new_function(f"{name}#{i}", rng, mean_size, loopy,
                                      branch_hostility)
                  for i in range(n_subfns)]
        hot_count = max(1, int(n_subfns * hot_fraction))
        image.clusters[name] = FunctionCluster(
            logical_name=name,
            hot=subfns[:hot_count],
            cold=subfns[hot_count:],
        )
    return image
