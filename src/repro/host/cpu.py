"""The host CPU model: replays a g5 execution trace on a platform.

This is the reproduction's analogue of running gem5 on a Xeon/M1/Rocket
and watching the PMU: the recorded stream of logical simulator-function
invocations expands through the synthetic binary image into host
function executions, each of which exercises the platform's iTLB/iCache
(fetch), DSB/MITE (µop supply), branch predictor/BTB (control flow) and
dTLB/dCache hierarchy (data).  Structure misses convert to stall cycles
through a small set of exposure factors (out-of-order machines hide part
of every penalty), and the Top-Down accountant attributes every pipeline
slot.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from dataclasses import replace as _dc_replace

from ..core.topdown import TopDownBreakdown, TopDownCounters
from .binary import COLD_EVERY, COLD_PER_VISIT, BinaryImage, SimFunction
from .branch import HostBranchUnit
from .caches import HostHierarchy
from .corun import Contention, no_contention
from .frontend import DSB
from .hugepages import CodeBacking, HugePagePolicy, resolve_backing
from .platform import HostPlatform
from .tlb import HostTLB
from .trace import ExecutionRecorder


# Exposure/penalty factors converting miss events to stall cycles.
# Out-of-order cores overlap much of each miss with useful work; these
# are the modelled *exposed* fraction, global model constants rather
# than per-platform knobs.
ICACHE_EXPOSURE = 0.22          # exposed fraction of ifetch penalty
DATA_EXPOSURE = 0.3             # exposed fraction of load penalty
STLB_HIT_CYCLES = 8             # L1-TLB miss hitting the STLB
MITE_COLD_EFFICIENCY = 0.7      # MITE µops/cycle factor, cold code
MITE_LOOPY_EFFICIENCY = 0.9     # ... for loop bodies
DSB_EFFICIENCY = 0.62           # DSB µops/cycle factor
WRONG_PATH_CYCLE_FRACTION = 0.35  # mispredict slots wasted
INDIRECT_TARGETS = 4            # distinct targets per virtual site
EXEC_STALL_PER_KUOP = 2.0       # intrinsic scheduler stalls


def _smt_shared_platform(platform: HostPlatform) -> HostPlatform:
    """Halve the per-thread share of competitively shared structures.

    With SMT enabled and a sibling gem5 process on the same core, the
    L1 caches, TLBs and µop cache are effectively split between the two
    hardware threads — the mechanism behind the paper's observation
    that disabling SMT buys ~47% per-process simulation time.
    """
    def halve(geometry):
        if geometry.assoc > 1:
            return _dc_replace(geometry, size=geometry.size // 2,
                               assoc=geometry.assoc // 2)
        return _dc_replace(geometry, size=max(geometry.line_size,
                                              geometry.size // 2))

    return _dc_replace(
        platform,
        l1i=halve(platform.l1i),
        l1d=halve(platform.l1d),
        itlb_entries=max(8, platform.itlb_entries // 2),
        dtlb_entries=max(8, platform.dtlb_entries // 2),
        stlb_entries=max(64, platform.stlb_entries // 2),
        dsb_uops=platform.dsb_uops // 2,
    )


@dataclass
class FunctionProfile:
    """Per-host-function attributed time (for the paper's Fig. 15)."""

    names: list[str]
    cycles: list[float]

    def hottest(self, count: int = 50) -> list[tuple[str, float]]:
        order = sorted(range(len(self.cycles)),
                       key=lambda i: self.cycles[i], reverse=True)
        return [(self.names[i], self.cycles[i]) for i in order[:count]]

    def executed_functions(self) -> int:
        return sum(1 for value in self.cycles if value > 0)

    def cdf(self, count: int = 50) -> list[float]:
        """Cumulative share of total cycles covered by the top-N functions."""
        total = sum(self.cycles) or 1.0
        running = 0.0
        out = []
        for _, cyc in self.hottest(count):
            running += cyc
            out.append(running / total)
        return out

    @property
    def hottest_share(self) -> float:
        total = sum(self.cycles) or 1.0
        return max(self.cycles, default=0.0) / total


@dataclass
class HostRunResult:
    """Everything the paper measures for one (workload, platform) cell."""

    platform_name: str
    cycles: float
    insts: int
    uops: int
    time_seconds: float
    topdown: TopDownBreakdown
    counters: TopDownCounters
    # structure stats
    l1i_miss_rate: float
    l1d_miss_rate: float
    l2_miss_rate: float
    llc_miss_rate: float
    itlb_mpki: float
    dtlb_mpki: float
    itlb_miss_rate: float
    dtlb_miss_rate: float
    branch_mispredict_rate: float
    btb_miss_rate: float
    dsb_coverage: float
    llc_occupancy_bytes: int
    dram_bytes: int
    profile: FunctionProfile
    functions_executed: int = 0
    raw_counters: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.insts / max(1.0, self.cycles)

    @property
    def dram_bandwidth_gbps(self) -> float:
        return self.dram_bytes / max(1e-12, self.time_seconds) / 1e9

    @property
    def stall_fraction(self) -> float:
        """Share of cycles not spent retiring at full width."""
        return max(0.0, 1.0 - self.topdown.retiring)


class HostCPU:
    """Replays traces against one platform configuration."""

    def __init__(self, platform: HostPlatform, image: BinaryImage,
                 hugepages: HugePagePolicy = HugePagePolicy.NONE,
                 contention: Optional[Contention] = None) -> None:
        self.contention = contention or no_contention()
        if self.contention.smt_shared:
            platform = _smt_shared_platform(platform)
        self.platform = platform
        self.image = image
        self.backing: CodeBacking = resolve_backing(hugepages, image)
        base_shift = platform.page_size.bit_length() - 1
        if hugepages is HugePagePolicy.NONE:
            itlb_shift_fn = None
        else:
            backing = self.backing
            itlb_shift_fn = (
                lambda addr: backing.page_shift_for(addr, base_shift))
        self.hierarchy = HostHierarchy(platform)
        self.itlb = HostTLB("iTLB", platform.itlb_entries,
                            platform.page_size, itlb_shift_fn)
        self.dtlb = HostTLB("dTLB", platform.dtlb_entries, platform.page_size)
        self.stlb = HostTLB("STLB", platform.stlb_entries, platform.page_size,
                            itlb_shift_fn)
        self.branch = HostBranchUnit(platform.bp_table_bits,
                                     platform.btb_entries)
        self.dsb = DSB(platform.dsb_uops)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def replay_recorder(self, recorder: ExecutionRecorder) -> HostRunResult:
        """Replay a g5 run captured by ``recorder``."""
        return self.replay(recorder.trace_fns, recorder.trace_daddrs,
                           recorder.fn_names)

    def replay(self, trace_fns: list[int], trace_daddrs: list[int],
               fn_names: list[str]) -> HostRunResult:
        """Replay a raw trace (parallel fn-id/data-address lists).

        Simulator start-up runs first, as one record whose schedule is
        ``image.startup``, through the same loop as the trace.  Apart
        from laying out clusters the image lacks, a replay only reads
        the image: two replays of one image give equal results.
        """
        return HostCPU._replay_all([self], trace_fns, trace_daddrs,
                                   fn_names)[0]

    @staticmethod
    def replay_walk(cpus: list["HostCPU"], trace_fns: list[int],
                    trace_daddrs: list[int],
                    fn_names: list[str]) -> list[HostRunResult]:
        """Replay one trace on every CPU of ``cpus`` in one walk; each
        result equals (``==``) that CPU's :meth:`replay` alone, which is
        what one CPU runs.

        The CPUs share one image and :func:`walk_key`, and one with
        contention walks alone: its quantum evictions break inclusion.
        Build them all before the walk: it may lay clusters out, which
        moves huge-page backing.
        """
        lead = cpus[0]
        if len(cpus) == 1:
            return [lead.replay(trace_fns, trace_daddrs, fn_names)]
        if any(cpu.image is not lead.image
               or cpu.contention != no_contention()
               or walk_key(cpu.platform) != walk_key(lead.platform)
               for cpu in cpus):
            raise ValueError("these replays cannot share one walk")
        return HostCPU._replay_all(cpus, trace_fns, trace_daddrs, fn_names)

    @staticmethod
    def _replay_all(cpus: list["HostCPU"], trace_fns: list[int],
                    trace_daddrs: list[int],
                    fn_names: list[str]) -> list[HostRunResult]:
        """Start-up, then the trace, in one walk for ``cpus``."""
        lead = cpus[0]
        width = lead._effective_width()
        image = lead.image
        pages, page_of = _lanes(cpus, attrgetter("backing"))
        caches, cache_of = _lanes(cpus, _cache_lane)
        descriptor = lead._function_descriptor
        # ``cluster_for`` lays clusters out on demand, so the schedules
        # come first: only then is ``image.functions`` complete.
        schedules: list = [None]
        for name in fn_names[1:]:
            cluster = image.cluster_for(name)
            schedules.append(
                [[descriptor(fn, width, pages) for fn in cluster.hot],
                 [descriptor(fn, width, pages) for fn in cluster.cold], 0])
        startup = [[descriptor(fn, width, pages) for fn in image.startup],
                   [], 0]
        counters = [TopDownCounters(pipeline_width=width) for _ in cpus]
        profiles = [[0.0] * len(image.functions) for _ in cpus]
        HostCPU._walk(cpus, [startup], [0], [0], counters, profiles)
        HostCPU._walk(cpus, schedules, trace_fns, trace_daddrs, counters,
                      profiles)
        # A CPU's L1 is the top of the shared tag stacks; everything else
        # it reads from the structures of the walk that served it.
        stacks = lead.hierarchy.l1i.sets, lead.hierarchy.l1d.sets
        for owner in caches:
            for mine, stack in zip((owner.hierarchy.l1i,
                                    owner.hierarchy.l1d), stacks):
                mine.sets = [tags[:mine.assoc] for tags in stack]
        for cpu, page, cache in zip(cpus, page_of, cache_of):
            cpu.dsb, cpu.branch, cpu.dtlb = lead.dsb, lead.branch, lead.dtlb
            cpu.itlb, cpu.stlb = pages[page].itlb, pages[page].stlb
            cpu.hierarchy = caches[cache].hierarchy
        return [cpu._finalize(mine, profile)
                for cpu, mine, profile in zip(cpus, counters, profiles)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _effective_width(self) -> float:
        """Per-thread pipeline slots; fractional under SMT sharing."""
        width = self.platform.pipeline_width * self.contention.width_factor
        return max(1.0, width)

    def _function_descriptor(self, fn: SimFunction, width: float,
                             pages: list["HostCPU"]):
        """Precompute everything the replay loop needs for one function:
        its L1I lines, its iTLB key per code page policy of ``pages``,
        its branch slots with their table indices."""
        platform = self.platform
        line_shift = self.hierarchy.l1i.line_shift
        lines = tuple(range(fn.addr >> line_shift,
                            (fn.addr + fn.size - 1 >> line_shift) + 1))
        base_shift = platform.page_size.bit_length() - 1
        shifts = [base_shift if page.itlb.page_shift_for is None
                  else page.itlb.page_shift_for(fn.addr) for page in pages]
        itlb_keys = tuple([(fn.addr >> shift) << 6 | shift
                           for shift in shifts])
        ideal = fn.n_uops / width
        dsb_stall = max(0.0, fn.n_uops / (platform.dsb_width
                                          * DSB_EFFICIENCY) - ideal)
        efficiency = (MITE_LOOPY_EFFICIENCY if fn.loopy
                      else MITE_COLD_EFFICIENCY)
        mite_stall = max(0.0, fn.n_uops / (platform.mite_width * efficiency)
                         - ideal)
        # Only loop bodies are retainable: the DSB caches 32B fetch
        # windows, and large straight-line functions never re-fetch a
        # window before it is evicted.
        dsb_install = fn.loopy and fn.n_uops <= platform.dsb_uops
        slots = min(len(fn.branch_slots), fn.n_branches)
        slot_specs = []
        base_key = fn.addr >> 2
        bp_mask = self.branch.table_mask
        for slot in range(slots):
            bias = fn.branch_slots[slot]
            key = (base_key + slot * 97) & ((1 << 64) - 1)
            # A biased slot always goes one way; the others draw.
            taken = True if bias >= 1.0 else False if bias <= 0.0 else None
            slot_specs.append((key & bp_mask, taken, key, int(bias * 255)))
        scale = fn.n_branches / max(1, slots)
        site = (fn.addr ^ 0x5BD1) if fn.n_indirect else -1
        return (fn.index, lines, itlb_keys, fn.n_uops, dsb_stall,
                mite_stall, dsb_install, tuple(slot_specs), scale, fn.addr,
                site, fn.data_addr,
                fn.n_uops * EXEC_STALL_PER_KUOP / 1000.0, ideal,
                fn.n_branches)

    @staticmethod
    def _walk(cpus: list["HostCPU"], schedules: list, trace_fns: list[int],
              trace_daddrs: list[int], counters: list[TopDownCounters],
              profiles: list[list[float]]) -> None:
        """The host model: run every record's schedule through the
        platforms' structures once for all ``cpus``, inlined for speed.

        A schedule is ``[hot descriptors, cold descriptors, cursor]``;
        the cursor counts the schedule's invocations and rotates its
        cold tail.  The first CPU's DSB, branch unit, dTLB and L1 tag
        stacks serve every CPU: a stack is as deep as the largest L1
        associativity, and a CPU of associativity ``a`` hits where the
        line's depth is below ``a`` (LRU inclusion).  The first CPU of
        each code page policy lends its iTLB and STLB to the others, and
        the first of each :func:`_cache_lane` its L2, LLC and DRAM.  A
        function's cycles stay one float while every CPU has been
        charged alike (always, for one CPU) and split into one per CPU
        at the first charge that differs, so each CPU adds its floats in
        the order a walk of its own would.
        Statistics accumulate in locals and are written to ``counters``
        and the structures when the pass ends; contention quanta count
        the records of one pass.
        """
        lead = cpus[0]
        platform = lead.platform
        width = counters[0].pipeline_width
        n_cpus = len(cpus)
        pages, page_of = _lanes(cpus, attrgetter("backing"))
        caches, cache_of = _lanes(cpus, _cache_lane)
        one_page, one_cache = len(pages) == 1, len(caches) == 1
        page_lanes, cache_lanes = range(len(pages)), range(len(caches))
        # --- local aliases for every structure --------------------------
        hier = lead.hierarchy
        l1i_sets, l1i_nsets = hier.l1i.sets, hier.l1i.n_sets
        l1d_sets, l1d_nsets = hier.l1d.sets, hier.l1d.n_sets
        l1i_assocs = [owner.platform.l1i.assoc for owner in caches]
        l1d_assocs = [owner.platform.l1d.assoc for owner in caches]
        l1i_depth, l1i_min = max(l1i_assocs), min(l1i_assocs)
        l1d_depth, l1d_min = max(l1d_assocs), min(l1d_assocs)
        l1i_even, l1d_even = l1i_depth == l1i_min, l1d_depth == l1d_min
        l1d_shift = hier.l1d.line_shift
        l1i_line_shift = hier.l1i.line_shift
        fills = [owner.hierarchy.fill for owner in caches]
        dram_latencies = [owner.hierarchy.dram_latency for owner in caches]
        itlb_maps = tuple(enumerate(page.itlb.map for page in pages))
        itlb_entries = lead.itlb.entries
        stlb_accesses = [page.stlb.access for page in pages]
        dtlb_map, dtlb_entries = lead.dtlb.map, lead.dtlb.entries
        dshift = lead.dtlb.default_page_shift
        bp_table = lead.branch.table
        slot_state = lead.branch._slot_state
        btb, btb_entries = lead.branch.btb, lead.branch.btb_entries
        ind_table = lead.branch.ind_table
        ind_entries = btb_entries // 2
        dsb_entries = lead.dsb.entries
        dsb_capacity = lead.dsb.capacity_uops
        dsb_present = dsb_capacity > 0
        dsb_occupied = lead.dsb.occupied_uops
        icache_exposure = ICACHE_EXPOSURE
        data_exposure = DATA_EXPOSURE
        stlb_hit_cycles = STLB_HIT_CYCLES
        walk_cycles = platform.tlb_walk_cycles
        mispredict_penalty = platform.mispredict_penalty
        unknown_penalty = platform.unknown_branch_penalty
        wrong_frac = WRONG_PATH_CYCLE_FRACTION
        indirect_targets = INDIRECT_TARGETS
        contention = lead.contention
        penalty_factor = (contention.dram_penalty_factor
                          if contention.active else 1.0)
        quantum = contention.quantum_records if contention.active else 0
        l1_quantum = (contention.l1_quantum_records
                      if contention.active else 0)
        since_disturb = 0
        since_l1_disturb = 0
        # --- local stat accumulators: shared, then per lane -------------
        retired_uops = 0
        bad_spec = 0.0
        mispredict_stall = clear_stall = unknown_stall = 0.0
        mite_bw = dsb_bw = 0.0
        exec_stall_total = 0.0
        l1i_lookups = l1d_lookups = 0
        itlb_lookups = 0
        dtlb_hits = dtlb_misses = 0
        dsb_hits = dsb_misses = 0
        uops_dsb = uops_mite = 0
        btb_lookups = btb_misses = 0
        ind_lookups = ind_misses = 0
        cond_branches = 0
        cond_mispredicts = 0.0
        itlb_misses = [0 for _ in pages]
        itlb_stall = [0.0 for _ in pages]
        dtlb_stall = [0.0 for _ in pages]
        l1i_misses = [0 for _ in caches]
        l1d_misses = [0 for _ in caches]
        l1i_pen_total = [0 for _ in caches]
        l1d_pen_total = [0 for _ in caches]
        icache_stall = [0.0 for _ in caches]
        dcache_stall = [0.0 for _ in caches]
        charged = [0.0 for _ in caches]     # one L1 miss's stall, by lane
        lcg_mul = 6364136223846793005
        lcg_inc = 1442695040888963407
        mask64 = (1 << 64) - 1
        n_records = len(trace_fns)
        for record in range(n_records):
            schedule = schedules[trace_fns[record]]
            if schedule is None:
                continue
            daddr = trace_daddrs[record]
            hot, cold, cursor = schedule
            schedule[2] = cursor + 1
            if cold and cursor % COLD_EVERY == COLD_EVERY - 1:
                n_cold = len(cold)
                offset = cursor // COLD_EVERY * COLD_PER_VISIT
                todo = hot + [cold[(offset + extra) % n_cold]
                              for extra in range(COLD_PER_VISIT)]
            else:
                todo = hot
            for desc in todo:
                (fn_index, lines, itlb_keys, n_uops, dsb_stall, mite_stall,
                 dsb_install, slot_specs, scale, fn_addr, site, data_addr,
                 exec_stall, ideal, n_branches) = desc
                fn_cycles = 0.0
                split = None        # per-CPU fn_cycles once they differ
                retired_uops += n_uops
                # --- µop supply (DSB hit bypasses the fetch path) --------
                if dsb_present and fn_index in dsb_entries:
                    dsb_hits += 1
                    uops_dsb += n_uops
                    del dsb_entries[fn_index]
                    dsb_entries[fn_index] = n_uops
                    if dsb_stall:
                        dsb_bw += dsb_stall
                        fn_cycles += dsb_stall
                else:
                    if dsb_present:
                        dsb_misses += 1
                    uops_mite += n_uops
                    if dsb_present and dsb_install:
                        dsb_entries[fn_index] = n_uops
                        dsb_occupied += n_uops
                        while dsb_occupied > dsb_capacity:
                            victim = next(iter(dsb_entries))
                            dsb_occupied -= dsb_entries.pop(victim)
                    if mite_stall:
                        mite_bw += mite_stall
                        fn_cycles += mite_stall
                    # --- iTLB, once per code page policy -----------------
                    itlb_lookups += 1
                    for lane, itlb_map in itlb_maps:
                        itlb_key = itlb_keys[lane]
                        if itlb_key in itlb_map:
                            del itlb_map[itlb_key]
                            itlb_map[itlb_key] = None
                            continue
                        itlb_misses[lane] += 1
                        itlb_map[itlb_key] = None
                        if len(itlb_map) > itlb_entries:
                            del itlb_map[next(iter(itlb_map))]
                        stall = (stlb_hit_cycles
                                 if stlb_accesses[lane](fn_addr)
                                 else walk_cycles)
                        itlb_stall[lane] += stall
                        if one_page:
                            fn_cycles += stall
                        else:
                            split = [cycles + stall if mine == lane
                                     else cycles for cycles, mine in zip(
                                         split or [fn_cycles] * n_cpus,
                                         page_of)]
                    # --- iCache: one tag stack, misses once per lane ----
                    l1i_lookups += len(lines)
                    for line in lines:
                        cache_set = l1i_sets[line % l1i_nsets]
                        if line in cache_set:
                            if cache_set[0] == line:
                                continue
                            if l1i_even:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                                continue
                            depth = cache_set.index(line)
                            del cache_set[depth]
                            cache_set.insert(0, line)
                            if depth < l1i_min:
                                continue
                        else:
                            depth = l1i_depth
                            cache_set.insert(0, line)
                            if len(cache_set) > l1i_depth:
                                cache_set.pop()
                        addr = line << l1i_line_shift
                        for lane in cache_lanes:
                            if l1i_assocs[lane] > depth:
                                charged[lane] = 0.0
                                continue
                            l1i_misses[lane] += 1
                            penalty = fills[lane](addr)
                            l1i_pen_total[lane] += penalty
                            # Bandwidth contention stretches every L1I
                            # miss, wherever it is served from; the data
                            # side (below) stretches DRAM accesses only.
                            stall = penalty * icache_exposure * penalty_factor
                            icache_stall[lane] += stall
                            charged[lane] = stall
                        if one_cache and split is None:
                            fn_cycles += stall
                        else:
                            split = [cycles + charged[lane] for cycles, lane
                                     in zip(split or [fn_cycles] * n_cpus,
                                            cache_of)]
                # --- conditional branches --------------------------------
                mispredicted = 0
                for index, taken, key, threshold in slot_specs:
                    if taken is None:
                        state = slot_state.get(key)
                        if state is None:
                            state = key ^ 0x9E3779B9
                        state = (state * lcg_mul + lcg_inc) & mask64
                        slot_state[key] = state
                        taken = ((state >> 40) & 0xFF) < threshold
                    counter = bp_table[index]
                    if (counter >= 2) != taken:
                        mispredicted += 1
                    if taken:
                        if counter < 3:
                            bp_table[index] = counter + 1
                    elif counter > 0:
                        bp_table[index] = counter - 1
                cond_branches += n_branches
                if mispredicted:
                    mispredicts = mispredicted * scale
                    cond_mispredicts += mispredicts
                    stall = mispredicts * mispredict_penalty
                    mispredict_stall += stall
                    bad_spec += stall * width * wrong_frac
                    fn_cycles += stall
                    if split is not None:
                        split = [cycles + stall for cycles in split]
                # --- BTB -------------------------------------------------
                btb_lookups += 1
                if fn_addr in btb:
                    del btb[fn_addr]
                    btb[fn_addr] = None
                else:
                    btb_misses += 1
                    btb[fn_addr] = None
                    if len(btb) > btb_entries:
                        del btb[next(iter(btb))]
                    unknown_stall += unknown_penalty
                    fn_cycles += unknown_penalty
                    if split is not None:
                        split = [cycles + unknown_penalty
                                 for cycles in split]
                # --- indirect (virtual) calls ----------------------------
                # The target depends on the object's dynamic type,
                # modelled as a function of the data address.
                if site >= 0:
                    ind_lookups += 1
                    variant = (daddr >> 4) % indirect_targets
                    tagged = (site << 20) ^ variant
                    if tagged in ind_table:
                        del ind_table[tagged]
                        ind_table[tagged] = None
                    else:
                        ind_misses += 1
                        ind_table[tagged] = None
                        if len(ind_table) > ind_entries:
                            del ind_table[next(iter(ind_table))]
                        clear_stall += mispredict_penalty
                        bad_spec += (mispredict_penalty * width * wrong_frac)
                        fn_cycles += mispredict_penalty
                        if split is not None:
                            split = [cycles + mispredict_penalty
                                     for cycles in split]
                # --- data side -------------------------------------------
                for addr in (daddr, data_addr) if daddr else (data_addr,):
                    dkey = (addr >> dshift) << 6 | dshift
                    if dkey in dtlb_map:
                        dtlb_hits += 1
                        del dtlb_map[dkey]
                        dtlb_map[dkey] = None
                    else:
                        dtlb_misses += 1
                        dtlb_map[dkey] = None
                        if len(dtlb_map) > dtlb_entries:
                            del dtlb_map[next(iter(dtlb_map))]
                        for lane in page_lanes:
                            if stlb_accesses[lane](addr):
                                stall = stlb_hit_cycles * data_exposure
                            else:
                                stall = walk_cycles * data_exposure
                            dtlb_stall[lane] += stall
                            if one_page and split is None:
                                fn_cycles += stall
                            else:
                                split = [cycles + stall if mine == lane
                                         else cycles for cycles, mine in zip(
                                             split or [fn_cycles] * n_cpus,
                                             page_of)]
                    l1d_lookups += 1
                    dline = addr >> l1d_shift
                    d_set = l1d_sets[dline % l1d_nsets]
                    if dline in d_set:
                        if d_set[0] == dline:
                            continue
                        if l1d_even:
                            d_set.remove(dline)
                            d_set.insert(0, dline)
                            continue
                        depth = d_set.index(dline)
                        del d_set[depth]
                        d_set.insert(0, dline)
                        if depth < l1d_min:
                            continue
                    else:
                        depth = l1d_depth
                        d_set.insert(0, dline)
                        if len(d_set) > l1d_depth:
                            d_set.pop()
                    for lane in cache_lanes:
                        if l1d_assocs[lane] > depth:
                            charged[lane] = 0.0
                            continue
                        l1d_misses[lane] += 1
                        penalty = fills[lane](addr)
                        l1d_pen_total[lane] += penalty
                        if penalty >= dram_latencies[lane]:
                            penalty *= penalty_factor
                        stall = penalty * data_exposure
                        dcache_stall[lane] += stall
                        charged[lane] = stall
                    if one_cache and split is None:
                        fn_cycles += stall
                    else:
                        split = [cycles + charged[lane] for cycles, lane
                                 in zip(split or [fn_cycles] * n_cpus,
                                        cache_of)]
                # --- intrinsic back-end stalls ---------------------------
                exec_stall_total += exec_stall
                if split is None:
                    fn_cycles += exec_stall
                    fn_cycles += ideal
                    for profile in profiles:
                        profile[fn_index] += fn_cycles
                else:
                    for profile, cycles in zip(profiles, split):
                        profile[fn_index] += cycles + exec_stall + ideal
            if quantum:
                since_disturb += 1
                if since_disturb >= quantum:
                    since_disturb = 0
                    lead.dsb.occupied_uops = dsb_occupied
                    lead._disturb()
                    dsb_occupied = lead.dsb.occupied_uops
                if l1_quantum:
                    since_l1_disturb += 1
                    if since_l1_disturb >= l1_quantum:
                        since_l1_disturb = 0
                        lead._disturb_l1()
        # --- write the accumulators back ----------------------------------
        for mine, page, cache in zip(counters, page_of, cache_of):
            mine.retired_uops += retired_uops
            mine.bad_spec_uops += bad_spec
            mine.icache_stall_cycles += icache_stall[cache]
            mine.itlb_stall_cycles += itlb_stall[page]
            mine.mispredict_resteer_cycles += mispredict_stall
            mine.clear_resteer_cycles += clear_stall
            mine.unknown_branch_cycles += unknown_stall
            mine.mite_bw_cycles += mite_bw
            mine.dsb_bw_cycles += dsb_bw
            mine.dcache_stall_cycles += dcache_stall[cache]
            mine.dtlb_stall_cycles += dtlb_stall[page]
            mine.exec_stall_cycles += exec_stall_total
        for lane, owner in enumerate(caches):
            owner_hier = owner.hierarchy
            owner_hier.l1i.hits += l1i_lookups - l1i_misses[lane]
            owner_hier.l1i.misses += l1i_misses[lane]
            owner_hier.l1d.hits += l1d_lookups - l1d_misses[lane]
            owner_hier.l1d.misses += l1d_misses[lane]
            owner_hier.l1i_miss_penalty_total += l1i_pen_total[lane]
            owner_hier.l1d_miss_penalty_total += l1d_pen_total[lane]
        for lane, page in enumerate(pages):
            page.itlb.hits += itlb_lookups - itlb_misses[lane]
            page.itlb.misses += itlb_misses[lane]
        lead.dtlb.hits += dtlb_hits
        lead.dtlb.misses += dtlb_misses
        lead.dsb.hits += dsb_hits
        lead.dsb.misses += dsb_misses
        lead.dsb.uops_from_dsb += uops_dsb
        lead.dsb.uops_from_mite += uops_mite
        lead.dsb.occupied_uops = dsb_occupied
        lead.branch.btb_lookups += btb_lookups
        lead.branch.btb_misses += btb_misses
        lead.branch.ind_lookups += ind_lookups
        lead.branch.ind_misses += ind_misses
        lead.branch.cond_branches += cond_branches
        lead.branch.cond_mispredicts += cond_mispredicts

    def _disturb(self) -> None:
        """Apply one scheduling quantum of shared-resource pressure."""
        contention = self.contention
        hier = self.hierarchy
        if contention.llc_evict_fraction:
            hier.llc.evict_fraction(contention.llc_evict_fraction)
        if contention.l2_evict_fraction:
            hier.l2.evict_fraction(contention.l2_evict_fraction)
        if not contention.l1_quantum_records:
            self._disturb_l1()

    def _disturb_l1(self) -> None:
        """Apply one burst of sibling-thread L1/TLB pollution (SMT)."""
        contention = self.contention
        hier = self.hierarchy
        if contention.l1_evict_fraction:
            hier.l1i.evict_fraction(contention.l1_evict_fraction)
            hier.l1d.evict_fraction(contention.l1_evict_fraction)
        if contention.tlb_evict_fraction >= 1.0:
            self.itlb.flush()
            self.dtlb.flush()
        elif contention.tlb_evict_fraction > 0:
            # Partial flush: drop the LRU part of each TLB.
            for tlb in (self.itlb, self.dtlb):
                drop = int(len(tlb.map) * contention.tlb_evict_fraction)
                for _ in range(drop):
                    if not tlb.map:
                        break
                    del tlb.map[next(iter(tlb.map))]

    def _finalize(self, counters: TopDownCounters,
                  profile_cycles: list[float]) -> HostRunResult:
        platform = self.platform
        cycles = counters.total_cycles
        insts = int(counters.retired_uops / 1.15)  # µops back to insts
        time_seconds = cycles / (platform.freq_ghz * 1e9)
        kilo_insts = insts / 1000.0
        hier = self.hierarchy
        names = [fn.name for fn in self.image.functions]
        breakdown = counters.breakdown()
        breakdown.validate()
        profile = FunctionProfile(names=names, cycles=profile_cycles)
        raw = {
            "CYCLES": cycles,
            "INSTRUCTIONS": float(insts),
            "UOPS_RETIRED": float(counters.retired_uops),
            "L1I_MISSES": float(hier.l1i.misses),
            "L1I_ACCESSES": float(hier.l1i.accesses),
            "L1D_MISSES": float(hier.l1d.misses),
            "L1D_ACCESSES": float(hier.l1d.accesses),
            "L2_MISSES": float(hier.l2.misses),
            "L2_ACCESSES": float(hier.l2.accesses),
            "LLC_MISSES": float(hier.llc.misses),
            "LLC_ACCESSES": float(hier.llc.accesses),
            "ITLB_MISSES": float(self.itlb.misses),
            "ITLB_ACCESSES": float(self.itlb.accesses),
            "DTLB_MISSES": float(self.dtlb.misses),
            "DTLB_ACCESSES": float(self.dtlb.accesses),
            "BR_COND": float(self.branch.cond_branches),
            "BR_MISP": float(self.branch.cond_mispredicts),
            "BTB_LOOKUPS": float(self.branch.btb_lookups),
            "BTB_MISSES": float(self.branch.btb_misses),
            "DSB_UOPS": float(self.dsb.uops_from_dsb),
            "MITE_UOPS": float(self.dsb.uops_from_mite),
            "DRAM_BYTES": float(hier.dram_bytes),
        }
        return HostRunResult(
            platform_name=platform.name,
            cycles=cycles,
            insts=insts,
            uops=counters.retired_uops,
            time_seconds=time_seconds,
            topdown=breakdown,
            counters=counters,
            l1i_miss_rate=hier.l1i.miss_rate,
            l1d_miss_rate=hier.l1d.miss_rate,
            l2_miss_rate=hier.l2.miss_rate,
            llc_miss_rate=hier.llc.miss_rate,
            itlb_mpki=self.itlb.mpki(kilo_insts),
            dtlb_mpki=self.dtlb.mpki(kilo_insts),
            itlb_miss_rate=self.itlb.miss_rate,
            dtlb_miss_rate=self.dtlb.miss_rate,
            branch_mispredict_rate=self.branch.mispredict_rate,
            btb_miss_rate=(self.branch.btb_misses
                           / max(1, self.branch.btb_lookups)),
            dsb_coverage=self.dsb.coverage,
            llc_occupancy_bytes=hier.llc_occupancy_bytes(),
            dram_bytes=hier.dram_bytes,
            profile=profile,
            functions_executed=profile.executed_functions(),
            raw_counters=raw,
        )


def walk_key(platform: HostPlatform) -> tuple:
    """What replays must share to walk one trace together
    (:meth:`HostCPU.replay_walk`): every parameter but the L1
    associativities, the L2, the LLC, the latencies and the clock."""
    return (platform.pipeline_width, platform.mite_width,
            platform.dsb_width, platform.dsb_uops, platform.page_size,
            platform.itlb_entries, platform.dtlb_entries,
            platform.stlb_entries, platform.tlb_walk_cycles,
            platform.btb_entries, platform.bp_table_bits,
            platform.mispredict_penalty, platform.unknown_branch_penalty,
            platform.l1i.n_sets, platform.l1i.line_size,
            platform.l1d.n_sets, platform.l1d.line_size)


def _lanes(cpus: list[HostCPU], key) -> tuple[list[HostCPU], list[int]]:
    """The first CPU of each distinct ``key(cpu)``, and each CPU's index
    into that list."""
    keys = [key(cpu) for cpu in cpus]
    distinct = list(dict.fromkeys(keys))
    return ([cpus[keys.index(each)] for each in distinct],
            [distinct.index(each) for each in keys])


def _cache_lane(cpu: HostCPU) -> tuple:
    """What replays in one walk must share to share L2/LLC state: the L1
    miss streams that feed it, its geometry and its latencies."""
    platform = cpu.platform
    return (platform.l1i.assoc, platform.l1d.assoc, platform.l2,
            platform.llc, platform.l2_latency, platform.llc_latency,
            platform.dram_latency_cycles)


def profile_g5_run(recorder: ExecutionRecorder, platform: HostPlatform,
                   opt_level: int = 2,
                   hugepages: HugePagePolicy = HugePagePolicy.NONE,
                   contention: Optional[Contention] = None,
                   seed: int = 1,
                   layout_quality: float = 1.0,
                   cluster_scale: float = 1.0,
                   roi_only: bool = False,
                   max_records: Optional[int] = None) -> HostRunResult:
    """Build the binary image for a recorder and replay its trace: the
    one step that turns (recording, platform, knobs) into a result.

    ``roi_only`` restricts the replay to the guest-marked region of
    interest (m5 work begin/end), the paper's counter-read window;
    ``max_records`` truncates what is left.
    """
    return profile_g5_walk(recorder, [(platform, hugepages, contention)],
                           opt_level=opt_level, seed=seed,
                           layout_quality=layout_quality,
                           cluster_scale=cluster_scale, roi_only=roi_only,
                           max_records=max_records)[0]


def profile_g5_walk(recorder: ExecutionRecorder, hosts: list[tuple],
                    opt_level: int = 2, seed: int = 1,
                    layout_quality: float = 1.0, cluster_scale: float = 1.0,
                    roi_only: bool = False,
                    max_records: Optional[int] = None) -> list[HostRunResult]:
    """:func:`profile_g5_run` for every ``(platform, hugepages,
    contention)`` of ``hosts``: one image, one walk of the trace."""
    if roi_only:
        trace_fns, trace_daddrs = recorder.roi_slice()
    else:
        trace_fns, trace_daddrs = recorder.trace_fns, recorder.trace_daddrs
    if max_records is not None and len(trace_fns) > max_records:
        trace_fns = trace_fns[:max_records]
        trace_daddrs = trace_daddrs[:max_records]
    image = BinaryImage.for_recorder_functions(
        recorder.known_functions(), opt_level=opt_level, seed=seed,
        layout_quality=layout_quality, cluster_scale=cluster_scale)
    cpus = [HostCPU(platform, image, hugepages=hugepages,
                    contention=contention)
            for platform, hugepages, contention in hosts]
    return HostCPU.replay_walk(cpus, trace_fns, trace_daddrs,
                               recorder.fn_names)
