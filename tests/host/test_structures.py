"""Tests for host caches, TLBs, branch unit, and DSB.

The access path of every structure is part of the one replay loop
(``HostCPU.replay``), so the cache, hierarchy, branch and DSB tests
drive that loop over a hand-built one-cluster image and a crafted
data-address trace, and read the counters it reports.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.binary import synthetic_image
from repro.host.branch import HostBranchUnit
from repro.host.caches import HostCache
from repro.host.cpu import HostCPU
from repro.host.platform import CacheGeometry, firesim_rocket, intel_xeon
from repro.host.tlb import HostTLB

#: A data region no function's static data lives in.
HEAP = 0x1000_0000


def one_cluster_image(n_functions=1, mean_size=200, **overrides):
    """An image whose only cluster, "k", is ``n_functions`` hot
    functions; ``overrides`` replace fields of each of them."""
    image = synthetic_image([("k", n_functions, mean_size, 1.0, False)])
    hot = image.clusters["k"].hot
    for position, fn in enumerate(hot):
        hot[position] = image.functions[fn.index] = replace(fn, **overrides)
    return image


def replay(image, daddrs, platform=None):
    """Invoke cluster "k" once per data address on a fresh CPU."""
    cpu = HostCPU(platform or intel_xeon(), image)
    result = cpu.replay([1] * len(daddrs), list(daddrs), ["", "k"])
    return cpu, result


def counter(image, daddrs, name, platform=None):
    return replay(image, daddrs, platform)[1].raw_counters[name]


def trace_counters(image, daddrs, platform=None):
    """The counters of the trace alone: start-up's share taken off."""
    startup = replay(image, [], platform)[1].raw_counters
    total = replay(image, daddrs, platform)[1].raw_counters
    return {name: total[name] - startup[name] for name in total}


def lru_model(addrs, geometry):
    """Reference LRU cache: returns (misses, sets) after ``addrs``."""
    shift = geometry.line_size.bit_length() - 1
    sets = [[] for _ in range(geometry.n_sets)]
    misses = 0
    for addr in addrs:
        line = addr >> shift
        stack = sets[line % geometry.n_sets]
        if line in stack:
            stack.remove(line)
        else:
            misses += 1
        stack.insert(0, line)
        del stack[geometry.assoc:]
    return misses, sets


def fill(cache, n_lines):
    for line in range(n_lines):
        cache.sets[line % cache.n_sets].insert(0, line)


class TestHostCache:
    def test_hit_after_miss(self):
        image = one_cluster_image()
        touched = [HEAP + 0x100, HEAP + 0x100, HEAP + 0x13F]  # one line
        untouched = [0, 0, 0]           # 0: the record has no data address
        assert (counter(image, touched, "L1D_ACCESSES")
                == counter(image, untouched, "L1D_ACCESSES") + 3)
        assert (counter(image, touched, "L1D_MISSES")
                == counter(image, untouched, "L1D_MISSES") + 1)

    def test_lru_eviction(self):
        # 2 sets x 2 ways.  Every function's static data is on an even
        # line (set 0); these three lines are odd and share set 1.
        platform = replace(intel_xeon(), l1d=CacheGeometry(256, 2, 64))
        image = one_cluster_image()
        a, b, c = HEAP + 0x040, HEAP + 0x0C0, HEAP + 0x140

        def misses(*daddrs):
            return counter(image, daddrs, "L1D_MISSES", platform)

        filled = misses(a, b, a, c)      # c evicts b: a was used since
        assert misses(a, b, a, c, a) == filled       # a still resident
        assert misses(a, b, a, c, b) == filled + 1   # b was evicted

    def test_resident_bytes(self):
        cache = HostCache("L1", CacheGeometry(4096, 4, 64))
        fill(cache, 10)
        assert cache.resident_lines() == 10
        assert cache.resident_bytes() == 640

    def test_evict_fraction(self):
        cache = HostCache("L1", CacheGeometry(8192, 4, 64))
        fill(cache, 100)
        dropped = cache.evict_fraction(0.5)
        assert 40 <= dropped <= 50
        assert cache.resident_lines() == 100 - dropped

    def test_evict_fraction_validates(self):
        cache = HostCache("L1", CacheGeometry(4096, 2, 64))
        with pytest.raises(ValueError):
            cache.evict_fraction(1.5)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    def test_against_reference_lru_model(self, line_numbers):
        """The L1D must behave exactly like an LRU reference model fed
        the data accesses the schedule implies: each start-up function's
        static data, then per record the data address and the invoked
        function's static data."""
        geometry = CacheGeometry(1024, 4, 64)  # 4 sets, 4 ways
        platform = replace(intel_xeon(), l1d=geometry)
        image = one_cluster_image()
        fn = image.clusters["k"].hot[0]
        daddrs = [HEAP + line * 64 for line in line_numbers]
        accesses = [startup.data_addr for startup in image.startup]
        for daddr in daddrs:
            accesses += [daddr, fn.data_addr]
        cpu, result = replay(image, daddrs, platform)
        misses, sets = lru_model(accesses, geometry)
        assert result.raw_counters["L1D_ACCESSES"] == len(accesses)
        assert result.raw_counters["L1D_MISSES"] == misses
        assert cpu.hierarchy.l1d.sets == sets


class TestHierarchy:
    def test_penalties_grow_down_the_hierarchy(self):
        # A direct-mapped 4-line L1I: "small" fits, "big" covers every
        # set and so evicts all of "small" from the L1I, not from the L2.
        platform = replace(intel_xeon(), l1i=CacheGeometry(256, 1, 64))
        image = synthetic_image([("small", 1, 100, 1.0, False),
                                 ("big", 1, 1200, 1.0, False)])
        small = len(image.clusters["small"].hot[0].cache_lines(64))
        big = len(image.clusters["big"].hot[0].cache_lines(64))
        assert small <= 4 <= big

        def penalty(*fn_ids):
            cpu = HostCPU(platform, image)
            cpu.replay(list(fn_ids), [0] * len(fn_ids),
                       ["", "small", "big"])
            return cpu.hierarchy.l1i_miss_penalty_total

        cold = penalty(1) - penalty()                    # full miss -> DRAM
        assert cold == small * platform.dram_latency_cycles
        assert penalty(1, 1) == penalty(1)               # L1 hit
        refetch = penalty(1, 1, 2, 1) - penalty(1, 1, 2)
        assert refetch == small * platform.l2_latency

    def test_dram_traffic_counted(self):
        image = one_cluster_image()
        cold = counter(image, [HEAP + 0x1000, HEAP + 0x200000], "DRAM_BYTES")
        assert cold == counter(image, [0, 0], "DRAM_BYTES") + 128


class TestHostTLB:
    def test_hit_and_miss(self):
        tlb = HostTLB("iTLB", 4, 4096)
        assert not tlb.access(0x1000)
        assert tlb.access(0x1FFF)   # same page
        assert not tlb.access(0x2000)

    def test_lru_capacity(self):
        tlb = HostTLB("iTLB", 2, 4096)
        tlb.access(0x1000)
        tlb.access(0x2000)
        tlb.access(0x1000)     # refresh page 1
        tlb.access(0x3000)     # evicts page 2
        assert tlb.access(0x1000)
        assert not tlb.access(0x2000)

    def test_page_size_controls_reach(self):
        small = HostTLB("small", 8, 4096)
        large = HostTLB("large", 8, 16384)
        addresses = [i * 4096 for i in range(32)] * 4
        for addr in addresses:
            small.access(addr)
            large.access(addr)
        assert large.miss_rate < small.miss_rate

    def test_huge_page_shift_fn(self):
        huge_region = (0x40_0000, 0x80_0000)

        def shift_for(addr):
            if huge_region[0] <= addr < huge_region[1]:
                return 21
            return 12

        tlb = HostTLB("iTLB", 4, 4096, shift_for)
        tlb.access(0x40_0000)
        assert tlb.access(0x5F_FFFF)  # same 2MB page
        assert not tlb.access(0x1000)  # normal page

    def test_mixed_page_sizes_coexist(self):
        tlb = HostTLB("iTLB", 8, 4096, lambda a: 21 if a >= 1 << 30 else 12)
        tlb.access(1 << 30)
        tlb.access(0x1000)
        assert tlb.access((1 << 30) + 100)
        assert tlb.access(0x1500)

    def test_flush(self):
        tlb = HostTLB("iTLB", 4, 4096)
        tlb.access(0x1000)
        tlb.flush()
        assert not tlb.access(0x1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostTLB("bad", 0, 4096)
        with pytest.raises(ValueError):
            HostTLB("bad", 4, 1000)


class TestHostBranchUnit:
    def test_deterministic_slots_learn_to_zero(self):
        image = one_cluster_image(branch_slots=(1.0, 0.0, 1.0), n_branches=9)
        # Only the cold-start transitions mispredict.
        assert trace_counters(image, [0] * 100)["BR_MISP"] < 15

    def test_hostile_slots_mispredict_often(self):
        image = one_cluster_image(branch_slots=(0.5, 0.5, 0.5), n_branches=9)
        counters = trace_counters(image, [0] * 200)
        assert counters["BR_MISP"] / counters["BR_COND"] > 0.1

    def test_btb_tracks_capacity(self):
        platform = replace(intel_xeon(), btb_entries=4)
        image = one_cluster_image(n_functions=10)
        cpu, result = replay(image, [0, 0], platform)
        assert len(cpu.branch.btb) <= 4
        # Ten call targets cycle through four entries: nothing ever hits.
        assert (result.raw_counters["BTB_MISSES"]
                == result.raw_counters["BTB_LOOKUPS"]
                == len(image.startup) + 20)

    def test_btb_hit_on_reuse(self):
        image = one_cluster_image()
        assert (counter(image, [0, 0], "BTB_MISSES")
                == counter(image, [0], "BTB_MISSES"))

    def test_indirect_polymorphism_misses(self):
        image = one_cluster_image(n_indirect=1)
        first, second = HEAP, HEAP + 0x10    # two dynamic types

        def misses(*daddrs):
            return replay(image, daddrs)[0].branch.ind_misses

        assert misses(first) == misses() + 1
        assert misses(first, first) == misses(first)
        assert misses(first, first, second) == misses(first) + 1  # new target

    def test_validation(self):
        with pytest.raises(ValueError):
            HostBranchUnit(0, 16)


class TestDSB:
    @staticmethod
    def supplied(image, n_records, platform=None):
        """(DSB uops, MITE uops) of ``n_records`` invocations alone."""
        counters = trace_counters(image, [0] * n_records, platform)
        return counters["DSB_UOPS"], counters["MITE_UOPS"]

    def test_hit_after_install(self):
        image = one_cluster_image(loopy=True, n_uops=40)
        assert self.supplied(image, 2) == (40, 40)

    def test_capacity_evicts_lru(self):
        image = one_cluster_image(n_functions=3, loopy=True, n_uops=40)
        roomy = replace(intel_xeon(), dsb_uops=120)
        assert self.supplied(image, 2, roomy) == (120, 120)
        # 100 uops hold two of the three: each install evicts the
        # function the loop is about to reach, so nothing ever hits.
        tight = replace(intel_xeon(), dsb_uops=100)
        assert self.supplied(image, 2, tight) == (0, 240)
        assert replay(image, [0, 0], tight)[0].dsb.occupied_uops <= 100

    def test_non_loopy_functions_never_install(self):
        image = one_cluster_image(loopy=False, n_uops=70)
        assert self.supplied(image, 2) == (0, 140)

    def test_absent_dsb_sends_everything_to_mite(self):
        platform = firesim_rocket()
        assert platform.dsb_uops == 0
        image = one_cluster_image(loopy=True, n_uops=40)
        assert self.supplied(image, 2, platform) == (0, 80)
