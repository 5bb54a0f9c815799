"""Ablations of the design choices DESIGN.md §6 calls out.

Each ablation removes or varies one mechanism of the host model and
shows the effect it exists to produce, so a reader can see which
modelling decision carries which paper result.
"""

from dataclasses import replace

import pytest

from repro.host.binary import BinaryImage
from repro.host.corun import corun_contention
from repro.host.cpu import HostCPU
from repro.host.hugepages import HugePagePolicy, resolve_backing
from repro.host.platform import intel_xeon


@pytest.fixture(scope="module")
def trace(runner):
    """One detailed-CPU g5 trace shared by all ablations."""
    return runner.g5_result("water_nsquared", "o3").recorder


def replay(trace, platform=None, image_kwargs=None, **kwargs):
    image = BinaryImage.for_recorder_functions(trace.known_functions(),
                                               **(image_kwargs or {}))
    cpu = HostCPU(platform or intel_xeon(), image, **kwargs)
    return cpu.replay(trace.trace_fns[:60000], trace.trace_daddrs[:60000],
                      trace.fn_names)


def test_ablation_dsb_capacity(trace):
    """Why gem5 gets ~0 DSB coverage: capacity vs footprint.

    Growing the µop cache 16x barely helps gem5 — its code has no reuse
    at DSB timescales — which is the paper's Fig. 6 causal claim.
    """
    platform = replace(intel_xeon(), dsb_uops=intel_xeon().dsb_uops * 16)
    assert replay(trace, platform).dsb_coverage < 0.5


def test_ablation_page_size_at_fixed_l1(trace):
    """Separating the M1's page-size effect from its L1-capacity effect.

    Quadrupling the page size at fixed L1 capacity cuts iTLB misses on
    its own — the paper's footnote-3 argument.
    """
    small_pages = replay(trace)
    big_pages = replay(trace, replace(intel_xeon(), page_size=16 * 1024))
    assert big_pages.itlb_miss_rate < small_pages.itlb_miss_rate


def test_ablation_thp_hot_fraction(trace):
    """THP vs EHP differ only in which text range gets 2MB pages."""
    image = BinaryImage.for_recorder_functions(trace.known_functions())
    coverage = {policy.value: resolve_backing(policy, image).covers_bytes
                for policy in (HugePagePolicy.THP, HugePagePolicy.EHP)}
    assert 0 < coverage["thp"] <= coverage["ehp"] <= image.text_bytes * 1.01


def test_ablation_smt_l1_sharing(trace):
    """The SMT penalty is mostly L1 contention (the paper's Sec. II claim).

    Same process count and slot sharing, with and without the shared-L1
    component of the SMT model (capacity halving + sibling pollution).
    """
    smt = corun_contention(intel_xeon(), 40, smt=True)
    # Keep the slot/bandwidth terms but disable every cache-sharing
    # mechanism: smt_shared gates the capacity halving, the evict
    # fractions gate the recency pollution.
    no_l1_sharing = replace(smt, smt_shared=False, l1_evict_fraction=0.0,
                            tlb_evict_fraction=0.0, l1_quantum_records=0)
    full = replay(trace, contention=smt)
    partial = replay(trace, contention=no_l1_sharing)
    alone = replay(trace)
    l1_component = (full.time_seconds - partial.time_seconds) \
        / (full.time_seconds - alone.time_seconds)
    assert alone.time_seconds < partial.time_seconds < full.time_seconds
    assert l1_component > 0.08


def test_ablation_layout_quality(trace):
    """libhugetlbfs' 'sub-optimal binary layout' knob (paper §V-A)."""
    good = replay(trace, image_kwargs={"layout_quality": 1.0})
    bad = replay(trace, image_kwargs={"layout_quality": 0.5})
    assert bad.time_seconds > good.time_seconds
