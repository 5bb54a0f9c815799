"""Tests for platform parameter sets and the FireSim sweep geometries."""

import pytest

from repro.host.cpu import profile_g5_run
from repro.host.firesim import (
    FIG14_CONFIGS,
    FIRESIM_CLUSTER_SCALE,
    config_label,
    platform_for,
)
from repro.host.platform import (
    CacheGeometry,
    PLATFORMS,
    firesim_rocket,
    get_platform,
    intel_xeon,
    m1_pro,
    m1_ultra,
)


class TestCacheGeometry:
    def test_n_sets(self):
        assert CacheGeometry(32 * 1024, 8, 64).n_sets == 64

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 3, 64)
        with pytest.raises(ValueError):
            CacheGeometry(0, 1, 64)


class TestPlatforms:
    def test_table2_key_parameters(self):
        xeon = intel_xeon()
        pro = m1_pro()
        ultra = m1_ultra()
        # The L1/page-size relationships the paper's analysis hinges on.
        assert pro.l1i.size == 6 * xeon.l1i.size     # 192KB vs 32KB
        assert pro.l1d.size == 4 * xeon.l1d.size     # 128KB vs 32KB
        assert pro.page_size == 4 * xeon.page_size   # 16KB vs 4KB
        assert pro.l1i.line_size == 2 * xeon.l1i.line_size  # 128B vs 64B
        assert xeon.smt and not pro.smt
        assert ultra.physical_cores == 16 and pro.physical_cores == 4
        assert ultra.dram_bw_gbps > pro.dram_bw_gbps

    def test_vipt_constraint_on_m1(self):
        """Way size must not exceed the page (the paper's VIPT argument)."""
        pro = m1_pro()
        assert pro.l1i.size // pro.l1i.assoc <= pro.page_size
        assert pro.l1d.size // pro.l1d.assoc <= pro.page_size

    def test_registry(self):
        assert set(PLATFORMS) == {"Intel_Xeon", "M1_Pro", "M1_Ultra"}
        assert get_platform("M1_Pro").name == "M1_Pro"
        with pytest.raises(KeyError):
            get_platform("Threadripper")

    def test_with_frequency_renames(self):
        slow = intel_xeon().with_frequency(2.0)
        assert slow.freq_ghz == 2.0
        assert "2.0GHz" in slow.name

    def test_dram_latency_cycles_scale_with_frequency(self):
        assert intel_xeon().with_frequency(2.0).dram_latency_cycles < \
            intel_xeon().with_frequency(4.0).dram_latency_cycles


def sweep_times(recorder) -> dict[str, float]:
    """Replay time per Fig. 14 geometry, by label, in sweep order."""
    return {config_label(config): profile_g5_run(
                recorder, platform_for(config),
                cluster_scale=FIRESIM_CLUSTER_SCALE).time_seconds
            for config in FIG14_CONFIGS}


class TestFireSimPlatform:
    def test_keeps_64_sets_across_the_sweep(self):
        """The paper grows associativity at fixed 64 sets (VIPT)."""
        for config in FIG14_CONFIGS:
            platform = platform_for(config)
            assert platform.l1i.n_sets == 64
            assert platform.l1d.n_sets == 64

    def test_labels_match_paper_format(self):
        assert config_label(FIG14_CONFIGS[0]) == "8KB/2:8KB/2:512KB/8"
        assert config_label(FIG14_CONFIGS[-1]) == "64KB/16:64KB/16:512KB/8"

    def test_sweep_orders_baseline_first(self, g5_run_cache):
        result, _ = g5_run_cache("sieve", "atomic", "test")
        times = sweep_times(result.recorder)
        assert len(times) == len(FIG14_CONFIGS)
        assert FIG14_CONFIGS[0] == (8, 2, 8, 2, 512, 8)
        assert next(iter(times)) == "8KB/2:8KB/2:512KB/8"

    def test_bigger_l1_always_helps(self, g5_run_cache):
        result, _ = g5_run_cache("sieve", "timing", "test")
        times = sweep_times(result.recorder)
        baseline = times["8KB/2:8KB/2:512KB/8"]
        s16 = baseline / times["16KB/4:16KB/4:512KB/8"]
        s64 = baseline / times["64KB/16:64KB/16:512KB/8"]
        assert 1.0 < s16 < s64

    def test_l2_size_barely_matters(self, g5_run_cache):
        result, _ = g5_run_cache("sieve", "timing", "test")
        times = sweep_times(result.recorder)
        l2_1m = times["32KB/8:32KB/8:1024KB/8"]
        l2_2m = times["32KB/8:32KB/8:2048KB/16"]
        assert abs(l2_1m - l2_2m) / l2_1m < 0.05
