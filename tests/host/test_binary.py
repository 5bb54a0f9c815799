"""Tests for the synthetic binary image."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.binary import (
    COLD_EVERY,
    COLD_PER_VISIT,
    HOT_SET_SIZE,
    BinaryImage,
    synthetic_image,
)
from repro.host.cpu import HostCPU
from repro.host.platform import intel_xeon


class TestImageConstruction:
    def test_startup_functions_always_present(self):
        image = BinaryImage()
        assert len(image.startup) == 420
        assert image.total_functions() >= 420

    def test_clusters_built_on_demand(self):
        image = BinaryImage()
        before = image.total_functions()
        cluster = image.cluster_for("BaseCache::access")
        assert image.total_functions() > before
        assert image.cluster_for("BaseCache::access") is cluster

    def test_prefix_profiles_scale_cluster_size(self):
        image = BinaryImage()
        o3_cluster = image.cluster_for("o3::IEW::tick")
        generic = image.cluster_for("Process::syscall")
        assert o3_cluster.size > generic.size

    def test_addresses_are_disjoint_and_ordered(self):
        image = BinaryImage()
        image.cluster_for("A::one")
        image.cluster_for("B::two")
        functions = image.functions
        for first, second in zip(functions, functions[1:]):
            assert second.addr >= first.end

    def test_deterministic_for_seed(self):
        def fingerprint(seed):
            image = BinaryImage(seed=seed)
            cluster = image.cluster_for("BaseCache::access")
            return [(fn.addr, fn.size, fn.n_uops, fn.branch_slots)
                    for fn in cluster.hot + cluster.cold]

        assert fingerprint(1) == fingerprint(1)
        assert fingerprint(1) != fingerprint(2)

    def test_opt_level_shrinks_code(self):
        base = BinaryImage(opt_level=2)
        opt = BinaryImage(opt_level=3)
        for image in (base, opt):
            image.cluster_for("BaseCache::access")
        assert opt.text_bytes < base.text_bytes

    def test_layout_quality_compacts_text(self):
        tight = BinaryImage(layout_quality=1.0)
        sparse = BinaryImage(layout_quality=0.5)
        for image in (tight, sparse):
            image.cluster_for("BaseCache::access")
        assert sparse.text_bytes > tight.text_bytes

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BinaryImage(opt_level=1)
        with pytest.raises(ValueError):
            BinaryImage(layout_quality=0.1)


class TestFunctionProperties:
    @settings(max_examples=20)
    @given(st.text(alphabet="abcDEF:_", min_size=1, max_size=30))
    def test_function_invariants(self, name):
        image = BinaryImage()
        cluster = image.cluster_for(name)
        for fn in cluster.hot + cluster.cold:
            assert fn.size >= 48
            assert fn.n_uops >= fn.n_insts
            assert fn.n_branches >= 1
            assert all(0.0 <= bias <= 1.0 for bias in fn.branch_slots)
            assert fn.end > fn.addr
            lines = fn.cache_lines(64)
            assert lines[0] == fn.addr // 64

    def test_hot_set_size(self):
        image = BinaryImage()
        cluster = image.cluster_for("EventQueue::serviceOne")
        assert len(cluster.hot) == HOT_SET_SIZE


class TestClusterSchedule:
    """The cold-tail rotation, observed through ``HostCPU.replay``: a
    function ran iff its profile cycles grew."""

    @staticmethod
    def profile(image, invocations):
        """Per-function cycles after ``invocations`` of the one cluster."""
        cpu = HostCPU(intel_xeon(), image)
        return cpu.replay([1] * invocations, [0] * invocations,
                          ["", "BaseCache::access"]).profile.cycles

    def test_hot_every_invocation_cold_rotates(self):
        image = BinaryImage()
        cluster = image.cluster_for("BaseCache::access")
        hot = set(fn.index for fn in cluster.hot)
        cold = set(fn.index for fn in cluster.cold)
        cold_seen = set()
        before = self.profile(image, 0)
        for invocation in range(COLD_EVERY * 10):
            after = self.profile(image, invocation + 1)
            executed = set(index for index in hot | cold
                           if after[index] > before[index])
            assert hot <= executed
            extras = executed - hot
            if (invocation + 1) % COLD_EVERY == 0:
                assert len(extras) == COLD_PER_VISIT
                cold_seen |= extras
            else:
                assert not extras
            before = after
        assert len(cold_seen) >= COLD_PER_VISIT * 5

    def test_rotation_covers_whole_cold_tail(self):
        image = BinaryImage()
        cluster = image.cluster_for("BaseCache::access")
        needed = COLD_EVERY * (len(cluster.cold) // COLD_PER_VISIT + 1)
        cycles = self.profile(image, needed)
        assert all(cycles[fn.index] > 0 for fn in cluster.cold)

    def test_two_replays_of_one_image_are_equal(self):
        image = BinaryImage()
        image.cluster_for("BaseCache::access")
        first = self.profile(image, COLD_EVERY + 1)
        assert self.profile(image, COLD_EVERY + 1) == first


class TestSyntheticImage:
    def test_spec_shapes(self):
        image = synthetic_image([
            ("loop::a", 4, 200, 0.5, True),
            ("cold::b", 8, 300, 0.25, False),
        ])
        a = image.clusters["loop::a"]
        b = image.clusters["cold::b"]
        assert len(a.hot) == 2 and len(a.cold) == 2
        assert len(b.hot) == 2 and len(b.cold) == 6
        assert all(fn.loopy for fn in a.hot)

    def test_branch_hostility_creates_hard_slots(self):
        image = synthetic_image([("mcf::x", 30, 250, 0.5, False)],
                                branch_hostility=1.0)
        slots = [bias for fn in image.clusters["mcf::x"].hot
                 for bias in fn.branch_slots]
        assert all(0.5 <= bias <= 0.85 for bias in slots)

    def test_zero_subfns_rejected(self):
        with pytest.raises(ValueError):
            synthetic_image([("bad", 0, 100, 0.5, False)])
