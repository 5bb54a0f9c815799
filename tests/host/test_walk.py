"""One walk of a trace for several replays (``HostCPU.replay_walk``).

Each member's result must be exactly (``==``, and byte for byte when
pickled) what replaying its platform alone gives, for the three shapes
the figure campaign walks together; replays that cannot share a walk
must never be put in one.
"""

import pickle

import pytest

from repro.exec import ReplayJob
from repro.exec.pool import G5Job, _tasks
from repro.host.binary import BinaryImage
from repro.host.corun import corun_contention
from repro.host.cpu import HostCPU, profile_g5_run, profile_g5_walk
from repro.host.firesim import (FIG14_CONFIGS, FIRESIM_CLUSTER_SCALE,
                                platform_for)
from repro.host.hugepages import HugePagePolicy
from repro.host.platform import intel_xeon, m1_pro, m1_ultra

from .test_replay import record_small_trace

NONE = HugePagePolicy.NONE

#: Shape -> (the ``(platform, hugepages, contention)`` members, image knobs).
SHAPES = {
    "fig14": ([(platform_for(config), NONE, None)
               for config in FIG14_CONFIGS],
              {"cluster_scale": FIRESIM_CLUSTER_SCALE}),
    # The deepest L1 leads: the tag stacks belong to the first member.
    "fig14-reversed": ([(platform_for(config), NONE, None)
                        for config in FIG14_CONFIGS[::-1]],
                       {"cluster_scale": FIRESIM_CLUSTER_SCALE}),
    "m1_pro+ultra": ([(m1_pro(), NONE, None), (m1_ultra(), NONE, None)],
                     {}),
    "xeon-4k/thp/ehp": ([(intel_xeon(), policy, None)
                         for policy in HugePagePolicy], {}),
}


@pytest.fixture(scope="module")
def trace():
    return record_small_trace()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_walk_equals_each_member_replayed_alone(trace, shape):
    hosts, knobs = SHAPES[shape]
    together = profile_g5_walk(trace, hosts, **knobs)
    assert len(together) == len(hosts)
    for (platform, hugepages, _), mine in zip(hosts, together):
        alone = profile_g5_run(trace, platform, hugepages=hugepages, **knobs)
        assert mine.platform_name == platform.name
        assert mine.cycles == alone.cycles
        assert mine.raw_counters == alone.raw_counters
        assert mine.topdown == alone.topdown
        assert mine.profile.cycles == alone.profile.cycles
        assert mine.llc_occupancy_bytes == alone.llc_occupancy_bytes
        assert mine.functions_executed == alone.functions_executed
        assert pickle.dumps(mine, protocol=4) \
            == pickle.dumps(alone, protocol=4)


def test_a_member_keeps_the_top_of_the_shared_tag_stacks(trace):
    hosts, knobs = SHAPES["fig14-reversed"]
    image = BinaryImage.for_recorder_functions(trace.known_functions(),
                                               **knobs)
    cpus = [HostCPU(platform, image) for platform, _, _ in hosts]
    HostCPU.replay_walk(cpus, trace.trace_fns, trace.trace_daddrs,
                        trace.fn_names)
    for (platform, _, _), cpu in zip(hosts, cpus):
        alone = HostCPU(platform, BinaryImage.for_recorder_functions(
            trace.known_functions(), **knobs))
        alone.replay_recorder(trace)
        assert cpu.hierarchy.l1i.sets == alone.hierarchy.l1i.sets
        assert cpu.hierarchy.l1d.sets == alone.hierarchy.l1d.sets


def test_contention_and_other_front_ends_never_share_a_walk(trace):
    xeon = intel_xeon()
    g5 = G5Job("water_nsquared", "o3", "se", "test")
    base = ReplayJob(g5, xeon)
    thp = ReplayJob(g5, xeon, hugepages=HugePagePolicy.THP)
    corun = ReplayJob(g5, xeon, contention=corun_contention(xeon, 20))
    smt = ReplayJob(g5, xeon, contention=corun_contention(xeon, 40, True))
    pro, ultra = ReplayJob(g5, m1_pro()), ReplayJob(g5, m1_ultra())
    tasks = _tasks([base, corun, pro, thp, smt, ultra])
    assert [getattr(task, "members", task) for task in tasks] \
        == [(base, thp), corun, (pro, ultra), smt]

    image = BinaryImage.for_recorder_functions(trace.known_functions())
    for other in (HostCPU(m1_pro(), image),
                  HostCPU(xeon, image,
                          contention=corun_contention(xeon, 20))):
        with pytest.raises(ValueError):
            HostCPU.replay_walk([HostCPU(xeon, image), other],
                                trace.trace_fns, trace.trace_daddrs,
                                trace.fn_names)
