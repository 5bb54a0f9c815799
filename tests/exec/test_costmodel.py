"""Unit tests for the static cost model and LPT scheduling."""

import json
from pathlib import Path

import pytest

from repro.exec import costmodel
from repro.exec.costmodel import (CORES_WEIGHT_FACTOR, CPU_MODEL_WEIGHT,
                                  DEFAULT_SEC_PER_WEIGHT, MODE_WEIGHT,
                                  OTHER_CPU_WEIGHT, SCALE_WEIGHT)
from repro.exec.pool import G5Job, _tasks
from repro.exec.replay import ReplayJob
from repro.host.platform import get_platform
from repro.sample import SampledJob
from repro.sample.parallel import WindowJob

FIXTURES = Path(__file__).parent / "fixtures"


def _job(workload="sieve", cpu="atomic", mode="se", scale="test"):
    return G5Job(workload, cpu, mode, scale)


def _cold(job):
    """The static prior, written as the product the price is the
    exp-of-log-sum of."""
    return (CPU_MODEL_WEIGHT.get(job.cpu_model, OTHER_CPU_WEIGHT)
            * SCALE_WEIGHT.get(job.scale, 6.0)
            * MODE_WEIGHT.get(getattr(job, "mode", "se"), 1.0)
            * (1.0 + CORES_WEIGHT_FACTOR * (getattr(job, "cores", 1) - 1))
            * getattr(job, "cost_weight_factor", 1.0)
            * DEFAULT_SEC_PER_WEIGHT)


def test_static_priors_order_by_detail_and_scale():
    atomic, timing, minor, o3 = (costmodel.predict(_job(cpu=cpu))
                                 for cpu in ("atomic", "timing", "minor",
                                             "o3"))
    assert o3 > minor > timing > atomic
    assert costmodel.predict(_job(scale="simsmall")) > atomic
    assert costmodel.predict(_job(mode="fs")) > atomic
    # The weight factor discounts the sampled prior below the full run.
    sample = SampledJob(workload="sieve", cpu_model="o3", scale="test")
    assert costmodel.predict(sample) < o3


def test_schedule_is_longest_first_and_deterministic():
    jobs = [_job(cpu=cpu) for cpu in ("atomic", "o3", "timing", "minor")]
    ordered = costmodel.schedule(jobs)
    assert [j.cpu_model for j in ordered] == ["o3", "minor", "timing",
                                              "atomic"]
    assert costmodel.schedule(list(reversed(jobs))) == ordered
    # Every platform is the same "other CPU": replays of one trace tie,
    # and the tie breaks on the label, Xeon first.
    xeon, m1 = (ReplayJob(_job(), get_platform(name))
                for name in ("Intel_Xeon", "M1_Pro"))
    assert costmodel.schedule([m1, xeon]) == [xeon, m1]


#: Prices the parent's cold regression answered (``float.hex``): the
#: exp of the summed log weights, which a plain product misses in the
#: last bits.
PARENT_PRICES = [
    (G5Job("boot_exit", "o3", "fs", "test"), "0x1.eb851eb851ebdp-4"),
    (G5Job("boot_exit", "o3", "fs", "simsmall"), "0x1.70a3d70a3d70dp-1"),
    (G5Job("ocean_cp", "timing", "se", "simsmall", threads=4),
     "0x1.b089a0275254ap-3"),
    (SampledJob(workload="sieve", cpu_model="o3", scale="test"),
     "0x1.eb851eb851ebbp-6"),
    (SampledJob(workload="fmm", cpu_model="minor", scale="simsmall",
                interval_insts=5000, warmup_insts=2000),
     "0x1.ba5e353f7ceddp-4"),
    (WindowJob("sieve", "o3", "test", 3, 3000, 1000, 500, "d" * 64),
     "0x1.ccccccccccccep-4"),
    (WindowJob("canneal", "timing", "simsmall", 7, 70000, 10000, 0,
               "e" * 64), "0x1.51eb851eb8522p+0"),
]


@pytest.mark.parametrize("job, price", PARENT_PRICES,
                         ids=[job.label for job, _ in PARENT_PRICES])
def test_prices_are_the_parents_bit_for_bit(job, price):
    assert costmodel.predict(job).hex() == price


#: The g5 batch a cold figs_cold campaign (figs 2, 8, 10, 14, 15, 16 at
#: test scale) prefetches, in the order the three-layer model scheduled
#: it before the single regression replaced it.
FIGS_COLD_ORDER = [
    "o3/boot_exit (fs, test)", "o3/sieve (se, test)",
    "o3/water_nsquared (se, test)", "minor/boot_exit (fs, test)",
    "minor/water_nsquared (se, test)", "timing/boot_exit (fs, test)",
    "timing/ocean_cp x4 (se, test)", "timing/ocean_cp x2 (se, test)",
    "timing/ocean_cp (se, test)", "timing/sieve (se, test)",
    "timing/water_nsquared (se, test)", "atomic/boot_exit (fs, test)",
    "atomic/ocean_cp x4 (se, test)", "atomic/ocean_cp x2 (se, test)",
    "atomic/ocean_cp (se, test)", "atomic/sieve (se, test)",
    "atomic/water_nsquared (se, test)",
]

#: The same campaign's replay tasks (the walks ``exec.pool._tasks``
#: forms), as (first member's label, member count), in the order the
#: cold regression scheduled them before the static price replaced it.
FIGS_COLD_REPLAY_ORDER = [
    ("host atomic/sieve on FireSim(8K/2:8K/2:512K/8) (cluster_scale=0.18)",
     7),
    ("host o3/sieve on FireSim(8K/2:8K/2:512K/8) (cluster_scale=0.18)", 7),
    ("host timing/sieve on FireSim(8K/2:8K/2:512K/8) (cluster_scale=0.18)",
     7),
    ("spec 505.mcf_r on Intel_Xeon", 1),
    ("spec 525.x264_r on Intel_Xeon", 1),
    ("spec 531.deepsjeng_r on Intel_Xeon", 1),
    ("host atomic/water_nsquared on Intel_Xeon (max_records=60000)", 3),
    ("host minor/water_nsquared on Intel_Xeon (max_records=60000)", 3),
    ("host o3/water_nsquared on Intel_Xeon (max_records=60000)", 3),
    ("host timing/water_nsquared on Intel_Xeon (max_records=60000)", 3),
    ("host atomic/water_nsquared on M1_Pro (max_records=60000)", 2),
    ("host o3/water_nsquared on M1_Pro (max_records=60000)", 2),
    ("host timing/water_nsquared on M1_Pro (max_records=60000)", 2),
    ("host atomic/boot_exit on Intel_Xeon (max_records=60000)", 1),
    ("host minor/boot_exit on Intel_Xeon (max_records=60000)", 1),
    ("host o3/boot_exit on Intel_Xeon (max_records=60000)", 1),
    ("host timing/boot_exit on Intel_Xeon (max_records=60000)", 1),
]


def test_cold_model_is_the_static_prior_and_keeps_the_campaign_order():
    from repro.experiments import FIGURES, ExperimentRunner
    from repro.experiments.common import requirement_job

    runner = ExperimentRunner(scale="test", max_records=60000, jobs=1)
    jobs, replays = [], []
    for fid in ("fig2", "fig8", "fig10", "fig14", "fig15", "fig16"):
        module = FIGURES[fid]
        jobs += [requirement_job(requirement, "test")
                 for requirement in module.required_g5()]
        if hasattr(module, "required_replays"):
            declared = module.required_replays(runner)
            replays += declared
            jobs += [need for replay in declared for need in replay.needs()]
    jobs = list(dict.fromkeys(jobs))
    assert all(isinstance(job, G5Job) for job in jobs)

    for job in jobs:
        assert costmodel.predict(job) == pytest.approx(_cold(job),
                                                       rel=1e-12)
    assert [job.label for job in costmodel.schedule(jobs)] \
        == FIGS_COLD_ORDER

    tasks = costmodel.schedule(_tasks(list(dict.fromkeys(replays))))
    assert [(task.members[0].label, len(task.members))
            if hasattr(task, "members") else (task.label, 1)
            for task in tasks] == FIGS_COLD_REPLAY_ORDER


class _Recorded:
    """A ``costs.json`` record as a job: its features, its kind, and its
    position in the campaign as the stable sort key."""

    def __init__(self, index, obs):
        self.index, self.seconds = index, obs["seconds"]
        self.kind, self.cpu_model = obs["kind"], obs["cpu_model"]
        self.mode, self.scale, self.cores = (obs["mode"], obs["scale"],
                                             obs["cores"])
        self.cost_weight_factor = obs["weight_factor"]

    def sort_key(self):
        return (self.index,)


def _makespan(jobs, workers=2):
    """Wall time of ``jobs`` run in LPT order on ``workers``."""
    free = [0.0] * workers
    for job in costmodel.schedule(jobs):
        free[free.index(min(free))] += job.seconds
    return max(free)


#: What the EMA/calibration/hash-bucket model, fed campaign 1 through
#: ``observe()``, scored on campaign 2 of costs_figs_cold_two_runs.json:
#: the two-worker makespan in seconds of the g5 batch and of the replay
#: batch in its LPT order.
BUCKET_MODEL_REAL_MAKESPAN = {"g5": 0.3817, "replays": 2.8596}


def test_the_static_price_on_a_real_campaign_is_no_worse_than_the_ema():
    """costs_figs_cold_two_runs.json is the costs.json two campaigns left
    on a 2-vCPU x86-64 Linux host: ``repro-g5 figs fig2 fig8 fig10 fig14
    fig15 fig16 --scale test --max-records 60000 --jobs 2`` from a cold
    cache, then ``cache clear --kind`` g5, host and spec and the same
    command again.  The static price orders the second campaign's runs
    no worse than the learned model that had seen the first."""
    records = json.loads((FIXTURES / "costs_figs_cold_two_runs.json")
                         .read_text())["observations"]
    jobs = [_Recorded(index, obs) for index, obs in enumerate(records[63:])]
    batches = {"g5": [job for job in jobs if job.kind == "g5"],
               "replays": [job for job in jobs if job.kind != "g5"]}
    for name, batch in batches.items():
        assert _makespan(batch) <= BUCKET_MODEL_REAL_MAKESPAN[name]
