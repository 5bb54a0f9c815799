"""Unit tests for the cost model and LPT scheduling."""

import json
import math
import threading
from pathlib import Path

import pytest

from repro.exec import costmodel
from repro.exec.costmodel import (CORES_WEIGHT_FACTOR, CPU_MODEL_WEIGHT,
                                  DEFAULT_SEC_PER_WEIGHT, MODE_WEIGHT,
                                  OTHER_CPU_WEIGHT, SCALE_WEIGHT, CostModel,
                                  job_class)
from repro.exec.pool import G5Job
from repro.exec.replay import ReplayJob, SpecTrace
from repro.host.platform import get_platform
from repro.sample import SampledJob
from repro.workloads.registry import WORKLOADS

FIXTURES = Path(__file__).parent / "fixtures"


def _job(workload="sieve", cpu="atomic", mode="se", scale="test"):
    return G5Job(workload, cpu, mode, scale)


def _cold(job):
    """The static prior, written as the product the regression's centre
    is the logarithm of."""
    return (CPU_MODEL_WEIGHT.get(job.cpu_model, OTHER_CPU_WEIGHT)
            * SCALE_WEIGHT.get(job.scale, 6.0)
            * MODE_WEIGHT.get(getattr(job, "mode", "se"), 1.0)
            * (1.0 + CORES_WEIGHT_FACTOR * (getattr(job, "cores", 1) - 1))
            * getattr(job, "cost_weight_factor", 1.0)
            * DEFAULT_SEC_PER_WEIGHT)


def test_static_priors_order_by_detail_and_scale():
    model = CostModel()
    atomic, timing, minor, o3 = (model.predict(_job(cpu=cpu))
                                 for cpu in ("atomic", "timing", "minor",
                                             "o3"))
    assert o3 > minor > timing > atomic
    assert model.predict(_job(scale="simsmall")) > atomic
    assert model.predict(_job(mode="fs")) > atomic


def test_schedule_is_longest_first_and_deterministic():
    model = CostModel()
    jobs = [_job(cpu=cpu) for cpu in ("atomic", "o3", "timing", "minor")]
    ordered = model.schedule(jobs)
    assert [j.cpu_model for j in ordered] == ["o3", "minor", "timing",
                                              "atomic"]
    assert model.schedule(list(reversed(jobs))) == ordered


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


def test_cold_model_is_the_static_prior_and_keeps_the_campaign_order():
    from repro.experiments import FIGURES, ExperimentRunner
    from repro.experiments.common import requirement_job

    runner = ExperimentRunner(scale="test", max_records=60000, jobs=1)
    jobs = []
    for fid in ("fig2", "fig8", "fig10", "fig14", "fig15", "fig16"):
        module = FIGURES[fid]
        jobs += [requirement_job(requirement, "test")
                 for requirement in module.required_g5()]
        if hasattr(module, "required_replays"):
            jobs += [need for replay in module.required_replays(runner)
                     for need in replay.needs()]
    jobs = list(dict.fromkeys(jobs))
    assert all(isinstance(job, G5Job) for job in jobs)

    model = CostModel()
    for job in jobs:
        assert model.predict(job) == pytest.approx(_cold(job), rel=1e-12)
    assert [job.label for job in model.schedule(jobs)] == FIGS_COLD_ORDER


def test_observed_durations_override_static_priors():
    model = CostModel()
    slow_atomic, fast_o3 = _job(cpu="atomic"), _job(cpu="o3")
    model.observe(slow_atomic, 100.0)
    model.observe(fast_o3, 1.0)
    ordered = model.schedule([fast_o3, slow_atomic])
    assert ordered[0] is slow_atomic


def test_a_kind_refits_at_most_once_per_new_observation(monkeypatch):
    solves = []
    real_solve = costmodel._solve
    monkeypatch.setattr(costmodel, "_solve",
                        lambda *args: solves.append(1) or real_solve(*args))
    model = CostModel()
    jobs = [_job(workload=w, cpu=cpu) for w in ("sieve", "fmm")
            for cpu in ("atomic", "timing", "o3")]
    model.observe(jobs[0], 2.0)
    model.schedule(jobs)
    model.schedule(jobs)
    assert len(solves) == 1
    model.observe(jobs[1], 3.0)
    model.schedule(jobs)
    assert len(solves) == 2


def test_an_observation_during_a_refit_is_not_lost(monkeypatch):
    """Serve threads predict while scheduler threads observe: a fit built
    from the history before an observation must not outlive it."""
    model = CostModel()
    first, second = _job(cpu="atomic"), _job(cpu="o3")
    late = threading.Thread(target=model.observe, args=(second, 50.0))
    real_fit = costmodel._fit

    def fit_racing_an_observation(rows):
        if late.ident is None:
            late.start()
            late.join(timeout=0.5)    # held off while the model is locked
        return real_fit(rows)

    monkeypatch.setattr(costmodel, "_fit", fit_racing_an_observation)
    model.observe(first, 1.0)
    model.predict(first)
    late.join(timeout=10.0)
    assert not late.is_alive()

    fresh = CostModel()
    fresh.observe(first, 1.0)
    fresh.observe(second, 50.0)
    assert model.predict(second) == fresh.predict(second)


def test_history_round_trips_through_disk(tmp_path):
    path = tmp_path / "costs.json"
    model = CostModel(path)
    model.observe(_job(), 3.5)
    model.flush()

    reloaded = CostModel(path)
    assert reloaded.observations() == model.observations()
    assert json.loads(path.read_text())["version"] == 4
    for cpu in ("atomic", "o3"):
        assert reloaded.predict(_job(cpu=cpu)) == model.predict(_job(cpu=cpu))
    assert reloaded.predict(_job()) == pytest.approx(3.5, rel=0.05)


def test_flush_replaces_the_history_atomically(tmp_path, monkeypatch):
    path = tmp_path / "costs.json"
    model = CostModel(path)
    model.observe(_job(), 3.5)
    model.flush()
    good = path.read_bytes()

    # A write that dies before the rename (full disk, killed daemon)
    # leaves the previous history whole and no temp file: a torn
    # costs.json would silently read back as a cold start.
    def no_rename(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", no_rename)
    model.observe(_job(cpu="o3"), 9.0)
    model.flush()                       # best effort: does not raise
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["costs.json"]


def test_garbage_history_is_ignored(tmp_path):
    path = tmp_path / "costs.json"
    path.write_text("{not json")
    model = CostModel(path)
    assert model.observations() == []
    assert model.predict(_job()) == pytest.approx(_cold(_job()))


def test_calibration_tightens_predictions_for_unseen_classes():
    """Observing one class recalibrates predictions for every other.

    On a machine 10x slower than the default prior assumes, a single
    observed run moves the all-but-unpenalised bias by the whole
    residual, so an *unseen* class — another CPU model of the same
    workload, or another workload altogether — lands on its true
    duration.
    """
    model = CostModel()
    seen = _job(cpu="atomic")
    unseen = [_job(cpu="o3"), _job(workload="fmm", cpu="timing")]
    slowdown = 10.0
    truth = [model.predict(job) * slowdown for job in unseen]
    before = [abs(model.predict(job) - true)
              for job, true in zip(unseen, truth)]

    model.observe(seen, _cold(seen) * slowdown)

    for job, true, error in zip(unseen, truth, before):
        assert abs(model.predict(job) - true) < error
        assert model.predict(job) == pytest.approx(true, rel=1e-5)


def test_calibration_round_trips_through_disk(tmp_path):
    path = tmp_path / "costs.json"
    model = CostModel(path)
    model.observe(_job(), 50.0)
    model.flush()

    unseen = _job(workload="fmm", cpu="o3")
    reloaded = CostModel(path)
    assert reloaded.predict(unseen) == model.predict(unseen)
    assert reloaded.predict(unseen) == pytest.approx(
        _cold(unseen) * 50.0 / _cold(_job()), rel=1e-5)


@pytest.mark.parametrize("document", [
    {job_class(_job()): 7.0},                                 # pre-version
    {"version": 2, "classes": {job_class(_job()): 7.0}},
    {"version": 3, "classes": {job_class(_job()): 7.0},
     "observations": [costmodel.observation(_job(), 7.0)]},
    [1, 2, 3],
])
def test_other_version_history_is_ignored_and_overwritten(tmp_path,
                                                          document):
    path = tmp_path / "costs.json"
    path.write_text(json.dumps(document))
    model = CostModel(path)
    assert model.observations() == []
    assert model.predict(_job()) == pytest.approx(_cold(_job()))
    model.observe(_job(), 3.0)
    model.flush()
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["observations", "version"]
    assert doc["version"] == 4
    assert len(doc["observations"]) == 1


_GOOD = costmodel.observation(_job(), 2.0)


@pytest.mark.parametrize("document, kept", [
    ({"version": 3, "classes": {"a": "x"}}, 0),
    ({"version": 4, "observations": [_GOOD, {**_GOOD, "seconds": "x"}]}, 1),
    ({"version": 4, "observations": [_GOOD, {**_GOOD, "seconds": None}]}, 1),
    ({"version": 4, "observations": [_GOOD, {**_GOOD, "cores": "many"}]}, 1),
    ({"version": 4,
      "observations": [_GOOD, {**_GOOD, "seconds": float("nan")}]}, 1),
    ({"version": 4, "observations": [_GOOD, {**_GOOD, "seconds": -1.0}]}, 1),
])
def test_malformed_history_keeps_only_well_typed_records(tmp_path, document,
                                                         kept):
    """Every engine owner builds a CostModel at start-up: a bad record
    must not crash it, or its first prediction."""
    path = tmp_path / "costs.json"
    path.write_text(json.dumps(document))
    model = CostModel(path)
    assert model.observations() == [_GOOD] * kept
    jobs = [_job(cpu=cpu) for cpu in ("atomic", "o3")]
    assert all(math.isfinite(model.predict(job)) for job in jobs)
    assert model.schedule(jobs)[0].cpu_model == "o3"


def _observed_job(obs):
    return G5Job(obs["workload"], obs["cpu_model"], obs["mode"], obs["scale"])


def _mean_relative_error(model, observations):
    errors = [abs(model.predict(_observed_job(obs)) - obs["seconds"])
              / obs["seconds"] for obs in observations]
    return sum(errors) / len(errors)


def _training():
    return json.loads((FIXTURES / "costs_v4_synthetic.json").read_text())[
        "observations"]


def test_v4_fixture_trains_the_predictor():
    model = CostModel(FIXTURES / "costs_v4_synthetic.json")
    assert model.observations() == _training()
    assert len(model.observations()) == 60
    assert {obs["workload"] for obs in model.observations()} \
        == set(WORKLOADS)
    # Seen classes answer from their own indicator, noise and all.
    assert _mean_relative_error(model, model.observations()) < 0.01


#: The hash-bucket model (EMA, then ridge regression with sha256
#: workload buckets, then calibrated priors), fed the same observations
#: through ``observe()``: mean relative error on costs_heldout.json.
BUCKET_MODEL_HELD_OUT_ERROR = 0.0856

#: ... and per workload when trained on every other workload.
BUCKET_MODEL_LOWO_ERROR = {
    "sieve": 0.3046, "fmm": 0.3913, "ocean_cp": 0.2026, "canneal": 0.0309,
    "dedup": 0.2173, "streamcluster": 0.1778, "blackscholes": 0.2638,
    "water_nsquared": 0.2775, "water_spatial": 0.1020, "ocean_ncp": 0.6468,
    "boot_exit": 0.2167,
}


def test_held_out_error_is_no_worse_than_the_hash_bucket_model():
    """Classes never observed — every workload, CPU and scale seen, just
    not these combinations — land within the bar."""
    model = CostModel(FIXTURES / "costs_v4_synthetic.json")
    held_out = json.loads(
        (FIXTURES / "costs_heldout.json").read_text())["observations"]
    assert len(held_out) == 6
    seen = {(o["workload"], o["cpu_model"], o["scale"])
            for o in model.observations()}
    assert not seen & {(o["workload"], o["cpu_model"], o["scale"])
                       for o in held_out}, "held-out fixture leaked"
    error = _mean_relative_error(model, held_out)
    assert error <= BUCKET_MODEL_HELD_OUT_ERROR
    assert error < 0.15


def test_leave_one_workload_out_error_is_no_worse_than_the_hash_bucket_model():
    """A workload the model has never run gets the average workload
    effect, not a hash-bucket neighbour's."""
    training = _training()
    errors = {}
    for workload in BUCKET_MODEL_LOWO_ERROR:
        model = CostModel()
        for obs in training:
            if obs["workload"] != workload:
                model.observe(_observed_job(obs), obs["seconds"])
        errors[workload] = _mean_relative_error(
            model, [obs for obs in training if obs["workload"] == workload])
    mean = sum(errors.values()) / len(errors)
    bucket_mean = (sum(BUCKET_MODEL_LOWO_ERROR.values())
                   / len(BUCKET_MODEL_LOWO_ERROR))
    assert mean <= bucket_mean, errors


def test_sampled_jobs_form_their_own_cost_class():
    sample = SampledJob(workload="sieve", cpu_model="o3", scale="test")
    full = _job(cpu="o3")
    assert job_class(sample) != job_class(full)
    assert job_class(sample) == "sieve|o3|sample|test"

    model = CostModel()
    # The weight factor discounts the sampled prior below the full run.
    assert model.predict(sample) < model.predict(full)
    # Observations train the sampled kind only.
    g5_jobs = [_job(cpu=cpu) for cpu in ("atomic", "timing", "minor", "o3")]
    cold_order = model.schedule(g5_jobs)
    for _ in range(5):
        model.observe(sample, 2.0)
    assert model.predict(sample) == pytest.approx(2.0, rel=0.05)
    assert model.predict(full) == pytest.approx(_cold(full), rel=1e-12)
    assert model.schedule(g5_jobs) == cold_order


def test_replay_jobs_form_their_own_cost_classes():
    xeon = get_platform("Intel_Xeon")
    g5_jobs = [_job(cpu=cpu) for cpu in ("atomic", "timing", "minor", "o3")]
    replays = [ReplayJob(job, xeon) for job in g5_jobs] \
        + [ReplayJob(SpecTrace("505.mcf_r", 4000), xeon)]
    assert len({job_class(job) for job in replays + g5_jobs}) == 9

    model, control = CostModel(), CostModel()
    for seconds, job in enumerate(g5_jobs, start=1):
        model.observe(job, float(seconds))
        control.observe(job, float(seconds))
    # A campaign's worth of replays, each far slower than any g5 run.
    for replay in replays * 10:
        model.observe(replay, 500.0)

    for job in g5_jobs:
        assert model.predict(job) == control.predict(job)
    assert model.schedule(g5_jobs) == control.schedule(g5_jobs)
    assert all(model.predict(replay) == pytest.approx(500.0, rel=0.05)
               for replay in replays)


def test_replays_of_one_workload_answer_from_their_own_class():
    """Every platform is the same "other CPU" feature and a replay has no
    mode or cores, so only its class tells two platforms' runs apart."""
    xeon, m1 = (ReplayJob(_job(), get_platform(name))
                for name in ("Intel_Xeon", "M1_Pro"))
    assert job_class(xeon) != job_class(m1)
    model = CostModel()
    # Cold, they tie, and the tie breaks on the label: Xeon first.
    assert model.schedule([m1, xeon]) == [xeon, m1]
    model.observe(xeon, 0.2)
    model.observe(m1, 0.5)
    assert model.schedule([xeon, m1]) == [m1, xeon]
    assert model.predict(m1) == pytest.approx(0.5, rel=0.01)
    assert model.predict(xeon) == pytest.approx(0.2, rel=0.01)


class _Recorded:
    """A ``costs.json`` record as a job: its features, its class, and its
    position in the campaign as the stable sort key."""

    def __init__(self, index, obs):
        self.index, self.seconds = index, obs["seconds"]
        self.kind, self.cost_class = obs["kind"], obs["class"]
        self.workload, self.cpu_model = obs["workload"], obs["cpu_model"]
        self.mode, self.scale, self.cores = (obs["mode"], obs["scale"],
                                             obs["cores"])
        self.interval_insts = obs["interval_insts"]
        self.warmup_insts = obs["warmup_insts"]
        self.cost_weight_factor = obs["weight_factor"]

    def sort_key(self):
        return (self.index,)


def _makespan(model, jobs, workers=2):
    """Wall time of ``jobs`` run in ``model``'s LPT order on ``workers``."""
    free = [0.0] * workers
    for job in model.schedule(jobs):
        free[free.index(min(free))] += job.seconds
    return max(free)


#: What the EMA/calibration/hash-bucket model, fed campaign 1 through
#: ``observe()``, scored on campaign 2 of costs_figs_cold_two_runs.json:
#: mean relative error over all 63 runs, and the two-worker makespan in
#: seconds of the g5 batch and of the replay batch in its LPT order.
BUCKET_MODEL_REAL_ERROR = 0.2966
BUCKET_MODEL_REAL_MAKESPAN = {"g5": 0.3817, "replays": 2.8596}


def test_a_warm_model_on_a_real_campaign_is_no_worse_than_the_ema():
    """costs_figs_cold_two_runs.json is the costs.json two campaigns left
    on a 2-vCPU x86-64 Linux host: ``repro-g5 figs fig2 fig8 fig10 fig14
    fig15 fig16 --scale test --max-records 60000 --jobs 2`` from a cold
    cache, then ``cache clear --kind`` g5, host and spec and the same
    command again, so every run of the second missed with a warm model.
    Every class of the second campaign ran in the first."""
    records = json.loads((FIXTURES / "costs_figs_cold_two_runs.json")
                         .read_text())["observations"]
    first, second = records[:63], records[63:]
    assert sorted(obs["class"] for obs in first) \
        == sorted(obs["class"] for obs in second)
    model = CostModel()
    for index, obs in enumerate(first):
        model.observe(_Recorded(index, obs), obs["seconds"])
    jobs = [_Recorded(index, obs) for index, obs in enumerate(second)]

    errors = [abs(model.predict(job) - job.seconds) / job.seconds
              for job in jobs]
    assert sum(errors) / len(errors) <= BUCKET_MODEL_REAL_ERROR
    batches = {"g5": [job for job in jobs if job.kind == "g5"],
               "replays": [job for job in jobs if job.kind != "g5"]}
    for name, batch in batches.items():
        assert _makespan(model, batch) <= BUCKET_MODEL_REAL_MAKESPAN[name]
