"""Unit tests for the cost model and LPT scheduling."""

import json
from pathlib import Path

import pytest

from repro.exec.costmodel import (DEFAULT_SEC_PER_WEIGHT, CostModel,
                                  _ObservationJob, ema_baseline_predict,
                                  job_class)
from repro.exec.pool import G5Job
from repro.exec.replay import ReplayJob, SpecTrace
from repro.host.platform import get_platform
from repro.sample import SampledJob

FIXTURES = Path(__file__).parent / "fixtures"


def _job(workload="sieve", cpu="atomic", mode="se", scale="test"):
    return G5Job(workload, cpu, mode, scale)


def test_static_priors_order_by_detail_and_scale():
    model = CostModel()
    atomic = model.predict(_job(cpu="atomic"))
    o3 = model.predict(_job(cpu="o3"))
    assert o3 > atomic
    assert model.predict(_job(scale="simsmall")) > atomic
    assert model.predict(_job(mode="fs")) > atomic


def test_schedule_is_longest_first_and_deterministic():
    model = CostModel()
    jobs = [_job(cpu=cpu) for cpu in ("atomic", "o3", "timing", "minor")]
    ordered = model.schedule(jobs)
    assert [j.cpu_model for j in ordered] == ["o3", "minor", "timing",
                                              "atomic"]
    assert model.schedule(list(reversed(jobs))) == ordered


def test_observed_durations_override_static_priors():
    model = CostModel()
    slow_atomic, fast_o3 = _job(cpu="atomic"), _job(cpu="o3")
    model.observe(slow_atomic, 100.0)
    model.observe(fast_o3, 1.0)
    ordered = model.schedule([fast_o3, slow_atomic])
    assert ordered[0] is slow_atomic


def test_observation_uses_an_ema():
    model = CostModel()
    job = _job()
    model.observe(job, 10.0)
    assert model.predict(job) == 10.0
    model.observe(job, 20.0)
    assert model.predict(job) == 15.0   # alpha = 0.5


def test_history_round_trips_through_disk(tmp_path):
    path = tmp_path / "costs.json"
    model = CostModel(path)
    model.observe(_job(), 3.5)
    model.flush()

    reloaded = CostModel(path)
    assert reloaded.predict(_job()) == 3.5
    assert reloaded.known_classes() == {job_class(_job()): 3.5}


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
    assert model.known_classes() == {}
    assert model.predict(_job()) > 0


def test_calibration_tightens_predictions_for_unseen_classes():
    """Observing one class recalibrates predictions for every other.

    On a machine 10x slower than the default prior assumes, a single
    observed run should pull an *unseen* class's prediction most of the
    way toward its true duration.
    """
    model = CostModel()
    seen, unseen = _job(cpu="atomic"), _job(cpu="o3")
    slowdown = 10.0
    true_unseen = model.predict(unseen) * slowdown

    before_error = abs(model.predict(unseen) - true_unseen)
    model.observe(seen, model.static_weight(seen)
                  * DEFAULT_SEC_PER_WEIGHT * slowdown)
    after_error = abs(model.predict(unseen) - true_unseen)

    assert model.calibration_samples == 1
    assert after_error < before_error
    assert model.predict(unseen) == pytest.approx(true_unseen)


def test_calibration_round_trips_through_disk(tmp_path):
    path = tmp_path / "costs.json"
    model = CostModel(path)
    model.observe(_job(), 50.0)
    model.flush()

    reloaded = CostModel(path)
    assert reloaded.calibration_samples == 1
    assert reloaded.sec_per_weight == pytest.approx(model.sec_per_weight)
    assert reloaded.sec_per_weight != DEFAULT_SEC_PER_WEIGHT


@pytest.mark.parametrize("document", [
    {job_class(_job()): 7.0},                                 # pre-version
    {"version": 2, "classes": {job_class(_job()): 7.0},
     "sec_per_weight": 0.5, "calibration_samples": 30},
    {"version": 4, "classes": {job_class(_job()): 7.0}},
    [1, 2, 3],
])
def test_other_version_history_is_ignored_and_overwritten(tmp_path,
                                                          document):
    path = tmp_path / "costs.json"
    path.write_text(json.dumps(document))
    model = CostModel(path)
    assert model.known_classes() == {}
    assert model.calibration_samples == 0
    assert model.sec_per_weight == DEFAULT_SEC_PER_WEIGHT
    model.observe(_job(), 3.0)
    model.flush()
    doc = json.loads(path.read_text())
    assert doc["version"] == 3
    assert doc["classes"] == {job_class(_job()): 3.0}
    assert len(doc["observations"]) == 1


def test_v3_fixture_trains_the_learned_predictor():
    model = CostModel(FIXTURES / "costs_v3_synthetic.json")
    predictor = model.predictor
    assert predictor is not None
    assert predictor.n_observations == 30
    assert len(model.observations()) == 30
    # Every prediction is finite and positive.
    for obs in model.observations():
        assert 0 < predictor.predict_seconds(obs) < 1e6


def test_learned_predictor_beats_ema_baseline_on_held_out_classes():
    """The acceptance bar for the Gem5Pred-style layer: on classes the
    EMA has *never seen*, the feature regression trained on the
    committed synthetic history must land far closer to the true
    durations than the EMA baseline's calibrated-static-prior fallback.
    """
    model = CostModel(FIXTURES / "costs_v3_synthetic.json")
    held_out = json.loads(
        (FIXTURES / "costs_heldout.json").read_text())["observations"]
    assert len(held_out) == 6
    history = model.known_classes()
    learned_errors, baseline_errors = [], []
    for obs in held_out:
        assert obs["class"] not in history, \
            "held-out fixture leaked into the training history"
        true = obs["seconds"]
        learned = model.predict(_ObservationJob(obs))
        baseline = ema_baseline_predict(history, model.sec_per_weight,
                                        obs)
        learned_errors.append(abs(learned - true) / true)
        baseline_errors.append(abs(baseline - true) / true)
    mean_learned = sum(learned_errors) / len(learned_errors)
    mean_baseline = sum(baseline_errors) / len(baseline_errors)
    assert mean_learned < mean_baseline, \
        f"regression ({mean_learned:.3f}) lost to EMA baseline " \
        f"({mean_baseline:.3f})"
    # And not by a whisker: the gap is structural.
    assert mean_learned < 0.15
    assert mean_baseline > 2 * mean_learned


def test_seen_classes_still_answer_from_their_ema():
    """The regression augments the EMA layer, never overrides it."""
    model = CostModel(FIXTURES / "costs_v3_synthetic.json")
    history = model.known_classes()
    for obs in model.observations()[:5]:
        predicted = model.predict(_ObservationJob(obs))
        assert predicted == history[obs["class"]]


def test_sampled_jobs_form_their_own_cost_class():
    sample = SampledJob(workload="sieve", cpu_model="o3", scale="test")
    full = _job(cpu="o3")
    assert job_class(sample) != job_class(full)
    assert job_class(sample) == "sieve|o3|sample|test"

    model = CostModel()
    # The weight factor discounts the sampled prior below the full run.
    assert model.predict(sample) < model.predict(full)
    # Observations land in the sampled bucket only.
    model.observe(sample, 2.0)
    assert model.predict(sample) == 2.0
    assert job_class(full) not in model.known_classes()


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
    assert all(model.predict(replay) == 500.0 for replay in replays)
