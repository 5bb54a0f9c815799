"""Predicting g5 simulation cost to schedule longest jobs first.

Fanning a heterogeneous experiment matrix over a worker pool suffers
from stragglers: an O3 full-system boot takes an order of magnitude
longer than an Atomic microbenchmark, and if it starts last the pool
idles behind it.  Longest-processing-time-first scheduling needs only a
*relative* duration estimate, which simulation time supplies readily
(Gem5Pred makes the same observation at much larger scale): cost scales
with the CPU model's per-instruction work, the workload's scale, and the
mode's device overhead.

The model learns at three granularities.  Every completed run feeds an
exponential moving average for its exact (workload, cpu, mode, scale)
class — the sharpest predictor once a class has been seen.  The same
observation also lands in a bounded raw-observation history that trains
a Gem5Pred-style **learned predictor**: a pure-python ridge regression
over job features (cpu model, mode, scale, workload, cores,
interval/warmup parameters) against log-seconds, so classes *never run
before* get a prediction shaped by everything the machine has run, not
just a single scalar.  Finally each observation calibrates a global
*seconds-per-weight-unit* factor — the fallback when the regression is
underfed (fewer than :data:`MIN_TRAINING_OBSERVATIONS` samples).

Prediction resolves through those layers in sharpness order: exact
class EMA, then the learned regression, then the static prior scaled by
the machine calibration.  All layers persist as ``costs.json`` (schema
v3) in the cache directory; a file of any other version is ignored and
overwritten, like an other-version cache envelope.

Jobs can shape their own treatment through two optional attributes:
``cost_class`` overrides the history bucket (sampled jobs form their
own class per workload/model/scale, host replays theirs per trace and
platform) and ``cost_weight_factor`` scales
the static prior (a sampled run costs a fraction of the full detailed
run it replaces).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from .cache import atomic_write

#: Relative per-instruction simulation work by CPU model (the paper's
#: Table/Fig. ordering: detail costs time).
CPU_MODEL_WEIGHT = {"atomic": 1.0, "timing": 2.2, "minor": 4.5, "o3": 7.5}

#: Relative guest work by workload scale.
SCALE_WEIGHT = {"test": 1.0, "simsmall": 6.0, "simmedium": 20.0,
                "simlarge": 60.0}

#: FS mode adds device and kernel events on top of the CPU work.
MODE_WEIGHT = {"se": 1.0, "fs": 1.6}

#: Per-extra-core overhead: total simulated work stays about constant
#: (the guest splits it), but coherence probes, barrier spins, and the
#: extra per-core event streams all cost host time.
CORES_WEIGHT_FACTOR = 0.2

#: EMA smoothing for observed durations and the calibration factor.
EMA_ALPHA = 0.5

#: Seconds one static weight unit costs before any run has calibrated
#: the machine (chosen so priors land in the right order of magnitude).
DEFAULT_SEC_PER_WEIGHT = 0.01

#: On-disk schema version of ``costs.json``.
COSTS_SCHEMA_VERSION = 3

#: Raw observations retained for regression training (most recent kept).
OBSERVATION_CAP = 512

#: Below this many observations the regression stays untrained and
#: prediction falls back to the EMA / calibrated-prior layers.
MIN_TRAINING_OBSERVATIONS = 12

#: Ridge penalty keeping the tiny normal-equation solve well-posed.
RIDGE_LAMBDA = 1e-2

#: Workload names hash into this many one-hot feature buckets.
WORKLOAD_BUCKETS = 8

#: Durations are learned in log space; clamp to keep log() finite.
MIN_SECONDS = 1e-6


def job_class(job: Any) -> str:
    """The history bucket a job's duration is learned under.

    Jobs may claim a bucket explicitly via a ``cost_class`` attribute
    (sampled jobs do, so their partial runs never contaminate the
    full-run history of the same workload).
    """
    explicit = getattr(job, "cost_class", None)
    if explicit is not None:
        return str(explicit)
    base = f"{job.workload}|{job.cpu_model}|{job.mode}|{job.scale}"
    cores = int(getattr(job, "cores", 1) or 1)
    if cores > 1:
        # Multi-core runs cost differently (coherence traffic, spin
        # waits) — keep their history out of the single-core bucket.
        base += f"|c{cores}"
    return base


def _workload_bucket(workload: str) -> int:
    """Deterministic hash bucket for a workload name (stable across
    processes — ``hash()`` is salted, sha256 is not)."""
    digest = hashlib.sha256(str(workload).encode()).hexdigest()
    return int(digest, 16) % WORKLOAD_BUCKETS


#: CPU models with their own one-hot feature slot.
_CPU_FEATURE_MODELS = ("atomic", "timing", "minor", "o3")

#: Observation-dict fields, in persistence order (schema v3).
OBSERVATION_FIELDS = ("class", "workload", "cpu_model", "mode", "scale",
                      "cores", "interval_insts", "warmup_insts",
                      "weight_factor", "seconds")


def observation_from_job(job: Any, seconds: float) -> dict:
    """The JSON-safe record one completed run contributes to training."""
    return {
        "class": job_class(job),
        "workload": str(job.workload),
        "cpu_model": str(job.cpu_model),
        "mode": str(getattr(job, "mode", "se")),
        "scale": str(job.scale),
        "cores": int(getattr(job, "cores", 1) or 1),
        "interval_insts": int(getattr(job, "interval_insts", 0) or 0),
        "warmup_insts": int(getattr(job, "warmup_insts", 0) or 0),
        "weight_factor": float(getattr(job, "cost_weight_factor", 1.0)),
        "seconds": float(seconds),
    }


def observation_features(obs: dict) -> list[float]:
    """The regression feature vector for one observation record.

    Training (from persisted history) and prediction (from a live job
    via :func:`observation_from_job`) share this one encoding, so the
    two can never drift apart.
    """
    cpu = obs.get("cpu_model", "")
    features = [1.0]                                    # bias
    features.extend(1.0 if cpu == model else 0.0
                    for model in _CPU_FEATURE_MODELS)
    features.append(1.0 if obs.get("mode") == "fs" else 0.0)
    features.append(math.log(SCALE_WEIGHT.get(obs.get("scale"), 6.0)))
    features.append(math.log(max(1, int(obs.get("cores", 1) or 1))))
    features.append(math.log(max(MIN_SECONDS,
                                 float(obs.get("weight_factor", 1.0)))))
    interval = int(obs.get("interval_insts", 0) or 0)
    warmup = int(obs.get("warmup_insts", 0) or 0)
    features.append(1.0 if interval else 0.0)           # sampled job
    features.append(math.log1p(interval))
    features.append(math.log1p(warmup))
    bucket = _workload_bucket(obs.get("workload", ""))
    features.extend(1.0 if bucket == i else 0.0
                    for i in range(WORKLOAD_BUCKETS))
    return features


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting (tiny dense system)."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            raise ArithmeticError("singular normal equations")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1.0 / aug[col][col]
        for row in range(col + 1, n):
            factor = aug[row][col] * inv
            if factor == 0.0:
                continue
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    weights = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for k in range(row + 1, n):
            acc -= aug[row][k] * weights[k]
        weights[row] = acc / aug[row][row]
    return weights


class LearnedPredictor:
    """Ridge regression over job features -> log(seconds) (Gem5Pred).

    Pure python: the normal equations ``(X'X + lambda I) w = X'y`` are
    assembled and solved directly — the feature space is ~20-dimensional
    and the observation history is bounded, so this trains in well under
    a millisecond, cheap enough to refresh continuously as runs finish.
    """

    def __init__(self, weights: Sequence[float],
                 n_observations: int) -> None:
        self.weights = list(weights)
        self.n_observations = n_observations

    @classmethod
    def train(cls, observations: Sequence[dict]
              ) -> Optional["LearnedPredictor"]:
        """Fit from observation records; None while underfed."""
        rows = [obs for obs in observations
                if float(obs.get("seconds", 0.0)) > 0.0]
        if len(rows) < MIN_TRAINING_OBSERVATIONS:
            return None
        dim = len(observation_features(rows[0]))
        xtx = [[0.0] * dim for _ in range(dim)]
        xty = [0.0] * dim
        for obs in rows:
            x = observation_features(obs)
            y = math.log(max(MIN_SECONDS, float(obs["seconds"])))
            for i in range(dim):
                xi = x[i]
                if xi == 0.0:
                    continue
                xty[i] += xi * y
                row = xtx[i]
                for j in range(dim):
                    row[j] += xi * x[j]
        for i in range(1, dim):        # leave the bias unpenalised
            xtx[i][i] += RIDGE_LAMBDA
        xtx[0][0] += 1e-9
        try:
            weights = _solve(xtx, xty)
        except ArithmeticError:
            return None
        return cls(weights, len(rows))

    def predict_seconds(self, obs: dict) -> float:
        """Predicted duration for one observation-shaped record."""
        x = observation_features(obs)
        log_seconds = sum(w * xi for w, xi in zip(self.weights, x))
        # Clamp the exponent so a degenerate fit cannot overflow.
        return math.exp(min(50.0, max(-50.0, log_seconds)))

    def predict_job(self, job: Any) -> float:
        return self.predict_seconds(observation_from_job(job, 0.0))


class CostModel:
    """Relative-duration oracle with optional persisted history."""

    def __init__(self,
                 history_path: Union[str, Path, None] = None) -> None:
        self.history_path = (Path(history_path)
                             if history_path is not None else None)
        self._history: dict[str, float] = {}
        self._sec_per_weight: Optional[float] = None
        self._calibration_samples = 0
        self._observations: list[dict] = []
        self._predictor: Optional[LearnedPredictor] = None
        self._predictor_stale = True
        self._load()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        if self.history_path is None:
            return
        try:
            data = json.loads(self.history_path.read_text())
        except (OSError, ValueError):
            return
        # Any other document is a cold start, as an other-version cache
        # envelope is a miss; the next flush overwrites it.
        if not isinstance(data, dict) \
                or data.get("version") != COSTS_SCHEMA_VERSION:
            return
        classes = data.get("classes")
        if isinstance(classes, dict):
            self._history = {str(k): float(v) for k, v in classes.items()}
        spw = data.get("sec_per_weight")
        if isinstance(spw, (int, float)) and spw > 0:
            self._sec_per_weight = float(spw)
        samples = data.get("calibration_samples")
        if isinstance(samples, int) and samples >= 0:
            self._calibration_samples = samples
        observations = data.get("observations")
        if isinstance(observations, list):
            self._observations = [
                obs for obs in observations
                if isinstance(obs, dict) and "seconds" in obs
            ][-OBSERVATION_CAP:]

    def flush(self) -> None:
        """Persist the learned durations (best effort)."""
        if self.history_path is None:
            return
        doc = {
            "version": COSTS_SCHEMA_VERSION,
            "classes": self._history,
            "sec_per_weight": self._sec_per_weight,
            "calibration_samples": self._calibration_samples,
            "observations": self._observations,
        }
        try:
            # Atomic: a torn costs.json reads back as a cold start.
            atomic_write(self.history_path,
                         json.dumps(doc, sort_keys=True, indent=1).encode())
        except OSError:
            pass  # history is an optimisation; never fail a run over it

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def static_weight(self, job: Any) -> float:
        """Prior relative cost from model/scale/mode weights alone.

        A job's ``cost_weight_factor`` (when present) scales the prior —
        sampled jobs advertise the fraction of a full detailed run they
        expect to cost.
        """
        weight = (CPU_MODEL_WEIGHT.get(job.cpu_model, 4.0)
                  * SCALE_WEIGHT.get(job.scale, 6.0)
                  * MODE_WEIGHT.get(getattr(job, "mode", "se"), 1.0))
        cores = int(getattr(job, "cores", 1) or 1)
        if cores > 1:
            weight *= 1.0 + CORES_WEIGHT_FACTOR * (cores - 1)
        return weight * float(getattr(job, "cost_weight_factor", 1.0))

    @property
    def sec_per_weight(self) -> float:
        """Calibrated seconds per static weight unit (default prior)."""
        if self._sec_per_weight is not None:
            return self._sec_per_weight
        return DEFAULT_SEC_PER_WEIGHT

    @property
    def calibration_samples(self) -> int:
        """How many observed runs have fed the calibration factor."""
        return self._calibration_samples

    @property
    def predictor(self) -> Optional[LearnedPredictor]:
        """The trained regression, refreshed lazily after new data.

        None while the observation history is underfed (fewer than
        :data:`MIN_TRAINING_OBSERVATIONS` runs) — callers fall back to
        the EMA/calibration layers, as :meth:`predict` does.
        """
        if self._predictor_stale:
            self._predictor = LearnedPredictor.train(self._observations)
            self._predictor_stale = False
        return self._predictor

    def predict_learned(self, job: Any) -> Optional[float]:
        """The regression's estimate alone (None while underfed)."""
        predictor = self.predictor
        if predictor is None:
            return None
        return predictor.predict_job(job)

    def predict(self, job: Any) -> float:
        """Predicted duration (seconds-ish; only the ordering matters).

        Layers, sharpest first: a class that has run before answers
        from its own EMA (deterministic simulations repeat their
        durations almost exactly); an unseen class answers from the
        learned regression once it has trained; until then the static
        weight scaled by the machine-wide calibration stands in.
        """
        learned = self._history.get(job_class(job))
        if learned is not None:
            return learned
        regressed = self.predict_learned(job)
        if regressed is not None:
            return regressed
        return self.static_weight(job) * self.sec_per_weight

    def observe(self, job: Any, seconds: float) -> None:
        """Fold one measured duration into every learning layer."""
        self._observations.append(observation_from_job(job, seconds))
        if len(self._observations) > OBSERVATION_CAP:
            del self._observations[:-OBSERVATION_CAP]
        self._predictor_stale = True
        key = job_class(job)
        previous = self._history.get(key)
        if previous is None:
            self._history[key] = seconds
        else:
            self._history[key] = (EMA_ALPHA * seconds
                                  + (1.0 - EMA_ALPHA) * previous)
        ratio = seconds / max(1e-9, self.static_weight(job))
        if self._sec_per_weight is None:
            self._sec_per_weight = ratio
        else:
            self._sec_per_weight = (EMA_ALPHA * ratio
                                    + (1.0 - EMA_ALPHA)
                                    * self._sec_per_weight)
        self._calibration_samples += 1

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, jobs: Sequence[Any]) -> list[Any]:
        """Jobs ordered predicted-longest-first (LPT minimises makespan).

        Ties break on the job's stable sort key so the order — and hence
        worker assignment — is deterministic run to run.
        """
        if len(jobs) < 2:
            return list(jobs)      # nothing to order: predict nothing
        return sorted(jobs,
                      key=lambda j: (-self.predict(j), j.sort_key()))

    def known_classes(self) -> dict[str, float]:
        """The learned history (for cache inspection)."""
        return dict(self._history)

    def observations(self) -> list[dict]:
        """The raw training history (for the capacity report)."""
        return [dict(obs) for obs in self._observations]


def ema_baseline_predict(history: dict[str, float],
                         sec_per_weight: float, obs: dict) -> float:
    """What CostModel v2 would have predicted for one observation.

    The accuracy tests and the capacity report use this as the
    pre-regression baseline: exact-class EMA when seen, otherwise the
    static prior scaled by the machine calibration.
    """
    job = _ObservationJob(obs)
    learned = history.get(job_class(job))
    if learned is not None:
        return learned
    return CostModel().static_weight(job) * sec_per_weight


class _ObservationJob:
    """Adapts an observation record to the job attribute protocol."""

    def __init__(self, obs: dict) -> None:
        if obs.get("class"):
            self.cost_class = obs["class"]
        self.workload = obs.get("workload", "")
        self.cpu_model = obs.get("cpu_model", "")
        self.mode = obs.get("mode", "se")
        self.scale = obs.get("scale", "test")
        self.cores = int(obs.get("cores", 1) or 1)
        self.interval_insts = int(obs.get("interval_insts", 0) or 0)
        self.warmup_insts = int(obs.get("warmup_insts", 0) or 0)
        self.cost_weight_factor = float(obs.get("weight_factor", 1.0))
