"""Predicting job cost to schedule longest jobs first.

An O3 full-system boot takes an order of magnitude longer than an
Atomic microbenchmark; if it starts last, the pool idles behind it.
Longest-processing-time-first scheduling needs only a *relative*
duration estimate, which job features predict (as in Gem5Pred).

One model answers: a ridge regression of log-seconds on job features,
``(X'X + lambda I) w = X'y + lambda w0``, centred on a static prior
``w0`` (the log of the CPU-model, scale, mode and core weights, the
job's ``cost_weight_factor`` and :data:`DEFAULT_SEC_PER_WEIGHT`): an
empty history answers the prior.  The all but unpenalised bias moves by
the whole residual of one observation, recalibrating every class.  Each
workload and class (:func:`job_class`) in the history has an indicator
centred on 0: an unseen workload gets the average effect, and a class
run before converges on its own durations.

Each job ``kind`` (g5, sample, window, host, spec; default g5) is fitted
on its own observations, at most once per new one, so one kind never
reorders another's jobs.  ``costs.json`` holds the latest
:data:`OBSERVATION_CAP` as ``{"version": 4, "observations": [...]}``;
other versions, ill-typed records and non-positive seconds are dropped.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Callable, Sequence, Union

from .cache import atomic_write

#: Relative per-instruction simulation work by CPU model (the paper's
#: Table/Fig. ordering: detail costs time), and of any other "CPU
#: model" — a replay's host platform.
CPU_MODEL_WEIGHT = {"atomic": 1.0, "timing": 2.2, "minor": 4.5, "o3": 7.5}
OTHER_CPU_WEIGHT = 4.0

#: Relative guest work by workload scale (6.0 for any other scale).
SCALE_WEIGHT = {"test": 1.0, "simsmall": 6.0, "simmedium": 20.0,
                "simlarge": 60.0}

#: FS mode adds device and kernel events on top of the CPU work.
MODE_WEIGHT = {"se": 1.0, "fs": 1.6}

#: Per-extra-core overhead: the guest splits its work, but coherence
#: probes, barrier spins and per-core event streams cost host time.
CORES_WEIGHT_FACTOR = 0.2

#: Seconds one static weight unit costs before any run is observed.
DEFAULT_SEC_PER_WEIGHT = 0.01

#: ``costs.json``'s schema version, and the observations it keeps.
COSTS_SCHEMA_VERSION = 4
OBSERVATION_CAP = 512

#: Ridge penalty towards the prior of every coefficient but the bias.
RIDGE_LAMBDA = 1e-2

#: Observation record fields (``costs.json`` v4) and their types.
OBSERVATION_FIELDS = {"kind": str, "class": str, "workload": str,
                      "cpu_model": str, "mode": str, "scale": str,
                      "cores": int, "interval_insts": int,
                      "warmup_insts": int, "weight_factor": float,
                      "seconds": float}

#: The static prior as weights of the :func:`_features` slots: bias, CPU
#: one-hot (other last), FS, log scale, core and weight-factor weights,
#: log1p interval and warmup.
_PRIOR = [math.log(DEFAULT_SEC_PER_WEIGHT),
          *(math.log(weight) for weight in CPU_MODEL_WEIGHT.values()),
          math.log(OTHER_CPU_WEIGHT), math.log(MODE_WEIGHT["fs"]),
          1.0, 1.0, 1.0, 0.0, 0.0]


def job_class(job: Any) -> str:
    """The class whose runs a job's prediction converges on; sampled
    jobs, windows and replays name theirs as ``cost_class``."""
    explicit = getattr(job, "cost_class", None)
    if explicit is not None:
        return str(explicit)
    cores = int(getattr(job, "cores", 1) or 1)
    return (f"{job.workload}|{job.cpu_model}|{job.mode}|{job.scale}"
            + (f"|c{cores}" if cores > 1 else ""))


def observation(job: Any, seconds: float) -> dict:
    """The JSON-safe record one completed run contributes to training."""
    return {
        "kind": str(getattr(job, "kind", "g5")),
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


def _well_typed(obs: object) -> bool:
    """Whether a record can train the model (NaN fails the bounds)."""
    return isinstance(obs, dict) and all(
        isinstance(obs.get(name), (int, float) if kind is float else kind)
        and not isinstance(obs.get(name), bool)
        for name, kind in OBSERVATION_FIELDS.items()) \
        and 0 < obs["seconds"] < math.inf \
        and 0 < obs["weight_factor"] < math.inf and obs["cores"] >= 1 \
        and min(obs["interval_insts"], obs["warmup_insts"]) >= 0


def _features(obs: dict) -> list[float]:
    """The fixed feature slots of one record (see :data:`_PRIOR`)."""
    cpu = obs["cpu_model"]
    return [1.0, *(float(cpu == model) for model in CPU_MODEL_WEIGHT),
            float(cpu not in CPU_MODEL_WEIGHT), float(obs["mode"] == "fs"),
            math.log(SCALE_WEIGHT.get(obs["scale"], 6.0)),
            math.log(1.0 + CORES_WEIGHT_FACTOR * (obs["cores"] - 1)),
            math.log(obs["weight_factor"]),
            math.log1p(obs["interval_insts"]),
            math.log1p(obs["warmup_insts"])]


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Gauss-Jordan elimination; the ridge system is symmetric positive
    definite, so its diagonal pivots need no row swaps."""
    for col, pivot in enumerate(a):
        for row, target in enumerate(a):
            factor = target[col] / pivot[col]
            if row != col and factor:
                a[row] = [x - factor * y for x, y in zip(target, pivot)]
                b[row] -= factor * b[col]
    return [b[i] / a[i][i] for i in range(len(b))]


def _fit(rows: Sequence[dict]) -> Callable[[dict], float]:
    """One kind's regression over ``rows``, as ``predict(record)``: it
    fits log-seconds less the prior's answer.  A record has exactly one
    class indicator, so those slots drop out in closed form."""
    workloads = sorted({obs["workload"] for obs in rows})
    slots = {name: len(_PRIOR) + i for i, name in enumerate(workloads)}
    prior = _PRIOR + [0.0] * len(slots)

    def sparse(obs: dict) -> list:
        """The record's nonzero ``(slot, value)`` pairs."""
        row = [(i, x) for i, x in enumerate(_features(obs)) if x]
        if obs["workload"] in slots:
            row.append((slots[obs["workload"]], 1.0))
        return row

    dim = range(len(prior))
    xtx = [[(RIDGE_LAMBDA if i else 1e-9) * (i == j) for j in dim]
           for i in dim]
    xty = [0.0 for _ in dim]
    # class -> [its indicator's diagonal, residual, {slot: feature sum}]
    classes: dict[str, list] = {}
    for obs in rows:
        row = sparse(obs)
        residual = math.log(obs["seconds"]) - sum(prior[i] * x
                                                  for i, x in row)
        fold = classes.setdefault(obs["class"], [RIDGE_LAMBDA, 0.0, {}])
        fold[:2] = fold[0] + 1.0, fold[1] + residual
        for i, xi in row:
            xty[i] += xi * residual
            fold[2][i] = fold[2].get(i, 0.0) + xi
            for j, xj in row:
                xtx[i][j] += xi * xj
    # Eliminate the class slots: the Schur complement of their diagonal.
    for diagonal, residual, sums in classes.values():
        for i, si in sums.items():
            xty[i] -= si * residual / diagonal
            for j, sj in sums.items():
                xtx[i][j] -= si * sj / diagonal
    shift = _solve(xtx, xty)
    weights = [w + d for w, d in zip(prior, shift)]
    offsets = {name: (residual - sum(s * shift[i] for i, s in sums.items()))
               / diagonal for name, (diagonal, residual, sums)
               in classes.items()}
    return lambda obs: math.exp(offsets.get(obs["class"], 0.0) + sum(
        weights[i] * x for i, x in sparse(obs)))


class CostModel:
    """Relative-duration oracle with optional persisted history."""

    def __init__(self,
                 history_path: Union[str, Path, None] = None) -> None:
        self.history_path = (Path(history_path)
                             if history_path is not None else None)
        self._observations: list[dict] = []
        #: kind -> its fit, dropped when the kind gets a new observation
        self._fits: dict[str, Callable[[dict], float]] = {}
        #: serve threads predict while others observe: no stale fit
        self._lock = threading.Lock()
        if self.history_path is None:
            return
        try:
            data = json.loads(self.history_path.read_text())
        except (OSError, ValueError):
            return
        if isinstance(data, dict) \
                and data.get("version") == COSTS_SCHEMA_VERSION \
                and isinstance(data.get("observations"), list):
            self._observations = [
                {name: kind(obs[name])
                 for name, kind in OBSERVATION_FIELDS.items()}
                for obs in data["observations"] if _well_typed(obs)
            ][-OBSERVATION_CAP:]

    def flush(self) -> None:
        """Persist the observations (best effort)."""
        if self.history_path is None:
            return
        with self._lock:
            doc = {"version": COSTS_SCHEMA_VERSION,
                   "observations": list(self._observations)}
        try:
            # Atomic: a torn costs.json reads back as a cold start.
            atomic_write(self.history_path,
                         json.dumps(doc, sort_keys=True, indent=1).encode())
        except OSError:
            pass  # history is an optimisation; never fail a run over it

    def predict(self, job: Any) -> float:
        """Predicted duration (seconds-ish; only the ordering matters)."""
        obs = observation(job, 0.0)
        with self._lock:
            fit = self._fits.get(obs["kind"])
            if fit is None:
                fit = self._fits[obs["kind"]] = _fit(
                    [row for row in self._observations
                     if row["kind"] == obs["kind"]])
        return fit(obs)

    def observe(self, job: Any, seconds: float) -> None:
        """Add one measured duration to the history."""
        obs = observation(job, seconds)
        if _well_typed(obs):
            with self._lock:
                self._observations.append(obs)
                del self._observations[:-OBSERVATION_CAP]
                self._fits.pop(obs["kind"], None)

    def predict_task(self, task: Any) -> float:
        """Predicted duration of one execute-step task: a task of
        several ``members`` (a walk) predicts their sum."""
        return sum(map(self.predict, getattr(task, "members", (task,))))

    def schedule(self, jobs: Sequence[Any]) -> list[Any]:
        """Tasks ordered predicted-longest-first (LPT minimises
        makespan).  Ties break on the stable sort key, so the order is
        deterministic."""
        if len(jobs) < 2:
            return list(jobs)      # nothing to order: predict nothing
        return sorted(jobs, key=lambda j: (-self.predict_task(j),
                                           j.sort_key()))

    def observations(self) -> list[dict]:
        """The training history (for inspection)."""
        with self._lock:
            return [dict(obs) for obs in self._observations]
