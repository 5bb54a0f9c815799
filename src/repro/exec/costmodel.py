"""Static job prices, to schedule the longest jobs first.

An O3 full-system boot takes an order of magnitude longer than an
Atomic microbenchmark; if it starts last, the pool idles behind it.
Longest-processing-time-first scheduling needs only a *relative*
duration, which the job's features price: the CPU-model, scale, mode
and core weights times the job's ``cost_weight_factor``, in units of
:data:`DEFAULT_SEC_PER_WEIGHT`.  The price is a rank, not a clock.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

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

#: Seconds one static weight unit costs.
DEFAULT_SEC_PER_WEIGHT = 0.01


def predict(job: Any) -> float:
    """The job's price: the exp of its summed log weights (a plain
    product rounds differently, which could reorder tied jobs)."""
    cores = int(getattr(job, "cores", 1) or 1)
    return math.exp(sum([
        math.log(DEFAULT_SEC_PER_WEIGHT),
        math.log(CPU_MODEL_WEIGHT.get(job.cpu_model, OTHER_CPU_WEIGHT)),
        math.log(MODE_WEIGHT.get(getattr(job, "mode", "se"), 1.0)),
        math.log(SCALE_WEIGHT.get(job.scale, 6.0)),
        math.log(1.0 + CORES_WEIGHT_FACTOR * (cores - 1)),
        math.log(getattr(job, "cost_weight_factor", 1.0))]))


def predict_task(task: Any) -> float:
    """The price of one execute-step task: a task of several
    ``members`` (a walk) costs their sum."""
    return sum(map(predict, getattr(task, "members", (task,))))


def schedule(tasks: Sequence[Any]) -> list[Any]:
    """Tasks ordered highest-price-first (LPT minimises makespan).  Ties
    break on the stable sort key, so the order is deterministic."""
    if len(tasks) < 2:
        return list(tasks)
    return sorted(tasks, key=lambda t: (-predict_task(t), t.sort_key()))
