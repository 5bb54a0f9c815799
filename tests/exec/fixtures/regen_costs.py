"""Regenerate the synthetic cost-history fixtures:
``PYTHONPATH=src python -m tests.exec.fixtures.regen_costs``
(from the repository root).

The synthetic world is deliberately *not* the static prior: its true
durations follow a log-linear law whose CPU effects and scale exponent
differ from the cost model's ``CPU_MODEL_WEIGHT`` / ``SCALE_WEIGHT``,
plus a per-workload effect read from :data:`WORKLOAD_LEVEL`.  A touch of
deterministic per-class "noise" (sha256 of the class name) keeps the
fit honest.  Every cell runs in SE mode on one core.

The world is written out literally and imports nothing from the cost
model, so the fixtures do not move when the model's internals do.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: True per-CPU log-effects — close to, but not equal to, the static
#: prior's log-weights (0.0 / 0.79 / 1.50 / 2.01).
CPU_EFFECT = {"atomic": 0.0, "timing": 1.3, "o3": 2.8}

#: Relative guest work by scale (the values the prior uses) and the true
#: exponent over its log; the static prior uses 1.
SCALE_WORK = {"test": 1.0, "simsmall": 6.0}
SCALE_EXPONENT = 1.25

#: Base log-seconds of an atomic test-scale run in the synthetic world.
BASE_LOG_SECONDS = math.log(0.4)

#: Per-workload level on 0..7, mapped to a log-effect in roughly
#: [-0.35, +0.35].  The first six are the workloads' sha256 buckets
#: under the earlier hash-bucket model (which keeps costs_heldout.json's
#: observations byte-identical); the other five are independent of any
#: hash bucket.
WORKLOAD_LEVEL = {"sieve": 6, "fmm": 5, "ocean_cp": 1, "canneal": 3,
                  "dedup": 4, "streamcluster": 2, "blackscholes": 1,
                  "water_nsquared": 2, "water_spatial": 3, "ocean_ncp": 0,
                  "boot_exit": 5}

WORKLOADS = tuple(WORKLOAD_LEVEL)
CPUS = tuple(CPU_EFFECT)
SCALES = tuple(SCALE_WORK)

#: Grid cells withheld from training; every workload, CPU, and scale
#: still appears in the training remainder, so the regression has seen
#: each feature value — just never these combinations.
HELD_OUT = (
    ("sieve", "timing", "simsmall"),
    ("fmm", "o3", "simsmall"),
    ("ocean_cp", "atomic", "test"),
    ("canneal", "timing", "test"),
    ("dedup", "atomic", "simsmall"),
    ("streamcluster", "o3", "test"),
)


def true_seconds(workload: str, cpu: str, scale: str) -> float:
    log_s = (BASE_LOG_SECONDS + CPU_EFFECT[cpu]
             + SCALE_EXPONENT * math.log(SCALE_WORK[scale]))
    log_s += 0.7 * (WORKLOAD_LEVEL[workload] / 7 - 0.5)
    # Deterministic +/-5% class noise the model cannot represent.
    digest = hashlib.sha256(f"{workload}|{cpu}|{scale}".encode()).digest()
    log_s += math.log(0.95 + 0.1 * digest[0] / 255.0)
    return math.exp(log_s)


def observation(workload: str, cpu: str, scale: str) -> dict:
    """One g5 run of the world as a ``costs.json`` v4 record."""
    return {"kind": "g5", "class": f"{workload}|{cpu}|se|{scale}",
            "workload": workload, "cpu_model": cpu,
            "mode": "se", "scale": scale, "cores": 1, "interval_insts": 0,
            "warmup_insts": 0, "weight_factor": 1.0,
            "seconds": true_seconds(workload, cpu, scale)}


def main() -> None:
    fixtures = Path(__file__).parent
    grid = [(w, c, s) for w in WORKLOADS for c in CPUS for s in SCALES]
    training = [observation(*cell) for cell in grid
                if cell not in HELD_OUT]
    (fixtures / "costs_v4_synthetic.json").write_text(json.dumps(
        {"version": 4, "observations": training}, sort_keys=True,
        indent=1))

    (fixtures / "costs_heldout.json").write_text(json.dumps({
        "note": "classes withheld from costs_v4_synthetic.json training",
        "observations": [
            {"class": f"{w}|{c}|se|{s}", "workload": w, "cpu_model": c,
             "mode": "se", "scale": s, "cores": 1, "interval_insts": 0,
             "warmup_insts": 0, "weight_factor": 1.0,
             "seconds": true_seconds(w, c, s)}
            for w, c, s in HELD_OUT
        ],
    }, sort_keys=True, indent=1))

    print(f"regenerated fixtures under {fixtures}")


if __name__ == "__main__":
    main()
