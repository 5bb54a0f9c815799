"""Regenerate the synthetic cost-history fixtures:
``PYTHONPATH=src python -m tests.exec.fixtures.regen_costs``
(from the repository root).

The synthetic world is deliberately *not* the static prior: its true
durations follow a log-linear law whose CPU effects and scale exponent
differ from :data:`CPU_MODEL_WEIGHT` / :data:`SCALE_WEIGHT`, plus a
per-workload factor keyed on the regression's own hash bucket.  The
learned predictor can represent that law exactly (same feature space),
while the EMA baseline's static-prior fallback is systematically wrong
for classes it has never seen — which is precisely the gap the accuracy
tests pin down.  A touch of deterministic per-class "noise" (sha256 of
the class name) keeps the fit honest.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: True per-CPU log-effects — close to, but not equal to, the static
#: prior's log-weights (0.0 / 0.79 / 1.50 / 2.01).
CPU_EFFECT = {"atomic": 0.0, "timing": 1.3, "o3": 2.8}

#: True scale exponent over log(SCALE_WEIGHT); the static prior uses 1.
SCALE_EXPONENT = 1.25

#: Base log-seconds of an atomic test-scale run in the synthetic world.
BASE_LOG_SECONDS = math.log(0.4)

WORKLOADS = ("sieve", "fmm", "ocean_cp", "canneal", "dedup",
             "streamcluster")
CPUS = tuple(CPU_EFFECT)
SCALES = ("test", "simsmall")

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
    from repro.exec.costmodel import (SCALE_WEIGHT, WORKLOAD_BUCKETS,
                                      _workload_bucket)

    log_s = (BASE_LOG_SECONDS + CPU_EFFECT[cpu]
             + SCALE_EXPONENT * math.log(SCALE_WEIGHT[scale]))
    # Bucket-keyed workload effect (learnable: the regression one-hots
    # the same bucket), spread over roughly [-0.35, +0.35].
    bucket = _workload_bucket(workload)
    log_s += 0.7 * (bucket / (WORKLOAD_BUCKETS - 1) - 0.5)
    # Deterministic +/-5% class noise the model cannot represent.
    digest = hashlib.sha256(f"{workload}|{cpu}|{scale}".encode()).digest()
    log_s += math.log(0.95 + 0.1 * digest[0] / 255.0)
    return math.exp(log_s)


def main() -> None:
    from repro.exec.costmodel import COSTS_SCHEMA_VERSION, CostModel
    from repro.exec.pool import G5Job

    fixtures = Path(__file__).parent
    held_out = set(HELD_OUT)
    grid = [(w, c, s) for w in WORKLOADS for c in CPUS for s in SCALES]

    v3_path = fixtures / "costs_v3_synthetic.json"
    model = CostModel(v3_path)
    for workload, cpu, scale in grid:
        if (workload, cpu, scale) in held_out:
            continue
        model.observe(G5Job(workload, cpu, "se", scale),
                      true_seconds(workload, cpu, scale))
    model.flush()

    doc = json.loads(v3_path.read_text())
    assert doc["version"] == COSTS_SCHEMA_VERSION

    (fixtures / "costs_heldout.json").write_text(json.dumps({
        "note": "classes withheld from costs_v3_synthetic.json training",
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
