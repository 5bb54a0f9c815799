"""SimPoint-style sampled simulation.

Detailed CPU models (O3, Minor) run an order of magnitude slower than
Atomic — the paper's core complaint — and the standard gem5 answer is
checkpoint-based sampling: profile the workload cheaply, pick a few
*representative* instruction intervals, fast-forward to each with the
functional model, and pay for detailed simulation only inside those
windows.  This package implements the full flow:

- :mod:`repro.sample.bbv` — per-interval basic-block vectors from one
  functional pass, reusing ``analysis.guestcfg``'s leader-algorithm
  block identification;
- :mod:`repro.sample.kmeans` — seeded, pure-python k-means with
  BIC-style k selection over dim-reduced BBVs (deterministic under the
  determinism lint: every RNG takes an explicit seed);
- :mod:`repro.sample.ckpt` — one functional pass taking
  ``g5.serialize`` checkpoints at the chosen interval boundaries;
- :mod:`repro.sample.measure` — restore each checkpoint into a
  detailed CPU, warm up, and measure scalar-stat deltas over the
  interval;
- :mod:`repro.sample.extrapolate` — weighted reconstruction of
  full-run statistics with per-stat confidence intervals;
- :mod:`repro.sample.orchestrate` — :class:`SampledJob` tying it all
  together, producing a JSON-safe payload the exec cache and the serve
  daemon share;
- :mod:`repro.sample.parallel` — the plan/measure/merge split, plus
  per-window content-addressed cache entries (:class:`WindowJob`) that
  the exec engine resolves inline or across its process pool with
  byte-identical results.

Everything in this package is deterministic: two runs with the same
seed produce byte-identical reports, which is what lets sampled results
live in the content-addressed cache.
"""

from .bbv import (DEFAULT_INTERVAL_INSTS, IntervalProfile, SampleError,
                  profile_intervals)
from .ckpt import fast_forward, take_checkpoints_at
from .extrapolate import StatEstimate, derived_ratios, reconstruct
from .kmeans import Clustering, choose_k, kmeans, project_bbvs, \
    select_representatives
from .measure import (IntervalMeasurement, bulk_warm_caches,
                      functional_warmup, measure_from_checkpoint,
                      run_to_commit, scalar_snapshot)
from .orchestrate import (SAMPLE_FORMAT_VERSION, SampledJob,
                          execute_sampled_job, render_sample_report)
from .parallel import (SamplePlan, WindowJob, WindowPlan,
                       checkpoint_digest, merge_measurements,
                       pack_measurement, plan_sampled_job, plan_windows,
                       unpack_measurement)

__all__ = [
    "Clustering",
    "DEFAULT_INTERVAL_INSTS",
    "IntervalMeasurement",
    "IntervalProfile",
    "SAMPLE_FORMAT_VERSION",
    "SampleError",
    "SampledJob",
    "SamplePlan",
    "StatEstimate",
    "WindowJob",
    "WindowPlan",
    "bulk_warm_caches",
    "checkpoint_digest",
    "choose_k",
    "derived_ratios",
    "execute_sampled_job",
    "fast_forward",
    "functional_warmup",
    "kmeans",
    "measure_from_checkpoint",
    "merge_measurements",
    "pack_measurement",
    "plan_sampled_job",
    "plan_windows",
    "profile_intervals",
    "project_bbvs",
    "reconstruct",
    "render_sample_report",
    "run_to_commit",
    "scalar_snapshot",
    "select_representatives",
    "take_checkpoints_at",
    "unpack_measurement",
]
