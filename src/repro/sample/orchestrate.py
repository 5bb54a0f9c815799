"""End-to-end sampled simulation: profile, cluster, measure, report.

:class:`SampledJob` is the sampling counterpart of the exec engine's
``G5Job``: a frozen description of one sampled run whose
:meth:`~SampledJob.cache_key` covers every input (workload, CPU model,
interval geometry, clustering seed, and the sampling code itself).
:func:`execute_sampled_job` turns it into a JSON-safe payload that the
exec disk cache, the serve daemon, and the CLI all share.

The degenerate configuration — ``k`` at least the number of intervals —
skips sampling entirely and runs one uninterrupted detailed simulation,
so the payload's estimates are *exact* (confidence intervals of zero).
That path is what the differential tests pin the machinery against.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec.keys import CacheKey, sample_key
from ..exec.pool import ExecutionEngine
from .bbv import DEFAULT_INTERVAL_INSTS
from .parallel import (SAMPLE_FORMAT_VERSION, exact_payload,
                       merge_measurements, plan_sampled_job)

#: Stats surfaced by name in the rendered report (beyond the ratios).
_REPORT_KEYS = (
    "system.cpu.committedInsts",
    "system.cpu.numCycles",
    "system.cpu.numBranches",
    "system.cpu.numMemRefs",
    "system.dcache.overallMisses",
    "system.icache.overallMisses",
    "system.l2.overallMisses",
)


@dataclass(frozen=True)
class SampledJob:
    """One sampled simulation of a workload on a detailed CPU model."""

    workload: str
    cpu_model: str = "o3"
    scale: str = "simsmall"
    interval_insts: int = DEFAULT_INTERVAL_INSTS
    warmup_insts: int = 1000
    k: int = 0                     # 0 = BIC-select k automatically
    max_k: int = 8
    seed: int = 1234
    mode: str = "se"               # sampling requires SE checkpoints
    #: Event-queue domains for the detailed measurement systems
    #: (:mod:`repro.g5.sharded`); sharded measurements are bit-identical
    #: to single-queue ones, so the payload does not change with this
    #: knob — but the key covers it, like every other execution input.
    domains: int = 1

    @property
    def label(self) -> str:
        return (f"sample:{self.workload}/{self.cpu_model}/{self.scale}"
                f"@{self.interval_insts}")

    #: Cost-model hooks: sampled jobs are fitted as their own kind, form
    #: their own prediction class and cost a fraction of the full
    #: detailed run they replace.
    kind = "sample"

    @property
    def cost_class(self) -> str:
        return f"{self.workload}|{self.cpu_model}|sample|{self.scale}"

    cost_weight_factor = 0.4

    def sort_key(self) -> tuple:
        return (self.workload, self.cpu_model, self.scale,
                self.interval_insts, self.seed)

    def cache_key(self) -> CacheKey:
        return sample_key(**self.describe())

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "cpu_model": self.cpu_model,
            "scale": self.scale,
            "interval_insts": self.interval_insts,
            "warmup_insts": self.warmup_insts,
            "k": self.k,
            "max_k": self.max_k,
            "seed": self.seed,
            "mode": self.mode,
            "domains": self.domains,
        }

    def fan_out(self, engine, should_abort=None) -> dict:
        """The sampling pipeline: plan, resolve each window as a job on
        ``engine`` (cache, pool and abort poll included), merge in plan
        order.  Returns the JSON-safe payload."""
        plan = plan_sampled_job(self)
        if plan.exact:
            return exact_payload(self, plan.profile)
        windows = plan.window_jobs()
        resolved = engine.resolve(windows, should_abort)
        return merge_measurements(
            self, plan, [resolved[window].value for window in windows])

    @staticmethod
    def decode(stored: object):
        if isinstance(stored, dict) and stored.get("kind") == "sample" \
                and stored.get("format") == SAMPLE_FORMAT_VERSION:
            return stored
        return None


def execute_sampled_job(job: SampledJob) -> dict:
    """The payload from an uncached one-worker engine (no pool)."""
    return ExecutionEngine().run_sampled(job)


def render_sample_report(payload: dict) -> str:
    """Human-readable summary of a sampled payload (deterministic)."""
    profile = payload["profile"]
    clusters = payload["clusters"]
    config = payload["config"]
    lines = [
        f"sampled simulation: {payload['workload']}/{payload['cpu_model']}"
        f"/{payload['scale']}",
        f"  intervals: {profile['n_intervals']} x "
        f"{config['interval_insts']} insts "
        f"(roi {profile['roi_insts']} of {profile['total_insts']})",
        f"  clusters: k={clusters['k']} (seed {config['seed']}), "
        f"detailed {payload['detailed_insts']}/{profile['roi_insts']} insts "
        f"({payload['sampled_fraction'] * 100.0:.1f}%)"
        + ("  [exact]" if payload["exact"] else ""),
        "  representatives:",
    ]
    for rep in clusters["representatives"]:
        lines.append(f"    interval {rep['interval']:>4}  "
                     f"weight {rep['weight']:.4f}  "
                     f"start {rep['start_inst']}  len {rep['length']}  "
                     f"warm {rep.get('warmup', 0)}")
    lines.append("  derived:")
    for name, doc in sorted(payload["derived"].items()):
        lines.append(f"    {name:<18} {doc['value']:.6g} "
                     f"± {doc['ci95']:.3g}")
    lines.append("  key stats:")
    estimates = payload["estimates"]
    for key in _REPORT_KEYS:
        if key in estimates:
            doc = estimates[key]
            lines.append(f"    {key:<32} {doc['value']:.6g} "
                         f"± {doc['ci95']:.3g}")
    return "\n".join(lines) + "\n"
