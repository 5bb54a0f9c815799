"""Window planning and order-independent merging for sampled runs.

The sequential sampling pipeline interleaves three separable stages:
*planning* (profile, cluster, pick representatives, take checkpoints),
*measurement* (restore each checkpoint into a detailed CPU and measure
one window), and *merging* (weighted reconstruction into the payload).
Only the measurement stage costs detailed-simulation time, and the
windows are independent once their checkpoints exist — so this module
splits the stages apart: a :class:`~repro.sample.orchestrate.SampledJob`
names its planned windows as its ``needs()``, and an
:class:`~repro.exec.pool.ExecutionEngine` resolves them as jobs, inline
or across its process pool, before the job's own merge runs.

The contract is bit-exactness: ``merge_measurements`` consumes
measurements in **plan order** (representatives sorted by interval
index), never completion order.  A pooled run and a one-worker run of
the same :class:`SampledJob` therefore serialize to byte-identical JSON
— the differential suite (`tests/sample/test_parallel_differential.py`)
pins this for every CPU model.

Each planned window also names itself as a content-addressed cache
entry (:class:`WindowJob`): the key covers the *checkpoint content
digest* — not just the window's position — so editing a checkpoint, the
guest binary, or any simulation code invalidates exactly the window
measurements it can affect.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from ..exec.keys import CacheKey, job_key
from ..g5.serialize import Checkpoint
from ..g5.system import SimConfig, System, simulate
from ..workloads import get_workload
from .bbv import IntervalProfile, SampleError, profile_intervals
from .ckpt import take_checkpoints_at
from .extrapolate import StatEstimate, derived_ratios, reconstruct
from .kmeans import Clustering, choose_k, kmeans, project_bbvs, \
    select_representatives
from .measure import IntervalMeasurement, measure_from_checkpoint, \
    scalar_snapshot

#: Version stamped into every sampled payload.
SAMPLE_FORMAT_VERSION = 1

#: Version stamped into every packed window measurement (cache value).
WINDOW_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# checkpoint identity
# ----------------------------------------------------------------------
def checkpoint_digest(checkpoint: Checkpoint) -> str:
    """Content hash of a checkpoint's restorable state.

    Two checkpoints with equal digests restore to indistinguishable
    systems, so a window measured from one is valid for the other.  The
    hash walks the fields in a fixed order with pages and syscall
    counts sorted by key — page-dict insertion order is an artifact of
    execution history, not of the state being restored.
    """
    h = hashlib.sha256()
    for scalar in (checkpoint.version, checkpoint.tick,
                   checkpoint.committed_insts, checkpoint.pc,
                   checkpoint.mem_size, checkpoint.brk):
        h.update(str(scalar).encode())
        h.update(b"\0")
    h.update(checkpoint.process_name.encode())
    h.update(b"\0")
    h.update(",".join(str(r) for r in checkpoint.int_regs).encode())
    h.update(b"\0")
    h.update(",".join(repr(r) for r in checkpoint.fp_regs).encode())
    h.update(b"\0")
    h.update(checkpoint.console)
    h.update(b"\0")
    for num, count in sorted(checkpoint.syscall_counts.items()):
        h.update(f"{num}:{count};".encode())
    h.update(b"\0")
    for num, raw in sorted(checkpoint.pages.items()):
        h.update(str(num).encode())
        h.update(b":")
        h.update(raw)
        h.update(b"\0")
    return h.hexdigest()


# ----------------------------------------------------------------------
# window jobs (the per-window cache entries)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowJob:
    """One window measurement as a content-addressed executable unit.

    Everything that determines the measurement is a compared field:
    the guest program (workload + scale), the CPU model, the window
    geometry, and the checkpoint's *content* digest.  The clustering
    seed is deliberately absent — two sampled jobs whose clustering
    happens to pick the same windows share the same entries.
    """

    workload: str
    cpu_model: str
    scale: str
    interval: int                  # interval index within the profile
    start_inst: int                # absolute inst count the window opens at
    length: int                    # instructions measured in detail
    pre_insts: int                 # warmup instructions before the window
    ckpt_digest: str               # content digest of the restore point
    mode: str = "se"
    #: the restore point itself; travels with the job to its worker
    checkpoint: Optional[Checkpoint] = field(default=None, compare=False,
                                             repr=False)

    #: the cache-key kind
    kind = "window"

    @property
    def label(self) -> str:
        return (f"window:{self.workload}/{self.cpu_model}"
                f"/{self.scale}#{self.interval}")

    #: Cost-model weight: it scales with the instructions the window
    #: actually simulates (warmup + measured), so LPT scheduling
    #: launches the longest windows first.
    @property
    def cost_weight_factor(self) -> float:
        return self.total_insts / 1000.0

    @property
    def total_insts(self) -> int:
        """Instructions this window costs (warmup + measured)."""
        return self.pre_insts + self.length

    def sort_key(self) -> tuple:
        return (self.workload, self.cpu_model, self.scale,
                self.start_inst, self.interval)

    def cache_key(self) -> CacheKey:
        return job_key(self)

    def execute(self) -> dict:
        """Measure the window from its checkpoint (in any process).

        The guest program is rebuilt from the workload registry — the
        same deterministic build the planning process ran.
        """
        program = get_workload(self.workload).build(self.scale)
        return pack_measurement(measure_from_checkpoint(
            self.checkpoint, program, self.workload, self.cpu_model,
            interval=self.interval, length=self.length,
            pre_insts=self.pre_insts))

    @staticmethod
    def decode(stored: object) -> Optional[IntervalMeasurement]:
        return unpack_measurement(stored)


def pack_measurement(measurement: IntervalMeasurement) -> dict:
    """Flatten a measurement into plain builtins (the cache value)."""
    return {
        "format": WINDOW_FORMAT_VERSION,
        "kind": "window",
        "interval": measurement.interval,
        "warm_insts": measurement.warm_insts,
        "insts": measurement.insts,
        "cycles": measurement.cycles,
        "deltas": dict(measurement.deltas),
        "exit_cause": measurement.exit_cause,
    }


def unpack_measurement(doc: object) -> Optional[IntervalMeasurement]:
    """Rebuild a measurement from its packed form (None if unusable)."""
    if not isinstance(doc, dict) or doc.get("kind") != "window" \
            or doc.get("format") != WINDOW_FORMAT_VERSION:
        return None
    return IntervalMeasurement(
        interval=doc["interval"],
        warm_insts=doc["warm_insts"],
        insts=doc["insts"],
        cycles=doc["cycles"],
        deltas=dict(doc["deltas"]),
        exit_cause=doc["exit_cause"],
    )


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowPlan:
    """One representative interval's measurement, fully located."""

    index: int                     # position in merge order
    interval: int                  # interval index within the profile
    weight: float                  # raw cluster weight (pre-normalised)
    start_inst: int                # absolute inst count the window opens at
    warm_start: int                # checkpoint position (clamped to anchor)
    length: int                    # committed insts inside the interval

    @property
    def pre_insts(self) -> int:
        """Warmup instructions between the checkpoint and the window."""
        return self.start_inst - self.warm_start

    @property
    def total_insts(self) -> int:
        return self.pre_insts + self.length


@dataclass
class SamplePlan:
    """Everything a sampled run decides before measuring anything.

    ``exact`` plans carry no windows: the degenerate configuration
    (k >= n_intervals) runs one uninterrupted detailed simulation via
    :func:`exact_payload` instead.
    """

    job: Any                       # the SampledJob being planned
    profile: IntervalProfile
    exact: bool
    k: int
    bic: float
    sse: float
    windows: list[WindowPlan] = field(default_factory=list)
    checkpoints: dict[int, Checkpoint] = field(default_factory=dict)
    #: warm_start -> checkpoint content digest (computed once per plan)
    digests: dict[int, str] = field(default_factory=dict)

    def window_jobs(self) -> list[WindowJob]:
        """The windows as content-addressed cache entries, plan order."""
        job = self.job
        return [WindowJob(workload=job.workload, cpu_model=job.cpu_model,
                          scale=job.scale, interval=w.interval,
                          start_inst=w.start_inst, length=w.length,
                          pre_insts=w.pre_insts,
                          ckpt_digest=self.digests[w.warm_start],
                          mode=job.mode,
                          checkpoint=self.checkpoints[w.warm_start])
                for w in self.windows]


def cluster_profile(profile: IntervalProfile, job: Any) -> Clustering:
    """Cluster a profile exactly as the job's knobs dictate."""
    points = project_bbvs(profile.intervals, seed=job.seed)
    if job.k:
        return kmeans(points, min(job.k, len(points)), seed=job.seed + job.k)
    return choose_k(points, max_k=job.max_k, seed=job.seed)


def plan_windows(profile: IntervalProfile, reps: list[tuple[int, float]],
                 warmup_insts: int) -> list[WindowPlan]:
    """Locate each representative's checkpoint and measurement window.

    The checkpoint sits ``warmup_insts`` before the interval, clamped
    to the ROI anchor so the guest's mid-run stats reset can only fire
    as the very first restored instruction.  Pure — property-tested in
    isolation over arbitrary profiles and representative sets.
    """
    anchor = profile.roi_anchor
    windows = []
    for index, (interval, weight) in enumerate(reps):
        start = profile.interval_start(interval)
        windows.append(WindowPlan(
            index=index,
            interval=interval,
            weight=weight,
            start_inst=start,
            warm_start=max(anchor, start - warmup_insts),
            length=profile.interval_length(interval),
        ))
    return windows


def plan_sampled_job(job: Any) -> SamplePlan:
    """Profile, cluster, and checkpoint one sampled job (no measuring)."""
    workload = get_workload(job.workload)
    if workload.mode != "se":
        raise SampleError(
            f"workload {job.workload!r} runs in {workload.mode!r} mode; "
            "sampling requires SE-mode checkpoints")
    if job.mode != "se":
        raise SampleError(f"sampled jobs are SE-mode only, got {job.mode!r}")
    program = workload.build(job.scale)
    profile = profile_intervals(program, job.workload, job.scale,
                                job.interval_insts)
    n = profile.n_intervals
    if n == 0:
        raise SampleError(
            f"workload {job.workload!r} at scale {job.scale!r} committed "
            "no ROI instructions; nothing to sample")
    if job.k and job.k >= n:
        return SamplePlan(job=job, profile=profile, exact=True,
                          k=n, bic=0.0, sse=0.0)

    clustering = cluster_profile(profile, job)
    reps = select_representatives(
        project_bbvs(profile.intervals, seed=job.seed), clustering)
    if len(reps) >= n:
        return SamplePlan(job=job, profile=profile, exact=True,
                          k=n, bic=0.0, sse=0.0)

    windows = plan_windows(profile, reps, job.warmup_insts)
    checkpoints = take_checkpoints_at(
        program, job.workload, [w.warm_start for w in windows])
    digests = {warm_start: checkpoint_digest(ckpt)
               for warm_start, ckpt in checkpoints.items()}
    return SamplePlan(job=job, profile=profile, exact=False,
                      k=clustering.k, bic=clustering.bic,
                      sse=clustering.sse, windows=windows,
                      checkpoints=checkpoints, digests=digests)


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def merge_measurements(job: Any, plan: SamplePlan,
                       measurements: list[IntervalMeasurement]) -> dict:
    """Weighted reconstruction of a plan's measurements into the payload.

    ``measurements`` must align with ``plan.windows`` (plan order, i.e.
    representatives sorted by interval index) — *not* completion order.
    Given that alignment the result is a pure function of the inputs,
    which is what makes runs byte-identical at any worker count.
    """
    if plan.exact:
        raise ValueError("exact plans have no windows to merge")
    if len(measurements) != len(plan.windows):
        raise ValueError(f"{len(measurements)} measurements for "
                         f"{len(plan.windows)} planned windows")
    weights = [w.weight for w in plan.windows]
    rep_docs = [{"interval": w.interval, "weight": w.weight,
                 "start_inst": w.start_inst, "length": w.length,
                 "warmup": w.pre_insts}
                for w in plan.windows]
    detailed = sum(w.total_insts for w in plan.windows)
    total = sum(weights)
    weights = [w / total for w in weights]
    estimates = reconstruct(measurements, weights, plan.profile.roi_insts)
    return build_payload(job, plan.profile, exact=False, k=plan.k,
                         bic=plan.bic, sse=plan.sse,
                         representatives=rep_docs,
                         detailed_insts=detailed, estimates=estimates)


def exact_payload(job: Any, profile: IntervalProfile) -> dict:
    """Full detailed run — the degenerate (k >= n_intervals) case."""
    program = get_workload(job.workload).build(job.scale)
    system = System(SimConfig(cpu_model=job.cpu_model, mode="se",
                              record=False))
    system.set_se_workload(program, process_name=job.workload)
    simulate(system)
    finals = scalar_snapshot(system)
    roi = max(1, profile.roi_insts)
    estimates = {key: StatEstimate(value=value, ci95=0.0,
                                   per_inst=value / roi)
                 for key, value in finals.items()}
    n = profile.n_intervals
    reps = [{"interval": i, "weight": 1.0 / n,
             "start_inst": profile.interval_start(i),
             "length": profile.interval_length(i), "warmup": 0}
            for i in range(n)]
    return build_payload(job, profile, exact=True, k=n, bic=0.0, sse=0.0,
                         representatives=reps,
                         detailed_insts=profile.roi_insts,
                         estimates=estimates)


def build_payload(job: Any, profile: IntervalProfile, *, exact: bool,
                  k: int, bic: float, sse: float,
                  representatives: list[dict], detailed_insts: int,
                  estimates: dict[str, StatEstimate]) -> dict:
    """The JSON-safe sampled payload (cache value, serve result)."""
    roi = max(1, profile.roi_insts)
    return {
        "format": SAMPLE_FORMAT_VERSION,
        "kind": "sample",
        "workload": job.workload,
        "cpu_model": job.cpu_model,
        "scale": job.scale,
        "config": {
            "interval_insts": job.interval_insts,
            "warmup_insts": job.warmup_insts,
            "k": job.k,
            "max_k": job.max_k,
            "seed": job.seed,
        },
        "profile": {
            "total_insts": profile.total_insts,
            "roi_anchor": profile.roi_anchor,
            "roi_insts": profile.roi_insts,
            "n_intervals": profile.n_intervals,
            "exit_cause": profile.exit_cause,
        },
        "clusters": {
            "k": k,
            "bic": bic,
            "sse": sse,
            "representatives": representatives,
        },
        "exact": exact,
        "detailed_insts": detailed_insts,
        "sampled_fraction": detailed_insts / roi,
        "estimates": {key: est.to_doc()
                      for key, est in sorted(estimates.items())},
        "derived": derived_ratios(estimates),
    }
