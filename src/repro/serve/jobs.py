"""Job model for the simulation service.

A client submits a JSON document describing one g5 simulation
(``kind: "g5"``), one paper-figure regeneration (``kind: "figure"``),
or — with ``"sampled": true`` on a g5 document — one SimPoint-style
sampled simulation resolved through :mod:`repro.sample`.
:func:`parse_job_request` validates it against the workload/figure
registries and produces a :class:`JobRequest`; the daemon then tracks
its lifecycle in a :class:`JobRecord`.

Every request carries a **coalescing digest**: for g5 jobs it is the
``repro.exec.keys`` cache-key digest itself (so the in-flight dedupe
and the disk cache agree about what "identical" means), and for figure
jobs a content hash over the figure id, replay knobs, and the host-side
code fingerprint.  Two submissions with equal digests can never produce
different results, which is what makes fanning one execution out to all
waiters sound.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Optional

from ..exec.keys import hash_document, host_fingerprint
from ..exec.pool import G5Job
from ..sample.orchestrate import SampledJob
from ..workloads.registry import SCALES, WORKLOADS, get_workload
from . import clock

#: CPU models a job may request (the registry's four).
CPU_MODELS = ("atomic", "timing", "minor", "o3")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States from which a job can never move again.
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))


class JobRequestError(ValueError):
    """A submission document that cannot become a job."""


@dataclass(frozen=True)
class JobRequest:
    """One validated submission: a g5 simulation, figure, or sample."""

    kind: str                          # "g5" | "figure" | "sample"
    g5: Optional[G5Job] = None
    figure_id: Optional[str] = None
    scale: str = "test"
    max_records: Optional[int] = None
    sampled: Optional["SampledJob"] = None

    @property
    def label(self) -> str:
        if self.kind == "g5":
            return self.g5.label
        if self.kind == "sample":
            return self.sampled.label
        return f"figure {self.figure_id} ({self.scale})"

    def jobs(self) -> list:
        """The engine jobs this request resolves: its g5 job, its
        sampled run, or every g5 run and replay its figure declares."""
        if self.kind == "g5":
            return [self.g5]
        if self.kind == "sample":
            # An equal copy, so the plan it caches is freed at the next
            # cyclic GC (plan and job refer to each other), not kept,
            # checkpoints and all, as long as the record.
            return [replace(self.sampled)]
        from ..experiments import FIGURES
        from ..experiments.runner import ExperimentRunner

        runner = ExperimentRunner(scale=self.scale,
                                  max_records=self.max_records)
        return runner.figure_jobs([FIGURES[self.figure_id]])

    def digest(self) -> str:
        """The coalescing digest (shared with the disk cache for g5)."""
        if self.kind == "g5":
            return self.g5.cache_key().digest
        if self.kind == "sample":
            return self.sampled.cache_key().digest
        return hash_document("figure", {
            "code": host_fingerprint(), "figure": self.figure_id,
            "scale": self.scale, "max_records": self.max_records})[0]

    def describe(self) -> dict:
        if self.kind == "g5":
            doc = {"kind": "g5", "workload": self.g5.workload,
                   "cpu_model": self.g5.cpu_model, "mode": self.g5.mode,
                   "scale": self.g5.scale}
            if self.g5.threads > 1:
                doc["threads"] = self.g5.threads
            if self.g5.cores > 1:
                doc["cores"] = self.g5.cores
            return doc
        if self.kind == "sample":
            return {"kind": "sample", **asdict(self.sampled)}
        return {"kind": "figure", "figure": self.figure_id,
                "scale": self.scale, "max_records": self.max_records}


def parse_job_request(doc: object) -> JobRequest:
    """Validate a submission document into a :class:`JobRequest`."""
    if not isinstance(doc, dict):
        raise JobRequestError("job document must be a JSON object")
    kind = doc.get("kind", "g5")
    if kind == "g5":
        if doc.get("sampled"):
            return _parse_sampled(doc)
        return _parse_g5(doc)
    if kind == "sample":
        return _parse_sampled(doc)
    if kind == "figure":
        return _parse_figure(doc)
    raise JobRequestError(
        f"unknown job kind {kind!r}; expected 'g5', 'sample', or "
        "'figure'")


def _parse_scale(doc: dict) -> str:
    scale = doc.get("scale", "test")
    if scale not in SCALES:
        raise JobRequestError(
            f"unknown scale {scale!r}; choose from {', '.join(SCALES)}")
    return scale


def _parse_g5(doc: dict) -> JobRequest:
    workload = doc.get("workload")
    # isinstance first: an unhashable workload (e.g. a nested dict)
    # must 400, not TypeError the handler thread with no response.
    if not isinstance(workload, str) or workload not in WORKLOADS:
        raise JobRequestError(
            f"unknown workload {workload!r}; choose from "
            f"{', '.join(sorted(WORKLOADS))}")
    cpu_model = doc.get("cpu", "atomic")
    if cpu_model not in CPU_MODELS:
        raise JobRequestError(
            f"unknown cpu model {cpu_model!r}; choose from "
            f"{', '.join(CPU_MODELS)}")
    scale = _parse_scale(doc)
    mode = doc.get("mode") or get_workload(workload).mode
    if mode not in ("se", "fs"):
        raise JobRequestError(f"unknown mode {mode!r}; expected 'se' "
                              "or 'fs'")
    threads = _parse_int(doc, "threads", 1, 1)
    cores = _parse_int(doc, "cores", max(1, threads), 1)
    if threads > 1 and not get_workload(workload).threaded:
        raise JobRequestError(
            f"workload {workload!r} has no threaded variant")
    sim_config = None
    if cores > 1:
        from ..g5.system import SimConfig

        try:
            sim_config = SimConfig(cpu_model=cpu_model, mode=mode,
                                   cores=cores)
        except ValueError as exc:
            raise JobRequestError(str(exc)) from None
    job = G5Job(workload=workload, cpu_model=cpu_model, mode=mode,
                scale=scale, sim_config=sim_config, threads=threads)
    return JobRequest(kind="g5", g5=job, scale=scale)


def _parse_int(doc: dict, name: str, default: int, minimum: int) -> int:
    value = doc.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise JobRequestError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _parse_sampled(doc: dict) -> JobRequest:
    """A g5 document with ``sampled: true`` (or ``kind: "sample"``)."""
    workload = doc.get("workload")
    if not isinstance(workload, str) or workload not in WORKLOADS:
        raise JobRequestError(
            f"unknown workload {workload!r}; choose from "
            f"{', '.join(sorted(WORKLOADS))}")
    if get_workload(workload).mode != "se":
        raise JobRequestError(
            f"workload {workload!r} runs in FS mode; sampled jobs need "
            "SE-mode checkpoints")
    cpu_model = doc.get("cpu", "o3")
    if cpu_model not in CPU_MODELS:
        raise JobRequestError(
            f"unknown cpu model {cpu_model!r}; choose from "
            f"{', '.join(CPU_MODELS)}")
    scale = _parse_scale(doc)
    defaults = SampledJob(workload=workload)
    job = SampledJob(
        workload=workload,
        cpu_model=cpu_model,
        scale=scale,
        interval_insts=_parse_int(doc, "interval_insts",
                                  defaults.interval_insts, 1),
        warmup_insts=_parse_int(doc, "warmup_insts",
                                defaults.warmup_insts, 0),
        k=_parse_int(doc, "k", defaults.k, 0),
        max_k=_parse_int(doc, "max_k", defaults.max_k, 1),
        seed=_parse_int(doc, "seed", defaults.seed, 0),
    )
    return JobRequest(kind="sample", sampled=job, scale=scale)


def _parse_figure(doc: dict) -> JobRequest:
    from ..experiments import FIGURES

    figure_id = doc.get("figure")
    if figure_id not in FIGURES:
        raise JobRequestError(
            f"unknown figure {figure_id!r}; choose from "
            f"{', '.join(sorted(FIGURES))}")
    scale = _parse_scale(doc)
    max_records = doc.get("max_records")
    if max_records is not None:
        if not isinstance(max_records, int) or max_records < 1:
            raise JobRequestError("max_records must be a positive integer")
    return JobRequest(kind="figure", figure_id=figure_id, scale=scale,
                      max_records=max_records)


@dataclass
class JobRecord:
    """One tracked job: the request plus its lifecycle state.

    State transitions are guarded by the owning queue's lock; the
    ``finished`` event lets the drain and every ``?wait=`` request
    block on completion without polling.
    """

    #: the state a claimed job is in (a coordinator's jobs are
    #: "dispatched" to a worker, not running in this process)
    claimed_state: ClassVar[str] = RUNNING

    id: str
    request: JobRequest
    digest: str
    predicted_seconds: float = 0.0
    state: str = QUEUED
    submitted_at: float = field(default_factory=clock.wall)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    #: how the result was obtained: "executed" | "disk-cache" | "memo"
    #: | "coalesced:<primary job id>"
    source: Optional[str] = None
    #: the packed payload (see repro.g5.serialize for g5 jobs) as its
    #: JSON text, ``json.dumps(payload, sort_keys=True)``, encoded once
    #: when the result is produced or relayed
    result: Optional[str] = None
    #: primary job this submission was coalesced into, if any
    coalesced_into: Optional[str] = None
    #: job ids coalesced into this primary
    waiters: list = field(default_factory=list)
    finished: threading.Event = field(default_factory=threading.Event,
                                      repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_doc(self) -> dict:
        """The JSON document ``GET /api/v1/jobs/<id>`` returns."""
        doc = {
            "id": self.id,
            "state": self.state,
            "request": self.request.describe(),
            "digest": self.digest,
            "predicted_seconds": round(self.predicted_seconds, 4),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "source": self.source,
            "error": self.error,
            "coalesced_into": self.coalesced_into,
            "waiters": list(self.waiters),
        }
        return doc
