"""Host replays as executor jobs.

A :class:`ReplayJob` names one :class:`~repro.host.cpu.HostRunResult`:
the replay of a trace — a g5 run's recording, or a SPEC synthetic
(:class:`SpecTrace`) — on one host platform under one set of tuning
knobs.  It speaks the job protocol of :mod:`repro.exec.pool`: its g5 run
is its one ``needs()`` sub-job, resolved only when the replay is a miss,
so a replay runs wherever a g5 job runs — inline, or in a pool child.

Replays with equal :meth:`ReplayJob.walk_key` share a trace, an image and
a front end; the engine runs such misses as one :class:`ReplayWalk` task,
which walks the trace once for all of them
(:meth:`~repro.host.cpu.HostCPU.replay_walk`) and returns one result per
member, each equal to the member's replay alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Union

from ..g5.system import SimResult
from ..host.corun import Contention, no_contention
from ..host.cpu import HostCPU, HostRunResult, profile_g5_walk, walk_key
from ..host.hugepages import HugePagePolicy
from ..host.platform import HostPlatform
from ..workloads import spec
from .keys import CacheKey, job_key
from .pool import G5Job


@dataclass(frozen=True)
class SpecTrace:
    """A SPEC synthetic as a replay's trace source."""

    workload: str                  # the benchmark's paper name
    n_records: int

    #: the cost-model vocabulary a G5Job source answers with a field
    scale = "spec"


@dataclass(frozen=True)
class ReplayJob:
    """One host replay the engine can execute or fetch."""

    source: Union[G5Job, SpecTrace]
    platform: HostPlatform
    #: Knobs of the g5 binary image and its replay; a SPEC synthetic
    #: brings its own image and trace, so they apply to g5 sources only.
    opt_level: int = 2
    hugepages: HugePagePolicy = HugePagePolicy.NONE
    contention: Optional[Contention] = None
    layout_quality: float = 1.0
    roi_only: bool = False
    max_records: Optional[int] = None
    cluster_scale: float = 1.0

    @property
    def kind(self) -> str:
        """The cache-key kind: ``"spec"`` or ``"host"``."""
        return "spec" if isinstance(self.source, SpecTrace) else "host"

    @property
    def label(self) -> str:
        """Names the replay, with every knob that is not its default."""
        source = self.source
        if self.kind == "spec":
            return f"spec {source.workload} on {self.platform.name}"
        label = (f"host {source.cpu_model}/{source.workload} "
                 f"on {self.platform.name}")
        changed = ", ".join(
            f"{knob.name}={_knob_text(getattr(self, knob.name))}"
            for knob in fields(self)[2:]
            if getattr(self, knob.name) != knob.default)
        return f"{label} ({changed})" if changed else label

    def sort_key(self) -> tuple:
        return (self.label, self.cache_key().digest)

    #: Cost-model features: the source's scale, and the host platform
    #: as the "CPU model" doing the work.
    scale = property(attrgetter("source.scale"))
    cpu_model = property(attrgetter("platform.name"))

    def knobs(self) -> dict:
        """The replay knobs by name: every field after the first two."""
        return {knob.name: getattr(self, knob.name)
                for knob in fields(self)[2:]}

    def cache_key(self) -> CacheKey:
        return job_key(self)

    def needs(self) -> tuple:
        """A g5 source's run; a SPEC synthetic builds its own trace."""
        return () if self.kind == "spec" else (self.source,)

    def walk_key(self) -> tuple:
        """Replays with equal keys walk their trace once, together: the
        same trace and image, and platforms that differ only where
        :func:`~repro.host.cpu.walk_key` allows.  A replay with
        contention walks alone."""
        if self.contention not in (None, no_contention()):
            return (self,)
        image = () if self.kind == "spec" else tuple(
            (name, value) for name, value in self.knobs().items()
            if name not in ("hugepages", "contention"))
        return (self.source, image, walk_key(self.platform))

    @staticmethod
    def walk(members: list) -> "ReplayWalk":
        """The one task that runs ``members`` (equal walk keys)."""
        return ReplayWalk(tuple(members))

    def execute(self, g5: Optional[SimResult] = None) -> HostRunResult:
        """Replay ``g5``'s recording (the value of :meth:`needs`), or
        build the SPEC synthetic and replay that."""
        return ReplayWalk((self,)).execute(g5)[0]

    @staticmethod
    def decode(stored: object) -> Optional[HostRunResult]:
        return stored if isinstance(stored, HostRunResult) else None


@dataclass(frozen=True)
class ReplayWalk:
    """Replays of one trace that walk it once: one execute-step task,
    whose payload is each member's result, in member order."""

    members: tuple

    def sort_key(self) -> tuple:
        return self.members[0].sort_key()

    def needs(self) -> tuple:
        return self.members[0].needs()

    def execute(self, g5: Optional[SimResult] = None) -> list:
        first = self.members[0]
        if first.kind == "spec":
            synthetic = spec.build_spec(first.source.workload,
                                        n_records=first.source.n_records)
            cpus = [HostCPU(job.platform, synthetic.image)
                    for job in self.members]
            return HostCPU.replay_walk(cpus, synthetic.trace_fns,
                                       synthetic.trace_daddrs,
                                       synthetic.fn_names)
        knobs = first.knobs()
        del knobs["hugepages"], knobs["contention"]
        return profile_g5_walk(
            g5.recorder, [(job.platform, job.hugepages, job.contention)
                          for job in self.members], **knobs)


def _knob_text(value: object) -> str:
    if isinstance(value, Contention):
        return f"x{value.n_processes}" + ("+smt" if value.smt_shared else "")
    return str(getattr(value, "value", value))
