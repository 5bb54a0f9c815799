"""Host replays as executor jobs.

A :class:`ReplayJob` names one :class:`~repro.host.cpu.HostRunResult`:
the replay of a trace — a g5 run's recording, or a SPEC synthetic
(:class:`SpecTrace`) — on one host platform under one set of tuning
knobs.  It speaks the job protocol of :mod:`repro.exec.pool`; the g5 run
a replay needs is a sub-job, resolved only when the replay is a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Union

from ..host.corun import Contention
from ..host.cpu import HostCPU, HostRunResult, profile_g5_run
from ..host.hugepages import HugePagePolicy
from ..host.platform import HostPlatform
from ..workloads import spec
from .keys import CacheKey, host_key, spec_key
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
        source = self.source
        if self.kind == "spec":
            return f"spec {source.workload} on {self.platform.name}"
        return (f"host {source.cpu_model}/{source.workload} "
                f"on {self.platform.name}")

    def sort_key(self) -> tuple:
        return (self.label, self.cache_key().digest)

    #: Cost-model hooks: replays form their own prediction classes, and
    #: the "CPU model" doing the work is the host platform's — so their
    #: durations never enter a g5 class's history.
    @property
    def cost_class(self) -> str:
        return f"replay|{self.label}|{self.scale}"

    workload = property(attrgetter("source.workload"))
    scale = property(attrgetter("source.scale"))
    cpu_model = property(attrgetter("platform.name"))

    def knobs(self) -> dict:
        """The replay knobs by name: every field after the first two."""
        return {knob.name: getattr(self, knob.name)
                for knob in fields(self)[2:]}

    def cache_key(self) -> CacheKey:
        source = self.source
        if self.kind == "spec":
            return spec_key(source.workload, self.platform,
                            source.n_records)
        return host_key(source.cache_key(), self.platform, **self.knobs())

    def fan_out(self, engine, should_abort=None) -> HostRunResult:
        """Replay in this process; a g5 source's recording is resolved
        on ``engine`` first (memo, disk cache or a simulation)."""
        source = self.source
        if self.kind == "spec":
            synthetic = spec.build_spec(source.workload,
                                        n_records=source.n_records)
            cpu = HostCPU(self.platform, synthetic.image)
            return cpu.replay(synthetic.trace_fns, synthetic.trace_daddrs,
                              synthetic.fn_names)
        g5 = engine.resolve([source], should_abort)[source].value
        return profile_g5_run(g5.recorder, self.platform, **self.knobs())

    @staticmethod
    def decode(stored: object) -> Optional[HostRunResult]:
        return stored if isinstance(stored, HostRunResult) else None
