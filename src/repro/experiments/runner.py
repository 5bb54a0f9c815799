"""Experiment runner: every artifact a figure needs is a job.

Every figure needs some subset of the same expensive artifacts — g5
traces per (workload, CPU model, mode, guest thread count) and host
replays per (trace, platform, knobs).  The runner names each one as a
job (:class:`~repro.exec.G5Job`, :class:`~repro.exec.ReplayJob`) and
resolves it on its :class:`~repro.exec.ExecutionEngine` through one
``{job: value}`` memo, so a campaign computes each artifact once per
process; behind the memo the engine probes the content-addressed disk
cache, when one is attached, and executes what is left — inline at
``jobs == 1``, otherwise g5 runs and then replays fanned across a
process pool highest-price-first.

:meth:`ExperimentRunner.prefetch_figures` resolves everything a set of
figure modules declares (``required_g5()`` and, for figures that
replay, ``required_replays(runner)``) in pooled batches; the per-figure
accessors then hit the memo.  By default the runner is purely in-memory
(seed behaviour); the CLI attaches the default disk cache.

``max_records`` replays only the first N records of each trace (Fig.
14's sweep excepted): a start-up prefix, not a sample of the run, so
rate and percentage metrics read the prefix and can differ from the
whole run's.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Union

from ..exec import ExecutionEngine, ReplayJob, ResultCache, SpecTrace
from ..exec.progress import ProgressReporter
from ..g5.system import SimResult
from ..host.cpu import HostRunResult
from ..host.platform import HostPlatform, get_platform
from .common import requirement_job

PlatformLike = Union[str, HostPlatform]


class ExperimentRunner:
    """Caches g5 simulations and host replays across experiments."""

    def __init__(self, scale: str = "simsmall",
                 max_records: Optional[int] = None,
                 spec_records: int = 30000,
                 jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressReporter] = None) -> None:
        self.scale = scale
        self.max_records = max_records
        self.spec_records = spec_records
        #: every artifact resolved in this process, keyed by its job
        self._memo: dict = {}
        self.engine = ExecutionEngine(jobs=jobs, cache=cache,
                                      progress=progress, memo=self._memo)

    # ------------------------------------------------------------------
    # g5 side
    # ------------------------------------------------------------------
    def g5_result(self, workload: str, cpu_model: str,
                  mode: Optional[str] = None,
                  threads: int = 1) -> SimResult:
        """Run (or fetch) one g5 simulation and its recorded trace.

        ``threads`` is the guest thread count: ``threads > 1`` builds
        the workload's ``-n threads`` variant on a matching multi-core
        (coherent) system.
        """
        return self.engine.run(requirement_job(
            (workload, cpu_model, mode, threads), self.scale))

    def prefetch(self, requirements: Iterable[tuple]) -> None:
        """Resolve a batch of ``(workload, cpu_model, mode[, threads])``
        g5 runs.

        Disk-cache misses execute in parallel across the engine's worker
        pool, highest-price-first; everything lands in the in-process
        memo so subsequent figure accessors are pure lookups.  The
        fourth tuple element (guest thread count) is optional and
        defaults to 1; the multi-core figures append it.
        """
        self.engine.run_batch(requirement_job(requirement, self.scale)
                              for requirement in requirements)

    def figure_jobs(self, modules: Iterable, **args) -> list:
        """Every job the figure modules declare for ``run(self, **args)``:
        their g5 runs (``required_g5``) and replays
        (``required_replays``)."""
        jobs = []
        for module in modules:
            jobs += [requirement_job(requirement, self.scale)
                     for requirement in module.required_g5(**args)]
            if hasattr(module, "required_replays"):
                jobs += module.required_replays(self, **args)
        return jobs

    def prefetch_figures(self, modules: Iterable, **args) -> None:
        """Resolve :meth:`figure_jobs` in one batch, so ``run`` reads
        only the memo."""
        self.engine.run_batch(self.figure_jobs(modules, **args))

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def host_job(self, workload: str, cpu_model: str,
                 platform: PlatformLike,
                 mode: Optional[str] = None,
                 truncate: bool = True, **knobs) -> ReplayJob:
        """The replay of one g5 trace on one host configuration.

        ``knobs`` are :class:`~repro.exec.ReplayJob`'s — ``opt_level``,
        ``hugepages``, ``contention``, ``layout_quality``,
        ``cluster_scale`` and ``roi_only`` (replay only the guest-marked
        region of interest, the paper's counter-read window);
        ``truncate=False`` replays the whole trace whatever the
        runner's ``max_records``.
        """
        return ReplayJob(
            requirement_job((workload, cpu_model, mode), self.scale),
            self._resolve(platform),
            max_records=self.max_records if truncate else None, **knobs)

    def spec_job(self, spec_name: str, platform: PlatformLike) -> ReplayJob:
        """The replay of one SPEC synthetic on one platform."""
        return ReplayJob(SpecTrace(spec_name, self.spec_records),
                         self._resolve(platform))

    def host_result(self, *args, **kwargs) -> HostRunResult:
        """Run (or fetch) :meth:`host_job`'s replay."""
        return self.engine.run(self.host_job(*args, **kwargs))

    def spec_result(self, spec_name: str,
                    platform: PlatformLike) -> HostRunResult:
        """Run (or fetch) :meth:`spec_job`'s replay."""
        return self.engine.run(self.spec_job(spec_name, platform))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(platform: PlatformLike) -> HostPlatform:
        if isinstance(platform, str):
            return get_platform(platform)
        return platform

    def cache_stats(self) -> dict[str, int]:
        """Artifact counts by layer (memo sizes + executor activity)."""
        replays = Counter(job.kind for job in self._memo
                          if isinstance(job, ReplayJob))
        stats = self.engine.stats
        return {
            "g5_runs": len(self._memo) - sum(replays.values()),
            "host_replays": replays["host"],
            "spec_replays": replays["spec"],
            "g5_executed": stats.executed,
            "g5_disk_hits": stats.disk_hits,
            "host_disk_hits": stats.replay_hits["host"],
            "spec_disk_hits": stats.replay_hits["spec"],
        }
