"""Experiment runner: caching layers between g5 runs and host replays.

Every figure needs some subset of the same expensive artifacts — g5
traces per (workload, CPU model, mode, guest thread count) and host
replays per (trace, platform, knobs).  The runner resolves each artifact through three
layers:

1. an in-process memo, so one figure campaign computes each artifact
   once per process;
2. the content-addressed disk cache (:mod:`repro.exec`), when one is
   attached, so artifacts survive the process and campaigns restart
   warm; and
3. actual execution — fanned across a process pool for g5 cache misses
   (``jobs > 1``), scheduled predicted-longest-first by the executor's
   cost model.

:meth:`ExperimentRunner.prefetch` resolves a whole experiment matrix in
one parallel batch; the per-figure accessors then hit the memo.  By
default the runner is purely in-memory (seed behaviour); the CLI
attaches the default disk cache.

Traces can be truncated to ``max_records`` before replay (documented
sampling: rate/percentage metrics are stable under truncation; only
absolute wall-clock shrinks proportionally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Union

from ..exec import ExecutionEngine, G5Job, ResultCache
from ..exec.keys import CacheKey, host_key, spec_key
from ..exec.progress import ProgressReporter
from ..g5.system import SimResult
from ..host.binary import BinaryImage
from ..host.corun import Contention
from ..host.cpu import HostCPU, HostRunResult
from ..host.hugepages import HugePagePolicy
from ..host.platform import HostPlatform, get_platform
from ..workloads.registry import get_workload
from ..workloads.spec import SyntheticHostWorkload, build_spec

PlatformLike = Union[str, HostPlatform]


@dataclass(frozen=True)
class _HostKey:
    workload: str
    cpu_model: str
    mode: str
    platform: str
    opt_level: int
    hugepages: str
    contention: Optional[Contention]
    layout_quality: float
    roi_only: bool


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
        self.cache = cache
        self.engine = ExecutionEngine(jobs=jobs, cache=cache,
                                      progress=progress)
        self._g5_cache: dict[tuple[str, str, str, int], SimResult] = {}
        #: replay memos and disk-hit counters, per kind ("host" | "spec")
        self._replays: dict[str, dict[Hashable, HostRunResult]] = {
            "host": {}, "spec": {}}
        self._replay_disk_hits = {"host": 0, "spec": 0}

    # ------------------------------------------------------------------
    # g5 side
    # ------------------------------------------------------------------
    def _g5_job(self, workload: str, cpu_model: str,
                mode: Optional[str] = None, threads: int = 1) -> G5Job:
        spec = get_workload(workload)
        return G5Job(workload=workload, cpu_model=cpu_model,
                     mode=mode or spec.mode, scale=self.scale,
                     threads=threads)

    def g5_result(self, workload: str, cpu_model: str,
                  mode: Optional[str] = None,
                  threads: int = 1) -> SimResult:
        """Run (or fetch) one g5 simulation and its recorded trace.

        ``threads`` is the guest thread count: ``threads > 1`` builds
        the workload's ``-n threads`` variant on a matching multi-core
        (coherent) system.
        """
        job = self._g5_job(workload, cpu_model, mode, threads)
        key = (job.workload, job.cpu_model, job.mode, job.threads)
        cached = self._g5_cache.get(key)
        if cached is not None:
            return cached
        result = self.engine.run(job)
        self._g5_cache[key] = result
        return result

    def prefetch(self, requirements: Iterable[tuple]) -> None:
        """Resolve a batch of ``(workload, cpu_model, mode[, threads])``
        g5 runs.

        Disk-cache misses execute in parallel across the engine's worker
        pool, longest-predicted-first; everything lands in the in-process
        memo so subsequent figure accessors are pure lookups.  The
        fourth tuple element (guest thread count) is optional and
        defaults to 1; the multi-core figures append it.
        """
        jobs: dict[tuple[str, str, str, int], G5Job] = {}
        for requirement in requirements:
            workload, cpu_model, mode = requirement[:3]
            threads = requirement[3] if len(requirement) > 3 else 1
            job = self._g5_job(workload, cpu_model, mode, threads)
            memo_key = (job.workload, job.cpu_model, job.mode, job.threads)
            if memo_key not in self._g5_cache and memo_key not in jobs:
                jobs[memo_key] = job
        if not jobs:
            return
        results = self.engine.run_batch(list(jobs.values()))
        for memo_key, job in jobs.items():
            self._g5_cache[memo_key] = results[job]

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def host_result(self, workload: str, cpu_model: str,
                    platform: PlatformLike,
                    mode: Optional[str] = None,
                    opt_level: int = 2,
                    hugepages: HugePagePolicy = HugePagePolicy.NONE,
                    contention: Optional[Contention] = None,
                    layout_quality: float = 1.0,
                    roi_only: bool = False) -> HostRunResult:
        """Replay one g5 trace on one host configuration (cached).

        ``roi_only`` restricts the replay to the guest-marked region of
        interest (m5 work begin/end), the paper's counter-read window.
        """
        platform_obj = self._resolve(platform)
        spec = get_workload(workload)
        mode = mode or spec.mode
        key = _HostKey(workload, cpu_model, mode, platform_obj.name,
                       opt_level, hugepages.value, contention,
                       layout_quality, roi_only)

        def disk_key() -> CacheKey:
            job = self._g5_job(workload, cpu_model, mode)
            return host_key(job.cache_key(), platform_obj, opt_level,
                            hugepages, contention, layout_quality,
                            roi_only, self.max_records)

        def replay() -> HostRunResult:
            g5 = self.g5_result(workload, cpu_model, mode)
            recorder = g5.recorder
            if roi_only:
                trace_fns, trace_daddrs = recorder.roi_slice()
            else:
                trace_fns = recorder.trace_fns
                trace_daddrs = recorder.trace_daddrs
            if self.max_records is not None \
                    and len(trace_fns) > self.max_records:
                trace_fns = trace_fns[:self.max_records]
                trace_daddrs = trace_daddrs[:self.max_records]
            image = BinaryImage.for_recorder_functions(
                recorder.known_functions(), opt_level=opt_level,
                layout_quality=layout_quality)
            cpu = HostCPU(platform_obj, image, hugepages=hugepages,
                          contention=contention)
            return cpu.replay(trace_fns, trace_daddrs, recorder.fn_names)

        return self._replay("host", key, disk_key, replay)

    def spec_result(self, spec_name: str,
                    platform: PlatformLike) -> HostRunResult:
        """Replay one SPEC synthetic on one platform (cached)."""
        platform_obj = self._resolve(platform)

        def replay() -> HostRunResult:
            workload: SyntheticHostWorkload = build_spec(
                spec_name, n_records=self.spec_records)
            cpu = HostCPU(platform_obj, workload.image)
            return cpu.replay(workload.trace_fns, workload.trace_daddrs,
                              workload.fn_names)

        return self._replay(
            "spec", (spec_name, platform_obj.name),
            lambda: spec_key(spec_name, platform_obj, self.spec_records),
            replay)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _replay(self, kind: str, memo_key: Hashable,
                disk_key: Callable[[], CacheKey],
                replay: Callable[[], HostRunResult]) -> HostRunResult:
        """One replay through the ladder: memo -> disk cache -> compute."""
        memo = self._replays[kind]
        result = memo.get(memo_key)
        if result is not None:
            return result
        key = disk_key() if self.cache is not None else None
        stored = self.cache.get(key) if key is not None else None
        if isinstance(stored, HostRunResult):
            self._replay_disk_hits[kind] += 1
            result = stored
        else:
            result = replay()
            if key is not None:
                self.cache.put(key, result)
        memo[memo_key] = result
        return result

    @staticmethod
    def _resolve(platform: PlatformLike) -> HostPlatform:
        if isinstance(platform, str):
            return get_platform(platform)
        return platform

    def cache_stats(self) -> dict[str, int]:
        """Artifact counts by layer (memo sizes + executor activity)."""
        return {
            "g5_runs": len(self._g5_cache),
            "host_replays": len(self._replays["host"]),
            "spec_replays": len(self._replays["spec"]),
            "g5_executed": self.engine.stats.executed,
            "g5_disk_hits": self.engine.stats.disk_hits,
            "host_disk_hits": self._replay_disk_hits["host"],
            "spec_disk_hits": self._replay_disk_hits["spec"],
        }
