"""The parallel, disk-cached execution engine.

A *job* names one cacheable unit of work: a g5 simulation
(:class:`G5Job`), a host replay of a g5 or SPEC trace
(:class:`~repro.exec.replay.ReplayJob`), one SimPoint window measurement
(:class:`~repro.sample.parallel.WindowJob`) or a whole sampled run
(:class:`~repro.sample.orchestrate.SampledJob`).  Every kind speaks one
protocol — ``cache_key()``, ``label``, ``sort_key()``, the cost-model
hooks, ``decode(stored)`` (the decoded value, or None to reject a cache
entry) and either ``execute(*values)`` (run anywhere, return the stored
payload) or ``fan_out(engine, should_abort)`` (run here, resolving
sub-jobs on the engine); ``needs()``, if defined, names the sub-jobs
whose values ``execute`` takes — and :meth:`ExecutionEngine.resolve` is
the one pipeline every kind and every owner (CLI, experiment runner,
serve daemon) goes through:

1. probe the content-addressed disk cache (:mod:`repro.exec.cache`);
2. resolve the misses' needs in one nested ``resolve`` (memo, disk,
   pool — a need the batch also lists runs once);
3. order the misses predicted-longest-first
   (:mod:`repro.exec.costmodel`) so the O3/FS stragglers start first;
4. run them — inline when one worker suffices, otherwise across the
   execute step's process pool — in one completion loop that polls
   ``should_abort``;
5. store, observe and count every result in one place.

Payloads are plain builtins (see :mod:`repro.g5.serialize`), which is
also the cache value format — so a result is bit-identical whether it
came from a worker, the disk, or an inline run.  Simulation is
deterministic, so executing a job twice can never produce two different
cache values.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, \
    ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from ..g5.serialize import pack_sim_result, unpack_sim_result
from ..g5.system import SimConfig, SimResult, System, simulate
from ..workloads.registry import get_workload
from .cache import ResultCache
from .costmodel import CostModel
from .keys import CacheKey, g5_key
from .progress import NullReporter, ProgressReporter

#: Poll interval for ``should_abort`` while jobs are in flight.
_ABORT_POLL_SECONDS = 0.05

#: Cache-key kinds of host replays (:mod:`repro.exec.replay`).
REPLAY_KINDS = ("host", "spec")


@dataclass(frozen=True)
class G5Job:
    """One g5 simulation the engine can execute or fetch."""

    workload: str
    cpu_model: str
    mode: str
    scale: str
    sim_config: Optional[SimConfig] = None
    #: Guest thread count for workloads with a threaded variant; the
    #: default system gets one core per thread.
    threads: int = 1

    #: the cache-key kind; the cost model fits each kind on its own runs
    kind = "g5"

    @property
    def cores(self) -> int:
        """Simulated core count (feeds the cost model's class/weight)."""
        if self.sim_config is not None:
            return self.sim_config.cores
        return max(1, self.threads)

    @property
    def label(self) -> str:
        base = f"{self.cpu_model}/{self.workload}"
        if self.threads > 1:
            base += f" x{self.threads}"
        return f"{base} ({self.mode}, {self.scale})"

    def sort_key(self) -> tuple:
        return (self.workload, self.cpu_model, self.mode, self.scale,
                self.threads)

    def cache_key(self) -> CacheKey:
        return g5_key(self.workload, self.cpu_model, self.mode, self.scale,
                      self.sim_config, threads=self.threads)

    def execute(self) -> dict:
        return pack_sim_result(execute_g5_job(self))

    @staticmethod
    def decode(stored: object) -> Optional[SimResult]:
        try:
            return unpack_sim_result(stored)
        except Exception:  # noqa: BLE001 - any unusable entry is a miss
            return None


def execute_g5_job(job: G5Job) -> SimResult:
    """Run one g5 simulation to completion (no caching)."""
    spec = get_workload(job.workload)
    program = spec.build(job.scale, threads=job.threads)
    if job.sim_config is not None:
        config = job.sim_config
    else:
        config = SimConfig(cpu_model=job.cpu_model, mode=job.mode,
                           cores=max(1, job.threads))
    system = System(config)
    if job.mode == "se":
        system.set_se_workload(program, process_name=job.workload)
    else:
        system.set_fs_workload(program)
    return simulate(system)


def execute_job(job, *values) -> tuple[object, float]:
    """Run one leaf job on its needs' ``values``: ``(payload, seconds)``.

    The picklable entry point process-pool workers are handed, and what
    an inline run calls — one function, so both pack identically.
    """
    start = time.perf_counter()
    payload = job.execute(*values)
    return payload, time.perf_counter() - start


def _needs(job) -> tuple:
    """The sub-jobs ``job`` executes on (none unless it says so)."""
    return job.needs() if hasattr(job, "needs") else ()


def _run_now(fn: Callable, *args) -> Future:
    """``fn(*args)`` run in this thread, as an already-settled future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:  # noqa: BLE001 - re-raised by result()
        future.set_exception(exc)
    return future


class WindowsCancelled(RuntimeError):
    """``should_abort`` fired before every job of a fan-out resolved."""

    def __init__(self, completed: int, cancelled: int) -> None:
        super().__init__(f"cancelled mid-fan-out: {completed} windows "
                         f"resolved, {cancelled} abandoned")
        self.completed = completed
        self.cancelled = cancelled


class Resolved(NamedTuple):
    """One resolved job: the stored payload (None from the memo, which
    keeps values only), its decoded value, and where it came from
    (``"memo"``, ``"disk-cache"`` or ``"executed"``)."""

    payload: object
    value: object
    source: str


@dataclass
class EngineStats:
    """What the engine actually did, for summaries and the smoke test.

    Counters mutate through the ``note_*`` methods, which take an
    internal lock — the serve daemon's worker threads record into one
    shared instance concurrently, and ``/metrics`` scrapes it from yet
    another thread.  Direct field reads stay cheap for the single-
    threaded CLI paths.
    """

    executed: int = 0        # simulations actually run (pool or inline)
    disk_hits: int = 0       # results served from the on-disk cache
    executed_seconds: float = 0.0
    windows_executed: int = 0  # sampled windows measured (pool or inline)
    window_hits: int = 0       # windows served from the on-disk cache
    window_seconds: float = 0.0
    #: host/spec replays by key kind: whole artifacts like simulations,
    #: but counted apart so ``executed`` keeps meaning g5 work
    replays_executed: Counter = field(default_factory=Counter)
    replay_hits: Counter = field(default_factory=Counter)
    sharded_runs: int = 0          # simulations executed with domains > 1
    domain_windows: int = 0        # quantum windows across sharded runs
    boundary_deliveries: int = 0   # cross-domain packet deliveries
    by_label: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def note_execution(self, label: str, seconds: float,
                       kind: str = "g5") -> None:
        """Record one executed job of cache-key ``kind`` (thread-safe).

        Windows are sub-jobs of a sampled run and replays are not
        simulations, so both get their own counters — ``executed``
        keeps meaning whole g5 or sampled jobs.
        """
        with self._lock:
            if kind == "window":
                self.windows_executed += 1
                self.window_seconds += seconds
            elif kind in REPLAY_KINDS:
                self.replays_executed[kind] += 1
            else:
                self.executed += 1
                self.executed_seconds += seconds
            self.by_label[label] = round(seconds, 3)

    def note_executed_batch(self, count: int,
                            seconds: float = 0.0) -> None:
        """Fold in executions counted elsewhere (e.g. a nested runner)."""
        with self._lock:
            self.executed += count
            self.executed_seconds += seconds

    def note_disk_hit(self, count: int = 1, kind: str = "g5") -> None:
        """Record results served from the on-disk cache (thread-safe)."""
        with self._lock:
            if kind == "window":
                self.window_hits += count
            elif kind in REPLAY_KINDS:
                self.replay_hits[kind] += count
            else:
                self.disk_hits += count

    def note_sharded_run(self, sharding: Optional[dict]) -> None:
        """Fold in one executed simulation's sharding counters.

        ``sharding`` is :attr:`~repro.g5.system.SimResult.sharding`
        (``None`` for single-queue runs, which keeps this a no-op on
        the default path).
        """
        if not sharding:
            return
        with self._lock:
            self.sharded_runs += 1
            self.domain_windows += int(sharding.get("windows", 0))
            self.boundary_deliveries += int(sharding.get("deliveries", 0))

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return {"g5_executed": self.executed,
                    "g5_disk_hits": self.disk_hits,
                    "g5_executed_seconds": round(self.executed_seconds, 3),
                    "windows_executed": self.windows_executed,
                    "window_hits": self.window_hits,
                    "window_seconds": round(self.window_seconds, 3),
                    "sharded_runs": self.sharded_runs,
                    "domain_windows": self.domain_windows,
                    "boundary_deliveries": self.boundary_deliveries}


class ExecutionEngine:
    """Resolves jobs through the disk cache and an execute step.

    ``submit`` is the execute step for leaf jobs — ``submit(job,
    *values)`` returns a future of ``(payload, seconds)``.  The serve
    scheduler passes its persistent pool; left unset, the engine runs
    inline or in a pool of its own that lives for one :meth:`resolve`.

    ``memo`` is a ``{job: value}`` map its owner keeps (the experiment
    runner: for one campaign).  :meth:`resolve` answers from it first
    and adds every value it resolves — needs and sub-jobs of a fan-out
    included, so a replay never probes the disk for a g5 run the
    process has.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 cost_model: Optional[CostModel] = None,
                 progress: Optional[ProgressReporter] = None,
                 submit: Optional[Callable[..., Future]] = None,
                 memo: Optional[dict] = None) -> None:
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        if cost_model is None:
            history = cache.costs_path if cache is not None else None
            cost_model = CostModel(history)
        self.cost_model = cost_model
        self.progress = progress if progress is not None else NullReporter()
        self.stats = EngineStats()
        self._submit = submit
        self.memo = memo

    def run(self, job):
        """Resolve one job to its decoded value (a g5 job's
        :class:`SimResult`, a replay's ``HostRunResult``)."""
        return self.resolve([job])[job].value

    def run_batch(self, jobs: Iterable) -> dict:
        """Resolve a job set, fanning cache misses across the pool.

        Duplicate jobs collapse to one execution.  Results come back for
        every requested job regardless of how each was satisfied.
        """
        return {job: resolved.value
                for job, resolved in self.resolve(jobs).items()}

    def run_sampled(self, job) -> dict:
        """Resolve one :class:`~repro.sample.SampledJob` payload.

        The job plans its windows and resolves them on this engine, each
        as its own content-addressed entry; the merged payload is
        byte-identical at every ``jobs``.
        """
        return self.resolve([job])[job].payload

    # ------------------------------------------------------------------
    # the pipeline: probe -> needs -> schedule -> execute -> store
    # ------------------------------------------------------------------
    def resolve(self, jobs: Iterable,
                should_abort: Optional[Callable[[], bool]] = None
                ) -> dict:
        """Resolve every job; returns ``{job: Resolved}``.

        ``should_abort`` is polled before each start and between
        completions; when it returns true the fan-out stops with
        :class:`WindowsCancelled` (it may also raise, e.g. a timeout).
        However a fan-out ends, every job that completed is stored and
        counted, not-yet-started ones are cancelled, and the first
        error is raised.
        """
        jobs = list(dict.fromkeys(jobs))
        memo = self.memo if self.memo is not None else {}
        resolved = {job: Resolved(None, memo[job], "memo")
                    for job in jobs if job in memo}
        keys = {job: job.cache_key() for job in jobs if job not in memo}
        if not keys:
            return resolved
        for job, key in keys.items():
            stored = self.cache.get(key) if self.cache is not None else None
            value = job.decode(stored) if stored is not None else None
            if value is not None:
                self.stats.note_disk_hit(kind=key.kind)
                resolved[job] = Resolved(stored, value, "disk-cache")
        misses = [job for job in keys if job not in resolved]
        hits = len(keys) - len(misses)
        values = self._resolve_needs(misses, keys, resolved, should_abort)
        ordered = self.cost_model.schedule(
            [job for job in misses if job not in resolved])
        workers = max(1, min(self.jobs, len(ordered)))
        # One job is not a batch: it reports its own line, no header.
        batch = len(keys) > 1
        if batch:
            self.progress.batch_start(len(ordered), hits, workers)
        if ordered:
            try:
                self._execute(ordered, workers, should_abort, keys, resolved,
                              values)
            finally:
                self.cost_model.flush()
        if batch:
            self.progress.batch_end()
        memo.update((job, resolved[job].value) for job in keys)
        return resolved

    def _resolve_needs(self, misses: list, keys: dict, resolved: dict,
                       should_abort: Optional[Callable[[], bool]]) -> dict:
        """``{need: value}`` for the needs of ``misses``: those this batch
        has not answered resolve in one nested :meth:`resolve`, once."""
        needs = list(dict.fromkeys(
            need for job in misses for need in _needs(job)))
        nested = self.resolve([need for need in needs if need not in resolved],
                              should_abort)
        resolved.update((need, got) for need, got in nested.items()
                        if need in keys)
        found = {**resolved, **nested}
        return {need: found[need].value for need in needs}

    def _execute(self, ordered: list, workers: int,
                 should_abort: Optional[Callable[[], bool]],
                 keys: dict, resolved: dict, values: dict) -> None:
        """Run the misses on their needs' ``values``; fill ``resolved``."""
        total = len(resolved) + len(ordered)
        waiting = ordered[::-1]
        pending: dict[Future, object] = {}
        poll = _ABORT_POLL_SECONDS if should_abort is not None else None
        with self._execute_step(workers) as (submit, capacity):
            try:
                while waiting or pending:
                    if should_abort is not None and should_abort():
                        raise WindowsCancelled(len(resolved),
                                               total - len(resolved))
                    while waiting and len(pending) < capacity:
                        job = waiting.pop()
                        if hasattr(job, "fan_out"):
                            future = _run_now(self._fan_out, job,
                                              should_abort)
                        else:
                            future = submit(job, *(values[need]
                                                   for need in _needs(job)))
                        pending[future] = job
                    done, _ = wait(pending, timeout=poll,
                                   return_when=FIRST_COMPLETED)
                    errors = []
                    for future in done:
                        job = pending.pop(future)
                        try:
                            payload, seconds = future.result()
                        except Exception as exc:  # noqa: BLE001
                            errors.append(exc)
                        else:
                            resolved[job] = self._record(
                                job, keys[job], payload, seconds)
                    if errors:
                        raise errors[0]
            finally:
                for future in pending:
                    future.cancel()

    @contextmanager
    def _execute_step(self, workers: int) -> Iterator[tuple]:
        """``(submit, capacity)``: the ``submit(job, *values) -> Future``
        leaf misses run through and how many it may hold at once.  The
        inline step runs a job inside ``submit``, so it takes one at a
        time, which keeps the abort poll between jobs."""
        if self._submit is not None:
            yield self._submit, float("inf")
        elif workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield partial(pool.submit, execute_job), float("inf")
        else:
            yield partial(_run_now, execute_job), 1

    def _fan_out(self, job, should_abort) -> tuple[dict, float]:
        start = time.perf_counter()
        payload = job.fan_out(self, should_abort)
        return payload, time.perf_counter() - start

    def _record(self, job, key: CacheKey, payload: object,
                seconds: float) -> Resolved:
        """Store, observe and count one executed job."""
        value = job.decode(payload)
        if value is None:
            raise RuntimeError(f"{job.label} produced a payload its own "
                               "decode rule rejects")
        if self.cache is not None:
            self.cache.put(key, payload)
        self.cost_model.observe(job, seconds)
        self.stats.note_execution(job.label, seconds, kind=key.kind)
        self.stats.note_sharded_run(getattr(value, "sharding", None))
        self.progress.job_done(job.label, seconds)
        return Resolved(payload, value, "executed")
