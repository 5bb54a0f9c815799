"""Parallel, disk-cached experiment execution (see DESIGN.md).

The scaling backbone under the experiment runner, the CLI and the serve
daemon: content-addressed result caching (:mod:`~repro.exec.cache`,
:mod:`~repro.exec.keys`), the one job-resolution pipeline with its
price-ordered process pool (:mod:`~repro.exec.pool`,
:mod:`~repro.exec.costmodel`), host replays as a job kind of it
(:mod:`~repro.exec.replay`), and progress reporting
(:mod:`~repro.exec.progress`).
"""

from .cache import CacheEntry, ResultCache, default_cache_dir
from .keys import (
    CacheKey,
    host_fingerprint,
    job_key,
    sample_fingerprint,
    sim_fingerprint,
)
from .pool import (EngineStats, ExecutionEngine, G5Job, WindowsCancelled,
                   execute_g5_job)
from .progress import NullReporter, ProgressReporter
from .replay import ReplayJob, SpecTrace

__all__ = [
    "CacheEntry",
    "CacheKey",
    "EngineStats",
    "ExecutionEngine",
    "G5Job",
    "NullReporter",
    "ProgressReporter",
    "ReplayJob",
    "ResultCache",
    "SpecTrace",
    "WindowsCancelled",
    "default_cache_dir",
    "execute_g5_job",
    "host_fingerprint",
    "job_key",
    "sample_fingerprint",
    "sim_fingerprint",
]
