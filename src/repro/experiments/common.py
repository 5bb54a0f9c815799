"""Shared configuration vocabulary for the experiments.

The paper's Top-Down figures (Figs. 2–6) all use the same eight gem5
rows — four CPU models, each in Boot-Exit (FS) and PARSEC (SE,
represented by water_nsquared per the paper's footnote 2) — plus the
three SPEC reference benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec.pool import G5Job
from ..workloads.registry import get_workload

#: The workload footnote 2 designates as PARSEC's representative.
PARSEC_REPRESENTATIVE = "water_nsquared"


@dataclass(frozen=True)
class Gem5Config:
    """One row of the paper's Top-Down figures."""

    label: str
    cpu_model: str
    workload: str
    mode: str


GEM5_CONFIGS: list[Gem5Config] = [
    Gem5Config("O3_BOOT_EXIT", "o3", "boot_exit", "fs"),
    Gem5Config("O3_PARSEC", "o3", PARSEC_REPRESENTATIVE, "se"),
    Gem5Config("MINOR_BOOT_EXIT", "minor", "boot_exit", "fs"),
    Gem5Config("MINOR_PARSEC", "minor", PARSEC_REPRESENTATIVE, "se"),
    Gem5Config("TIMING_BOOT_EXIT", "timing", "boot_exit", "fs"),
    Gem5Config("TIMING_PARSEC", "timing", PARSEC_REPRESENTATIVE, "se"),
    Gem5Config("ATOMIC_BOOT_EXIT", "atomic", "boot_exit", "fs"),
    Gem5Config("ATOMIC_PARSEC", "atomic", PARSEC_REPRESENTATIVE, "se"),
]

#: The g5 requirement tuples of the Top-Down figures (Figs. 2–6): every
#: row of GEM5_CONFIGS, as (workload, cpu_model, mode) for prefetching.
def topdown_required_g5() -> list[tuple[str, str, str]]:
    return [(config.workload, config.cpu_model, config.mode)
            for config in GEM5_CONFIGS]


def model_sweep_required_g5(workloads, cpu_models,
                            mode=None) -> list[tuple]:
    """Requirement tuples for a workload × CPU-model sweep.

    The shared vocabulary for every figure module's ``required_g5()``.
    ``workloads`` may be a single name or a list; ``mode`` is passed
    through unchanged (``None`` lets the runner infer it from the
    workload registry).
    """
    if isinstance(workloads, str):
        workloads = [workloads]
    return [(workload, cpu_model, mode)
            for cpu_model in cpu_models for workload in workloads]


def requirement_job(requirement: tuple, scale: str) -> G5Job:
    """The g5 job a ``(workload, cpu_model, mode[, threads])`` requirement
    names: a ``None`` mode is the workload's registered one, a missing
    thread count 1.  The runner and the serve predictor share it."""
    workload, cpu_model, mode = requirement[:3]
    threads = requirement[3] if len(requirement) > 3 else 1
    return G5Job(workload=workload, cpu_model=cpu_model,
                 mode=mode or get_workload(workload).mode, scale=scale,
                 threads=threads)


#: Guest thread counts swept by the multi-core figures (Figs. 16–17).
MULTICORE_THREADS = [1, 2, 4]


def thread_sweep_required_g5(workloads, cpu_models, thread_counts=None,
                             mode=None) -> list[tuple]:
    """Requirement tuples for a workload × model × thread-count sweep.

    The multi-core figures append the guest thread count as a fourth
    tuple element — :func:`requirement_job` accepts both the 3- and
    4-arity forms, so the single-core figures stay untouched.
    """
    if isinstance(workloads, str):
        workloads = [workloads]
    if thread_counts is None:
        thread_counts = MULTICORE_THREADS
    return [(workload, cpu_model, mode, threads)
            for cpu_model in cpu_models
            for workload in workloads
            for threads in thread_counts]


#: SPEC reference rows (run on bare metal in the paper, never on gem5).
SPEC_CONFIGS = ["525.x264_r", "531.deepsjeng_r", "505.mcf_r"]

#: Platforms of Table II.
PLATFORM_NAMES = ["Intel_Xeon", "M1_Pro", "M1_Ultra"]

#: CPU models compared in Figs. 1 and 7 (the paper's headline set).
FIG1_CPU_MODELS = ["atomic", "timing", "o3"]


def topdown_replays(runner) -> list:
    """The replays of the Top-Down figures (Figs. 2–6): every
    GEM5_CONFIGS row and every SPEC row, on the Xeon."""
    return ([runner.host_job(config.workload, config.cpu_model,
                             "Intel_Xeon", mode=config.mode)
             for config in GEM5_CONFIGS]
            + [runner.spec_job(spec_name, "Intel_Xeon")
               for spec_name in SPEC_CONFIGS])


def model_sweep_replays(runner, workloads, cpu_models, platforms,
                        mode=None, **knobs) -> list:
    """The replays of a workload × CPU-model × platform sweep under one
    set of :meth:`~repro.experiments.runner.ExperimentRunner.host_job`
    knobs; ``workloads`` may be a single name."""
    if isinstance(workloads, str):
        workloads = [workloads]
    return [runner.host_job(workload, cpu_model, platform, mode=mode,
                            **knobs)
            for platform in platforms for cpu_model in cpu_models
            for workload in workloads]
