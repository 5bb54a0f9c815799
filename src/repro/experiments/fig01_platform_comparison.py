"""Fig. 1: gem5 simulation time across host platforms.

Geometric-mean simulation time of the PARSEC/SPLASH-2x workloads (SE
mode) and Boot-Exit (FS mode) on M1_Pro / M1_Ultra, normalized to
Intel_Xeon, in three co-running scenarios: a single gem5 process, one
process per physical core, and one process per hardware thread — which
enables SMT on the Xeon (40 processes) but is identical to per-core on
the M1s (no hardware multithreading), exactly as in the paper.

Paper's headline numbers: M1 platforms are 1.7×–3.02× faster for single
runs and up to 4.15× when co-running; disabling SMT on the Xeon makes
each process ~47% faster than the SMT-on configuration.
"""

from __future__ import annotations

from typing import Optional

from ..core.report import Figure, geomean
from ..host.corun import corun_contention, no_contention
from ..host.platform import get_platform
from ..workloads.registry import PARSEC_SPLASH_NAMES
from .common import (FIG1_CPU_MODELS, PLATFORM_NAMES,
                     model_sweep_replays, model_sweep_required_g5)
from .runner import ExperimentRunner

#: Co-running scenarios (sub-graphs of Fig. 1).
SCENARIOS = ["single", "per_core", "per_thread"]


def _contention_for(platform_name: str, scenario: str):
    platform = get_platform(platform_name)
    if scenario == "single":
        return no_contention()
    if scenario == "per_core":
        return corun_contention(platform, platform.physical_cores, smt=False)
    if scenario == "per_thread":
        if not platform.smt:
            # M1 has no hardware multithreading: one process per
            # hardware thread is one process per core (paper Sec. II).
            return corun_contention(platform, platform.physical_cores,
                                    smt=False)
        return corun_contention(platform, platform.physical_cores * 2,
                                smt=True)
    raise ValueError(f"unknown scenario {scenario!r}")


def run(runner: ExperimentRunner,
        workloads: Optional[list[str]] = None,
        cpu_models: Optional[list[str]] = None) -> Figure:
    """Regenerate Fig. 1 (normalized simulation time per platform)."""
    workloads = workloads if workloads is not None else PARSEC_SPLASH_NAMES
    cpu_models = cpu_models if cpu_models is not None else FIG1_CPU_MODELS
    figure = Figure(
        "Fig.1", "Geomean gem5 simulation time normalized to Intel_Xeon "
        "(lower is better)")
    for scenario in SCENARIOS:
        for platform_name in PLATFORM_NAMES:
            contention = _contention_for(platform_name, scenario)
            if contention is None:
                continue
            labels = []
            values = []
            for cpu_model in cpu_models:
                # SE: geomean over the workload list.
                se_times = [
                    runner.host_result(w, cpu_model, platform_name,
                                       contention=contention).time_seconds
                    for w in workloads]
                labels.append(f"SE_{cpu_model.upper()}")
                values.append(geomean(se_times))
                # FS: Boot-Exit.
                fs_time = runner.host_result(
                    "boot_exit", cpu_model, platform_name, mode="fs",
                    contention=contention).time_seconds
                labels.append(f"FS_{cpu_model.upper()}")
                values.append(fs_time)
            figure.add_series(f"{scenario}/{platform_name}", labels, values)
    _normalize_to_xeon(figure)
    return figure


def _normalize_to_xeon(figure: Figure) -> None:
    """Divide every platform's times by the same-scenario Xeon times."""
    xeon = {}
    for series in figure.series:
        scenario, platform = series.name.split("/")
        if platform == "Intel_Xeon":
            xeon[scenario] = list(series.y)
    for series in figure.series:
        scenario, _ = series.name.split("/")
        base = xeon.get(scenario)
        if base is None:
            continue
        series.y = [y / b for y, b in zip(series.y, base)]


def speedup_summary(figure: Figure) -> dict[str, float]:
    """Headline numbers: min/max M1 speedups over the Xeon."""
    speedups = []
    for series in figure.series:
        _, platform = series.name.split("/")
        if platform.startswith("M1"):
            speedups.extend(1.0 / y for y in series.y)
    return {"min_speedup": min(speedups), "max_speedup": max(speedups)}


def smt_off_benefit(runner: ExperimentRunner,
                    workload: str = "water_nsquared",
                    cpu_model: str = "timing") -> float:
    """Per-process slowdown of SMT-on vs SMT-off co-running on the Xeon.

    The paper reports the SMT-off (20-process) simulation time is ~47%
    lower than SMT-on (40-process).
    """
    platform = get_platform("Intel_Xeon")
    off = runner.host_result(
        workload, cpu_model, "Intel_Xeon",
        contention=corun_contention(platform, platform.physical_cores,
                                    smt=False)).time_seconds
    on = runner.host_result(
        workload, cpu_model, "Intel_Xeon",
        contention=corun_contention(platform, platform.physical_cores * 2,
                                    smt=True)).time_seconds
    return (on - off) / on

def required_g5(workloads: Optional[list[str]] = None,
                cpu_models: Optional[list[str]] = None) -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    workloads = workloads if workloads is not None else PARSEC_SPLASH_NAMES
    cpu_models = cpu_models if cpu_models is not None else FIG1_CPU_MODELS
    return (model_sweep_required_g5(workloads, cpu_models)
            + model_sweep_required_g5("boot_exit", cpu_models, "fs"))


def required_replays(runner: ExperimentRunner,
                     workloads: Optional[list[str]] = None,
                     cpu_models: Optional[list[str]] = None) -> list:
    """Replays ``run`` reads: every scenario's SE and FS rows."""
    workloads = workloads if workloads is not None else PARSEC_SPLASH_NAMES
    cpu_models = cpu_models if cpu_models is not None else FIG1_CPU_MODELS
    jobs = []
    for scenario in SCENARIOS:
        for platform_name in PLATFORM_NAMES:
            contention = _contention_for(platform_name, scenario)
            for rows, mode in ((workloads, None), ("boot_exit", "fs")):
                jobs += model_sweep_replays(runner, rows, cpu_models,
                                            [platform_name], mode=mode,
                                            contention=contention)
    return jobs
