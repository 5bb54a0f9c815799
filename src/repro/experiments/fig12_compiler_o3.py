"""Fig. 12: speedup from compiling gem5 with ``-O3``.

The paper rebuilds gem5 with ``-O3`` (instead of the default ``-O2``
used by gem5.opt's scons build) and measures average speedups of 1.38% /
0.98% / 0.78% on Intel_Xeon / M1_Pro / M1_Ultra — small, occasionally
negative for individual workloads (static optimization can backfire).
"""

from __future__ import annotations

from typing import Optional

from ..core.report import Figure
from .common import (PARSEC_REPRESENTATIVE, PLATFORM_NAMES,
                     model_sweep_replays, model_sweep_required_g5)
from .runner import ExperimentRunner

CPU_MODELS = ["atomic", "timing", "o3"]


def run(runner: ExperimentRunner,
        workload: str = PARSEC_REPRESENTATIVE,
        platforms: Optional[list[str]] = None) -> Figure:
    """Regenerate Fig. 12 (-O3 build speedup per platform)."""
    platforms = platforms if platforms is not None else PLATFORM_NAMES
    figure = Figure("Fig.12", "Speedup of the -O3 gem5 build (fraction, "
                    "vs the default build)")
    for platform_name in platforms:
        labels = []
        values = []
        for cpu_model in CPU_MODELS:
            base = runner.host_result(workload, cpu_model, platform_name,
                                      opt_level=2)
            opt = runner.host_result(workload, cpu_model, platform_name,
                                     opt_level=3)
            labels.append(cpu_model.upper())
            values.append(base.time_seconds / opt.time_seconds - 1.0)
        figure.add_series(platform_name, labels, values)
    return figure


def mean_speedup(figure: Figure, platform_name: str) -> float:
    series = figure.get_series(platform_name)
    return sum(series.y) / len(series.y)


def required_g5(workload: str = PARSEC_REPRESENTATIVE,
                platforms: Optional[list[str]] = None) -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure (the same
    runs for every platform)."""
    return model_sweep_required_g5(workload, CPU_MODELS)


def required_replays(runner: ExperimentRunner,
                     workload: str = PARSEC_REPRESENTATIVE,
                     platforms: Optional[list[str]] = None) -> list:
    """Replays ``run`` reads: the -O2 and -O3 builds per platform."""
    platforms = platforms if platforms is not None else PLATFORM_NAMES
    return [job for opt_level in (2, 3)
            for job in model_sweep_replays(runner, workload, CPU_MODELS,
                                           platforms, opt_level=opt_level)]
