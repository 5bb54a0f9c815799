"""Fig. 7: IPC and stall time across Intel_Xeon / M1_Pro / M1_Ultra.

The paper runs gem5 (Atomic, Timing, O3; water_nsquared) on all three
platforms and reads their counters: the M1s' IPC is ~2.22×/2.24× the
Xeon's, and the Xeon spends a much larger share of its time stalled —
the proximate cause of the Fig. 1 simulation-time gap.
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (FIG1_CPU_MODELS, PARSEC_REPRESENTATIVE,
                     PLATFORM_NAMES, model_sweep_replays,
                     model_sweep_required_g5)
from .runner import ExperimentRunner


def run(runner: ExperimentRunner,
        workload: str = PARSEC_REPRESENTATIVE) -> Figure:
    """Regenerate Fig. 7 (IPC and stall fraction per platform)."""
    figure = Figure("Fig.7", f"IPC and stall fraction running gem5 "
                    f"({workload}) on each platform")
    for metric in ("ipc", "stall_fraction"):
        for platform_name in PLATFORM_NAMES:
            labels = []
            values = []
            for cpu_model in FIG1_CPU_MODELS:
                result = runner.host_result(workload, cpu_model,
                                            platform_name)
                labels.append(cpu_model.upper())
                values.append(getattr(result, metric))
            figure.add_series(f"{metric}/{platform_name}", labels, values)
    return figure


def ipc_ratio(figure: Figure, platform_name: str) -> float:
    """Mean IPC of ``platform_name`` relative to the Xeon."""
    xeon = figure.get_series("ipc/Intel_Xeon").y
    other = figure.get_series(f"ipc/{platform_name}").y
    ratios = [o / x for o, x in zip(other, xeon)]
    return sum(ratios) / len(ratios)

def required_g5(workload: str = PARSEC_REPRESENTATIVE) -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return model_sweep_required_g5(workload, FIG1_CPU_MODELS)


def required_replays(runner: ExperimentRunner,
                     workload: str = PARSEC_REPRESENTATIVE) -> list:
    """Replays ``run`` reads: every model on every platform."""
    return model_sweep_replays(runner, workload, FIG1_CPU_MODELS,
                               PLATFORM_NAMES)
