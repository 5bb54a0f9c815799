"""Fig. 15: CDF of the 50 hottest gem5 functions per CPU model.

The evidence for "no killer function": the hottest function contributes
only 10.1% / 8.5% / 2.9% / 4.2% of total time (Atomic / Timing / Minor /
O3), the CDF flattens as model detail grows, and total executed-function
counts are 1602 / 2557 / 3957 / 5209 — so per-function hardware
acceleration cannot pay off.
"""

from __future__ import annotations

from ..core.profiler import analyze_profile
from ..core.report import Figure
from .common import (PARSEC_REPRESENTATIVE, model_sweep_replays,
                     model_sweep_required_g5)
from .runner import ExperimentRunner

CPU_MODELS = ["atomic", "timing", "minor", "o3"]


def run(runner: ExperimentRunner,
        workload: str = PARSEC_REPRESENTATIVE) -> Figure:
    """Regenerate Fig. 15 (hot-function CDFs on Intel_Xeon)."""
    figure = Figure("Fig.15", "Cumulative time share of the 50 hottest "
                    "functions (Intel_Xeon)")
    ranks = list(range(1, 51))
    for cpu_model in CPU_MODELS:
        result = runner.host_result(workload, cpu_model, "Intel_Xeon")
        report = analyze_profile(result.profile, top_n=50)
        figure.add_series(cpu_model.upper(), ranks, report.cdf)
        figure.add_series(f"{cpu_model.upper()}_meta",
                          ["hottest_share", "functions_executed"],
                          [report.hottest_share,
                           float(report.total_functions)])
    return figure


def hottest_share(figure: Figure, cpu_model: str) -> float:
    series = figure.get_series(f"{cpu_model.upper()}_meta")
    return series.y[0]


def functions_executed(figure: Figure, cpu_model: str) -> int:
    series = figure.get_series(f"{cpu_model.upper()}_meta")
    return int(series.y[1])

def required_g5(workload: str = PARSEC_REPRESENTATIVE) -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return model_sweep_required_g5(workload, CPU_MODELS)


def required_replays(runner: ExperimentRunner,
                     workload: str = PARSEC_REPRESENTATIVE) -> list:
    """Replays ``run`` reads: every model on the Xeon."""
    return model_sweep_replays(runner, workload, CPU_MODELS,
                               ["Intel_Xeon"])
