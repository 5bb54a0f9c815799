"""Fig. 8: TLB, L1 cache, and branch-prediction performance by platform.

The paper's counter comparison behind the M1 advantage: the Xeon's iTLB
and dTLB miss rates are 11.7× and 10.5× the M1_Ultra's, its dCache miss
rate 10.1–13.4× higher, and its branch misprediction rate 0.22% against
the M1s' ~0.14% — all traced to the M1's larger L1s, 128B lines, and
16KB pages.
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (FIG1_CPU_MODELS, PARSEC_REPRESENTATIVE,
                     PLATFORM_NAMES, model_sweep_replays,
                     model_sweep_required_g5)
from .runner import ExperimentRunner

METRICS = ["itlb_miss_rate", "dtlb_miss_rate", "l1i_miss_rate",
           "l1d_miss_rate", "branch_mispredict_rate"]


def run(runner: ExperimentRunner,
        workload: str = PARSEC_REPRESENTATIVE) -> Figure:
    """Regenerate Fig. 8 (structure miss rates per platform)."""
    figure = Figure("Fig.8", f"TLB / L1 / branch miss rates running gem5 "
                    f"({workload})")
    for platform_name in PLATFORM_NAMES:
        for cpu_model in FIG1_CPU_MODELS:
            result = runner.host_result(workload, cpu_model, platform_name)
            figure.add_series(
                f"{platform_name}/{cpu_model.upper()}", METRICS,
                [getattr(result, metric) for metric in METRICS])
    return figure


def platform_ratio(figure: Figure, metric: str, platform_a: str,
                   platform_b: str, cpu_model: str = "O3") -> float:
    """Miss-rate ratio of platform_a over platform_b for one CPU model."""
    index = METRICS.index(metric)
    a = figure.get_series(f"{platform_a}/{cpu_model}").y[index]
    b = figure.get_series(f"{platform_b}/{cpu_model}").y[index]
    return a / max(b, 1e-12)

def required_g5(workload: str = PARSEC_REPRESENTATIVE) -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return model_sweep_required_g5(workload, FIG1_CPU_MODELS)


def required_replays(runner: ExperimentRunner,
                     workload: str = PARSEC_REPRESENTATIVE) -> list:
    """Replays ``run`` reads: every model on every platform."""
    return model_sweep_replays(runner, workload, FIG1_CPU_MODELS,
                               PLATFORM_NAMES)
