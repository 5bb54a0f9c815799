"""Fig. 11: THP's effect on iTLB overhead and retiring slots.

Paper: transparent huge pages cut the iTLB stall overhead by 63% on
average (most strongly for Minor and O3) and lift retiring slots by
3–7%.
"""

from __future__ import annotations

from ..core.report import Figure
from ..host.hugepages import HugePagePolicy
from .common import (PARSEC_REPRESENTATIVE, model_sweep_replays,
                     model_sweep_required_g5)
from .runner import ExperimentRunner

CPU_MODELS = ["atomic", "timing", "minor", "o3"]


def run(runner: ExperimentRunner,
        workload: str = PARSEC_REPRESENTATIVE) -> Figure:
    """Regenerate Fig. 11 (THP iTLB/retiring improvements, Intel_Xeon)."""
    figure = Figure("Fig.11", "THP: iTLB-overhead reduction and retiring "
                    "improvement on Intel_Xeon (fractions)")
    itlb_labels, itlb_values = [], []
    ret_labels, ret_values = [], []
    for cpu_model in CPU_MODELS:
        base = runner.host_result(workload, cpu_model, "Intel_Xeon")
        thp = runner.host_result(workload, cpu_model, "Intel_Xeon",
                                 hugepages=HugePagePolicy.THP)
        base_itlb = base.topdown.fe_itlb
        thp_itlb = thp.topdown.fe_itlb
        itlb_labels.append(cpu_model.upper())
        itlb_values.append(1.0 - thp_itlb / max(base_itlb, 1e-12))
        ret_labels.append(cpu_model.upper())
        ret_values.append(thp.topdown.retiring / base.topdown.retiring - 1.0)
    figure.add_series("itlb_overhead_reduction", itlb_labels, itlb_values)
    figure.add_series("retiring_improvement", ret_labels, ret_values)
    return figure


def mean_itlb_reduction(figure: Figure) -> float:
    series = figure.get_series("itlb_overhead_reduction")
    return sum(series.y) / len(series.y)

def required_g5(workload: str = PARSEC_REPRESENTATIVE) -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return model_sweep_required_g5(workload, CPU_MODELS)


def required_replays(runner: ExperimentRunner,
                     workload: str = PARSEC_REPRESENTATIVE) -> list:
    """Replays ``run`` reads: the 4KB base and THP on the Xeon."""
    return [job for policy in (HugePagePolicy.NONE, HugePagePolicy.THP)
            for job in model_sweep_replays(runner, workload, CPU_MODELS,
                                           ["Intel_Xeon"],
                                           hugepages=policy)]
