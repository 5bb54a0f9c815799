"""Fig. 10: speedup from backing gem5's code with huge pages.

THP (Intel iodlr, runtime remap of hot code) and EHP (libhugetlbfs,
whole-binary backing, hampered by gem5's layout) vs the 4KB baseline,
for each CPU model on Intel_Xeon.  Paper: up to 5.9% faster, with the
detailed CPU models benefiting most (bigger code footprints).
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
    """Regenerate Fig. 10 (huge-page speedups on Intel_Xeon)."""
    figure = Figure("Fig.10", "Speedup from huge-page code backing on "
                    "Intel_Xeon (fraction, vs 4KB pages)")
    for policy in (HugePagePolicy.THP, HugePagePolicy.EHP):
        labels = []
        values = []
        for cpu_model in CPU_MODELS:
            base = runner.host_result(workload, cpu_model, "Intel_Xeon")
            tuned = runner.host_result(workload, cpu_model, "Intel_Xeon",
                                       hugepages=policy)
            labels.append(cpu_model.upper())
            values.append(base.time_seconds / tuned.time_seconds - 1.0)
        figure.add_series(policy.value.upper(), labels, values)
    return figure


def speedup(figure: Figure, policy: str, cpu_model: str) -> float:
    series = figure.get_series(policy.upper())
    return series.y[CPU_MODELS.index(cpu_model)]

def required_g5(workload: str = PARSEC_REPRESENTATIVE) -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return model_sweep_required_g5(workload, CPU_MODELS)


def required_replays(runner: ExperimentRunner,
                     workload: str = PARSEC_REPRESENTATIVE) -> list:
    """Replays ``run`` reads: 4KB pages and both huge-page policies."""
    return [job for policy in HugePagePolicy
            for job in model_sweep_replays(runner, workload, CPU_MODELS,
                                           ["Intel_Xeon"],
                                           hugepages=policy)]
