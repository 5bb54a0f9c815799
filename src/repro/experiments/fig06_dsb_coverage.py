"""Fig. 6: DSB (µop cache) coverage, gem5 vs SPEC, on Intel_Xeon.

Coverage = fraction of all retired µops supplied by the DSB.  The paper
shows gem5's coverage is far below SPEC's regardless of CPU model or
workload — the µop cache needs instruction reuse and loops, "which are
both rare in gem5".
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (GEM5_CONFIGS, SPEC_CONFIGS, topdown_replays,
                     topdown_required_g5)
from .runner import ExperimentRunner


def run(runner: ExperimentRunner) -> Figure:
    """Regenerate Fig. 6 (DSB coverage, Intel_Xeon)."""
    figure = Figure("Fig.6", "DSB (µop cache) coverage on Intel_Xeon")
    labels = []
    values = []
    for config in GEM5_CONFIGS:
        result = runner.host_result(config.workload, config.cpu_model,
                                    "Intel_Xeon", mode=config.mode)
        labels.append(config.label)
        values.append(result.dsb_coverage)
    figure.add_series("gem5", labels, values)
    labels = []
    values = []
    for spec_name in SPEC_CONFIGS:
        labels.append(spec_name.upper())
        values.append(runner.spec_result(spec_name, "Intel_Xeon").dsb_coverage)
    figure.add_series("SPEC", labels, values)
    return figure

def required_g5() -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return topdown_required_g5()


#: Replays ``run`` reads: the Top-Down rows.
required_replays = topdown_replays
