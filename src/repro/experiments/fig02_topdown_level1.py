"""Fig. 2: Top-Down level-1 breakdown, gem5 vs SPEC, on Intel_Xeon.

Stacked bars of retiring / front-end bound / bad speculation / back-end
bound for the eight gem5 configurations and the three SPEC reference
benchmarks.

Paper's numbers: gem5 retires 43.5–64.7% of slots with 30.1–41.5%
front-end bound and only 0.9–11.3% back-end bound; SPEC spans
13.2–82.2% retiring, with 505.mcf_r at 53.7% back-end bound.
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (GEM5_CONFIGS, SPEC_CONFIGS, topdown_replays,
                     topdown_required_g5)
from .runner import ExperimentRunner

BUCKETS = ["retiring", "frontend_bound", "bad_speculation", "backend_bound"]


def run(runner: ExperimentRunner) -> Figure:
    """Regenerate Fig. 2 (level-1 Top-Down slots, Intel_Xeon)."""
    figure = Figure("Fig.2", "Top-Down level-1 breakdown on Intel_Xeon "
                    "(fraction of pipeline slots)")
    for config in GEM5_CONFIGS:
        result = runner.host_result(config.workload, config.cpu_model,
                                    "Intel_Xeon", mode=config.mode)
        level1 = result.topdown.level1()
        figure.add_series(config.label, BUCKETS,
                          [level1[bucket] for bucket in BUCKETS])
    for spec_name in SPEC_CONFIGS:
        result = runner.spec_result(spec_name, "Intel_Xeon")
        level1 = result.topdown.level1()
        figure.add_series(spec_name.upper(), BUCKETS,
                          [level1[bucket] for bucket in BUCKETS])
    return figure


def required_g5() -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return topdown_required_g5()


#: Replays ``run`` reads: the Top-Down rows.
required_replays = topdown_replays
