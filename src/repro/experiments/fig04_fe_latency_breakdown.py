"""Fig. 4: front-end *latency*-bound cycles broken down by cause.

Categories: iCache misses, iTLB misses, mispredict resteers, clear
resteers (machine clears / indirect-target repairs), unknown branches
(BAClears: branches undetected until decode, dominated by BTB misses).

Paper's findings: O3/Minor show up to 11× more iCache-miss stalls than
Atomic; iTLB stalls are high for *all* gem5 configs; O3/Minor aggregate
branching overhead is 6.0×/4.7× that of Atomic; and for SPEC the
branching categories dominate (43.5–73.6% of FE-latency slots).
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (GEM5_CONFIGS, SPEC_CONFIGS, topdown_replays,
                     topdown_required_g5)
from .runner import ExperimentRunner

CATEGORIES = ["icache", "itlb", "mispredict_resteers", "clear_resteers",
              "unknown_branches"]

BRANCHING = ["mispredict_resteers", "clear_resteers", "unknown_branches"]


def run(runner: ExperimentRunner) -> Figure:
    """Regenerate Fig. 4 (FE latency cause breakdown, Intel_Xeon)."""
    figure = Figure("Fig.4", "Front-end latency-bound slots by cause "
                    "on Intel_Xeon")
    for config in GEM5_CONFIGS:
        result = runner.host_result(config.workload, config.cpu_model,
                                    "Intel_Xeon", mode=config.mode)
        breakdown = result.topdown.fe_latency_breakdown()
        figure.add_series(config.label, CATEGORIES,
                          [breakdown[c] for c in CATEGORIES])
    for spec_name in SPEC_CONFIGS:
        breakdown = runner.spec_result(
            spec_name, "Intel_Xeon").topdown.fe_latency_breakdown()
        figure.add_series(spec_name.upper(), CATEGORIES,
                          [breakdown[c] for c in CATEGORIES])
    return figure


def category_value(figure: Figure, label: str, category: str) -> float:
    series = figure.get_series(label)
    return series.y[CATEGORIES.index(category)]


def branching_overhead(figure: Figure, label: str) -> float:
    """Aggregate branching share (the paper's mispredict+clear+unknown)."""
    series = figure.get_series(label)
    return sum(series.y[CATEGORIES.index(c)] for c in BRANCHING)

def required_g5() -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return topdown_required_g5()


#: Replays ``run`` reads: the Top-Down rows.
required_replays = topdown_replays
