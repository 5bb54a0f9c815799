"""Fig. 5: front-end *bandwidth*-bound cycles: MITE vs DSB.

The paper's sharpest result: 92–97% of gem5's bandwidth-bound slots wait
on the MITE (legacy decoder) and under 7% on the DSB, because gem5's
huge, cold, irregular code never lives in the µop cache.  SPEC shifts
substantially toward DSB-supplied slots.
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (GEM5_CONFIGS, SPEC_CONFIGS, topdown_replays,
                     topdown_required_g5)
from .runner import ExperimentRunner

CATEGORIES = ["mite", "dsb"]


def run(runner: ExperimentRunner) -> Figure:
    """Regenerate Fig. 5 (FE bandwidth source breakdown, Intel_Xeon)."""
    figure = Figure("Fig.5", "Front-end bandwidth-bound slots: MITE vs DSB "
                    "on Intel_Xeon")
    for config in GEM5_CONFIGS:
        result = runner.host_result(config.workload, config.cpu_model,
                                    "Intel_Xeon", mode=config.mode)
        breakdown = result.topdown.fe_bandwidth_breakdown()
        figure.add_series(config.label, CATEGORIES,
                          [breakdown[c] for c in CATEGORIES])
    for spec_name in SPEC_CONFIGS:
        breakdown = runner.spec_result(
            spec_name, "Intel_Xeon").topdown.fe_bandwidth_breakdown()
        figure.add_series(spec_name.upper(), CATEGORIES,
                          [breakdown[c] for c in CATEGORIES])
    return figure


def mite_share(figure: Figure, label: str) -> float:
    """MITE's share of the bandwidth-bound slots for one row."""
    series = figure.get_series(label)
    mite, dsb = series.y
    total = mite + dsb
    return mite / total if total else 0.0

def required_g5() -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return topdown_required_g5()


#: Replays ``run`` reads: the Top-Down rows.
required_replays = topdown_replays
