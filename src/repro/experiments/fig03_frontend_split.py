"""Fig. 3: front-end bound cycles split into latency vs bandwidth.

The paper's observation: simpler CPU models are more *bandwidth*-bound
(decoder-limited), and as the simulated CPU's detail grows the profile
shifts toward *latency*-bound (iCache/iTLB misses), because detailed
models touch more simulation-object code per event.  SPEC, by contrast,
is more DSB-supplied and less MITE-limited.
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (GEM5_CONFIGS, SPEC_CONFIGS, topdown_replays,
                     topdown_required_g5)
from .runner import ExperimentRunner

CATEGORIES = ["fe_latency", "fe_bandwidth"]


def run(runner: ExperimentRunner) -> Figure:
    """Regenerate Fig. 3 (front-end latency vs bandwidth, Intel_Xeon)."""
    figure = Figure("Fig.3", "Front-end bound slots: latency vs bandwidth "
                    "on Intel_Xeon")
    for config in GEM5_CONFIGS:
        result = runner.host_result(config.workload, config.cpu_model,
                                    "Intel_Xeon", mode=config.mode)
        td = result.topdown
        figure.add_series(config.label, CATEGORIES,
                          [td.fe_latency, td.fe_bandwidth])
    for spec_name in SPEC_CONFIGS:
        td = runner.spec_result(spec_name, "Intel_Xeon").topdown
        figure.add_series(spec_name.upper(), CATEGORIES,
                          [td.fe_latency, td.fe_bandwidth])
    return figure


def latency_share(figure: Figure, label: str) -> float:
    """Latency fraction of the front-end bound slots for one row."""
    series = figure.get_series(label)
    latency, bandwidth = series.y
    total = latency + bandwidth
    return latency / total if total else 0.0

def required_g5() -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return topdown_required_g5()


#: Replays ``run`` reads: the Top-Down rows.
required_replays = topdown_replays
