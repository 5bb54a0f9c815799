"""Fig. 13: gem5 simulation time vs host CPU frequency (+ Turbo Boost).

The paper scales the Xeon from 3.1GHz down to 1.2GHz and observes a
linear increase in simulation time (2.67× at 1.2GHz), plus the Turbo
Boost point at 4.1GHz.  Linearity holds because gem5's working set sits
in cache: memory latency barely contributes, so time ≈ cycles / f.
"""

from __future__ import annotations

from ..core.report import Figure
from ..host.platform import intel_xeon
from .common import (PARSEC_REPRESENTATIVE, model_sweep_replays,
                     model_sweep_required_g5)
from .runner import ExperimentRunner

#: Frequency ladder (GHz), matching the paper's governor steps.
FREQUENCIES = [1.2, 1.6, 2.0, 2.4, 2.8, 3.1]


def run(runner: ExperimentRunner,
        workload: str = PARSEC_REPRESENTATIVE,
        cpu_model: str = "timing") -> Figure:
    """Regenerate Fig. 13 (normalized time vs frequency, Intel_Xeon)."""
    figure = Figure("Fig.13", "gem5 simulation time vs Xeon frequency, "
                    "normalized to 3.1GHz (no Turbo)")
    base_platform = intel_xeon()
    times = {}
    for freq in FREQUENCIES:
        platform = base_platform.with_frequency(freq)
        times[freq] = runner.host_result(workload, cpu_model,
                                         platform).time_seconds
    turbo = base_platform.with_frequency(base_platform.turbo_ghz)
    times["turbo"] = runner.host_result(workload, cpu_model,
                                        turbo).time_seconds
    base_time = times[3.1]
    labels = [f"{f:.1f}GHz" for f in FREQUENCIES] + ["TurboBoost"]
    values = ([times[f] / base_time for f in FREQUENCIES]
              + [times["turbo"] / base_time])
    figure.add_series("normalized_time", labels, values)
    return figure


def slowdown_at(figure: Figure, freq_ghz: float) -> float:
    series = figure.get_series("normalized_time")
    label = f"{freq_ghz:.1f}GHz"
    return series.y[series.x.index(label)]

def required_g5(workload: str = PARSEC_REPRESENTATIVE,
                cpu_model: str = "timing") -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return model_sweep_required_g5(workload, [cpu_model])


def required_replays(runner: ExperimentRunner,
                     workload: str = PARSEC_REPRESENTATIVE,
                     cpu_model: str = "timing") -> list:
    """Replays ``run`` reads: the Xeon at every frequency and Turbo."""
    base_platform = intel_xeon()
    platforms = [base_platform.with_frequency(freq)
                 for freq in FREQUENCIES + [base_platform.turbo_ghz]]
    return model_sweep_replays(runner, workload, [cpu_model], platforms)
