"""Fig. 14: gem5 speedup on FireSim hosts with varying cache geometry.

The paper runs unmodified gem5 (simulating the sieve program with each
CPU model) on FireSim's RISC-V host while sweeping the host's L1I/L1D/L2
configuration.  Findings: growing L1 from 8KB to 16KB cuts simulation
time by 30%/25%/18% (Atomic/Timing/O3); the best configuration
(64KB/16-way L1s, baseline L2) is 68.7%/68.2%/43.8% faster; doubling L2
from 1MB to 2MB does nothing; and the abstract's headline — a 32KB-L1
core runs gem5 31–61% faster than the 8KB baseline.
"""

from __future__ import annotations

from ..core.report import Figure
from ..host.firesim import (FIG14_CONFIGS, FIRESIM_CLUSTER_SCALE,
                            config_label, platform_for)
from .common import model_sweep_replays, model_sweep_required_g5
from .runner import ExperimentRunner

CPU_MODELS = ["atomic", "timing", "o3"]


def run(runner: ExperimentRunner, workload: str = "sieve") -> Figure:
    """Regenerate Fig. 14 (FireSim host cache sweep with sieve)."""
    figure = Figure("Fig.14", "gem5 speedup on FireSim hosts vs the "
                    "8KB/2-way baseline (fraction)")
    labels = [config_label(config) for config in FIG14_CONFIGS]
    for cpu_model in CPU_MODELS:
        # The whole trace on the lean RISC-V build, as the paper ran it.
        times = [runner.host_result(
            workload, cpu_model, platform_for(config),
            cluster_scale=FIRESIM_CLUSTER_SCALE,
            truncate=False).time_seconds for config in FIG14_CONFIGS]
        figure.add_series(cpu_model.upper(), labels,
                          [times[0] / time - 1.0 for time in times])
    return figure


def speedup_for(figure: Figure, cpu_model: str, label: str) -> float:
    series = figure.get_series(cpu_model.upper())
    return series.y[series.x.index(label)]

def required_g5(workload: str = "sieve") -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return model_sweep_required_g5(workload, CPU_MODELS)


def required_replays(runner: ExperimentRunner,
                     workload: str = "sieve") -> list:
    """Replays ``run`` reads: whole traces on every FireSim geometry."""
    return model_sweep_replays(
        runner, workload, CPU_MODELS,
        [platform_for(config) for config in FIG14_CONFIGS],
        cluster_scale=FIRESIM_CLUSTER_SCALE, truncate=False)
