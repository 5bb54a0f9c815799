"""Fig. 9: LLC occupancy and DRAM bandwidth of gem5 on Intel_Xeon.

The paper measures a single gem5 process's LLC footprint at 255KB–3.1MB
— growing with simulation detail — and *negligible* DRAM bandwidth in
both FS and SE modes: gem5's data set fits in the last-level cache.
"""

from __future__ import annotations

from ..core.report import Figure
from .common import (PARSEC_REPRESENTATIVE, model_sweep_replays,
                     model_sweep_required_g5)
from .runner import ExperimentRunner

CPU_MODELS = ["atomic", "timing", "minor", "o3"]


def run(runner: ExperimentRunner) -> Figure:
    """Regenerate Fig. 9 (LLC occupancy + DRAM bandwidth, Intel_Xeon)."""
    figure = Figure("Fig.9", "LLC occupancy (bytes) and DRAM bandwidth "
                    "(GB/s) per gem5 process on Intel_Xeon")
    for mode, workload in (("fs", "boot_exit"),
                           ("se", PARSEC_REPRESENTATIVE)):
        occ_labels, occ_values = [], []
        bw_labels, bw_values = [], []
        for cpu_model in CPU_MODELS:
            result = runner.host_result(workload, cpu_model, "Intel_Xeon",
                                        mode=mode)
            occ_labels.append(cpu_model.upper())
            occ_values.append(float(result.llc_occupancy_bytes))
            bw_labels.append(cpu_model.upper())
            bw_values.append(result.dram_bandwidth_gbps)
        figure.add_series(f"llc_occupancy/{mode.upper()}", occ_labels,
                          occ_values)
        figure.add_series(f"dram_bw/{mode.upper()}", bw_labels, bw_values)
    return figure

def required_g5() -> list[tuple]:
    """g5 runs to prefetch before regenerating this figure."""
    return (model_sweep_required_g5("boot_exit", CPU_MODELS, "fs")
            + model_sweep_required_g5(PARSEC_REPRESENTATIVE, CPU_MODELS,
                                      "se"))


def required_replays(runner: ExperimentRunner) -> list:
    """Replays ``run`` reads: FS and SE rows on the Xeon."""
    return (model_sweep_replays(runner, "boot_exit", CPU_MODELS,
                                ["Intel_Xeon"], "fs")
            + model_sweep_replays(runner, PARSEC_REPRESENTATIVE, CPU_MODELS,
                                  ["Intel_Xeon"], "se"))
