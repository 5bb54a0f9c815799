"""Smoke tests: every figure regenerates with sane structure.

These run at test scale (fast, cold-start-dominated), so they assert
structure and invariants rather than paper values; the quantitative
bands live in ``test_paper_claims.py``.
"""

import pytest

from repro.experiments import FIGURES, tables
from repro.experiments.common import GEM5_CONFIGS, SPEC_CONFIGS


class TestTables:
    def test_table1_renders(self):
        table = tables.table1()
        assert len(table.rows) == 9
        text = table.render()
        assert "FireSim" in text
        assert "TournamentBP" in text

    def test_table2_lists_all_platforms(self):
        table = tables.table2()
        assert table.columns == ["Parameter", "Intel_Xeon", "M1_Pro",
                                 "M1_Ultra"]
        page_row = [r for r in table.rows if r[0].startswith("VM page")][0]
        assert page_row[1:] == ["4", "16", "16"]


class TestFigureStructure:
    def test_fig1_has_all_scenarios(self, tiny_runner):
        figure = FIGURES["fig1"].run(
            tiny_runner, workloads=["sieve"], cpu_models=["atomic"])
        names = [s.name for s in figure.series]
        assert "single/Intel_Xeon" in names
        assert "single/M1_Pro" in names
        assert "per_core/M1_Ultra" in names
        assert "per_thread/Intel_Xeon" in names
        # On M1 one-process-per-hardware-thread equals per-core (no SMT).
        assert "per_thread/M1_Pro" in names
        # Xeon rows are normalized to themselves.
        xeon = figure.get_series("single/Intel_Xeon")
        assert all(value == pytest.approx(1.0) for value in xeon.y)

    @pytest.mark.parametrize("fig_id", ["fig2", "fig3", "fig4", "fig5"])
    def test_topdown_figures_have_all_rows(self, tiny_runner, fig_id):
        figure = FIGURES[fig_id].run(tiny_runner)
        names = [s.name for s in figure.series]
        for config in GEM5_CONFIGS:
            assert config.label in names
        for spec in SPEC_CONFIGS:
            assert spec.upper() in names

    def test_fig2_buckets_sum_to_one(self, tiny_runner):
        figure = FIGURES["fig2"].run(tiny_runner)
        for series in figure.series:
            assert sum(series.y) == pytest.approx(1.0, abs=1e-6), series.name

    def test_fig5_shares_are_fractions(self, tiny_runner):
        figure = FIGURES["fig5"].run(tiny_runner)
        for series in figure.series:
            assert all(0.0 <= value <= 1.0 for value in series.y)

    def test_fig6_gem5_and_spec_series(self, tiny_runner):
        figure = FIGURES["fig6"].run(tiny_runner)
        gem5 = figure.get_series("gem5")
        spec = figure.get_series("SPEC")
        assert len(gem5.y) == len(GEM5_CONFIGS)
        assert len(spec.y) == len(SPEC_CONFIGS)

    def test_fig7_has_ipc_and_stalls(self, tiny_runner):
        figure = FIGURES["fig7"].run(tiny_runner)
        assert figure.get_series("ipc/Intel_Xeon")
        assert figure.get_series("stall_fraction/M1_Ultra")

    def test_fig8_metrics_rows(self, tiny_runner):
        figure = FIGURES["fig8"].run(tiny_runner)
        series = figure.get_series("Intel_Xeon/O3")
        assert len(series.y) == 5
        assert all(0.0 <= value <= 1.0 for value in series.y)

    def test_fig9_occupancy_and_bandwidth(self, tiny_runner):
        figure = FIGURES["fig9"].run(tiny_runner)
        occ = figure.get_series("llc_occupancy/SE")
        assert all(value > 0 for value in occ.y)
        bw = figure.get_series("dram_bw/SE")
        assert all(value >= 0 for value in bw.y)

    def test_fig10_policies_present(self, tiny_runner):
        figure = FIGURES["fig10"].run(tiny_runner)
        assert {s.name for s in figure.series} == {"THP", "EHP"}

    def test_fig11_reductions(self, tiny_runner):
        figure = FIGURES["fig11"].run(tiny_runner)
        reduction = figure.get_series("itlb_overhead_reduction")
        assert all(value <= 1.0 for value in reduction.y)

    def test_fig12_platforms(self, tiny_runner):
        figure = FIGURES["fig12"].run(tiny_runner,
                                      platforms=["Intel_Xeon"])
        assert [s.name for s in figure.series] == ["Intel_Xeon"]

    def test_fig13_normalized_to_base(self, tiny_runner):
        figure = FIGURES["fig13"].run(tiny_runner)
        series = figure.get_series("normalized_time")
        base_index = series.x.index("3.1GHz")
        assert series.y[base_index] == pytest.approx(1.0)
        turbo_index = series.x.index("TurboBoost")
        assert series.y[turbo_index] < 1.0
        assert series.y[series.x.index("1.2GHz")] > 1.0

    def test_fig14_baseline_zero_speedup(self, tiny_runner):
        figure = FIGURES["fig14"].run(tiny_runner)
        for series in figure.series:
            assert series.y[0] == pytest.approx(0.0)
            assert series.x[0] == "8KB/2:8KB/2:512KB/8"

    def test_fig15_cdfs_monotone(self, tiny_runner):
        figure = FIGURES["fig15"].run(tiny_runner)
        for model in ("ATOMIC", "O3"):
            cdf = figure.get_series(model).y
            assert cdf == sorted(cdf)
            assert cdf[-1] <= 1.0

    def test_fig16_scaling_series(self, tiny_runner):
        figure = FIGURES["fig16"].run(tiny_runner, workload="sieve")
        assert {s.name for s in figure.series} == \
            {"ATOMIC", "TIMING", "IDEAL"}
        for series in figure.series:
            assert series.x == ["1", "2", "4"]
            assert all(value > 0 for value in series.y)
        # The 1-thread point is the baseline: speedup exactly 1.0.
        for model in ("atomic", "timing"):
            one = FIGURES["fig16"].speedup_for(figure, model, 1)
            assert one == pytest.approx(1.0)
        assert figure.get_series("IDEAL").y == [1.0, 2.0, 4.0]

    def test_fig17_traffic_starts_at_zero_and_moves(self, tiny_runner):
        figure = FIGURES["fig17"].run(tiny_runner, workload="sieve")
        assert [s.name for s in figure.series] == \
            ["snoops", "snoopInvalidates", "snoopWritebacks"]
        # One core: a one-member coherence domain never probes anything.
        for name in ("snoops", "snoopInvalidates", "snoopWritebacks"):
            assert FIGURES["fig17"].traffic_for(figure, name, 1) == 0.0
        # Four cores sharing data: the protocol actually fires.
        assert FIGURES["fig17"].traffic_for(figure, "snoops", 4) > 0

    def test_runner_caches_g5_runs(self, tiny_runner):
        stats = tiny_runner.cache_stats()
        # All previous tests shared one runner: far fewer g5 runs than
        # host replays proves the cache works.
        assert stats["g5_runs"] <= stats["host_replays"]
