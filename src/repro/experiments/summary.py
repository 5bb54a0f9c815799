"""Paper-vs-measured summary report (EXPERIMENTS.md generator).

Every paper claim is declared once, in :data:`CLAIMS`: the figure (and
its run args) it reads, the claim text, the paper's value as printed,
one extractor, the acceptance band, a paper rule and a note.  The
report renders one row per claim; ``tests/experiments/
test_paper_claims.py`` asserts each claim's acceptance band from the
same entry.  Every verdict comes from :func:`verdict`, which
:data:`RULE` states in the report's header:

- ``miss`` — a measured value lies outside its acceptance band;
- ``match`` — inside it, and the paper rule holds within :data:`SLACK`;
- ``shape`` — inside it, but the paper rule does not hold; the note
  says why.

``python -m repro.cli report`` (or ``repro-g5 report``) writes the file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import FIGURES
from ..core.report import Figure
from .common import GEM5_CONFIGS
from .fig01_platform_comparison import smt_off_benefit, speedup_summary
from .fig03_frontend_split import latency_share
from .fig04_fe_latency_breakdown import branching_overhead, category_value
from .fig05_fe_bandwidth_breakdown import mite_share
from .fig07_m1_ipc import ipc_ratio
from .fig08_miss_rates import platform_ratio
from .fig10_hugepages import speedup as hp_speedup
from .fig11_thp_itlb import mean_itlb_reduction
from .fig12_compiler_o3 import mean_speedup
from .fig13_frequency import slowdown_at
from .fig14_firesim_sweep import speedup_for
from .fig15_hot_functions import functions_executed, hottest_share
from .runner import ExperimentRunner


#: The one ``## `` section of EXPERIMENTS.md that ``report`` writes.
OWNED_SECTION = "## How runs are executed and cached"

#: Fig. 1 as the claim table reads it: three workloads, two models.
FIG1_CLAIM_ARGS = {"workloads": ["water_nsquared", "dedup", "canneal"],
                   "cpu_models": ["atomic", "o3"]}

#: How far outside the paper's number a value may fall and still
#: ``match``: the paper's band widened by this fraction at each end.
SLACK = 0.25

MATCH = "match"
SHAPE = "shape"
MISS = "miss"

#: The verdict rule, as the report's header states it.
RULE = (
    "Verdicts, one rule for every row: **miss** = a measured value lies "
    "outside the row's acceptance band (the band "
    "`tests/experiments/test_paper_claims.py` asserts); **match** = "
    "inside it, and the row's paper rule holds with "
    f"{SLACK:.0%} slack; **shape** = inside it, but the paper rule "
    "fails, for the reason the note gives.  Paper rules: "
    f"`in_band(lo, hi)` = every value within [lo·{1 - SLACK:g}, "
    f"hi·{1 + SLACK:g}]; `ratio_within(t)` = `in_band(t, t)`, one "
    "target per value; `holds` = a direction claim, which its "
    "acceptance band already states.")

INF = math.inf


@dataclass(frozen=True)
class Band:
    """An acceptance band: ``lo < value < hi``, or ``<=`` if closed."""

    lo: float
    hi: float
    closed: bool = False

    def __contains__(self, value: float) -> bool:
        if self.closed:
            return self.lo <= value <= self.hi
        return self.lo < value < self.hi


def between(lo: float, hi: float) -> Band:
    return Band(lo, hi)


def within(lo: float, hi: float) -> Band:
    return Band(lo, hi, closed=True)


def above(lo: float) -> Band:
    return Band(lo, INF)


def below(hi: float) -> Band:
    return Band(-INF, hi)


def _per_value(items, count: int) -> tuple:
    """One item for every value, or exactly one item per value."""
    items = items if isinstance(items, tuple) else (items,)
    if len(items) == 1:
        return items * count
    if len(items) != count:
        raise ValueError(f"{len(items)} items for {count} values")
    return items


#: A paper rule: does a claim's measured values reproduce the paper's?
Rule = Callable[[Sequence[float]], bool]


def in_band(lo: float, hi: float) -> Rule:
    return lambda values: all(lo * (1 - SLACK) <= value <= hi * (1 + SLACK)
                              for value in values)


def ratio_within(*targets: float) -> Rule:
    return lambda values: all(
        in_band(target, target)([value])
        for value, target in zip(values, _per_value(targets, len(values))))


def holds(values: Sequence[float]) -> bool:
    return True


#: An extractor: (figure, runner) -> (values, measured text).
Extractor = Callable[[Figure, ExperimentRunner],
                     tuple[Sequence[float], str]]


@dataclass(frozen=True)
class Claim:
    """One paper claim, declared once."""

    figure: str
    claim: str
    paper: str
    read: Extractor
    band: Band | tuple[Band, ...]
    rule: Rule
    note: str = ""
    args: dict = field(default_factory=dict)

    @property
    def experiment(self) -> str:
        return f"Fig.{self.figure[3:]}"

    def bands(self, values: Sequence[float]) -> tuple[Band, ...]:
        return _per_value(self.band, len(values))

    def measure(self, figures: Figures) -> tuple[Sequence[float], str]:
        return self.read(figures.run(self.figure, **self.args),
                         figures.runner)


class Figures:
    """Each (figure, args) regenerated once on one runner."""

    def __init__(self, runner: ExperimentRunner) -> None:
        self.runner = runner
        self._built: dict[tuple, Figure] = {}

    @staticmethod
    def _key(figure: str, args: dict) -> tuple:
        return figure, repr(sorted(args.items()))

    def run(self, figure: str, **args) -> Figure:
        key = self._key(figure, args)
        if key not in self._built:
            self._built[key] = FIGURES[figure].run(self.runner, **args)
        return self._built[key]

    def prefetch(self, claims: Sequence[Claim]) -> None:
        """Resolve every job the claims' figures declare in one batch,
        so :meth:`run` reads only the runner's memo."""
        declared = {self._key(claim.figure, claim.args): claim
                    for claim in claims}
        self.runner.engine.run_batch(
            job for claim in declared.values()
            for job in self.runner.figure_jobs([FIGURES[claim.figure]],
                                               **claim.args))


def verdict(claim: Claim, values: Sequence[float]) -> str:
    """The one verdict rule (:data:`RULE`)."""
    if any(value not in band
           for value, band in zip(values, claim.bands(values))):
        return MISS
    return MATCH if claim.rule(values) else SHAPE


_PCT, _X1, _X2 = "{:.1%}", "{:.1f}x", "{:.2f}x"


def _each(values: Sequence[float], fmt: str = _PCT) -> tuple:
    return values, " / ".join(fmt.format(value) for value in values)


def _span(values: Sequence[float], fmt: str = _PCT) -> tuple:
    return values, f"{fmt.format(min(values))} - {fmt.format(max(values))}"


def _gem5_column(figure: Figure, column: int) -> list[float]:
    return [figure.get_series(config.label).y[column]
            for config in GEM5_CONFIGS]


def _m1_single(figure: Figure, _) -> tuple:
    return _span([1.0 / y for s in figure.series
                  if s.name.startswith("single/M1") for y in s.y], _X2)


def _latency_shift(figure: Figure, _) -> tuple:
    atomic, o3 = (latency_share(figure, f"{model}_PARSEC")
                  for model in ("ATOMIC", "O3"))
    boot = (latency_share(figure, "O3_BOOT_EXIT")
            - latency_share(figure, "ATOMIC_BOOT_EXIT"))
    return ((o3 - atomic, boot),
            f"latency share {atomic:.1%} (Atomic) -> {o3:.1%} (O3)")


def _o3_over_atomic(overhead) -> Extractor:
    return lambda figure, _: _each(
        [overhead(figure, "O3_PARSEC")
         / max(1e-9, overhead(figure, "ATOMIC_PARSEC"))], _X2)


def _dsb_gap(figure: Figure, _) -> tuple:
    gem5 = figure.get_series("gem5").y
    spec = figure.get_series("SPEC")
    x264 = spec.y[spec.x.index("525.X264_R")]
    return ((max(gem5), x264),
            f"gem5 {min(gem5):.1%}-{max(gem5):.1%}; x264 {x264:.1%}")


def _xeon_over(metrics: tuple[str, ...], m1: str) -> Extractor:
    return lambda figure, _: _each(
        [platform_ratio(figure, metric, "Intel_Xeon", m1)
         for metric in metrics], _X1)


def _llc_occupancy(figure: Figure, _) -> tuple:
    values = (figure.get_series("llc_occupancy/SE").y
              + figure.get_series("llc_occupancy/FS").y)
    return values, (f"{min(values) / 1024:.0f}KB - "
                    f"{max(values) / 1024 / 1024:.2f}MB")


def _dram_bandwidth(figure: Figure, _) -> tuple:
    values = (figure.get_series("dram_bw/SE").y
              + figure.get_series("dram_bw/FS").y)
    return values, f"peak {max(values):.2f} GB/s (capacity 141)"


def _detailed_gain(figure: Figure, _) -> tuple:
    detailed = max(hp_speedup(figure, "THP", model)
                   for model in ("minor", "o3"))
    simple = hp_speedup(figure, "THP", "atomic")
    return ((detailed - simple,),
            f"Atomic {simple:.1%} vs Minor/O3 {detailed:.1%}")


def _firesim(label: str) -> Extractor:
    return lambda figure, _: _each(
        [speedup_for(figure, model, label)
         for model in ("ATOMIC", "TIMING", "O3")])


def _l2_delta(figure: Figure, _) -> tuple:
    deltas = [abs(speedup_for(figure, model, "32KB/8:32KB/8:2048KB/16")
                  - speedup_for(figure, model, "32KB/8:32KB/8:1024KB/8"))
              for model in ("ATOMIC", "O3")]
    return deltas, "delta " + _each(deltas)[1] + " (Atomic / O3)"


def _per_model(metric, fmt: str = _PCT) -> Extractor:
    return lambda figure, _: _each(
        [metric(figure, model) for model in ("atomic", "timing", "minor",
                                             "o3")], fmt)


FIG14_16K = "16KB/4:16KB/4:512KB/8"
FIG14_BEST = "64KB/16:64KB/16:512KB/8"

#: Every paper claim the report and the claim tests read, in report
#: order.  Each band is the one the claim test asserts.
CLAIMS: tuple[Claim, ...] = (
    Claim("fig1", "M1 single-run speedup over the Xeon", "1.70x - 3.02x",
          _m1_single, between(1.3, 4.0), in_band(1.70, 3.02),
          "host-model replay times, not measured runs", FIG1_CLAIM_ARGS),
    Claim("fig1", "max co-running speedup (M1_Ultra vs Xeon-SMT)", "4.15x",
          lambda figure, _: _each([speedup_summary(figure)["max_speedup"]],
                                  _X2),
          between(2.0, 6.5), ratio_within(4.15),
          "contention model compresses the tail", FIG1_CLAIM_ARGS),
    Claim("fig1", "SMT-off per-process time saving", "~47%",
          lambda _, runner: _each([smt_off_benefit(runner)]),
          between(0.25, 0.65), ratio_within(0.47),
          "modelled SMT penalty: L1/TLB sharing plus slot sharing",
          FIG1_CLAIM_ARGS),
    Claim("fig2", "gem5 retiring slots", "43.5% - 64.7%",
          lambda figure, _: _span(_gem5_column(figure, 0)),
          within(0.30, 0.70), in_band(0.435, 0.647),
          "O3 rows lose retiring slots to iCache stalls"),
    Claim("fig2", "gem5 front-end bound slots", "30.1% - 41.5%",
          lambda figure, _: _span(_gem5_column(figure, 1)),
          within(0.25, 0.60), in_band(0.301, 0.415),
          "FE-dominance reproduced; O3 rows' iCache stalls sit high"),
    Claim("fig2", "gem5 back-end bound slots", "0.9% - 11.3%",
          lambda figure, _: _span(_gem5_column(figure, 3)),
          below(0.15), in_band(0.009, 0.113),
          "gem5's data set stays cache-resident in the model too"),
    Claim("fig2", "505.mcf_r back-end bound / retiring", "53.7% / 13.2%",
          lambda figure, _: _each([figure.get_series("505.MCF_R").y[i]
                                   for i in (3, 0)]),
          (above(0.30), below(0.35)), ratio_within(0.537, 0.132),
          "synthetic mcf stand-in is less memory-bound than SPEC's"),
    Claim("fig3", "detail shifts the front-end toward latency-bound",
          "Atomic bandwidth-skewed, O3 latency-skewed",
          _latency_shift, above(0.0), holds),
    Claim("fig4", "O3 iCache stalls vs Atomic", "up to 11x",
          _o3_over_atomic(lambda figure, row:
                          category_value(figure, row, "icache")),
          above(1.0), ratio_within(11.0),
          "direction holds; cold-code churn compresses the ratio"),
    Claim("fig4", "O3 branching overhead vs Atomic", "6.0x",
          _o3_over_atomic(branching_overhead),
          above(1.1), ratio_within(6.0),
          "direction holds; see EXPERIMENTS.md discussion"),
    Claim("fig5", "gem5 MITE share of FE bandwidth stalls", "92% - 97%",
          lambda figure, _: _span([mite_share(figure, config.label)
                                   for config in GEM5_CONFIGS]),
          above(0.80), in_band(0.92, 0.97),
          "gem5's code has no reuse at µop-cache timescales"),
    Claim("fig6", "DSB coverage: gem5 far below SPEC",
          "gem5 near zero; SPEC high",
          _dsb_gap, (below(0.40), above(0.60)), holds),
    Claim("fig7", "M1 IPC vs Xeon IPC running gem5", "2.22x / 2.24x",
          lambda figure, _: _each([ipc_ratio(figure, platform)
                                   for platform in ("M1_Pro", "M1_Ultra")],
                                  _X2),
          between(1.5, 3.2), ratio_within(2.22, 2.24),
          "M1 and Xeon are parameter sets of one host model"),
    Claim("fig8", "Xeon iTLB / dTLB miss-rate vs M1_Ultra", "11.7x / 10.5x",
          _xeon_over(("itlb_miss_rate", "dtlb_miss_rate"), "M1_Ultra"),
          above(3.0), ratio_within(11.7, 10.5),
          "4KB vs 16KB pages over the same synthetic text and heap"),
    Claim("fig8", "Xeon dCache miss-rate vs M1", "10.1x - 13.4x",
          _xeon_over(("l1d_miss_rate",), "M1_Pro"),
          above(1.25), in_band(10.1, 13.4),
          "cold-code churn is uncacheable on both platforms"),
    Claim("fig9", "LLC occupancy per gem5 process", "255KB - 3.1MB",
          _llc_occupancy, within(100 * 1024, 8 * 1024 * 1024),
          in_band(255 * 1024, 3.1 * 1024 * 1024),
          "replayed trace prefixes, not whole runs"),
    Claim("fig9", "DRAM bandwidth of a gem5 process", "negligible",
          _dram_bandwidth, below(5.0), holds),
    Claim("fig10", "huge-page speedup (best case)", "up to 5.9%",
          lambda figure, _: _each([max(v for s in figure.series
                                       for v in s.y)]),
          within(-0.02, 0.15), ratio_within(0.059),
          "iTLB stalls are under 0.5% of the model's slots"),
    Claim("fig10", "detailed CPUs benefit more than simple", "yes",
          _detailed_gain, within(0.0, INF), holds),
    Claim("fig11", "THP mean iTLB-overhead reduction", "63%",
          lambda figure, _: _each([mean_itlb_reduction(figure)]),
          above(0.4), ratio_within(0.63),
          "THP's 2MB pages cover nearly all the hot text"),
    Claim("fig12", "-O3 build speedup on the Xeon", "1.38%",
          lambda figure, _: _each([mean_speedup(figure, "Intel_Xeon")]),
          between(-0.01, 0.10), ratio_within(0.0138),
          "-O3 shrinks every function 4%; time follows"),
    Claim("fig13", "slowdown at 1.2GHz (vs 3.1GHz)", "2.67x (linear)",
          lambda figure, _: _each([slowdown_at(figure, 1.2)], _X2),
          between(2.0, 2.7), ratio_within(2.67),
          "slightly sub-linear: DRAM latency is fixed in nanoseconds"),
    Claim("fig14", "speedup at 16KB L1 (Atomic/Timing/O3)",
          "30% / 25% / 18%", _firesim(FIG14_16K),
          between(0.05, 0.80), ratio_within(0.30, 0.25, 0.18),
          "the 8KB L1I thrashes; 16KB nearly holds sieve's hot code"),
    Claim("fig14", "speedup at best config (Atomic/Timing/O3)",
          "68.7% / 68.2% / 43.8%", _firesim(FIG14_BEST),
          (above(0.25), between(-INF, INF), above(0.10)),
          ratio_within(0.687, 0.682, 0.438),
          "at 64KB O3's L1I misses nearly vanish too"),
    Claim("fig14", "doubling L2 has almost no effect", "yes",
          _l2_delta, below(0.06), holds),
    Claim("fig15", "hottest-function time share (A/T/M/O3)",
          "10.1% / 8.5% / 2.9% / 4.2%", _per_model(hottest_share),
          below(0.25), ratio_within(0.101, 0.085, 0.029, 0.042),
          "no killer function reproduced; Minor's share runs high"),
    Claim("fig15", "functions executed (A/T/M/O3)",
          "1602 / 2557 / 3957 / 5209", _per_model(functions_executed, "{}"),
          (between(1000, 2400), between(1600, 3400), between(2000, 5000),
           between(3400, 6800)),
          ratio_within(1602, 2557, 3957, 5209),
          "Minor records coarser stage functions than real gem5"),
)


def claim_for(text: str) -> Claim:
    """The claim of :data:`CLAIMS` whose claim text is ``text``."""
    (claim,) = [claim for claim in CLAIMS if claim.claim == text]
    return claim


@dataclass
class ClaimRow:
    """One paper claim with its measured counterpart."""

    experiment: str
    claim: str
    paper: str
    measured: str
    verdict: str
    note: str = ""


def collect_claims(runner: ExperimentRunner) -> list[ClaimRow]:
    """Measure every claim of :data:`CLAIMS` and judge it by the rule."""
    figures = Figures(runner)
    figures.prefetch(CLAIMS)
    rows = []
    for claim in CLAIMS:
        values, measured = claim.measure(figures)
        rows.append(ClaimRow(claim.experiment, claim.claim, claim.paper,
                             measured, verdict(claim, values), claim.note))
    return rows


def render_markdown(rows: list[ClaimRow], runner: ExperimentRunner) -> str:
    """Render the generated region of EXPERIMENTS.md: title through the
    claim table, then :data:`OWNED_SECTION`."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "This table and the next section are generated by",
        "`repro-g5 report` (see `repro.experiments.summary`); every",
        "other section is written by hand and kept as it is.  Workload "
        f"scale: `{runner.scale}`; traces truncated to "
        f"{runner.max_records} records where longer.",
        "",
        RULE,
        "",
        "| Experiment | Claim | Paper | Measured | Verdict | Note |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row.experiment} | {row.claim} | {row.paper} | "
            f"{row.measured} | {row.verdict} | {row.note} |")
    lines += [
        "",
        OWNED_SECTION,
        "",
        "All g5 simulations and host replays behind this table resolve",
        "through the `repro.exec` engine (`repro-g5 figs` / `repro-g5",
        "report`):",
        "",
        "- `--jobs N` fans disk-cache misses across `N` worker",
        "  processes — every figure's declared g5 runs, then its host",
        "  and SPEC replays — each set scheduled highest-price-first",
        "  by a static cost model (CPU-model/scale/mode/core weights).",
        "- Results land in a content-addressed cache at",
        "  `~/.cache/repro-g5` (override with `--cache-dir` or",
        "  `$REPRO_CACHE_DIR`). Keys hash the simulated-machine config,",
        "  workload parameters, replay knobs, *and* a fingerprint of",
        "  the simulator source, so code edits invalidate exactly the",
        "  artifacts they can affect — stale results are impossible,",
        "  and no manual invalidation is ever needed.",
        "- Host and SPEC replays are jobs of the same engine, cached",
        "  under their replay knobs — Fig. 14's FireSim sweep included,",
        "  which always replays the whole trace (`--max-records`",
        "  truncates every other replay).",
        "- A warm rerun executes zero simulations and renders",
        "  bit-identical output (property-tested in `tests/exec/`).",
        "  `--no-cache` forces a cold run; `repro-g5 cache",
        "  info|list|clear [--kind g5|host|spec|sample|window]`",
        "  inspects the store",
        "  and `repro-g5 cache prune --max-bytes SIZE` bounds it",
        "  (oldest entries evicted first).",
        "- Figures can also be generated against a **warm shared",
        "  daemon**: `repro-g5 serve` keeps one process holding the",
        "  open cache and an in-memory result",
        "  memo, and submissions whose cache key matches an in-flight",
        "  job coalesce onto a single execution. Served payloads are",
        "  bit-for-bit the direct-run payloads (under test), so",
        "  daemon-backed and local regeneration are interchangeable —",
        "  see the README's \"Serving\" section.",
        "",
    ]
    return "\n".join(lines) + "\n"


def _hand_written_sections(existing: str) -> str:
    """Every ``## `` section of ``existing`` the generator does not own.

    The generator owns the file's head (title through the claim table)
    and :data:`OWNED_SECTION`; the rest is prose maintained by hand and
    is carried over byte for byte, in order.
    """
    sections = re.split(r"(?m)^(?=## )", existing)[1:]
    return "".join(section for section in sections
                   if section.splitlines()[0] != OWNED_SECTION)


def generate_report(scale: str = "simsmall",
                    max_records: int | None = 60000,
                    jobs: int = 1,
                    cache=None, existing: str = "") -> str:
    """Convenience: run everything and return the markdown.

    ``jobs``/``cache`` go straight to the runner's execution engine, so
    a report regeneration can fan the g5 runs and replays each claimed
    figure declares over a worker pool and reuse (or warm) the on-disk
    result cache.  ``existing`` is the file being regenerated: its
    hand-written sections follow the generated region untouched.
    """
    runner = ExperimentRunner(scale=scale, max_records=max_records,
                              jobs=jobs, cache=cache)
    rows = collect_claims(runner)
    return render_markdown(rows, runner) + _hand_written_sections(existing)
