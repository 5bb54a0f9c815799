"""Command-line interface: run simulations, profiles, and experiments.

Examples::

    repro-g5 simulate --workload water_nsquared --cpu o3 --scale simsmall
    repro-g5 profile --workload dedup --cpu timing --platform M1_Pro
    repro-g5 figure fig2 --scale simsmall
    repro-g5 figs --jobs 4                 # all figures, parallel executor
    repro-g5 figs fig2 fig3 --no-cache     # a subset, cold
    repro-g5 cache info                    # inspect the on-disk cache
    repro-g5 tables
    repro-g5 list
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .core.profiler import analyze_profile
from .exec import (ExecutionEngine, ProgressReporter, ReplayJob,
                   ResultCache, default_cache_dir)
from .exec.keys import KEY_KINDS
from .experiments import FIGURES, ExperimentRunner, tables
from .experiments.common import requirement_job
from .g5.system import SimConfig, System, simulate
from .host.platform import get_platform
from .workloads.registry import SCALES, WORKLOADS, get_workload


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _byte_size(text: str) -> int:
    """Parse ``512``, ``64K``, ``100M``, ``2G`` into bytes."""
    raw = text.strip().lower().removesuffix("b")
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a size like 512, 64K, 100M or 2G, "
            f"got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"size must be >= 0, got {text!r}")
    return value


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that goes through the executor."""
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for cache misses, g5 "
                             "runs and host replays (default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache entirely")
    parser.add_argument("--cache-dir", default=None,
                        help="cache location (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro-g5)")


def _cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-g5",
        description="Reproduction of 'Profiling gem5 Simulator' "
                    "(ISPASS 2023)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one g5 simulation")
    sim.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    sim.add_argument("--cpu", default="atomic",
                     choices=["atomic", "timing", "minor", "o3"])
    sim.add_argument("--scale", default="simsmall", choices=SCALES)
    sim.add_argument("--stats-file", default=None,
                     help="write gem5-style stats.txt to this path")
    sim.add_argument("--domains", type=_positive_int, default=1,
                     help="event-queue domains (2 = CPU + memory shard; "
                          "default: 1, single queue)")
    sim.add_argument("--link-latency", type=int, default=0,
                     help="cross-domain boundary-link latency in cycles "
                          "(default: 0; >0 changes guest timing)")
    sim.add_argument("--sanitize", action="store_true",
                     help="arm the runtime ownership sanitizer (requires "
                          "--domains >= 2); exits nonzero on any "
                          "cross-domain write outside the boundary "
                          "channels")
    sim.add_argument("--threads", "-n", type=_positive_int, default=1,
                     help="guest threads for workloads with a threaded "
                          "variant (default: 1, the legacy kernel)")
    sim.add_argument("--cores", type=_positive_int, default=None,
                     help="simulated cores (default: one per guest "
                          "thread; SE mode, atomic/timing models only)")

    prof = sub.add_parser("profile", help="profile one g5 run on a host")
    prof.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    prof.add_argument("--cpu", default="atomic",
                      choices=["atomic", "timing", "minor", "o3"])
    prof.add_argument("--scale", default="simsmall", choices=SCALES)
    prof.add_argument("--platform", default="Intel_Xeon",
                      choices=["Intel_Xeon", "M1_Pro", "M1_Ultra"])
    prof.add_argument("--hotspots", type=int, default=10,
                      help="print the N hottest functions")

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("figure_id", choices=sorted(FIGURES))
    fig.add_argument("--scale", default="simsmall", choices=SCALES)
    fig.add_argument("--max-records", type=int, default=None,
                     help="truncate traces before replay (sampling)")
    _add_executor_args(fig)

    figs = sub.add_parser(
        "figs", help="regenerate many figures via the parallel executor")
    figs.add_argument("figures", nargs="*", metavar="FIG",
                      help="figure ids (default: all fifteen)")
    figs.add_argument("--scale", default="simsmall", choices=SCALES)
    figs.add_argument("--max-records", type=int, default=None,
                      help="truncate traces before replay (sampling)")
    figs.add_argument("--quiet", action="store_true",
                      help="suppress per-run progress lines")
    _add_executor_args(figs)

    cache = sub.add_parser(
        "cache", help="inspect, clear, or prune the on-disk result cache")
    cache.add_argument("action", choices=["info", "list", "clear",
                                          "prune"])
    cache.add_argument("--kind", default=None,
                       choices=list(KEY_KINDS),
                       help="restrict clear to one entry kind")
    cache.add_argument("--max-bytes", type=_byte_size, default=None,
                       help="prune: evict oldest entries until the "
                            "store fits in this many bytes "
                            "(accepts K/M/G suffixes)")
    cache.add_argument("--cache-dir", default=None,
                       help="cache location (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro-g5)")

    sub.add_parser("tables", help="print Tables I and II")
    sub.add_parser("list", help="list workloads, platforms, figures")

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md's claim table "
                       "(hand-written sections are kept)")
    report.add_argument("--scale", default="simsmall", choices=SCALES)
    report.add_argument("--max-records", type=int, default=60000)
    report.add_argument("--output", default="EXPERIMENTS.md",
                        help="file to write (default: EXPERIMENTS.md)")
    _add_executor_args(report)

    srv = sub.add_parser(
        "serve", help="run the simulation-as-a-service daemon")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8091,
                     help="listen port (default: 8091; 0 = ephemeral)")
    srv.add_argument("--jobs", type=_positive_int, default=2,
                     help="concurrent simulation workers (default: 2)")
    srv.add_argument("--max-queue", type=_positive_int, default=64,
                     help="admission-control queue depth; beyond this "
                          "submissions get 429 (default: 64)")
    srv.add_argument("--timeout", type=float, default=None,
                     help="per-job wall-clock budget in seconds "
                          "(default: unlimited)")
    srv.add_argument("--retries", type=int, default=2,
                     help="retries after worker crashes (default: 2)")
    srv.add_argument("--cache-max-bytes", type=_byte_size, default=None,
                     help="prune the disk cache back under this size "
                          "as the daemon runs (accepts K/M/G suffixes)")
    srv.add_argument("--no-cache", action="store_true",
                     help="skip the on-disk result cache entirely")
    srv.add_argument("--cache-dir", default=None,
                     help="cache location (default: $REPRO_CACHE_DIR "
                          "or ~/.cache/repro-g5)")
    srv.add_argument("--verbose", action="store_true",
                     help="log every HTTP request to stderr")

    fleet = sub.add_parser(
        "fleet", help="multi-node serving: coordinator and workers")
    fleet.add_argument("action", choices=["coordinator", "worker"])
    fleet.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    fleet.add_argument("--port", type=int, default=None,
                       help="listen port (default: 8090 coordinator, "
                            "ephemeral worker)")
    fleet.add_argument("--coordinator", default="http://127.0.0.1:8090",
                       help="worker: coordinator base URL "
                            "(default: http://127.0.0.1:8090)")
    fleet.add_argument("--jobs", type=_positive_int, default=2,
                       help="worker: concurrent simulation executors "
                            "(default: 2)")
    fleet.add_argument("--max-queue", type=_positive_int, default=64,
                       help="worker: admission-control queue depth "
                            "(default: 64)")
    fleet.add_argument("--advertise-url", default=None,
                       help="worker: URL peers should reach us at "
                            "(default: the bound address)")
    fleet.add_argument("--heartbeat-timeout", type=float, default=3.0,
                       help="coordinator: seconds without a heartbeat "
                            "before a worker is declared dead "
                            "(default: 3.0)")
    fleet.add_argument("--max-pending", type=_positive_int, default=256,
                       help="coordinator: queued jobs before 429s "
                            "(default: 256)")
    fleet.add_argument("--dispatchers", type=_positive_int, default=8,
                       help="coordinator: concurrent dispatch threads "
                            "(default: 8)")
    fleet.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
    fleet.add_argument("--cache-dir", default=None,
                       help="cache location (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro-g5)")
    fleet.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    sample = sub.add_parser(
        "sample", help="SimPoint-style sampled simulation")
    sample.add_argument("action",
                        choices=["profile", "pick", "run", "report"])
    sample.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    sample.add_argument("--cpu", default="o3",
                        choices=["atomic", "timing", "minor", "o3"])
    sample.add_argument("--scale", default="simsmall", choices=SCALES)
    sample.add_argument("--interval", type=_positive_int, default=None,
                        help="instructions per interval (default: 250)")
    sample.add_argument("--warmup", type=int, default=None,
                        help="warmup instructions before each measured "
                             "window (default: 1000)")
    sample.add_argument("--k", type=int, default=0,
                        help="cluster count (0 = BIC-select, default)")
    sample.add_argument("--max-k", type=_positive_int, default=None,
                        help="largest k the BIC selection may pick "
                             "(default: 8)")
    sample.add_argument("--seed", type=int, default=None,
                        help="clustering/projection seed (default: 1234)")
    sample.add_argument("--domains", type=_positive_int, default=None,
                        help="event-queue domains for the detailed "
                             "measurement systems (default: 1)")
    sample.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON")
    _add_executor_args(sample)

    ckpt = sub.add_parser(
        "ckpt", help="take, inspect, or restore SE-mode checkpoints")
    ckpt.add_argument("action", choices=["take", "info", "restore"])
    ckpt.add_argument("file", help="checkpoint file path")
    ckpt.add_argument("--workload", default=None,
                      choices=sorted(WORKLOADS),
                      help="guest workload (take/restore)")
    ckpt.add_argument("--scale", default="simsmall", choices=SCALES)
    ckpt.add_argument("--at", type=_positive_int, default=None,
                      help="take: checkpoint after this many committed "
                           "instructions")
    ckpt.add_argument("--cpu", default="o3",
                      choices=["atomic", "timing", "minor", "o3"],
                      help="restore: CPU model to continue with")
    ckpt.add_argument("--json", action="store_true", dest="as_json",
                      help="emit machine-readable JSON")

    lint = sub.add_parser(
        "lint", help="simulator-invariant linter / guest-binary analyzer")
    lint.add_argument("--path", default=None,
                      help="directory to lint (default: the repro package)")
    lint.add_argument("--format", default="text", dest="fmt",
                      choices=["text", "json", "sarif"],
                      help="report format (default: text)")
    lint.add_argument("--output", default=None,
                      help="write the report to this file instead of stdout")
    lint.add_argument("--baseline", default=None,
                      help="baseline file (default: lint-baseline.json "
                           "found from the working directory upward)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file (report everything)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline to the current findings "
                           "and exit 0")
    lint.add_argument("--list-passes", action="store_true",
                      help="list the registered lint passes and exit")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the content-addressed lint result "
                           "cache for this run")
    lint.add_argument("--cache-dir", default=None,
                      help="lint cache location (default: $REPRO_CACHE_DIR "
                           "or ~/.cache/repro-g5)")
    lint.add_argument("--ownership-map", default=None, metavar="FILE",
                      dest="ownership_map",
                      help="export the runtime domain-ownership map (plus "
                           "the race pass's access inventory) as JSON and "
                           "exit")
    lint.add_argument("--guest", default=None, metavar="WORKLOAD",
                      choices=sorted(WORKLOADS),
                      help="analyze this guest workload's binary instead "
                           "of linting host sources")
    lint.add_argument("--scale", default="test", choices=SCALES,
                      help="guest build scale for --guest (default: test)")
    lint.add_argument("--dynamic", action="store_true",
                      help="with --guest: also execute the workload and "
                           "cross-check the static CFG against the trace")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    if args.sanitize and args.domains < 2:
        print("error: --sanitize requires --domains >= 2 (it validates "
              "the sharded domain partition)", file=sys.stderr)
        return 2
    cores = args.cores if args.cores is not None else max(1, args.threads)
    if args.threads > 1 and not workload.threaded:
        print(f"error: workload {args.workload!r} has no threaded "
              f"variant", file=sys.stderr)
        return 2
    try:
        config = SimConfig(cpu_model=args.cpu, mode=workload.mode,
                           domains=args.domains, cores=cores,
                           link_latency_cycles=args.link_latency,
                           sanitize=args.sanitize)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = System(config)
    program = workload.build(args.scale, threads=args.threads)
    if workload.mode == "se":
        system.set_se_workload(program, process_name=args.workload)
    else:
        system.set_fs_workload(program)
    result = simulate(system)
    print(f"workload       : {args.workload} ({workload.mode.upper()}, "
          f"{args.scale})")
    print(f"cpu model      : {args.cpu}")
    if cores > 1 or args.threads > 1:
        print(f"cores          : {cores} ({args.threads} guest "
              f"thread{'s' if args.threads != 1 else ''})")
        snoops = sum(int(d.stat_snoops.value()) for d in system.dcaches)
        invals = sum(int(d.stat_snoop_invalidates.value())
                     for d in system.dcaches)
        print(f"coherence      : {snoops} snoops, {invals} invalidations")
    print(f"exit           : {result.exit_cause} (code {result.exit_code})")
    print(f"sim insts      : {result.sim_insts}")
    print(f"sim cycles     : {result.sim_cycles}")
    print(f"guest IPC      : {result.ipc:.3f}")
    print(f"sim seconds    : {result.sim_seconds:.6f}")
    print(f"trace records  : {len(result.recorder)}")
    if result.sharding is not None:
        shard = result.sharding
        per_domain = ", ".join(
            f"{name} {count}" for name, count in zip(
                shard["domain_names"], shard["events_per_domain"]))
        print(f"domains        : {shard['domains']} ({per_domain})")
        print(f"sync windows   : {shard['windows']} "
              f"({shard['deliveries']} boundary deliveries, "
              f"quantum {shard['quantum_ticks']} ticks)")
    if result.sanitize is not None:
        san = result.sanitize
        print(f"sanitizer      : {san['checked_writes']} writes checked, "
              f"{san['boundary_crossings']} boundary crossings, "
              f"{len(san['violations'])} violation"
              f"{'s' if len(san['violations']) != 1 else ''}")
        for violation in san["violations"][:10]:
            print(f"  VIOLATION    : {violation['path']}.{violation['attr']} "
                  f"(owner {violation['owner_domain']}) written from "
                  f"{violation['active_domain']} at tick "
                  f"{violation['tick']}")
    if result.console:
        print(f"console        : {result.console!r}")
    if args.stats_file:
        from .g5.statsfile import save_stats

        save_stats(system, args.stats_file)
        print(f"stats          : wrote {args.stats_file}")
    if result.sanitize is not None and result.sanitize["violations"]:
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)
    host = ExecutionEngine().run(ReplayJob(
        requirement_job((args.workload, args.cpu, None), args.scale),
        platform))
    td = host.topdown
    print(f"gem5 ({args.cpu}, {args.workload}) on {platform.name}")
    print(f"host time      : {host.time_seconds * 1000:.2f} ms")
    print(f"host IPC       : {host.ipc:.2f}")
    print("top-down       : "
          f"retiring {td.retiring:.1%} | FE {td.frontend_bound:.1%} "
          f"(lat {td.fe_latency:.1%}, bw {td.fe_bandwidth:.1%}) | "
          f"bad-spec {td.bad_speculation:.1%} | BE {td.backend_bound:.1%}")
    print(f"L1I/L1D miss   : {host.l1i_miss_rate:.1%} / "
          f"{host.l1d_miss_rate:.1%}")
    print(f"iTLB/dTLB miss : {host.itlb_miss_rate:.2%} / "
          f"{host.dtlb_miss_rate:.2%}")
    print(f"DSB coverage   : {host.dsb_coverage:.1%}")
    print(f"branch mispred : {host.branch_mispredict_rate:.2%}")
    print(f"LLC occupancy  : {host.llc_occupancy_bytes / 1024:.0f} KB")
    print(f"DRAM bandwidth : {host.dram_bandwidth_gbps:.3f} GB/s")
    print(f"functions run  : {host.functions_executed}")
    report = analyze_profile(host.profile, top_n=args.hotspots)
    print(f"hottest {args.hotspots} functions:")
    for name, share in report.hottest:
        print(f"  {share:6.2%}  {name}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(scale=args.scale,
                              max_records=args.max_records,
                              jobs=args.jobs,
                              cache=_cache_from_args(args))
    module = FIGURES[args.figure_id]
    runner.prefetch_figures([module])
    print(module.run(runner).render())
    return 0


def _print_executor_summary(runner: ExperimentRunner) -> None:
    stats = runner.cache_stats()
    print("== executor summary ==")
    print(f"g5 simulations executed : {stats['g5_executed']}")
    print(f"g5 disk-cache hits      : {stats['g5_disk_hits']}")
    print(f"host replays computed   : {stats['host_replays']} "
          f"(disk hits {stats['host_disk_hits']})")
    print(f"spec replays computed   : {stats['spec_replays']} "
          f"(disk hits {stats['spec_disk_hits']})")


def _cmd_figs(args: argparse.Namespace) -> int:
    figure_ids = args.figures or sorted(FIGURES)
    unknown = [fid for fid in figure_ids if fid not in FIGURES]
    if unknown:
        print(f"unknown figure id(s): {', '.join(unknown)}; choose from "
              f"{', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    progress = None if args.quiet else ProgressReporter()
    runner = ExperimentRunner(scale=args.scale,
                              max_records=args.max_records,
                              jobs=args.jobs,
                              cache=_cache_from_args(args),
                              progress=progress)
    runner.prefetch_figures(FIGURES[fid] for fid in figure_ids)
    for fid in figure_ids:
        print(FIGURES[fid].run(runner).render())
        print()
    _print_executor_summary(runner)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "prune":
        if args.max_bytes is None:
            print("cache prune requires --max-bytes", file=sys.stderr)
            return 2
        removed, freed = cache.prune(args.max_bytes)
        remaining = cache.stats()["total_bytes"]
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"({freed / 1024:.1f} KB) from {cache.root}; "
              f"{remaining / 1024:.1f} KB remain")
        return 0
    if args.action == "clear":
        removed = cache.clear(kind=args.kind)
        what = f"{args.kind} " if args.kind else ""
        print(f"removed {removed} {what}cache entr"
              f"{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    if args.action == "list":
        count = 0
        for entry in cache.entries():
            print(f"{entry.digest[:12]}  {entry.size_bytes:>9d}B  "
                  f"{entry.label}")
            count += 1
        if not count:
            print(f"cache at {cache.root} is empty")
        return 0
    stats = cache.stats()
    print(f"cache root   : {cache.root}")
    kinds = ", ".join(f"{kind} {stats.get(kind, 0)}" for kind in KEY_KINDS)
    print(f"entries      : {stats['entries']} ({kinds})")
    print(f"total size   : {stats['total_bytes'] / 1024:.1f} KB")
    from .exec.costmodel import CostModel

    observed = len(CostModel(cache.costs_path).observations())
    print(f"cost history : {observed} observed run(s)")
    return 0


def _cmd_tables() -> int:
    print(tables.table1().render())
    print()
    print(tables.table2().render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.summary import generate_report

    # newline="" both ways: hand-written sections survive byte for byte.
    existing = ""
    if os.path.exists(args.output):
        with open(args.output, encoding="utf-8", newline="") as handle:
            existing = handle.read()
    markdown = generate_report(scale=args.scale,
                               max_records=args.max_records,
                               jobs=args.jobs,
                               cache=_cache_from_args(args),
                               existing=existing)
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        handle.write(markdown)
    print(f"wrote {args.output}")
    return 0


def _lint_guest(args: argparse.Namespace) -> int:
    from .analysis import analyze_workload, render_guest_report

    report = analyze_workload(args.guest, scale=args.scale,
                              dynamic=args.dynamic)
    if args.fmt == "text":
        text = render_guest_report(report)
    else:
        import json

        text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if report["totality_failures"]:
        print(f"FAIL: decoder totality: "
              f"{len(report['totality_failures'])} opcode(s) unhandled",
              file=sys.stderr)
        return 1
    dynamic = report.get("dynamic")
    if dynamic is not None and not dynamic["agrees"]:
        print("FAIL: static CFG disagrees with the dynamic trace",
              file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (Baseline, all_passes, default_lint_cache,
                           default_lint_root, export_ownership_map,
                           find_default_baseline, render_json, render_sarif,
                           render_text, run_lint)
    from .analysis.baseline import DEFAULT_BASELINE_NAME, BaselineError

    if args.list_passes:
        for pass_cls in sorted(all_passes(), key=lambda cls: cls.rule):
            print(f"{pass_cls.rule:24s} {pass_cls.title}")
        return 0
    if args.guest is not None:
        return _lint_guest(args)

    root = Path(args.path) if args.path else default_lint_root()
    if args.ownership_map:
        from .analysis.passes.race import RacePass

        # Run the race pass alone, uncached, to populate its access
        # inventory for the export (cached runs skip the visitor).
        RacePass.reset_inventory()
        run_lint(root, passes=[RacePass])
        export_ownership_map(args.ownership_map,
                             inventory=RacePass.snapshot_inventory())
        print(f"wrote {args.ownership_map}")
        return 0
    cache = None if args.no_cache else default_lint_cache(args.cache_dir)
    findings = run_lint(root, cache=cache)

    baseline_path = (Path(args.baseline) if args.baseline
                     else find_default_baseline(Path.cwd()))
    if args.update_baseline:
        target = baseline_path or Path.cwd() / DEFAULT_BASELINE_NAME
        Baseline.from_findings(findings).save(target)
        print(f"wrote {target} ({len(findings)} finding"
              f"{'s' if len(findings) != 1 else ''})")
        return 0

    baseline = Baseline()
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    new, baselined = baseline.split(findings)

    if args.fmt == "json":
        text = render_json(new, baselined=len(baselined))
    elif args.fmt == "sarif":
        text = render_sarif(new, passes=all_passes())
    else:
        text = render_text(new, baselined=len(baselined))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)

    stale = baseline.stale_fingerprints(findings)
    if stale:
        print(f"note: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (fixed debt); run "
              "--update-baseline to drop them", file=sys.stderr)
    return 1 if new else 0


def _sample_job_from_args(args: argparse.Namespace):
    from .sample import SampledJob

    kwargs = {"workload": args.workload, "cpu_model": args.cpu,
              "scale": args.scale, "k": args.k}
    if args.interval is not None:
        kwargs["interval_insts"] = args.interval
    if args.warmup is not None:
        kwargs["warmup_insts"] = args.warmup
    if args.max_k is not None:
        kwargs["max_k"] = args.max_k
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.domains is not None:
        kwargs["domains"] = args.domains
    return SampledJob(**kwargs)


def _cmd_sample(args: argparse.Namespace) -> int:
    import json as json_mod

    from .sample import (SampleError, profile_intervals, project_bbvs,
                         render_sample_report, select_representatives)
    from .sample.parallel import cluster_profile

    job = _sample_job_from_args(args)
    try:
        if args.action in ("profile", "pick"):
            program = get_workload(job.workload).build(job.scale)
            profile = profile_intervals(program, job.workload, job.scale,
                                        job.interval_insts)
            if args.action == "profile":
                doc = {"workload": job.workload, "scale": job.scale,
                       "interval_insts": profile.interval_insts,
                       "total_insts": profile.total_insts,
                       "roi_anchor": profile.roi_anchor,
                       "roi_insts": profile.roi_insts,
                       "n_intervals": profile.n_intervals,
                       "block_universe": len(profile.block_universe()),
                       "exit_cause": profile.exit_cause}
                if args.as_json:
                    print(json_mod.dumps(doc, indent=2, sort_keys=True))
                    return 0
                for name, value in doc.items():
                    print(f"{name:<16}: {value}")
                return 0
            clustering = cluster_profile(profile, job)
            reps = select_representatives(
                project_bbvs(profile.intervals, seed=job.seed), clustering)
            doc = {"workload": job.workload, "scale": job.scale,
                   "n_intervals": profile.n_intervals,
                   "k": clustering.k, "bic": clustering.bic,
                   "sse": clustering.sse,
                   "representatives": [
                       {"interval": i, "weight": w,
                        "start_inst": profile.interval_start(i)}
                       for i, w in reps]}
            if args.as_json:
                print(json_mod.dumps(doc, indent=2, sort_keys=True))
                return 0
            print(f"{profile.n_intervals} intervals -> k={clustering.k} "
                  f"(bic {clustering.bic:.1f}, sse {clustering.sse:.4f})")
            for rep in doc["representatives"]:
                print(f"  interval {rep['interval']:>4}  "
                      f"weight {rep['weight']:.4f}  "
                      f"start {rep['start_inst']}")
            return 0

        engine = ExecutionEngine(jobs=args.jobs,
                                 cache=_cache_from_args(args))
        payload = engine.run_sampled(job)
        if args.as_json:
            print(json_mod.dumps(payload, indent=2, sort_keys=True))
            return 0
        sys.stdout.write(render_sample_report(payload))
        if args.action == "run":
            hit = engine.stats.disk_hits > 0
            print(f"  source: {'disk-cache' if hit else 'executed'}")
            stats = engine.stats
            if stats.windows_executed or stats.window_hits:
                print(f"  windows: {stats.windows_executed} executed "
                      f"({args.jobs} workers), "
                      f"{stats.window_hits} from cache")
        return 0
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_ckpt(args: argparse.Namespace) -> int:
    import json as json_mod

    from .g5.serialize import (Checkpoint, CheckpointError,
                               restore_checkpoint)

    def show(doc: dict) -> None:
        if args.as_json:
            print(json_mod.dumps(doc, indent=2, sort_keys=True))
        else:
            for name, value in doc.items():
                print(f"{name:<16}: {value}")

    try:
        if args.action == "take":
            if args.workload is None or args.at is None:
                print("error: ckpt take needs --workload and --at",
                      file=sys.stderr)
                return 2
            from .sample import take_checkpoints_at

            program = get_workload(args.workload).build(args.scale)
            checkpoint = take_checkpoints_at(
                program, args.workload, [args.at])[args.at]
            checkpoint.save(args.file)
            show({"file": args.file, **checkpoint.describe()})
            return 0
        if args.action == "info":
            show(Checkpoint.load(args.file).describe())
            return 0
        # restore: continue the checkpointed guest on a detailed model.
        checkpoint = Checkpoint.load(args.file)
        workload = get_workload(args.workload or checkpoint.process_name)
        program = workload.build(args.scale)
        system = System(SimConfig(cpu_model=args.cpu, mode="se"))
        system.set_se_workload(program, process_name=workload.name)
        restore_checkpoint(system, checkpoint)
        result = simulate(system)
        show({"file": args.file, "cpu_model": args.cpu,
              "restored_at": checkpoint.committed_insts,
              "exit_cause": result.exit_cause,
              "exit_code": result.exit_code,
              "sim_insts": result.sim_insts,
              "sim_cycles": result.sim_cycles,
              "ipc": round(result.ipc, 4)})
        return 0
    except BrokenPipeError:
        raise                       # handled centrally in main()
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # SampleError from take, KeyError from scale
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.jobs,
        max_queue=args.max_queue,
        cache=_cache_from_args(args),
        job_timeout=args.timeout,
        max_retries=args.retries,
        cache_max_bytes=args.cache_max_bytes,
        quiet=not args.verbose,
        log=sys.stderr,
    )
    return serve(config)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.action == "coordinator":
        from .fleet.coordinator import CoordinatorConfig, run_coordinator

        config = CoordinatorConfig(
            host=args.host,
            port=args.port if args.port is not None else 8090,
            heartbeat_timeout=args.heartbeat_timeout,
            max_pending=args.max_pending,
            dispatchers=args.dispatchers,
            cost_path=(Path(args.cache_dir) / "costs.json"
                       if args.cache_dir is not None else None),
            quiet=not args.verbose,
            log=sys.stderr)
        if args.timeout is not None:
            config.job_timeout = args.timeout
        return run_coordinator(config)
    from .fleet.worker import WorkerConfig, run_worker

    config = WorkerConfig(
        coordinator_url=args.coordinator,
        host=args.host,
        port=args.port if args.port is not None else 0,
        workers=args.jobs,
        max_queue=args.max_queue,
        cache_root=args.cache_dir,
        job_timeout=args.timeout,
        advertise_url=args.advertise_url,
        quiet=not args.verbose,
        log=sys.stderr)
    return run_worker(config)


def _cmd_list() -> int:
    print("workloads:")
    for name, workload in sorted(WORKLOADS.items()):
        print(f"  {name:16s} suite={workload.suite:9s} mode={workload.mode}")
    print("platforms: Intel_Xeon, M1_Pro, M1_Ultra (+ FireSim sweeps)")
    print("figures  :", ", ".join(sorted(FIGURES)))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro-g5 cache list | head`);
        # silence the shutdown flush and exit the way a SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "figs":
        return _cmd_figs(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "ckpt":
        return _cmd_ckpt(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
