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
from typing import Callable, Optional

from .core.profiler import analyze_profile
from .exec import (ExecutionEngine, ProgressReporter, ReplayJob,
                   ResultCache, default_cache_dir)
from .exec.keys import KEY_KINDS
from .experiments import FIGURES, ExperimentRunner, tables
from .experiments.common import requirement_job
from .g5.system import SimConfig, System, simulate
from .host.platform import get_platform
from .workloads.registry import SCALES, WORKLOADS, get_workload


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: the integer bound serve's job documents use."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}")
        return value
    return parse


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
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
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
    sim.add_argument("--threads", "-n", type=_int_at_least(1), default=1,
                     help="guest threads for workloads with a threaded "
                          "variant (default: 1, the legacy kernel)")
    sim.add_argument("--cores", type=_int_at_least(1), default=None,
                     help="simulated cores (default: one per guest "
                          "thread; SE mode, atomic/timing models only)")

    prof = sub.add_parser("profile", help="profile one g5 run on a host")
    prof.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    prof.add_argument("--cpu", default="atomic",
                      choices=["atomic", "timing", "minor", "o3"])
    prof.add_argument("--scale", default="simsmall", choices=SCALES)
    prof.add_argument("--platform", default="Intel_Xeon",
                      choices=["Intel_Xeon", "M1_Pro", "M1_Ultra"])
    prof.add_argument("--hotspots", type=_int_at_least(1), default=10,
                      help="print the N hottest functions")

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("figure_id", choices=sorted(FIGURES))
    fig.add_argument("--scale", default="simsmall", choices=SCALES)
    fig.add_argument("--max-records", type=_int_at_least(1), default=None,
                     help="replay only the first N records of each "
                          "trace (a prefix, not a sample)")
    _add_executor_args(fig)

    figs = sub.add_parser(
        "figs", help="regenerate many figures via the parallel executor")
    figs.add_argument("figures", nargs="*", metavar="FIG",
                      help="figure ids (default: all seventeen)")
    figs.add_argument("--scale", default="simsmall", choices=SCALES)
    figs.add_argument("--max-records", type=_int_at_least(1), default=None,
                      help="replay only the first N records of each "
                           "trace (a prefix, not a sample)")
    figs.add_argument("--quiet", action="store_true",
                      help="suppress per-run progress lines")
    _add_executor_args(figs)

    cache = sub.add_parser(
        "cache", help="inspect, clear, or prune the on-disk result cache")
    cache.add_argument("action", choices=["info", "list", "clear",
                                          "prune"])
    cache.add_argument("--kind", default=None,
                       choices=list(KEY_KINDS),
                       help="restrict list and clear to one entry kind")
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
    report.add_argument("--max-records", type=_int_at_least(1), default=60000)
    report.add_argument("--output", default="EXPERIMENTS.md",
                        help="file to write (default: EXPERIMENTS.md)")
    _add_executor_args(report)

    srv = sub.add_parser(
        "serve", help="run the simulation-as-a-service daemon")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8091,
                     help="listen port (default: 8091; 0 = ephemeral)")
    srv.add_argument("--jobs", type=_int_at_least(1), default=2,
                     help="concurrent simulation workers (default: 2)")
    srv.add_argument("--max-queue", type=_int_at_least(1), default=64,
                     help="admission-control queue depth; beyond this "
                          "submissions get 429 (default: 64)")
    srv.add_argument("--timeout", type=float, default=None,
                     help="per-job wall-clock budget in seconds "
                          "(default: unlimited)")
    srv.add_argument("--retries", type=_int_at_least(0), default=2,
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
    fleet.add_argument("--jobs", type=_int_at_least(1), default=2,
                       help="worker: concurrent simulation executors "
                            "(default: 2)")
    fleet.add_argument("--max-queue", type=_int_at_least(1), default=64,
                       help="worker: admission-control queue depth "
                            "(default: 64)")
    fleet.add_argument("--advertise-url", default=None,
                       help="worker: URL peers should reach us at "
                            "(default: the bound address)")
    fleet.add_argument("--heartbeat-timeout", type=float, default=3.0,
                       help="coordinator: seconds without a heartbeat "
                            "before a worker is declared dead "
                            "(default: 3.0)")
    fleet.add_argument("--max-pending", type=_int_at_least(1), default=256,
                       help="coordinator: queued jobs before 429s "
                            "(default: 256)")
    fleet.add_argument("--dispatchers", type=_int_at_least(1), default=8,
                       help="coordinator: concurrent dispatch threads "
                            "(default: 8)")
    fleet.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
    fleet.add_argument("--cache-dir", default=None,
                       help="worker: cache location (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-g5)")
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
    sample.add_argument("--interval", type=_int_at_least(1), default=None,
                        help="instructions per interval (default: 250)")
    sample.add_argument("--warmup", type=_int_at_least(0), default=None,
                        help="warmup instructions before each measured "
                             "window (default: 1000)")
    sample.add_argument("--k", type=_int_at_least(0), default=0,
                        help="cluster count (0 = BIC-select, default)")
    sample.add_argument("--max-k", type=_int_at_least(1), default=None,
                        help="largest k the BIC selection may pick "
                             "(default: 8)")
    sample.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="clustering/projection seed (default: 1234)")
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
    ckpt.add_argument("--at", type=_int_at_least(1), default=None,
                      help="take: checkpoint after this many committed "
                           "instructions")
    ckpt.add_argument("--cpu", default="o3",
                      choices=["atomic", "timing", "minor", "o3"],
                      help="restore: CPU model to continue with")
    ckpt.add_argument("--json", action="store_true", dest="as_json",
                      help="emit machine-readable JSON")

    guest = sub.add_parser(
        "guest", help="static CFG report of a guest workload's binary")
    guest.add_argument("workload", choices=sorted(WORKLOADS))
    guest.add_argument("--scale", default="test", choices=SCALES,
                       help="guest build scale (default: test)")
    guest.add_argument("--dynamic", action="store_true",
                       help="also execute the workload and cross-check "
                            "the static CFG against the trace")
    guest.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    cores = args.cores if args.cores is not None else max(1, args.threads)
    if args.threads > 1 and not workload.threaded:
        print(f"error: workload {args.workload!r} has no threaded "
              f"variant", file=sys.stderr)
        return 2
    try:
        config = SimConfig(cpu_model=args.cpu, mode=workload.mode,
                           cores=cores)
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
    if result.console:
        print(f"console        : {result.console!r}")
    if args.stats_file:
        from .g5.statsfile import save_stats

        save_stats(system, args.stats_file)
        print(f"stats          : wrote {args.stats_file}")
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
            if args.kind is not None and entry.kind != args.kind:
                continue
            print(f"{entry.digest[:12]}  {entry.size_bytes:>9d}B  "
                  f"{entry.kind:<6}  {entry.label}")
            count += 1
        if not count:
            print(f"cache at {cache.root} is empty")
        return 0
    stats = cache.stats()
    print(f"cache root   : {cache.root}")
    # Entries of a retired kind are still on disk (and in the total)
    # until a plain `cache clear`: list them under their stored name.
    retired = sorted(set(stats) - set(KEY_KINDS)
                     - {"entries", "total_bytes"})
    kinds = ", ".join(f"{kind} {stats.get(kind, 0)}"
                      for kind in (*KEY_KINDS, *retired))
    print(f"entries      : {stats['entries']} ({kinds})")
    print(f"total size   : {stats['total_bytes'] / 1024:.1f} KB")
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


def _cmd_guest(args: argparse.Namespace) -> int:
    from .analysis.guestcfg import analyze_workload, render_guest_report

    report = analyze_workload(args.workload, scale=args.scale,
                              dynamic=args.dynamic)
    if args.as_json:
        import json

        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = render_guest_report(report)
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
        payload = engine.run(job)
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
    if args.action == "coordinator":
        from .fleet.coordinator import CoordinatorConfig, run_coordinator

        config = CoordinatorConfig(
            host=args.host,
            port=args.port if args.port is not None else 8090,
            heartbeat_timeout=args.heartbeat_timeout,
            max_pending=args.max_pending,
            dispatchers=args.dispatchers,
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
    if args.command == "guest":
        return _cmd_guest(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
