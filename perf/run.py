#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end to end and layer by layer.

::

    python3 perf/run.py --workload figs_cold --seed 1 --seconds 12 --trace 0
    python3 perf/run.py                      # all six workloads, untraced
    python3 perf/run.py --trace              # per-layer metrics + span files
    python3 perf/run.py --repeat 10 --sets 2 --out perf/BASELINE.md
    python3 perf/run.py --smoke              # tiny sizes, < 30 s in total

Every metric is printed by name with its unit, outputs are checked for
correctness, and the last line of standard output of each workload is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metric names and units come from ``BENCHMARK.json``.  See
``perf/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path.insert(0, str(PERF_DIR))

from perfkit import procs, stats  # noqa: E402
from perfkit.workload import Round, Workload  # noqa: E402

#: Hard ceiling on one workload run (the contract allows 180 s).
WATCHDOG_SECONDS = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_class(name: str) -> type[Workload]:
    from perfkit import figs, serve, sim

    return {"figs_cold": figs.FigsCold, "figs_warm": figs.FigsWarm,
            "sim_single": sim.SimSingle, "sim_multi": sim.SimMulti,
            "serve_direct": serve.ServeDirect,
            "serve_fleet": serve.ServeFleet}[name]


class Watchdog:
    """SIGALRM after ``seconds``: unwinds through every clean-up."""

    def __init__(self, seconds: int) -> None:
        self.seconds = seconds

    def _fire(self, signum, frame) -> None:  # noqa: ARG002
        raise procs.HarnessError(
            f"watchdog: run exceeded {self.seconds}s and was aborted")

    def __enter__(self) -> "Watchdog":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.alarm(self.seconds)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self._previous)


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def run_rounds(workload: Workload, seconds: float,
               min_rounds: int) -> tuple[float, list[Round]]:
    """Set up once, then repeat fresh-state rounds for ``seconds``.

    A round is set-up + timed pass + checks + tear-down; a new one
    starts while fewer than ``seconds`` have elapsed (so the run
    overshoots by at most one round) and until ``min_rounds`` are done.
    """
    start = time.perf_counter()
    workload.prepare()
    once_s = time.perf_counter() - start
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds \
            or time.perf_counter() - start < seconds:
        rounds.append(workload.round())
    return once_s, rounds


def end_to_end(once_s: float, rounds: list[Round]) -> dict[str, float]:
    """The end-to-end metrics of one run (see perf/README.md).

    Every statistic is taken per round, and the run reports its best
    round.  The reference host is a shared VM whose speed sags by
    10-40 % for seconds to minutes at a time; that noise only ever adds
    time, so the fastest round is the steadiest estimate of what the
    code itself costs (the median over rounds moved twice as much from
    run to run).  Percentiles are per round too, so they do not depend
    on how many rounds fitted into the run.
    """
    answered = [r for r in rounds if r.replies_ms]
    return {
        # Once-per-run harness set-up plus the best per-round set-up.
        "setup_s": once_s + min(r.setup_s for r in rounds),
        "wall_s": min(wall for r in rounds for wall in r.walls),
        "ops_per_s": max((r.attempted - r.failed) / sum(r.walls)
                         for r in rounds),
        "reply_p50_ms": min((stats.quantile(r.replies_ms, 0.50)
                             for r in answered), default=0.0),
        "reply_p95_ms": min((stats.quantile(r.replies_ms, 0.95)
                             for r in answered), default=0.0),
        "peak_rss_mb": procs.peak_rss_mb(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool, spec: dict) -> dict:
    """Run one workload; returns the result document plus print lines."""
    workload = workload_class(name)(seed, smoke)
    # Smoke and traced runs take exactly one untraced round.
    single = smoke or trace
    with Watchdog(WATCHDOG_SECONDS):
        once_s, rounds = run_rounds(workload, 0.0 if single else seconds,
                                    1 if single else 2)
        values = end_to_end(once_s, rounds)
        attempted = sum(r.attempted for r in rounds)
        failures = [failure for r in rounds for failure in r.failures]
        if trace:
            spans_file = procs.OUT_DIR / f"trace_{name}_seed{seed}.json"
            traced = workload.traced(spans_file)
            # The traced pass is one more operation: it must reproduce
            # the untraced outputs.
            attempted += 1
            if traced.failures:
                failures.append(f"traced pass: {traced.failures[0]} "
                                f"({len(traced.failures)} in all)")
            layers = dict.fromkeys(
                (m["name"] for m in spec["per_layer"]), 0.0)
            unknown = sorted(set(traced.layers) - set(layers))
            if unknown:
                raise procs.HarnessError(
                    f"per-layer metrics missing from BENCHMARK.json: "
                    f"{unknown}")
            layers.update(traced.layers)
            # Traced vs untraced wall of the same pass, same process tree.
            layers["trace.overhead_frac"] = \
                traced.wall_s / values["wall_s"] - 1.0
    catalogue = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else values
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in catalogue}
    samples = len(rounds[-1].replies_ms)
    lines = workload.describe() + [
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"clients/pool workers <= 2",
        f"rounds: {len(rounds)} (timed passes: "
        f"{sum(len(r.walls) for r in rounds)}; reply samples per round: "
        f"{samples}, {int(samples * 0.05)} beyond p95; the run reports "
        f"its best round)",
        f"failed_frac: {len(failures)}/{attempted}",
        f"sha256 of simulated statistics / figure text: "
        f"{rounds[-1].digest}",
    ] + [f"info {key}: {value}" for key, value
         in sorted(rounds[-1].info.items())]
    if trace:
        # The end-to-end numbers of a traced invocation are information
        # only; the gated ones always come from an untraced run.
        lines += [f"spans: {traced.spans_file} (Chrome trace; open in "
                  "chrome://tracing or ui.perfetto.dev)"]
        lines += [f"untraced {key}: {value:.6g}"
                  for key, value in values.items()]
    return {"workload": name, "seed": seed, "lines": lines,
            "failures": failures,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": len(failures), "metrics": metrics}}


def print_run(doc: dict) -> None:
    print(f"== {doc['workload']} (seed {doc['seed']}) ==")
    for line in doc["lines"]:
        print(f"  {line}")
    for failure in doc["failures"][:20]:
        print(f"  FAILED {failure}")
    for name, metric in doc["result"]["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(doc["result"]), flush=True)


def run_isolated(name: str, seed: int, args: argparse.Namespace
                 ) -> tuple[int, str]:
    """One workload in its own fresh ``run.py`` interpreter.

    Exactly the command line the acceptance driver uses, so a
    multi-workload or ``--repeat`` invocation measures what it measures
    (and ``peak_rss_mb`` never carries over from an earlier workload).
    """
    command = [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WATCHDOG_SECONDS + 30)
    except subprocess.TimeoutExpired:
        return 3, ""
    return done.returncode, done.stdout


# ----------------------------------------------------------------------
# --repeat: run-to-run noise report
# ----------------------------------------------------------------------
def noise_report(names: list[str], args: argparse.Namespace,
                 spec: dict) -> tuple[str, bool]:
    """Markdown report of ``--sets`` sets of ``--repeat`` runs each.

    Per (workload, end-to-end metric): median, quartiles and quartile
    distance / bound for each set, and whether the second set's median
    is worse than the first's by more than the bound.  Uses the same
    estimator as the acceptance check (``statistics.quantiles(n=4)``
    over runs that each take another seed).
    """
    table: dict[tuple[str, str], list[list[float]]] = {}
    all_correct = True
    for set_number in range(args.sets):
        for name in names:
            for run in range(args.repeat):
                seed = args.seed + set_number * args.repeat + run
                code, output = run_isolated(name, seed, args)
                if code not in (0, 1) or not output.strip():
                    raise procs.HarnessError(
                        f"{name} seed {seed} exited {code} without a result")
                result = json.loads(output.strip().splitlines()[-1])
                all_correct &= result["correct"]
                for line in output.splitlines():
                    if line.lstrip().startswith("FAILED"):
                        print(f"{name} seed {seed}: {line.strip()}",
                              file=sys.stderr)
                for metric, entry in result["metrics"].items():
                    sets = table.setdefault((name, metric),
                                            [[] for _ in range(args.sets)])
                    sets[set_number].append(entry["value"])
                print(f"[repeat] set {set_number + 1} {name} seed {seed} "
                      f"done", file=sys.stderr, flush=True)
    out = [f"| workload | metric | unit | set | median | q1 | q3 | "
           f"spread | bound | spread/bound | flag |",
           "|---|---|---|---|---|---|---|---|---|---|---|"]
    flagged = False
    for (name, metric), sets in table.items():
        entry = next(m for m in spec["end_to_end"] if m["name"] == metric)
        medians = []
        for number, values in enumerate(sets, start=1):
            q1, q2, q3 = stats.quartiles(values)
            share = (q3 - q1) / q2 if q2 else float("inf")
            medians.append(q2)
            # setup_s spread is reported but never gated.
            flag = "SPREAD" if share > entry["bound"] \
                and metric != "setup_s" else ""
            if number > 1:
                first = medians[0]
                worse = (q2 - first) / first if entry["better"] == "lower" \
                    else (first - q2) / first
                if worse > entry["bound"]:
                    flag = (flag + " DRIFT").strip()
            flagged |= bool(flag)
            out.append(f"| {name} | {metric} | {entry['unit']} | {number} "
                       f"| {q2:.5g} | {q1:.5g} | {q3:.5g} | {share:.2%} "
                       f"| {entry['bound']:.0%} "
                       f"| {share / entry['bound']:.2f} | {flag} |")
    out.append("")
    out.append(f"{args.sets} set(s) x {args.repeat} runs per workload, "
               f"seeds from {args.seed}, --seconds {args.seconds:g}; "
               f"every run correct: {all_correct}; flagged: {flagged}")
    return "\n".join(out), all_correct and not flagged


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long one run keeps starting rounds")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: one round, scale test, tens of "
                             "requests")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per set for the noise report")
    parser.add_argument("--sets", type=int, default=1,
                        help="sets of --repeat runs to compare")
    parser.add_argument("--out", default=None,
                        help="also write the noise report to this file")
    args = parser.parse_args(argv)

    args.trace = int(args.trace)
    if args.trace and (args.repeat > 1 or args.sets > 1):
        parser.error("--repeat/--sets report the end-to-end metrics; "
                     "run --trace on its own")
    if not (procs.SRC / "repro" / "cli.py").is_file():
        print(f"perf/run.py: no program to measure: {procs.SRC}/repro is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))
    selected = args.workload or names

    try:
        if args.repeat > 1 or args.sets > 1:
            report, clean = noise_report(selected, args, spec)
            print(report)
            if args.out:
                Path(args.out).write_text(report + "\n", encoding="utf-8")
            return 0 if clean else 1
        if len(selected) == 1:
            doc = measure(selected[0], args.seed, args.seconds,
                          bool(args.trace), args.smoke, spec)
            print_run(doc)
            return 0 if doc["result"]["correct"] else 1
        worst = 0
        for name in selected:
            code, output = run_isolated(name, args.seed, args)
            print(output, end="", flush=True)
            worst = max(worst, code)
        return worst
    except procs.HarnessError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
