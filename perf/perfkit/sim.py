"""``sim_single`` / ``sim_multi``: in-process g5 kernel throughput.

Each round is a fresh ``perfkit.child`` interpreter, because users pay
imports, decode and workload assembly on every run: nothing is warmed
up before timing.  The child runs the seeded job list through
``repro.exec.execute_g5_job`` (untraced) or through the same four steps
spelled out with a span around each (traced), checks the results
against each other, and prints one JSON document.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from . import gen
from .layers import layer_breakdown
from .procs import HarnessError, run_python, scratch_dir
from .spans import Tracer
from .workload import Round, TracedPass, Workload, digest_of

class TracedJob(NamedTuple):
    """One job of the traced pass, as the per-layer metrics need it."""

    job: gen.SimJob
    result: object               # repro.g5.system.SimResult
    simulate_s: float
    events: int


NORMAL_EXIT = {"se": "target called exit()", "fs": "guest requested shutdown"}


def scale_of(smoke: bool) -> str:
    return "test" if smoke else "simsmall"


def job_list(workload: str, seed: int) -> list[gen.SimJob]:
    if workload == "sim_single":
        return gen.sim_single_jobs(seed)
    return gen.sim_multi_jobs(seed)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class Sim(Workload):
    """Spawns one child interpreter per round."""

    def describe(self) -> list[str]:
        jobs = job_list(self.name, self.seed)
        return [f"{len(jobs)} g5 jobs at scale {scale_of(self.smoke)}, one "
                "fresh interpreter per round, no warm-up before timing",
                "simulated caches start empty in every g5 run"]

    def _child(self, task: str, scratch: Path, *extra: str) -> dict:
        args = ["-m", "perfkit.child", task, "--workload", self.name,
                "--seed", str(self.seed), "--started-at", repr(time.time()),
                *extra]
        if self.smoke:
            args.append("--smoke")
        code, out, err, _ = run_python(args, scratch)
        if code != 0:
            raise HarnessError(f"{self.name} child failed ({code}): "
                               f"{err.strip()[-400:]}")
        return json.loads(out.strip().splitlines()[-1])

    def round(self) -> Round:
        with scratch_dir(self.name) as scratch:
            doc = self._child("sim-round", scratch)
        return Round(setup_s=doc["setup_s"], walls=[doc["wall_s"]],
                     replies_ms=doc["replies_ms"],
                     attempted=doc["attempted"], failures=doc["failures"],
                     digest=doc["digest"], info=doc["info"])

    def traced(self, spans_file: Path) -> TracedPass:
        with scratch_dir(self.name) as scratch:
            doc = self._child("sim-traced", scratch,
                              "--spans-out", str(spans_file))
        return TracedPass(doc["wall_s"], doc["layers"], str(spans_file),
                          doc["failures"])


class SimSingle(Sim):
    name = "sim_single"


class SimMulti(Sim):
    name = "sim_multi"


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def to_g5job(job: gen.SimJob, scale: str):
    """The ``repro.exec.G5Job`` of one seeded job description."""
    from repro.exec import G5Job
    from repro.g5.system import SimConfig

    config = None
    if job.domains is not None or not job.record:
        config = SimConfig(cpu_model=job.cpu, mode=job.mode,
                           cores=max(1, job.threads),
                           domains=job.domains or 1, record=job.record)
    return G5Job(job.workload, job.cpu, job.mode, scale, config,
                 threads=job.threads)


def stats_text(result) -> str:
    """Canonical text of one run's simulated statistics.

    The same ``path.stat value`` lines a stats file holds, sorted, plus
    the headline counters — equal text means equal simulated machine.
    """
    lines = [f"{key} {value!r}" for key, value in sorted(result.stats.items())]
    lines += [f"sim_ticks {result.sim_ticks}", f"sim_insts {result.sim_insts}",
              f"exit_code {result.exit_code}",
              f"exit_cause {result.exit_cause}"]
    return "\n".join(lines)


def check_results(workload: str, results: dict) -> dict[str, str]:
    """Failed jobs by key, with the reason (one entry per failed job).

    ``results`` maps :attr:`SimJob.key` to ``(job, SimResult)``.
    """
    failures: dict[str, str] = {}

    def fail(key: str, reason: str) -> None:
        failures.setdefault(key, f"{key}: {reason}")

    for key, (job, result) in results.items():
        if result is None:
            fail(key, "raised an exception")
        elif result.exit_cause != NORMAL_EXIT[job.mode]:
            fail(key, f"exit cause {result.exit_cause!r}")
    done = {key: pair for key, pair in results.items()
            if pair[1] is not None}

    def same(key: str, other: str, fields: tuple[str, ...]) -> None:
        if key not in done or other not in done:
            return
        mine, theirs = done[key][1], done[other][1]
        for name in fields:
            if name == "stats_text":
                equal = stats_text(mine) == stats_text(theirs)
            else:
                equal = getattr(mine, name) == getattr(theirs, name)
            if not equal:
                fail(key, f"{name} differs from {other}")

    for key, (job, _) in done.items():
        if workload == "sim_single":
            if job.record and job.cpu != "atomic":
                # The four CPU models agree architecturally.
                same(key, gen.SimJob(job.workload, "atomic", job.mode).key,
                     ("exit_code",))
            if not job.record:
                # Recording must not perturb the simulated machine.
                same(key, gen.SimJob(job.workload, job.cpu, job.mode).key,
                     ("sim_ticks", "sim_insts", "stats"))
        else:
            if job.threads > 1 and job.cpu == "atomic":
                same(key, gen.SimJob(job.workload, "atomic").key,
                     ("exit_code",))
            if job.domains not in (None, 1):
                same(key, gen.SimJob(job.workload, job.cpu, job.mode,
                                     job.threads, domains=1).key,
                     ("sim_ticks", "sim_insts", "exit_code", "stats_text"))
    return failures


def run_round(workload: str, seed: int, smoke: bool,
              started_at: float) -> dict:
    """Untraced pass: ``execute_g5_job`` over the seeded list."""
    from repro.exec import execute_g5_job

    scale = scale_of(smoke)
    jobs = [(job, to_g5job(job, scale)) for job in job_list(workload, seed)]
    # Interpreter start, imports and job construction are set-up; the
    # parent passed its wall clock at spawn so process start-up counts.
    setup_s = time.time() - started_at
    results: dict = {}
    seconds: dict[str, float] = {}
    pass_start = time.perf_counter()
    for job, g5job in jobs:
        start = time.perf_counter()
        try:
            result = execute_g5_job(g5job)
        except Exception:  # noqa: BLE001 - a failed job, not a crash
            result = None
        seconds[job.key] = time.perf_counter() - start
        results[job.key] = (job, result)
    wall_s = time.perf_counter() - pass_start
    failures = check_results(workload, results)
    insts = sum(result.sim_insts for _, result in results.values()
                if result is not None)
    return {
        "setup_s": setup_s, "wall_s": wall_s,
        "replies_ms": [seconds[key] * 1e3 for key in results
                       if key not in failures],
        "attempted": len(jobs), "failures": sorted(failures.values()),
        "digest": digest_of({key: stats_text(result)
                             for key, (_, result) in results.items()
                             if result is not None}),
        "info": {"sim_insts": insts, "sim_kips": insts / wall_s / 1e3},
    }


def run_traced(workload: str, seed: int, smoke: bool,
               spans_file: str) -> dict:
    """Traced pass: the steps of ``execute_g5_job`` with a span on each."""
    tracer = Tracer()
    with tracer.span("harness.imports"):
        from repro.g5.system import SimConfig, System, simulate
        from repro.workloads.registry import get_workload

    scale = scale_of(smoke)
    results: dict = {}
    rows: list[TracedJob] = []
    pass_start = time.perf_counter()
    for job in job_list(workload, seed):
        g5job = to_g5job(job, scale)
        with tracer.span("g5.job", trace_id=job.key):
            with tracer.span("workloads.build"):
                program = get_workload(job.workload).build(
                    scale, threads=job.threads)
            with tracer.span("g5.construct"):
                config = g5job.sim_config or SimConfig(
                    cpu_model=job.cpu, mode=job.mode,
                    cores=max(1, job.threads))
                system = System(config)
                if job.mode == "se":
                    system.set_se_workload(program,
                                           process_name=job.workload)
                else:
                    system.set_fs_workload(program)
            with tracer.span("g5.simulate") as simulate_span:
                result = simulate(system)
        results[job.key] = (job, result)
        rows.append(TracedJob(job, result, simulate_span.duration,
                              system.eventq.events_processed))
    wall_s = time.perf_counter() - pass_start
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)

    def rate(selected) -> float:
        """Simulated kilo-instructions per host second of simulate()."""
        picked = [row for row in rows if selected(row.job)]
        seconds = sum(row.simulate_s for row in picked)
        return (sum(row.result.sim_insts for row in picked) / seconds / 1e3
                if seconds else 0.0)

    def wall(selected) -> float:
        return sum(row.simulate_s for row in rows if selected(row.job))

    def single(job: gen.SimJob) -> bool:
        return job.threads == 1 and job.mode == "se"

    layers = {
        "workloads.build_s": tracer.total("workloads.build"),
        "g5.construct_s": tracer.total("g5.construct"),
        "g5.simulate_s": tracer.total("g5.simulate"),
        "g5.kips.fs": rate(lambda job: job.mode == "fs"),
        "g5.kips.mc4.atomic": rate(
            lambda job: job.threads == 4 and job.cpu == "atomic"),
        "g5.kips.mc4.timing": rate(
            lambda job: job.threads == 4 and job.cpu == "timing"
            and job.domains == 1),
        "g5.boundary_deliveries": sum(
            int((row.result.sharding or {}).get("deliveries", 0))
            for row in rows),
    }
    for cpu in gen.CPU_MODELS:
        layers[f"g5.kips.{cpu}"] = rate(
            lambda job: single(job) and job.record and job.cpu == cpu)
    for cpu in ("atomic", "timing", "o3"):
        layers[f"g5.kips.norecord.{cpu}"] = rate(
            lambda job: single(job) and not job.record and job.cpu == cpu)
    # Record-on vs record-off over the jobs that exist in both forms.
    off = {row.job.cpu for row in rows if not row.job.record}
    on_s = wall(lambda job: job.record and job.workload == "sieve"
                and single(job) and job.cpu in off)
    off_s = wall(lambda job: not job.record)
    layers["g5.record_overhead_frac"] = on_s / off_s - 1.0 if off_s else 0.0
    base_s = wall(lambda job: job.domains == 1)
    for domains in (3, 5):
        sharded_s = wall(lambda job: job.domains == domains)
        layers[f"g5.sharded_ratio.d{domains}"] = (
            base_s / sharded_s if sharded_s else 0.0)
    ticks: dict[int, int] = defaultdict(int)
    for row in rows:
        job = row.job
        if job.cpu == "atomic" and job.domains is None and job.mode == "se":
            ticks[job.threads] += row.result.sim_ticks
    layers["g5.guest_speedup_x4"] = (ticks[1] / ticks[4]
                                     if ticks.get(4) else 0.0)
    events = sum(row.events for row in rows)
    insts = sum(row.result.sim_insts for row in rows)
    layers["events.processed"] = events
    layers["events.per_inst"] = events / insts if insts else 0.0
    for cpu in gen.CPU_MODELS:
        picked = [row for row in rows if row.job.cpu == cpu]
        count = sum(row.events for row in picked)
        layers[f"events.host_us_per_event.{cpu}"] = (
            sum(row.simulate_s for row in picked) / count * 1e6
            if count else 0.0)
    layers.update(layer_breakdown(tracer, wall_s))
    return {"wall_s": wall_s, "layers": layers,
            "failures": sorted(check_results(workload, results).values())}
