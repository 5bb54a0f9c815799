"""``figs_cold`` / ``figs_warm``: the ``repro-g5 figs`` campaign.

Untraced, the campaign is the real CLI in a subprocess and the wall
clock is process start to exit.  Traced, the same campaign is driven
in-process (``ExperimentRunner`` + ``FIGURES[f].run``) in a fresh child
interpreter with timing wrappers around each layer's entry points.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import gen
from .layers import layer_breakdown
from .procs import HarnessError, run_cli, run_python, scratch_dir
from .spans import Tracer
from .stats import median
from .workload import Round, TracedPass, Workload, digest_of

SCALE = "test"
MAX_RECORDS = 60000
JOBS = 2
SUMMARY_MARK = "== executor summary =="

_SUMMARY_PATTERNS = {
    "g5_executed": r"g5 simulations executed\s*:\s*(\d+)",
    "g5_disk_hits": r"g5 disk-cache hits\s*:\s*(\d+)",
    "host": r"host replays computed\s*:\s*(\d+) \(disk hits (\d+)\)",
    "spec": r"spec replays computed\s*:\s*(\d+) \(disk hits (\d+)\)",
}


@dataclass
class Campaign:
    """One finished ``repro-g5 figs`` process."""

    code: int
    wall_s: float
    texts: dict[str, str]          # figure id -> rendered text
    summary: dict[str, int]
    stderr: str


def parse_campaign(stdout: str) -> tuple[dict[str, str], dict[str, int]]:
    """Split CLI stdout into per-figure texts and the executor summary.

    Each figure is ``render()`` followed by a blank line, and a render
    never contains one, so blank lines delimit figures; the header line
    ``Fig.14: ...`` names the figure id ``fig14``.
    """
    body, _, tail = stdout.partition(SUMMARY_MARK)
    texts: dict[str, str] = {}
    for section in body.strip().split("\n\n"):
        header = re.match(r"Fig\.(\d+):", section)
        if header is not None:
            texts[f"fig{header.group(1)}"] = section
    summary: dict[str, int] = {}
    for key, pattern in _SUMMARY_PATTERNS.items():
        found = re.search(pattern, tail)
        if found is None:
            continue
        if key in ("host", "spec"):
            summary[f"{key}_computed"] = int(found.group(1))
            summary[f"{key}_disk_hits"] = int(found.group(2))
        else:
            summary[key] = int(found.group(1))
    return texts, summary


def campaign_args(figures: list[str], cache_dir: Path) -> list[str]:
    return ["figs", *figures, "--scale", SCALE,
            "--max-records", str(MAX_RECORDS), "--jobs", str(JOBS),
            "--quiet", "--cache-dir", str(cache_dir)]


def run_campaign(figures: list[str], cache_dir: Path) -> Campaign:
    code, out, err, wall = run_cli(campaign_args(figures, cache_dir),
                                   cache_dir)
    texts, summary = parse_campaign(out)
    return Campaign(code, wall, texts, summary, err)


def check_campaign(label: str, run: Campaign, figures: list[str],
                   reference: dict[str, str], summary_ok: bool,
                   summary_note: str) -> list[str]:
    """Failures of one campaign: ``len(figures) + 1`` operations.

    The campaign itself is one operation (exit code and executor
    summary); each figure is one (its text must equal ``reference``).
    """
    failures = []
    if run.code != 0:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        failures.append(f"{label}: exit code {run.code} ({tail[0]})")
    elif not summary_ok:
        failures.append(f"{label}: executor summary {run.summary} "
                        f"({summary_note})")
    for fid in figures:
        text = run.texts.get(fid)
        if text is None:
            failures.append(f"{label}: {fid} missing from output")
        elif text != reference.get(fid, text):
            failures.append(f"{label}: {fid} text differs from reference")
    return failures


class FigsCold(Workload):
    name = "figs_cold"

    def prepare(self) -> None:
        self.figures = gen.figure_order(self.seed, self.smoke)
        #: Texts of the first campaign; later rounds must reproduce them.
        self.reference: dict[str, str] = {}

    def describe(self) -> list[str]:
        return [f"campaign: repro-g5 figs {' '.join(self.figures)} "
                f"--scale {SCALE} --max-records {MAX_RECORDS} "
                f"--jobs {JOBS} (fresh cache dir per campaign)",
                "simulated caches start empty in every g5 run"]

    def round(self) -> Round:
        start = time.perf_counter()
        with scratch_dir(self.name) as cache:
            # A cold campaign needs no set-up of its own.  Starting the
            # CLI once first checks the program runs at all and keeps
            # one-off costs users do not pay per run (byte-compiling a
            # fresh checkout, a cold page cache) out of the timed region.
            code, _, err, _ = run_cli(["list"], cache)
            if code != 0:
                raise HarnessError(f"`repro-g5 list` failed ({code}): "
                                   f"{err.strip()[-400:]}")
            result = Round(setup_s=time.perf_counter() - start)
            run = run_campaign(self.figures, cache)
            self._account(result, "cold", run)
        return result

    def _account(self, result: Round, label: str, run: Campaign,
                 cold_summary: Optional[dict] = None) -> None:
        """Check one campaign and fold it into ``result``.

        ``cold_summary`` is the executor summary of the cold run that
        populated the cache; None means ``run`` itself is a cold run.
        """
        if not self.reference:
            self.reference = dict(run.texts)
        summary = run.summary
        if cold_summary is None:
            ok = summary.get("g5_executed", 0) > 0 \
                and summary.get("g5_disk_hits") == 0 \
                and summary.get("host_disk_hits") == 0
            note = "a cold campaign executes everything and hits nothing"
        else:
            ok = summary.get("g5_executed") == 0 \
                and summary.get("g5_disk_hits") \
                == cold_summary.get("g5_executed") \
                and summary.get("host_disk_hits") \
                == cold_summary.get("host_computed") \
                and summary.get("spec_disk_hits") \
                == cold_summary.get("spec_computed")
            note = (f"a warm campaign executes nothing and hits what the "
                    f"cold one computed: {cold_summary}")
        failures = check_campaign(label, run, self.figures, self.reference,
                                  ok, note)
        result.walls.append(run.wall_s)
        result.attempted += len(self.figures) + 1
        result.failures += failures
        if not failures:
            result.replies_ms.append(run.wall_s * 1e3)
        result.digest = digest_of(run.texts)
        result.info.update({f"summary.{key}": value
                            for key, value in summary.items()})

    def traced(self, spans_file: Path) -> TracedPass:
        with scratch_dir(self.name) as cache:
            return self._traced(cache, spans_file, warm=False)

    def _traced(self, cache: Path, spans_file: Path,
                warm: bool) -> TracedPass:
        args = ["-m", "perfkit.child", "figs-traced", "--seed",
                str(self.seed), "--cache-dir", str(cache),
                "--spans-out", str(spans_file)]
        if self.smoke:
            args.append("--smoke")
        if warm:
            args.append("--warm")
        code, out, err, _ = run_python(args, cache)
        if code != 0:
            raise HarnessError(f"traced {self.name} child failed "
                               f"({code}): {err.strip()[-400:]}")
        doc = json.loads(out.strip().splitlines()[-1])
        failures = [f"traced: {fid} text differs from the CLI's"
                    for fid, text in doc["texts"].items()
                    if self.reference and text != self.reference.get(fid)]
        layers = doc["layers"]
        layers["cli.import_s"] = self._cli_import_s(cache)
        return TracedPass(doc["wall_s"], layers, str(spans_file), failures)

    @staticmethod
    def _cli_import_s(cache: Path) -> float:
        """Median wall of five ``python -c "import repro.cli"``."""
        walls = [run_python(["-c", "import repro.cli"], cache)[3]
                 for _ in range(5)]
        return median(walls)


class FigsWarm(FigsCold):
    name = "figs_warm"

    @property
    def reps(self) -> int:
        return 1 if self.smoke else 2

    def describe(self) -> list[str]:
        return [f"campaign: the figs_cold command, {self.reps} back-to-back "
                "rep(s) per round against the cache one cold run populated "
                "during set-up",
                "simulated caches start empty in every g5 run"]

    def _populate(self, cache: Path) -> Campaign:
        cold = run_campaign(self.figures, cache)
        if cold.code != 0 or not cold.texts:
            raise HarnessError(
                f"set-up cold campaign failed ({cold.code}): "
                f"{cold.stderr.strip()[-400:]}")
        return cold

    def round(self) -> Round:
        start = time.perf_counter()
        with scratch_dir(self.name) as cache:
            cold = self._populate(cache)
            result = Round(setup_s=time.perf_counter() - start)
            # The cold run's text is the reference of this round's reps.
            self.reference = dict(cold.texts)
            for rep in range(self.reps):
                run = run_campaign(self.figures, cache)
                self._account(result, f"warm rep {rep + 1}", run,
                              cold_summary=cold.summary)
        return result

    def traced(self, spans_file: Path) -> TracedPass:
        with scratch_dir(self.name) as cache:
            self.reference = dict(self._populate(cache).texts)
            return self._traced(cache, spans_file, warm=True)


# ----------------------------------------------------------------------
# traced campaign (runs inside the `perfkit.child` interpreter)
# ----------------------------------------------------------------------
def traced_campaign(figures: list[str], cache_dir: str, spans_file: str,
                    warm: bool) -> dict:
    """Drive the campaign in-process with every layer wrapped."""
    tracer = Tracer()
    with tracer.span("campaign", trace_id="campaign") as root:
        with tracer.span("cli.import"):
            # What `python -m repro.cli` pays before main() runs.
            import repro.cli  # noqa: F401
        from repro.core.report import Figure
        from repro.exec import ExecutionEngine, ResultCache, keys
        from repro.exec import pool as exec_pool
        from repro.experiments import FIGURES, ExperimentRunner
        from repro.g5 import serialize
        from repro.host.binary import BinaryImage
        from repro.host.cpu import HostCPU
        from repro.workloads import spec as spec_workloads

        tracer.wrap(ExperimentRunner, "prefetch", "experiments.prefetch")
        tracer.wrap(ExperimentRunner, "spec_result",
                    "experiments.spec_result")
        tracer.wrap(ExecutionEngine, "run_batch", "pool.run_batch")
        tracer.wrap(exec_pool, "execute_g5_job", "g5.job")
        tracer.wrap(ResultCache, "get", "cache.get",
                    note=lambda args, kwargs, found:
                    {"hit": found is not None})
        tracer.wrap(ResultCache, "put", "cache.put")
        tracer.wrap(serialize, "pack_sim_result", "serialize.pack")
        tracer.wrap(serialize, "unpack_sim_result", "serialize.unpack")
        tracer.wrap(keys, "sim_fingerprint", "keys.fingerprint")
        tracer.wrap(keys, "host_fingerprint", "keys.fingerprint")
        tracer.wrap(BinaryImage, "for_recorder_functions", "host.image")
        tracer.wrap(HostCPU, "replay", "host.replay",
                    note=lambda args, kwargs, result:
                    {"records": len(args[1]),
                     "platform": args[0].platform.name})
        tracer.wrap(spec_workloads, "build_spec", "workloads.build_spec")
        tracer.wrap(Figure, "render", "core.render")
        for fid in figures:
            tracer.wrap(FIGURES[fid], "run", "experiments.fig")

        cache = ResultCache(cache_dir)
        runner = ExperimentRunner(scale=SCALE, max_records=MAX_RECORDS,
                                  jobs=JOBS, cache=cache)
        requirements: list[tuple] = []
        for fid in figures:
            requirements.extend(FIGURES[fid].required_g5())
        runner.prefetch(requirements)
        texts = {fid: FIGURES[fid].run(runner).render() for fid in figures}
    tracer.unwrap_all()
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)

    engine = runner.engine.stats
    replays = tracer.named("host.replay")
    records = sum(span.attrs["records"] for span in replays)
    replay_s = tracer.total("host.replay")
    gets = tracer.named("cache.get")
    batch_s = tracer.total("pool.run_batch")
    workers = max(1, min(JOBS, engine.executed))
    stats = cache.stats()
    layers = {
        "workloads.build_s": tracer.total("workloads.build_spec"),
        # g5 runs in pool children; their seconds come from EngineStats.
        "g5.simulate_s": engine.executed_seconds,
        "serialize.pack_s": tracer.total("serialize.pack"),
        "serialize.unpack_s": tracer.total("serialize.unpack"),
        "keys.fingerprint_s": tracer.total("keys.fingerprint"),
        "cache.put_s": tracer.total("cache.put"),
        "cache.get_s": tracer.total("cache.get"),
        "cache.entries": stats.get("entries", 0),
        "cache.bytes_mb": stats.get("bytes", 0) / 1e6,
        "cache.hit_ratio": (sum(1 for span in gets if span.attrs["hit"])
                            / len(gets)) if gets else 0.0,
        "pool.batch_s": batch_s,
        "pool.executed": engine.executed,
        "pool.disk_hits": engine.disk_hits,
        "pool.parallel_eff": (engine.executed_seconds / (workers * batch_s)
                              if batch_s and engine.executed else 0.0),
        "host.image_s": tracer.total("host.image"),
        "host.replay_s": replay_s,
        "host.replay_calls": len(replays),
        "host.replay_records": records,
        "host.replay_krps": records / replay_s / 1e3 if replay_s else 0.0,
        "host.spec_replay_s": sum(
            span.duration for span in tracer.children_of(
                "experiments.spec_result", "host.replay")),
        "host.uncached_replays_warm": len(replays) if warm else 0,
        "experiments.prefetch_s": tracer.total("experiments.prefetch"),
        "experiments.fig_self_s": tracer.self_total("experiments.fig"),
        "core.render_s": tracer.total("core.render"),
    }
    for platform in ("Intel_Xeon", "M1_Pro", "M1_Ultra", "FireSim"):
        mine = [span for span in replays
                if span.attrs["platform"].startswith(platform)]
        seconds = sum(span.duration for span in mine)
        layers[f"host.replay_krps.{platform}"] = (
            sum(span.attrs["records"] for span in mine) / seconds / 1e3
            if seconds else 0.0)
    layers.update(layer_breakdown(tracer, root.duration))
    return {"wall_s": root.duration, "layers": layers, "texts": texts}

