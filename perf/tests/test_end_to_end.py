"""``run.py --smoke`` end to end: all six workloads, both modes, failures.

These start real daemons and CLI processes; the whole module takes
about a minute.  Run with ``python -m pytest perf/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from perfkit import figs, procs, serve

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def results_of(stdout):
    """One result document per workload block, in order."""
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def check_result(result, catalogue):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in catalogue]
    for metric in catalogue:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_smoke_runs_all_six_workloads_with_every_end_to_end_metric():
    done = run_py("--smoke")
    assert done.returncode == 0, done.stderr
    results = results_of(done.stdout)
    assert len(results) == len(WORKLOADS)
    for name, result in zip(WORKLOADS, results):
        assert f"== {name} " in done.stdout
        check_result(result, SPEC["end_to_end"])
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values()), name
    # Last line of standard output is the last workload's result.
    assert done.stdout.strip().splitlines()[-1].startswith('{"correct"')
    # Process hygiene: temp caches are gone once the command returns.
    assert not any((procs.OUT_DIR / "tmp").iterdir())


def test_traced_smoke_emits_every_per_layer_metric_and_a_span_file():
    done = run_py("--smoke", "--trace", "1")
    assert done.returncode == 0, done.stderr
    results = dict(zip(WORKLOADS, results_of(done.stdout)))
    assert set(results) == set(WORKLOADS)
    for name, result in results.items():
        check_result(result, SPEC["per_layer"])
        spans = json.loads(
            (procs.OUT_DIR / f"trace_{name}_seed1.json").read_text())
        assert spans["traceEvents"], name
        for event in spans["traceEvents"]:
            assert {"name", "ts", "dur", "args"} <= set(event)
            assert {"parent", "id"} <= set(event["args"])

    def value(workload, metric):
        return results[workload]["metrics"][metric]["value"]

    # Layer self times explain the traced wall where the work is local.
    for name in ("figs_cold", "sim_single", "sim_multi"):
        assert value(name, "trace.attributed_frac") >= 0.9, name
    # Each workload moves its own layers and leaves the others at zero.
    assert value("figs_cold", "host.replay_calls") > 0
    assert value("figs_cold", "cache.hit_ratio") == 0
    assert value("figs_warm", "cache.hit_ratio") == 1
    assert value("figs_warm", "pool.executed") == 0
    assert value("sim_single", "g5.kips.o3") > 0
    assert value("sim_single", "host.replay_s") == 0
    assert value("sim_multi", "g5.boundary_deliveries") > 0
    assert value("serve_direct", "serve.memo_hits") > 0
    assert value("serve_direct", "fleet.dispatches") == 0
    assert value("serve_fleet", "fleet.dispatches") > 0
    assert value("serve_fleet", "fleet.overhead_p50_ms") > 0


def test_same_seed_same_simulated_statistics():
    digests = []
    for _ in range(2):
        done = run_py("--smoke", "--workload", "sim_multi", "--seed", "5")
        assert done.returncode == 0, done.stderr
        digests.append([line for line in done.stdout.splitlines()
                        if "sha256" in line])
    assert digests[0] == digests[1] and digests[0]


def run_main(capsys, *args):
    code = run.main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


def test_a_corrupted_figure_text_fails_the_run(monkeypatch, capsys):
    real = figs.run_campaign
    calls = []

    def corrupting(figures, cache_dir):
        campaign = real(figures, cache_dir)
        calls.append(campaign)
        if len(calls) == 2:     # the warm rep, not the set-up cold run
            first = sorted(campaign.texts)[0]
            campaign.texts[first] += "\n  corrupted  0.0000"
        return campaign

    monkeypatch.setattr(figs, "run_campaign", corrupting)
    code, result = run_main(capsys, "--smoke", "--workload", "figs_warm")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_a_corrupted_reference_payload_fails_the_run(monkeypatch, capsys):
    real = serve.ServeDirect.prepare

    def corrupting(self):
        real(self)
        self.references[0]["sim_insts"] += 1

    monkeypatch.setattr(serve.ServeDirect, "prepare", corrupting)
    code, result = run_main(capsys, "--smoke", "--workload", "serve_direct")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_py("--workload", "figs_cold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_daemon_that_never_listens_is_killed_and_reported(tmp_path):
    daemon = procs.Daemon(["list"], tmp_path)    # prints no address
    with pytest.raises(procs.HarnessError):
        with procs.daemons() as started:
            started.append(daemon)
            daemon.wait_banner(timeout=5.0)
    assert daemon.process.poll() is not None     # reaped on the way out
