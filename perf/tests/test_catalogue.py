"""``BENCHMARK.json`` stays inside the benchmark contract's limits."""

import json
import re
from pathlib import Path

from perfkit.layers import LAYERS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
WORKLOADS = ["figs_cold", "figs_warm", "sim_single", "sim_multi",
             "serve_direct", "serve_fleet"]


def test_top_level_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"] == ["python3", "perf/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_the_six_workloads_each_say_why():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_metric_entries_have_exactly_the_contract_keys():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_names_and_units_use_the_allowed_characters_once():
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_setup_time_is_gated_with_the_largest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_has_a_self_time_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert {f"self_s.{layer}" for layer in LAYERS} <= names
    assert {"trace.attributed_frac", "trace.overhead_frac"} <= names
