"""Tests for the repro-g5 command-line interface."""

import pickle
import re

import pytest

from repro.cli import _build_parser, main
from repro.exec import G5Job, ResultCache
from repro.exec.keys import KEY_KINDS, CacheKey
from repro.experiments.summary import CLAIMS
from repro.sample import SampledJob


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Keep every CLI invocation away from the user's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


class TestCliCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "water_nsquared" in out
        assert "boot_exit" in out
        assert "fig14" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out

    def test_simulate_se(self, capsys):
        assert main(["simulate", "--workload", "sieve", "--cpu", "atomic",
                     "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "target called exit()" in out
        assert "sim insts" in out

    def test_simulate_fs(self, capsys):
        assert main(["simulate", "--workload", "boot_exit",
                     "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "guest requested shutdown" in out
        assert "miniux" in out

    def test_simulate_four_cores(self, capsys):
        args = ["simulate", "--workload", "ocean_cp", "--cpu", "timing",
                "--scale", "test", "-n", "4"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cores          : 4 (4 guest threads)" in out
        assert "coherence      : 0 snoops" not in out
        # Sharding is no simulate option: the flag is an argparse error.
        with pytest.raises(SystemExit):
            main(args + ["--domains", "3"])

    def test_profile(self, capsys):
        assert main(["profile", "--workload", "sieve", "--cpu", "timing",
                     "--scale", "test", "--platform", "M1_Pro",
                     "--hotspots", "3"]) == 0
        out = capsys.readouterr().out
        assert "top-down" in out
        assert "M1_Pro" in out
        assert "hottest 3 functions" in out

    def test_figure_smoke(self, capsys):
        assert main(["figure", "fig13", "--scale", "test",
                     "--max-records", "5000"]) == 0
        out = capsys.readouterr().out
        assert "Fig.13" in out
        assert "TurboBoost" in out

    def test_figs_smoke(self, capsys):
        assert main(["figs", "fig13", "--scale", "test",
                     "--max-records", "5000", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Fig.13" in out
        assert "executor summary" in out
        assert "g5 simulations executed" in out

    def test_figs_second_run_is_all_cache_hits(self, capsys):
        argv = ["figs", "fig13", "--scale", "test",
                "--max-records", "5000", "--quiet"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "g5 simulations executed : 0" in warm
        # Warm figures render identically to cold ones.
        assert (warm.split("== executor summary ==")[0]
                == cold.split("== executor summary ==")[0])

    def test_figs_rejects_unknown_id(self, capsys):
        assert main(["figs", "fig99"]) == 2
        assert "unknown figure id" in capsys.readouterr().err

    def test_cache_info_list_clear(self, capsys):
        assert main(["figs", "fig13", "--scale", "test",
                     "--max-records", "5000", "--quiet"]) == 0
        capsys.readouterr()

        assert main(["cache", "info"]) == 0
        info = capsys.readouterr().out
        assert "entries" in info and "g5 1" in info

        assert main(["cache", "list"]) == 0
        listing = capsys.readouterr().out
        assert re.search(r"g5 +timing/water_nsquared", listing)
        assert main(["cache", "list", "--kind", "g5"]) == 0
        only_g5 = capsys.readouterr().out.splitlines()
        assert len(only_g5) == 1 and "timing/water_nsquared" in only_g5[0]
        assert len(listing.splitlines()) > 1

        assert main(["cache", "clear", "--kind", "g5"]) == 0
        assert "removed 1 g5 cache entry" in capsys.readouterr().out

        assert main(["cache", "info"]) == 0
        assert "g5 0" in capsys.readouterr().out

    def test_cache_info_breaks_down_every_kind(self, capsys,
                                               _isolated_cache):
        cache = ResultCache(_isolated_cache)
        cache.put(G5Job("sieve", "atomic", "se", "test").cache_key(), {})
        cache.put(SampledJob("sieve", "atomic", "test", 100, 200, 2, 4,
                             0).cache_key(), {})

        assert main(["cache", "info"]) == 0
        entries = re.search(r"entries\s*: (\d+) \((.*)\)",
                            capsys.readouterr().out)
        counts = dict(part.split() for part in entries.group(2).split(", "))
        assert list(counts) == list(KEY_KINDS)
        assert counts["g5"] == counts["sample"] == "1"
        assert sum(map(int, counts.values())) == int(entries.group(1)) == 2

    def test_cache_info_lists_retired_kinds(self, capsys, _isolated_cache):
        # An entry whose kind has left KEY_KINDS (an older release's
        # lint results) is still counted, under its stored kind name.
        cache = ResultCache(_isolated_cache)
        cache.put(G5Job("sieve", "atomic", "se", "test").cache_key(), {})
        cache.put(CacheKey(kind="lint", digest="ab" * 32,
                           describe={"relpath": "a.py"}), [])

        assert main(["cache", "info"]) == 0
        entries = re.search(r"entries\s*: (\d+) \((.*)\)",
                            capsys.readouterr().out)
        counts = dict(part.split() for part in entries.group(2).split(", "))
        assert list(counts) == [*KEY_KINDS, "lint"]
        assert counts["lint"] == "1"
        assert sum(map(int, counts.values())) == int(entries.group(1)) == 2

        assert main(["cache", "clear"]) == 0
        assert "removed 2 cache entries" in capsys.readouterr().out

    def test_an_entry_without_a_label_lists_and_counts(self, capsys,
                                                       _isolated_cache):
        # An envelope written before keys carried the job's label.
        cache = ResultCache(_isolated_cache)
        key = G5Job("sieve", "atomic", "se", "test").cache_key()
        cache.put(key, {})
        path = cache._path(key.digest)
        envelope = pickle.loads(path.read_bytes())
        del envelope["label"]
        path.write_bytes(pickle.dumps(envelope))

        assert main(["cache", "list"]) == 0
        assert re.search(rf"^{key.short} +\d+B  g5 *$",
                         capsys.readouterr().out, re.MULTILINE)
        assert main(["cache", "info"]) == 0
        assert re.search(r"entries\s*: 1 \(g5 1,", capsys.readouterr().out)

    def test_cache_prune(self, capsys):
        assert main(["figs", "fig13", "--scale", "test",
                     "--max-records", "5000", "--quiet"]) == 0
        capsys.readouterr()

        # --max-bytes is mandatory for prune.
        assert main(["cache", "prune"]) == 2
        assert "requires --max-bytes" in capsys.readouterr().err

        # Generous cap: nothing evicted.
        assert main(["cache", "prune", "--max-bytes", "1G"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out

        # Zero cap: everything goes.
        assert main(["cache", "prune", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out and "pruned 0 entries" not in out
        assert main(["cache", "info"]) == 0
        assert "g5 0" in capsys.readouterr().out

    def test_figure_no_cache_leaves_cache_empty(self, capsys,
                                                _isolated_cache):
        assert main(["figure", "fig13", "--scale", "test",
                     "--max-records", "5000", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (_isolated_cache / "objects").exists()

    def test_report_regenerates_only_what_it_generates(self, capsys,
                                                       tmp_path):
        owned = "## How runs are executed and cached\n"
        before = ("## Written by hand, above\r\n\r\nKept   as typed.  \n"
                  "### a subsection\n\n| a | b |\n")
        after = ("## Known gaps (and why)\n\n- still here\n"
                 "##not a heading\n\nno trailing newline")
        path = tmp_path / "EXPERIMENTS.md"
        path.write_bytes((
            "# SUPERSEDED title\n\n| Fig.0 | SUPERSEDED row |\n\n"
            + before + owned + "\nSUPERSEDED prose\n\n" + after).encode())
        argv = ["report", "--scale", "test", "--max-records", "5000",
                "--output", str(path)]
        assert main(argv) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        text = path.read_bytes().decode()
        head, _, tail = text.partition(before)
        assert head.startswith("# EXPERIMENTS")
        assert "| Fig.15 | functions executed (A/T/M/O3) |" in head
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in head.splitlines() if line.startswith("| Fig.")]
        # One row per claim, each claim text once; a shape row says why.
        assert len({row[1] for row in rows}) == len(rows) == len(CLAIMS)
        assert all(row[5] for row in rows if row[4] == "shape")
        assert head.count(owned) == 1 and "`--jobs N` fans" in head
        assert tail == after
        assert "SUPERSEDED" not in text
        # Regenerating is idempotent, and a fresh file gets the same head.
        assert main(argv) == 0
        assert path.read_bytes().decode() == text
        fresh = tmp_path / "fresh.md"
        assert main(argv[:-1] + [str(fresh)]) == 0
        assert fresh.read_bytes().decode() == head

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "doom"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.mark.parametrize("argv, minimum", [
    (["figure", "fig8", "--max-records", "0"], 1),
    (["figs", "fig8", "--max-records", "-5"], 1),
    (["report", "--max-records", "0"], 1),
    (["sample", "run", "--workload", "sieve", "--k", "-1"], 0),
    (["sample", "run", "--workload", "sieve", "--warmup", "-400"], 0),
    (["sample", "run", "--workload", "sieve", "--seed", "-1"], 0),
    (["serve", "--retries", "-1"], 0),
    (["profile", "--workload", "sieve", "--hotspots", "0"], 1),
], ids=["figure-max-records", "figs-max-records", "report-max-records",
        "sample-k", "sample-warmup", "sample-seed", "serve-retries",
        "profile-hotspots"])
def test_integer_flags_reject_what_serve_rejects(capsys, argv, minimum):
    """Each flag takes the bound serve's job documents enforce for the
    same field; a value below it is a usage error, not a run."""
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"must be an integer >= {minimum}" in capsys.readouterr().err
