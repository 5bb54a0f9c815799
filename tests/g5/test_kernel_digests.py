"""Kernel digest goldens: stats.txt and host-trace bytes, frozen.

``test_golden_stats.py`` pins readable ``stats.txt`` dumps of
``record=False`` runs.  This file pins what those dumps cannot see: the
recorded host execution trace (``trace_fns``/``trace_daddrs``) that
drives the host model, prefetcher traffic (including prefetch fills
that evict dirty lines from a tiny L2), and the 4-core coherent cache
path.  Each cell stores the sha256 of its stats.txt and of both
trace columns in ``tests/golden/kernel_digests.json``.

To regenerate after an *intentional* behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/g5/test_kernel_digests.py
"""

import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.g5 import Assembler, SimConfig, System, simulate
from repro.g5.mem import CacheParams
from repro.g5.statsfile import write_stats
from repro.workloads.registry import get_workload

from .test_prefetch import streaming_program

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" \
    / "kernel_digests.json"


def _stream_nextline(model):
    return (SimConfig(cpu_model=model, l1d=CacheParams(
                size=64 * 1024, assoc=2, prefetcher="nextline")),
            streaming_program(), "guest")


def _rw_stream_program(n_lines=512, passes=3):
    """Read-modify-write every 64B line of a buffer, ``passes`` times."""
    asm = Assembler(base=0x1000)
    asm.li("s0", 0x10000)
    asm.li("s2", passes)
    asm.label("outer")
    asm.li("t0", 0)
    asm.label("loop")
    asm.slli("t1", "t0", 6)
    asm.add("t1", "t1", "s0")
    asm.ld("t2", "t1", 0)
    asm.addi("t2", "t2", 1)
    asm.sd("t2", "t1", 0)
    asm.addi("t0", "t0", 1)
    asm.li("t3", n_lines)
    asm.blt("t0", "t3", "loop")
    asm.addi("s2", "s2", -1)
    asm.bne("s2", "zero", "outer")
    asm.li("a0", 0)
    asm.li("a7", 93)
    asm.ecall()
    asm.halt()
    return asm.assemble()


def _rw_stream_tiny_nextline(model):
    return (SimConfig(
                cpu_model=model,
                l1d=CacheParams(size=1024, assoc=2, prefetcher="nextline"),
                l2=CacheParams(size=4096, assoc=2, prefetcher="nextline")),
            _rw_stream_program(), "guest")


def _workload(name):
    def build(model):
        return (SimConfig(cpu_model=model),
                get_workload(name).build("test"), name)
    return build


def _ocean_cp_4core(model):
    return (SimConfig(cpu_model=model, cores=4),
            get_workload("ocean_cp").build("test", threads=4), "ocean_cp")


CELLS = {
    **{f"sieve/test/{m}": (_workload("sieve"), m)
       for m in ("atomic", "timing", "minor", "o3")},
    **{f"{w}/test/{m}": (_workload(w), m)
       for w in ("canneal", "ocean_cp") for m in ("minor", "o3")},
    **{f"stream/nextline/{m}": (_stream_nextline, m)
       for m in ("atomic", "timing")},
    **{f"rwstream/tiny/nextline/{m}": (_rw_stream_tiny_nextline, m)
       for m in ("atomic", "timing")},
    **{f"ocean_cp/test/4core/{m}": (_ocean_cp_4core, m)
       for m in ("atomic", "timing")},
}


def _sha256_ints(values) -> str:
    return hashlib.sha256(
        "\n".join(map(str, values)).encode("ascii")).hexdigest()


def _digests(cell: str) -> dict:
    build, model = CELLS[cell]
    config, program, process_name = build(model)
    system = System(config)
    system.set_se_workload(program, process_name=process_name)
    result = simulate(system, max_ticks=10**11)
    assert result.exit_cause == "target called exit()", cell
    stream = io.StringIO()
    write_stats(system, stream)
    return {
        "stats_txt": hashlib.sha256(
            stream.getvalue().encode("utf-8")).hexdigest(),
        "trace_fns": _sha256_ints(result.recorder.trace_fns),
        "trace_daddrs": _sha256_ints(result.recorder.trace_daddrs),
        "records": len(result.recorder),
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_kernel_digests_match_golden(cell):
    actual = _digests(cell)

    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
                  if GOLDEN_PATH.exists() else {})
        golden[cell] = actual
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        pytest.skip(f"regenerated {cell} in {GOLDEN_PATH.name}")

    assert GOLDEN_PATH.exists(), (
        f"golden file {GOLDEN_PATH} missing; run with "
        f"REPRO_UPDATE_GOLDEN=1 to create it")
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[cell]
    drifted = sorted(key for key in expected.keys() | actual.keys()
                     if expected.get(key) != actual.get(key))
    assert not drifted, (
        f"{cell} drifted from golden on {drifted}; if this change is "
        f"intentional, regenerate with REPRO_UPDATE_GOLDEN=1")
