"""Guest thread-runtime macros: locks, barriers, spawn/join.

Multi-threaded workload variants are built from these emitters, which
wrap the LL/SC atomics (:class:`~repro.g5.isa.instructions.Opcode.LL` /
``SC``) and the thread pseudo-ops (``m5_thread_spawn`` /
``m5_thread_exit`` / ``m5_thread_poll``).  The runtime is deliberately
minimal — a spinlock, an LL/SC fetch-and-add, a generation-counting
barrier, and unrolled spawn/join sequences — mirroring the pthread
subset the PARSEC/SPLASH-2x kernels actually exercise.

Register conventions (on top of the kernels.py ABI)
---------------------------------------------------
``s9``
    thread count (main + spawned workers); every participant loads it.
``s10``
    worker index: 0 for the main thread, ``k`` for the k-th spawned
    worker (passed to the worker entry in ``a0``).
``tp``
    runtime thread id, seeded by the spawn pseudo-op (0 on the boot
    core).  Kernels use ``s10`` for partitioning; ``tp`` is what
    ``m5_thread_exit`` reports against.

Control block layout (all 8-byte words, below ``DATA_BASE``)
------------------------------------------------------------
``MT_LOCK``        global spinlock word (0 free / 1 held)
``MT_BAR_COUNT``   barrier arrival count
``MT_BAR_GEN``     barrier generation number
``MT_TIDS``        spawned runtime tids, indexed by worker index
``MT_PARTIALS``    per-worker reduction slots, indexed by worker index
"""

from __future__ import annotations

from ..g5.isa import Assembler

#: Thread-runtime control block, below the workload data segment.
MT_BASE = 0x000F_0000
MT_LOCK = MT_BASE
MT_BAR_COUNT = MT_BASE + 8
MT_BAR_GEN = MT_BASE + 16
MT_TIDS = MT_BASE + 64
MT_PARTIALS = MT_BASE + 128

#: Matches the SimConfig core cap: one guest thread per core.
MAX_GUEST_THREADS = 8


def check_threads(threads: int) -> None:
    """Validate a thread count (1 is allowed: the threaded kernel with
    zero spawned workers, which is the differential reference)."""
    if not 1 <= threads <= MAX_GUEST_THREADS:
        raise ValueError(
            f"threaded kernels take 1..{MAX_GUEST_THREADS} threads, "
            f"got {threads}")


def emit_mt_init(asm: Assembler, threads: int) -> None:
    """Zero the runtime control words and seed s9/s10 for the main
    thread (worker index 0).  Clobbers t5."""
    asm.li("t5", MT_BASE)
    asm.sd("zero", "t5", 0)       # lock
    asm.sd("zero", "t5", 8)       # barrier count
    asm.sd("zero", "t5", 16)      # barrier generation
    asm.li("s9", threads)
    asm.li("s10", 0)


def emit_worker_prologue(asm: Assembler, threads: int,
                         label: str = "mtworker") -> None:
    """Worker entry point: bind the index argument and thread count.

    The spawn pseudo-op delivers the spawn argument in a0 (the worker
    index by convention) and the runtime tid in tp.
    """
    asm.label(label)
    asm.mv("s10", "a0")
    asm.li("s9", threads)


def emit_spawn_workers(asm: Assembler, threads: int,
                       worker_label: str = "mtworker") -> None:
    """Spawn workers 1..threads-1, recording their tids.

    Clobbers a0, a1, t5.  Each worker starts at ``worker_label`` with
    its index in a0.
    """
    for index in range(1, threads):
        asm.la("a0", worker_label)
        asm.li("a1", index)
        asm.m5_thread_spawn()
        asm.li("t5", MT_TIDS + 8 * index)
        asm.sd("a0", "t5", 0)


def emit_join_workers(asm: Assembler, threads: int, prefix: str) -> None:
    """Poll each spawned worker's tid until it has exited.

    Clobbers a0, t5.  ``prefix`` keeps the per-worker spin labels
    unique across call sites.
    """
    for index in range(1, threads):
        asm.li("t5", MT_TIDS + 8 * index)
        asm.label(f"{prefix}_join{index}")
        asm.ld("a0", "t5", 0)
        asm.m5_thread_poll()
        asm.beq("a0", "zero", f"{prefix}_join{index}")


def emit_lock_acquire(asm: Assembler, prefix: str) -> None:
    """Spin until the global lock is taken.  Clobbers t4, t5, t6."""
    asm.li("t5", MT_LOCK)
    asm.label(f"{prefix}_lk")
    asm.ll("t6", "t5")
    asm.bne("t6", "zero", f"{prefix}_lk")    # held: keep spinning
    asm.li("t4", 1)
    asm.sc("t6", "t5", "t4")
    asm.bne("t6", "zero", f"{prefix}_lk")    # lost the race: retry


def emit_lock_release(asm: Assembler) -> None:
    """Release the global lock (a plain store clears any reservation
    covering the lock word).  Clobbers t5."""
    asm.li("t5", MT_LOCK)
    asm.sd("zero", "t5", 0)


def emit_barrier(asm: Assembler, prefix: str) -> None:
    """Generation-counting barrier over all s9 threads.

    The last arriver resets the count and bumps the generation; everyone
    else spins on the generation word.  Safe for reuse in a loop: the
    count is reset *before* the generation bump, so re-arrivals for the
    next phase never mix with the current one.  Clobbers t2..t6;
    requires s9 = thread count.
    """
    asm.li("t5", MT_BAR_GEN)
    asm.ld("t2", "t5", 0)                    # my generation
    asm.li("t5", MT_BAR_COUNT)
    asm.label(f"{prefix}_bar_add")
    asm.ll("t3", "t5")
    asm.addi("t3", "t3", 1)
    asm.sc("t4", "t5", "t3")
    asm.bne("t4", "zero", f"{prefix}_bar_add")
    asm.bne("t3", "s9", f"{prefix}_bar_wait")
    asm.sd("zero", "t5", 0)                  # last: reset count...
    asm.li("t5", MT_BAR_GEN)
    asm.addi("t2", "t2", 1)
    asm.sd("t2", "t5", 0)                    # ...then open the gate
    asm.j(f"{prefix}_bar_done")
    asm.label(f"{prefix}_bar_wait")
    asm.li("t5", MT_BAR_GEN)
    asm.label(f"{prefix}_bar_spin")
    asm.ld("t3", "t5", 0)
    asm.beq("t3", "t2", f"{prefix}_bar_spin")
    asm.label(f"{prefix}_bar_done")
