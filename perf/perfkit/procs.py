"""Subprocess hygiene: every child has a time-out and is always reaped.

The program under test runs as real ``python -m repro.cli`` processes.
This module starts them with the checkout's ``src/`` on ``PYTHONPATH``,
keeps every file they write inside the benchmark's scratch directory,
bounds every wait, and kills and reaps on any failure path.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

#: The checkout root: ``perf/perfkit/procs.py`` is two levels below it.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Everything the benchmark writes (temp caches, span files, reports).
OUT_DIR = ROOT / ".perf_out"

CLI_TIMEOUT = 120.0        # one `repro-g5 figs` campaign or child interpreter
BANNER_TIMEOUT = 30.0      # daemon start until its "listening" line
STOP_TIMEOUT = 10.0        # graceful drain before SIGKILL


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def child_env(cache_dir: Path) -> dict[str, str]:
    """Environment for the program under test.

    ``REPRO_CACHE_DIR`` is always set, so a code path that forgets its
    ``--cache-dir`` still cannot touch ``~/.cache/repro-g5``.
    """
    env = dict(os.environ)
    # src/ for the program under test, perf/ for `-m perfkit.child`.
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT / "perf")])
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("PYTHONSTARTUP", None)
    return env


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``.perf_out/tmp``, removed on exit."""
    base = OUT_DIR / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _spawn(args: Sequence[str], cache_dir: Path,
           stderr: Optional[int]) -> subprocess.Popen:
    """Start ``python <args>`` as the leader of its own process group."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(cache_dir),
        stdout=subprocess.PIPE, stderr=stderr, text=True,
        start_new_session=True)


def _kill_group(process: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the child's process group.

    A CLI or daemon that dies abnormally can leave pool workers behind;
    they share the group the child leads, so this reaches them too.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _kill_and_reap(process: subprocess.Popen) -> None:
    _kill_group(process)
    try:
        process.wait(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:  # pragma: no cover - kernel-stuck child
        pass
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def run_python(args: Sequence[str], cache_dir: Path,
               timeout: float = CLI_TIMEOUT) -> tuple[int, str, str, float]:
    """Run ``python <args>`` to completion.

    Returns ``(returncode, stdout, stderr, wall seconds)``; the wall
    clock covers process start to exit, which is what a CLI user waits
    for.  A time-out kills the child and reports return code -9.
    """
    start = time.perf_counter()
    process = _spawn(args, cache_dir, stderr=subprocess.PIPE)
    try:
        out, err = process.communicate(timeout=timeout)
        code = process.returncode
    except subprocess.TimeoutExpired:
        _kill_group(process)
        out, err = process.communicate()
        code = -9
        err += f"\n[perf] killed after {timeout:.0f}s time-out"
    except BaseException:
        _kill_and_reap(process)
        raise
    wall = time.perf_counter() - start
    _kill_group(process)
    return code, out, err, wall


def run_cli(args: Sequence[str], cache_dir: Path,
            timeout: float = CLI_TIMEOUT) -> tuple[int, str, str, float]:
    """Run ``python -m repro.cli <args>`` (see :func:`run_python`)."""
    return run_python(["-m", "repro.cli", *args], cache_dir, timeout)


class Daemon:
    """One ``repro-g5 serve`` / ``fleet ...`` process on an ephemeral port."""

    def __init__(self, args: Sequence[str], cache_dir: Path) -> None:
        self.args = list(args)
        self.process = _spawn(["-m", "repro.cli", *self.args], cache_dir,
                              stderr=subprocess.DEVNULL)
        self.url = ""
        self.drain_report = ""

    def wait_banner(self, timeout: float = BANNER_TIMEOUT) -> str:
        """Block until the daemon prints its listening line; returns URL.

        The read happens on a helper thread so a daemon that never
        prints cannot hang the run.
        """
        lines: list[str] = []

        def read() -> None:
            lines.append(self.process.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        banner = lines[0] if lines else ""
        urls = [word for word in banner.split()
                if word.startswith("http://")]
        if not urls:
            raise HarnessError(
                f"`repro-g5 {' '.join(self.args)}` printed no listening "
                f"address within {timeout:.0f}s (got {banner!r})")
        self.url = urls[0]
        return self.url

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain), then SIGKILL; always reaps."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            out, _ = process.communicate(timeout=STOP_TIMEOUT)
            self.drain_report = (out or "").strip()
        except subprocess.TimeoutExpired:
            _kill_group(process)
            process.communicate()
        _kill_group(process)
        return process.returncode


@contextmanager
def daemons() -> Iterator[list[Daemon]]:
    """A list to register daemons in; all are stopped on exit.

    Stops run in reverse start order (workers before their
    coordinator) and every daemon is stopped even if one stop raises.
    """
    started: list[Daemon] = []
    try:
        yield started
    finally:
        error: Optional[BaseException] = None
        for daemon in reversed(started):
            try:
                daemon.stop()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                _kill_and_reap(daemon.process)
                error = error or exc
        if error is not None:
            raise error


def peak_rss_mb() -> float:
    """Largest peak RSS of any reaped descendant process, in MB.

    ``RUSAGE_CHILDREN`` folds in every child this process waited for
    and, transitively, every process those children waited for — the
    CLI, its pool workers, the daemons and theirs.  Linux reports KiB.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
