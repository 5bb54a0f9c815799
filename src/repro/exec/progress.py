"""Progress reporting for experiment batches.

The executor runs minutes-long batches; this gives the user a line per
event on stderr (so stdout stays clean for figure output) plus an
end-of-batch summary.  ``NullReporter`` silences everything and is the
library default — only the CLI turns reporting on.

Reporters are thread-safe: the serve daemon's worker threads may call
``job_done`` concurrently, so the done-counter increment and the line
emission happen under one lock (which also keeps interleaved output
whole).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional, TextIO


class ProgressReporter:
    """Prints one line per job event and a batch summary."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0
        self._started_at: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def batch_start(self, total: int, hits: int, workers: int) -> None:
        with self._lock:
            self._total = total
            self._done = 0
            self._started_at = time.perf_counter()
            if total == 0:
                self._line(f"all {hits} g5 result(s) cached; "
                           f"nothing to run")
            else:
                self._line(f"running {total} g5 simulation(s) on "
                           f"{workers} worker(s) ({hits} cache hit(s))")

    def job_done(self, label: str, seconds: float,
                 source: str = "run") -> None:
        """One finished job, counted against the open batch if any."""
        with self._lock:
            self._done += 1
            count = f"[{self._done}/{self._total}] " if self._total else ""
            self._line(f"{count}{label} ({source}, {seconds:.2f}s)")

    def batch_end(self) -> None:
        with self._lock:
            if self._started_at is None or self._total == 0:
                return
            elapsed = time.perf_counter() - self._started_at
            self._line(f"batch complete: {self._total} run(s) in "
                       f"{elapsed:.2f}s")
            self._started_at = None
            self._total = 0

    # ------------------------------------------------------------------
    def _line(self, text: str) -> None:
        print(f"[exec] {text}", file=self.stream, flush=True)


class NullReporter(ProgressReporter):
    """Reporter that says nothing (the library default)."""

    def __init__(self) -> None:
        super().__init__(stream=None)

    def _line(self, text: str) -> None:
        pass
