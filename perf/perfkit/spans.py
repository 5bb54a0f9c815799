"""In-memory spans recorded from outside the program under test.

The traced run installs timing wrappers around the public entry points
of each layer (``HostCPU.replay``, ``ResultCache.get`` ...) and opens
explicit spans around the calls the harness makes itself.  Nothing
under ``src/`` knows it is being traced.  Spans stay in memory and are
written as one Chrome-trace JSON file when the run ends.

A span's *layer* is the part of its name before the first dot
(``host.replay`` belongs to layer ``host``); its *self time* is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]          # index into Tracer.spans
    trace_id: Optional[str]        # one per campaign / g5 job / request
    thread: int
    #: Counts taken at the same boundary (records replayed, cache hit...).
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: duration minus its direct children's.

    Children are opened and closed inside their parent on the parent's
    thread, so they never overlap each other and the subtraction is the
    part of the parent's interval no child covers.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None) -> Iterator[Span]:
        """Record ``name`` around the block, as a child of the open span.

        ``trace_id`` defaults to the parent's, so every span below a
        request/job/campaign root shares that root's identifier.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent].trace_id
        span = Span(name, self._clock(), 0.0, parent, trace_id,
                    threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self._clock()

    def wrap(self, owner: object, attr: str, name: str,
             note: Optional[Callable[[tuple, dict, object], dict]] = None
             ) -> bool:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``note(args, kwargs, result)`` may return counts to keep on the
        span (it runs after the span closed, so it is not timed).

        ``owner`` is a class (methods, static methods) or a module.  A
        module-level function is often imported by name into its
        callers, so the wrapper also replaces every ``repro.*`` module
        global that is the same function object.  Returns False when
        ``owner`` has no such attribute (a later refactor renamed it):
        the metric then reads 0 instead of the benchmark crashing.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            return False
        target = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
            else raw

        @functools.wraps(target)
        def timed(*args, **kwargs):
            with self.span(name) as span:
                result = target(*args, **kwargs)
            if note is not None:
                span.attrs.update(note(args, kwargs, result))
            return result

        if isinstance(raw, staticmethod):
            replacement: object = staticmethod(timed)
        elif isinstance(raw, classmethod):
            replacement = classmethod(timed)
        else:
            replacement = timed
        self._replace(owner, attr, raw, replacement)
        if not isinstance(owner, type):
            for module_name, module in list(sys.modules.items()):
                if module is owner or module is None \
                        or not module_name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, alias, raw, replacement)
        return True

    def _replace(self, owner: object, attr: str, old: object,
                 new: object) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def unwrap_all(self) -> None:
        """Restore every attribute :meth:`wrap` replaced."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed (inclusive) duration of every span called ``name``."""
        return sum(span.duration for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.named(name)]

    def self_total(self, name: str) -> float:
        own = self_times(self.spans)
        return sum(seconds for span, seconds in zip(self.spans, own)
                   if span.name == name)

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer; the layers partition the roots."""
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self_times(self.spans)):
            totals[span.layer] += seconds
        return dict(totals)

    def children_of(self, name: str, child: str) -> list[Span]:
        """Spans called ``child`` whose direct parent is called ``name``."""
        return [span for span in self.spans
                if span.name == child and span.parent is not None
                and self.spans[span.parent].name == name]

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace "complete" events (microseconds).

        Open in ``chrome://tracing`` or https://ui.perfetto.dev; each
        event's ``args`` carry the span index, its parent's index and
        the shared trace id.
        """
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span.start for span in self.spans)
        threads = {ident: number for number, ident in enumerate(
            dict.fromkeys(span.thread for span in self.spans))}
        own = self_times(self.spans)
        events = [{
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1, "tid": threads[span.thread],
            "args": {"span": index, "parent": span.parent,
                     "id": span.trace_id,
                     "self_us": round(own[index] * 1e6, 3), **span.attrs},
        } for index, span in enumerate(self.spans)]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
