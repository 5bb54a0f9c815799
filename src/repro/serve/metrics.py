"""A small, thread-safe Prometheus-text-format metrics registry.

The daemon serves ``GET /metrics`` by rendering every registered family
in the `Prometheus exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``# HELP``/``# TYPE`` headers followed by one line per series.  Three
instrument types cover everything the server reports:

- :class:`Counter` — monotonically increasing totals (jobs submitted,
  cache hits, coalesced requests);
- :class:`Gauge` — point-in-time values, either set explicitly or read
  from a callback at scrape time (queue depth, in-flight jobs);
- :class:`Histogram` — cumulative-bucket latency distributions with
  ``_sum``/``_count`` series (per-endpoint request latency).

Series with the same name but different label sets share one family
(one HELP/TYPE header); every mutation and the render itself take the
instrument's lock, so worker threads, HTTP handler threads, and the
scraper never race.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping, Optional, Sequence

#: Default latency buckets (seconds): 1 ms up to 30 s, then +Inf.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def _format_value(value: float) -> str:
    """Render a sample the way Prometheus expects (ints stay ints)."""
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str],
                   extra: Optional[Mapping[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{key}="{value}"'
                    for key, value in sorted(merged.items()))
    return "{" + body + "}"


class _Instrument:
    """Shared base: a named series with a label set and a lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()

    def render(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        return [f"{self.name}{_format_labels(self.labels)} "
                f"{_format_value(self.value)}"]


class Gauge(_Instrument):
    """Point-in-time value; optionally read from a callback at scrape."""

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str],
                 fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        return [f"{self.name}{_format_labels(self.labels)} "
                f"{_format_value(self.value)}"]


class Histogram(_Instrument):
    """Cumulative-bucket distribution with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(self, name: str, labels: Mapping[str, str],
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, labels)
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * len(self.buckets)
        self._inf = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._inf += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1

    def snapshot(self) -> tuple[list[int], int, float]:
        with self._lock:
            return list(self._counts), self._inf, self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._inf

    def render(self) -> list[str]:
        counts, inf_count, total = self.snapshot()
        lines = []
        for bound, count in zip(self.buckets, counts):
            le = _format_labels(self.labels, {"le": _format_value(bound)})
            lines.append(f"{self.name}_bucket{le} {count}")
        le = _format_labels(self.labels, {"le": "+Inf"})
        lines.append(f"{self.name}_bucket{le} {inf_count}")
        lines.append(f"{self.name}_sum{_format_labels(self.labels)} "
                     f"{_format_value(total)}")
        lines.append(f"{self.name}_count{_format_labels(self.labels)} "
                     f"{inf_count}")
        return lines


#: Endpoint labels for the per-endpoint request latency histograms.
ENDPOINTS = ("submit", "status", "result", "stats", "metrics",
             "health", "drain", "store", "other")


def endpoint_histograms(registry: "MetricsRegistry", name: str,
                        endpoints: Sequence[str]) -> dict[str, Histogram]:
    """One request-latency histogram per endpoint label, keyed by it."""
    return {endpoint: registry.histogram(
                name, "HTTP request latency by endpoint",
                labels={"endpoint": endpoint})
            for endpoint in endpoints}


class ServeMetrics:
    """Every instrument the daemon exports, pre-registered.

    One instance is shared by the HTTP layer (request latency,
    rejections), the queue (depth/in-flight gauges read at scrape
    time), and the scheduler (cache and execution counters).  The
    executor's :class:`~repro.exec.pool.EngineStats` is exported as
    ``repro_engine_*`` gauges backed by scrape-time callbacks, so the
    numbers the CLI prints in its executor summary and the numbers a
    Prometheus scrape sees are the same counters.
    """

    def __init__(self,
                 registry: Optional["MetricsRegistry"] = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        self.submitted = reg.counter(
            "repro_serve_jobs_submitted_total",
            "Jobs accepted, including coalesced submissions")
        self.coalesced = reg.counter(
            "repro_serve_jobs_coalesced_total",
            "Submissions deduplicated onto an identical in-flight job")
        self.rejected = reg.counter(
            "repro_serve_jobs_rejected_total",
            "Submissions rejected by backpressure (429) or drain (503)")
        self.completed = {
            state: reg.counter(
                "repro_serve_jobs_completed_total",
                "Jobs reaching a terminal state, by state",
                labels={"state": state})
            for state in ("done", "failed", "cancelled")}
        self.memo_hits = reg.counter(
            "repro_serve_cache_memo_hits_total",
            "Jobs served from the in-process result memo")
        self.disk_hits = reg.counter(
            "repro_serve_cache_disk_hits_total",
            "Jobs served from the content-addressed disk cache")
        self.cache_misses = reg.counter(
            "repro_serve_cache_misses_total",
            "Jobs that required an actual simulation")
        self.retries = reg.counter(
            "repro_serve_worker_retries_total",
            "Execution retries after worker-process crashes")
        self.timeouts = reg.counter(
            "repro_serve_job_timeouts_total",
            "Jobs failed for exceeding the per-job timeout")
        self.pruned = reg.counter(
            "repro_serve_cache_pruned_entries_total",
            "Disk-cache entries evicted by the byte-cap pruner")
        self.request_seconds = endpoint_histograms(
            reg, "repro_serve_request_seconds", ENDPOINTS)

    def attach_queue(self, queue) -> None:
        """Register scrape-time gauges over the job queue."""
        self.registry.gauge(
            "repro_serve_queue_depth",
            "Jobs queued and not yet claimed by a worker",
            fn=queue.depth)
        self.registry.gauge(
            "repro_serve_jobs_in_flight",
            "Jobs currently executing on workers",
            fn=queue.running)

    def attach_engine(self, stats) -> None:
        """Export every :class:`EngineStats` counter as a scrape-time
        gauge, so the daemon's summary lines and a Prometheus scrape
        can never disagree about what the engine did."""
        def reader(counter_key: str):
            return lambda: stats.as_dict()[counter_key]

        for key, help_text in (
            ("g5_executed",
             "Simulations actually executed by this daemon"),
            ("g5_disk_hits",
             "Simulations served from the disk cache"),
            ("g5_executed_seconds",
             "Total wall-clock seconds spent executing simulations"),
            ("windows_executed",
             "Sampled measurement windows actually executed"),
            ("window_hits",
             "Sampled windows served from the disk cache"),
            ("window_seconds",
             "Total wall-clock seconds spent measuring windows"),
        ):
            self.registry.gauge(f"repro_engine_{key}", help_text,
                                fn=reader(key))

    def observe_request(self, endpoint: str, seconds: float) -> None:
        histogram = self.request_seconds.get(
            endpoint, self.request_seconds["other"])
        histogram.observe(seconds)

    def render(self) -> str:
        return self.registry.render()


class MetricsRegistry:
    """Registered instruments, grouped into families for rendering."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # family name -> (kind, help, ordered instruments)
        self._families: dict[str, tuple[str, str, list[_Instrument]]] = {}

    def _register(self, instrument: _Instrument, help_text: str):
        with self._lock:
            family = self._families.get(instrument.name)
            if family is None:
                self._families[instrument.name] = (
                    instrument.kind, help_text, [instrument])
                return instrument
            kind, _, members = family
            if kind != instrument.kind:
                raise ValueError(
                    f"metric {instrument.name!r} already registered as "
                    f"{kind}, not {instrument.kind}")
            if any(member.labels == instrument.labels
                   for member in members):
                raise ValueError(
                    f"duplicate series {instrument.name!r} with labels "
                    f"{instrument.labels!r}")
            members.append(instrument)
            return instrument

    # -- factories ------------------------------------------------------
    def counter(self, name: str, help_text: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._register(Counter(name, labels or {}), help_text)

    def gauge(self, name: str, help_text: str,
              labels: Optional[Mapping[str, str]] = None,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(Gauge(name, labels or {}, fn=fn), help_text)

    def histogram(self, name: str, help_text: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(
            Histogram(name, labels or {}, buckets=buckets), help_text)

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """The full exposition document, families in registration order."""
        with self._lock:
            families = [(name, kind, help_text, list(members))
                        for name, (kind, help_text, members)
                        in self._families.items()]
        lines: list[str] = []
        for name, kind, help_text, members in families:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for member in members:
                lines.extend(member.render())
        return "\n".join(lines) + "\n"
