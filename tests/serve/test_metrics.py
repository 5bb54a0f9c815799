"""The hand-rolled Prometheus instruments and registry."""

from __future__ import annotations

import threading

import pytest

from repro.serve.metrics import (Counter, Gauge, Histogram,
                                 MetricsRegistry, ServeMetrics)


def test_counter_monotone():
    counter = Counter("c_total", {})
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_inc_dec_and_callback():
    gauge = Gauge("g", {})
    gauge.set(10)
    gauge.inc(5)
    gauge.dec(2)
    assert gauge.value == 13.0

    backing = {"depth": 7}
    live = Gauge("g_live", {}, fn=lambda: backing["depth"])
    assert live.value == 7.0
    backing["depth"] = 3
    assert live.value == 3.0


def test_histogram_cumulative_buckets_and_quantiles():
    histogram = Histogram("h", {}, buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5):
        histogram.observe(value)
    counts, total, acc = histogram.snapshot()
    assert counts == [1, 3, 4]          # cumulative
    assert total == 4
    assert acc == pytest.approx(0.605)
    # Out-of-range observations only land in +Inf.
    histogram.observe(5.0)
    assert histogram.snapshot()[:2] == ([1, 3, 4], 5)
    assert histogram.count == 5


def test_histogram_render_has_inf_sum_count():
    histogram = Histogram("h_seconds", {"endpoint": "submit"},
                          buckets=(0.1,))
    histogram.observe(0.05)
    lines = histogram.render()
    assert 'h_seconds_bucket{endpoint="submit",le="0.1"} 1' in lines
    assert 'h_seconds_bucket{endpoint="submit",le="+Inf"} 1' in lines
    assert 'h_seconds_sum{endpoint="submit"} 0.05' in lines
    assert 'h_seconds_count{endpoint="submit"} 1' in lines


def test_registry_families_share_one_header():
    registry = MetricsRegistry()
    registry.counter("jobs_total", "Jobs", labels={"state": "done"})
    registry.counter("jobs_total", "Jobs", labels={"state": "failed"})
    text = registry.render()
    assert text.count("# HELP jobs_total") == 1
    assert text.count("# TYPE jobs_total counter") == 1
    assert 'jobs_total{state="done"} 0' in text
    assert 'jobs_total{state="failed"} 0' in text


def test_registry_rejects_duplicates_and_kind_clashes():
    registry = MetricsRegistry()
    registry.counter("x_total", "X")
    with pytest.raises(ValueError):
        registry.counter("x_total", "X")
    with pytest.raises(ValueError):
        registry.gauge("x_total", "X", labels={"a": "b"})


def test_serve_metrics_routes_unknown_endpoint_to_other():
    metrics = ServeMetrics()
    metrics.observe_request("submit", 0.01)
    metrics.observe_request("not-an-endpoint", 0.01)
    assert metrics.request_seconds["submit"].count == 1
    assert metrics.request_seconds["other"].count == 1


def test_serve_metrics_render_is_parseable():
    metrics = ServeMetrics()
    metrics.submitted.inc(3)
    metrics.completed["done"].inc()
    for line in metrics.render().splitlines():
        if not line or line.startswith("#"):
            continue
        _, _, value = line.rpartition(" ")
        float(value)  # every sample line must end in a number


def test_counter_is_thread_safe():
    counter = Counter("c_total", {})

    def bump():
        for _ in range(2000):
            counter.inc()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 16000


def test_attach_engine_exports_every_engine_counter():
    from repro.exec.pool import EngineStats

    metrics = ServeMetrics()
    stats = EngineStats()
    metrics.attach_engine(stats)
    stats.note_execution("sieve", 0.5)
    text = metrics.render()
    # Scrape-time gauges: the render must reflect the stats object's
    # current counters with no extra plumbing.
    assert "repro_engine_g5_executed 1" in text
    assert "repro_engine_g5_executed_seconds 0.5" in text
    for key in ("g5_disk_hits", "windows_executed", "window_hits",
                "window_seconds"):
        assert f"repro_engine_{key} 0" in text
