"""End-to-end over localhost HTTP against real simulations.

The load-bearing test proves a result fetched over the API is
bit-for-bit the payload a direct in-process ``execute_g5_job`` run
packs — same canonical JSON — so a warm daemon is a drop-in substitute
for running simulations locally.
"""

from __future__ import annotations

import json

import pytest

from repro.exec.pool import G5Job, execute_g5_job
from repro.g5.serialize import pack_sim_result
from repro.serve import ServeError, clock

from .conftest import make_server


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_served_result_matches_direct_run_bit_for_bit(live_server):
    server, client = live_server
    ack = client.submit(workload="sieve", cpu="timing", scale="test")
    status = client.wait(ack["id"], timeout=60.0)
    assert status["state"] == "done"
    assert status["source"] == "executed"

    served = client.result(ack["id"])["result"]
    direct = pack_sim_result(execute_g5_job(
        G5Job(workload="sieve", cpu_model="timing", mode="se",
              scale="test")))
    assert canonical(served) == canonical(direct)

    # The unpacked SimResult round-trips too.
    sim = client.sim_result(ack["id"])
    assert sim.console == execute_g5_job(
        G5Job(workload="sieve", cpu_model="timing", mode="se",
              scale="test")).console


def test_resubmission_is_served_from_memory_then_disk(live_server, tmp_path):
    server, client = live_server
    ack = client.submit(workload="fmm", cpu="atomic", scale="test")
    client.wait(ack["id"], timeout=60.0)
    first = client.result(ack["id"])["result"]

    again = client.submit(workload="fmm", cpu="atomic", scale="test")
    status = client.wait(again["id"], timeout=60.0)
    assert status["source"] in ("memo", f"coalesced:{ack['id']}")
    assert canonical(client.result(again["id"])["result"]) == \
        canonical(first)

    # A fresh daemon over the same cache dir serves it from disk:
    # served results survive restarts exactly like CLI results do.
    server2, client2 = make_server(tmp_path, workers=1)
    try:
        cold = client2.submit(workload="fmm", cpu="atomic", scale="test")
        status2 = client2.wait(cold["id"], timeout=60.0)
        assert status2["source"] == "disk-cache"
        assert canonical(client2.result(cold["id"])["result"]) == \
            canonical(first)
    finally:
        server2.drain_and_stop()


def test_figure_job_end_to_end(live_server, tmp_path):
    from repro.exec.cache import ResultCache
    from repro.experiments import FIGURES
    from repro.experiments.runner import ExperimentRunner

    server, client = live_server
    doc = client.run({"kind": "figure", "figure": "fig3",
                      "scale": "test", "max_records": 20000},
                     timeout=120.0)
    payload = doc["result"]
    assert payload["kind"] == "figure"
    assert payload["figure"] == "fig3"
    assert payload["g5_executed"] + payload["g5_disk_hits"] > 0
    assert payload["replays_executed"] + payload["replay_disk_hits"] > 0
    assert isinstance(payload["rendered"], str) and payload["rendered"]

    # What `repro-g5 figs fig3` prints, read back from the same cache.
    runner = ExperimentRunner(scale="test", max_records=20000,
                              cache=ResultCache(tmp_path / "cache"))
    runner.prefetch_figures([FIGURES["fig3"]])
    assert runner.cache_stats()["g5_executed"] == 0
    assert payload["rendered"] == FIGURES["fig3"].run(runner).render()


def test_staged_coalescing_with_real_execution(tmp_path):
    # Stage three identical submissions before any worker starts, then
    # let the scheduler rip: one real simulation, three identical
    # results.  (run_scheduler=False removes all timing dependence.)
    server, client = make_server(tmp_path, workers=1,
                                 run_scheduler=False)
    try:
        acks = [client.submit(workload="sieve", cpu="o3", scale="test")
                for _ in range(3)]
        assert sum(a["coalesced_into"] is None for a in acks) == 1
        assert server.metrics.coalesced.value == 2          # N - 1

        server.scheduler.start()
        payloads = []
        for ack in acks:
            assert client.wait(ack["id"], timeout=60.0)["state"] == "done"
            payloads.append(canonical(client.result(ack["id"])["result"]))
        assert payloads[0] == payloads[1] == payloads[2]
        assert server.scheduler.stats.as_dict()["g5_executed"] == 1
    finally:
        server.drain_and_stop()


def test_sampled_job_end_to_end(live_server):
    """A sampled job served over HTTP matches the direct pipeline."""
    from repro.sample import SampledJob, execute_sampled_job

    server, client = live_server
    doc = {"kind": "sample", "workload": "sieve", "cpu": "timing",
           "scale": "test", "interval_insts": 100, "warmup_insts": 200,
           "max_k": 4}
    ack = client.submit_doc(doc)
    status = client.wait(ack["id"], timeout=120.0)
    assert status["state"] == "done"

    served = client.result(ack["id"])["result"]
    assert served["kind"] == "sample"
    direct = execute_sampled_job(SampledJob(
        workload="sieve", cpu_model="timing", scale="test",
        interval_insts=100, warmup_insts=200, max_k=4))
    assert canonical(served) == canonical(direct)

    # Resubmission is served without re-executing (memo or coalesced).
    again = client.submit_doc(doc)
    status2 = client.wait(again["id"], timeout=120.0)
    assert status2["source"] in ("memo", f"coalesced:{ack['id']}",
                                 "disk-cache")
    assert canonical(client.result(again["id"])["result"]) == \
        canonical(served)


def test_http_error_paths(live_server):
    server, client = live_server
    with pytest.raises(ServeError) as bad:
        client.submit(workload="nonesuch")
    assert bad.value.status == 400
    assert "unknown workload" in bad.value.doc["error"]

    with pytest.raises(ServeError) as missing:
        client.status("j99999999")
    assert missing.value.status == 404
    with pytest.raises(ServeError) as no_result:
        client.result("j99999999")
    assert no_result.value.status == 404


def test_result_before_completion_is_409(gated):
    server, client, executor = gated
    ack = client.submit(workload="sieve", cpu="atomic")
    with pytest.raises(ServeError) as excinfo:
        client.result(ack["id"])
    assert excinfo.value.status == 409
    executor.release()


def test_metrics_health_and_stats(live_server):
    server, client = live_server
    ack = client.submit(workload="canneal", cpu="atomic", scale="test")
    client.wait(ack["id"], timeout=60.0)

    text = client.metrics_text()
    assert "# TYPE repro_serve_jobs_submitted_total counter" in text
    assert "# TYPE repro_serve_request_seconds histogram" in text

    # The wait's reply can reach us before the server has finished
    # accounting for it: the handler times a request after sending it,
    # and the scheduler counts a completion after waking the waiters.
    settled = ('repro_serve_request_seconds_count{endpoint="status"}',
               'repro_serve_jobs_completed_total{state="done"}')
    deadline = clock.monotonic() + 5.0
    parsed = client.metrics()
    while (min(parsed.get(series, 0) for series in settled) < 1
           and clock.monotonic() < deadline):
        clock.sleep(0.01)
        parsed = client.metrics()
    assert parsed["repro_serve_jobs_submitted_total"] >= 1
    assert parsed["repro_engine_g5_executed"] >= 1
    assert parsed['repro_serve_jobs_completed_total{state="done"}'] >= 1
    # The scrape itself and the waits above were timed.
    assert parsed[
        'repro_serve_request_seconds_count{endpoint="status"}'] >= 1

    assert client.health() == {"status": "ok", "draining": False}
    stats = client.server_stats()
    assert stats["queue"]["done"] >= 1
    assert stats["workers"] == 2
    assert stats["engine"]["g5_executed"] >= 1
    assert stats["draining"] is False


def test_dead_daemon_releases_its_port_despite_forked_executors(
        tmp_path):
    """A daemon's port must refuse connections once it stops, even
    while *other* daemons in the process keep forking executors.

    A ProcessPoolExecutor child forks with every listen fd in the
    process; without the after-fork socket close, a sibling daemon's
    children keep a dead daemon's port half-open — connections are
    accepted into a backlog nobody drains, so fleet peers hang out
    their full timeout instead of getting connection-refused.  That is
    exactly the multi-worker harness (and ``fleet worker``) topology.
    """
    import time
    import urllib.error
    import urllib.request

    victim, _ = make_server(tmp_path, workers=1,
                            cache=False)
    address = victim.address
    survivor, surv_client = make_server(tmp_path, workers=1,
                                        cache=False)
    try:
        # A real execution on the survivor forks pool children that
        # inherited the victim's listen fd.
        ack = surv_client.submit(workload="sieve", cpu="atomic",
                                 scale="test")
        assert surv_client.wait(ack["id"],
                                timeout=60.0)["state"] == "done"
        # Abrupt death (no drain): stop the loops, close the listener.
        victim.scheduler.stop(timeout=0.5)
        victim.httpd.shutdown()
        victim.httpd.server_close()

        begin = time.monotonic()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"{address}/healthz", timeout=5.0)
        assert time.monotonic() - begin < 1.0, \
            "connection to the dead daemon hung instead of refusing"
    finally:
        survivor.drain_and_stop()
