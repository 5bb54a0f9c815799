"""Fleet end-to-end: real simulations through coordinator + workers.

The acceptance spine: a coordinator fronting two real worker daemons
serves g5, sampled, and figure jobs with payloads byte-for-byte
identical to direct in-process execution, and the shared store lets
one worker's results be served from another worker's cache.
"""

from __future__ import annotations

import json

from repro.exec.pool import G5Job, execute_g5_job
from repro.g5.serialize import pack_sim_result


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_mixed_batch_matches_direct_runs_bit_for_bit(fleet):
    fleet.add_worker(workers=2)
    fleet.add_worker(workers=2)

    g5_doc = {"kind": "g5", "workload": "sieve", "cpu": "timing",
              "scale": "test"}
    sample_doc = {"kind": "sample", "workload": "sieve",
                  "cpu": "timing", "scale": "test",
                  "interval_insts": 100, "warmup_insts": 200,
                  "max_k": 4}
    figure_doc = {"kind": "figure", "figure": "fig3", "scale": "test",
                  "max_records": 20000}
    acks = {name: fleet.client.submit_doc(doc)
            for name, doc in (("g5", g5_doc), ("sample", sample_doc),
                              ("figure", figure_doc))}
    served = {}
    for name, ack in acks.items():
        status = fleet.client.wait(ack["id"], timeout=120.0)
        assert status["state"] == "done", f"{name}: {status}"
        served[name] = fleet.client.result(ack["id"])["result"]

    direct_g5 = pack_sim_result(execute_g5_job(
        G5Job(workload="sieve", cpu_model="timing", mode="se",
              scale="test")))
    assert canonical(served["g5"]) == canonical(direct_g5)

    from repro.sample import SampledJob, execute_sampled_job

    direct_sample = execute_sampled_job(SampledJob(
        workload="sieve", cpu_model="timing", scale="test",
        interval_insts=100, warmup_insts=200, max_k=4))
    assert canonical(served["sample"]) == canonical(direct_sample)

    assert served["figure"]["kind"] == "figure"
    assert served["figure"]["figure"] == "fig3"
    assert isinstance(served["figure"]["rendered"], str)
    assert served["figure"]["rendered"]
    counts = {key: served["figure"][key] for key in (
        "g5_executed", "g5_disk_hits", "replays_executed",
        "replay_disk_hits")}
    assert counts["g5_executed"] + counts["g5_disk_hits"] > 0
    assert counts["replays_executed"] + counts["replay_disk_hits"] > 0


def test_any_worker_serves_any_cached_result(fleet):
    """The shared store makes results location-transparent.

    A result executed via the fleet lands in one worker's cache.
    Submitting the same work *directly* to each
    worker daemon must then be served from cache everywhere — either
    the local disk or a peer fetch — never re-executed.
    """
    from repro.serve import ServeClient

    fleet.add_worker(workers=2)
    fleet.add_worker(workers=2)
    doc = {"kind": "g5", "workload": "fmm", "cpu": "atomic",
           "scale": "test"}
    ack = fleet.client.submit_doc(doc)
    assert fleet.client.wait(ack["id"],
                             timeout=120.0)["state"] == "done"
    reference = canonical(fleet.client.result(ack["id"])["result"])

    executed_before = [
        worker.server.scheduler.stats.as_dict()["g5_executed"]
        for worker in fleet.workers]
    for worker in fleet.workers:
        direct = ServeClient(worker.url, timeout=10.0)
        again = direct.submit_doc(doc)
        status = direct.wait(again["id"], timeout=120.0)
        assert status["state"] == "done"
        assert canonical(direct.result(again["id"])["result"]) \
            == reference
    executed_after = [
        worker.server.scheduler.stats.as_dict()["g5_executed"]
        for worker in fleet.workers]
    assert executed_after == executed_before, \
        "a cached result was re-executed instead of store-served"


def test_coalesced_fleet_submissions_execute_once(fleet):
    fleet.add_worker(workers=2)
    fleet.add_worker(workers=2)
    doc = {"kind": "g5", "workload": "ocean_cp", "cpu": "atomic",
           "scale": "test"}
    acks = [fleet.client.submit_doc(doc) for _ in range(4)]
    assert sum(ack["coalesced_into"] is None for ack in acks) == 1
    payloads = set()
    for ack in acks:
        status = fleet.client.wait(ack["id"], timeout=120.0)
        assert status["state"] == "done"
        payloads.add(canonical(fleet.client.result(ack["id"])["result"]))
    assert len(payloads) == 1
    total_executed = sum(
        worker.server.scheduler.stats.as_dict()["g5_executed"]
        for worker in fleet.workers)
    assert total_executed == 1
