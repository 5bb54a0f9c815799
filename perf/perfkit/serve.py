"""``serve_direct`` / ``serve_fleet``: closed-loop clients against daemons.

Two client threads (our callers — figure scripts, CI, notebooks — each
wait for a reply before sending the next request) walk one seeded
sequence of g5 job documents through ``ServeClient.run`` against real
``repro-g5 serve`` / ``repro-g5 fleet ...`` subprocesses on ephemeral
ports with fresh cache directories.  Every fetched payload is compared
with ``pack_sim_result(execute_g5_job(job))`` computed in-process once
per document during set-up.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import gen
from .layers import layer_breakdown
from .procs import Daemon, HarnessError, daemons, scratch_dir
from .spans import Tracer
from .stats import histogram_quantile, median
from .workload import Round, TracedPass, Workload, digest_of

CLIENTS = 2
REQUEST_TIMEOUT = 30.0       # per request, submit to result; then it failed
DRIVE_TIMEOUT = 150.0        # one whole sequence; then the run is aborted
REGISTRATION_TIMEOUT = 30.0  # fleet workers visible at the coordinator
ENDPOINTS = ("submit", "status", "result")


@dataclass
class Outcome:
    """One request as its client saw it."""

    index: int                 # position in the sequence
    rank: int                  # which document
    latency_s: float
    source: str = ""           # result source when it succeeded
    error: str = ""

    @property
    def hit(self) -> bool:
        """Served from a memo/disk/store tier instead of executed."""
        return not self.error and self.source != "executed" \
            and not self.source.startswith("coalesced")


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def hit_miss_p50_ms(outcomes: list[Outcome]) -> tuple[float, float]:
    """Median latency of hits and of misses (0.0 where there are none)."""
    hits = [o.latency_s * 1e3 for o in outcomes if o.hit]
    misses = [o.latency_s * 1e3 for o in outcomes
              if not o.error and not o.hit]
    return (median(hits) if hits else 0.0,
            median(misses) if misses else 0.0)


class ServeDirect(Workload):
    name = "serve_direct"
    #: Layer the client's calls are attributed to.
    prefix = "serve"
    target = "one `serve --jobs 2` daemon"
    cpus = gen.CPU_MODELS

    @property
    def n_requests(self) -> int:
        return 40 if self.smoke else 450

    def prepare(self) -> None:
        from repro.exec import execute_g5_job
        from repro.g5.serialize import pack_sim_result
        from repro.serve.jobs import parse_job_request

        cpus = ("atomic", "o3") if self.smoke else self.cpus
        self.docs = gen.documents(cpus, self.smoke)
        self.sequence = gen.request_sequence(self.seed, len(self.docs),
                                             self.n_requests)
        #: Per document: the payload as JSON transport delivers it.
        self.references = []
        self.reference_bytes = []
        for doc in self.docs:
            packed = pack_sim_result(
                execute_g5_job(parse_job_request(doc).g5))
            text = canonical(packed)
            self.references.append(json.loads(text))
            self.reference_bytes.append(len(text))
        self.worker_urls: list[str] = []

    def describe(self) -> list[str]:
        distinct = len(set(self.sequence))
        return [f"closed loop, {CLIENTS} clients, {len(self.sequence)} "
                f"requests over {distinct} distinct g5 documents "
                f"(Zipf {gen.ZIPF_EXPONENT} multiset, seeded order), "
                f"against {self.target}; fresh daemons and caches per round",
                "simulated caches start empty in every g5 run"]

    # ------------------------------------------------------------------
    # daemons
    # ------------------------------------------------------------------
    def _start(self, started: list[Daemon], scratch: Path) -> str:
        """Start the daemon(s) under test; returns the URL clients use."""
        daemon = Daemon(["serve", "--port", "0", "--jobs", "2",
                         "--cache-dir", str(scratch / "cache")], scratch)
        started.append(daemon)
        self.worker_urls = [daemon.wait_banner()]
        return daemon.url

    def _scrape(self) -> list[dict[str, float]]:
        """``/metrics`` of every daemon that executes jobs."""
        from repro.serve import ServeClient

        return [ServeClient(url, timeout=REQUEST_TIMEOUT).metrics()
                for url in self.worker_urls]

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def _drive(self, url: str, sequence: list[int],
               tracer: Optional[Tracer] = None
               ) -> tuple[float, list[Outcome]]:
        """Walk ``sequence`` with :data:`CLIENTS` closed-loop threads."""
        from repro.serve import ServeClient, ServeError

        outcomes: list[Optional[Outcome]] = [None] * len(sequence)
        cursor = iter(range(len(sequence)))
        lock = threading.Lock()

        def one(client: "ServeClient", index: int) -> Outcome:
            rank = sequence[index]
            start = time.perf_counter()
            try:
                reply = client.run(self.docs[rank], timeout=REQUEST_TIMEOUT)
            except (ServeError, TimeoutError, OSError, ValueError) as exc:
                return Outcome(index, rank, time.perf_counter() - start,
                               error=f"{type(exc).__name__}: {exc}")
            outcome = Outcome(index, rank, time.perf_counter() - start,
                              source=str(reply.get("source")))
            if reply.get("result") != self.references[rank]:
                outcome.error = "payload differs from the in-process reference"
            return outcome

        def client_loop() -> None:
            client = ServeClient(url, timeout=REQUEST_TIMEOUT)
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                if tracer is None:
                    outcomes[index] = one(client, index)
                else:
                    with tracer.span("client.request",
                                     trace_id=f"r{index}"):
                        outcomes[index] = one(client, index)

        threads = [threading.Thread(target=client_loop, name=f"client{n}",
                                    daemon=True) for n in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, DRIVE_TIMEOUT
                            - (time.perf_counter() - start)))
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise HarnessError("client threads did not finish")
        return wall, [outcome for outcome in outcomes if outcome is not None]

    def _check_executions(self, scrapes: list[dict[str, float]]) -> list[str]:
        """No hit was recomputed: executions == distinct documents."""
        executed = sum(int(scrape.get("repro_engine_g5_executed", -1))
                       for scrape in scrapes)
        distinct = len(set(self.sequence))
        if executed != distinct:
            return [f"daemons executed {executed} simulations for "
                    f"{distinct} distinct documents"]
        return []

    def round(self) -> Round:
        start = time.perf_counter()
        with scratch_dir(self.name) as scratch, daemons() as started:
            url = self._start(started, scratch)
            result = Round(setup_s=time.perf_counter() - start)
            wall, outcomes = self._drive(url, self.sequence)
            count_failures = self._check_executions(self._scrape())
        self._account(result, wall, outcomes, count_failures)
        return result

    def _account(self, result: Round, wall: float, outcomes: list[Outcome],
                 count_failures: list[str]) -> None:
        result.walls.append(wall)
        # Every request is an operation; so is the execution-count check.
        result.attempted = len(self.sequence) + 1
        result.failures = [f"request {o.index} ({self.docs[o.rank]}): "
                           f"{o.error}" for o in outcomes if o.error]
        result.failures += count_failures
        result.replies_ms = [o.latency_s * 1e3 for o in outcomes
                             if not o.error]
        served = {o.rank for o in outcomes if not o.error}
        result.digest = digest_of({canonical(self.docs[rank]):
                                   canonical(self.references[rank])
                                   for rank in served})
        hit_p50, miss_p50 = hit_miss_p50_ms(outcomes)
        result.info.update({
            "requests": len(outcomes),
            "hits": sum(1 for o in outcomes if o.hit),
            "hit_p50_ms": hit_p50, "miss_p50_ms": miss_p50})

    # ------------------------------------------------------------------
    # traced pass
    # ------------------------------------------------------------------
    def traced(self, spans_file: Path) -> TracedPass:
        from repro.serve import ServeClient

        tracer = Tracer()
        prefix = self.prefix
        with scratch_dir(self.name) as scratch, daemons() as started:
            url = self._start(started, scratch)
            before = self._scrape()
            self._wrap_client(tracer, ServeClient, prefix)
            try:
                wall, outcomes = self._drive(url, self.sequence, tracer)
            finally:
                tracer.unwrap_all()
            layers = self._client_layers(tracer, prefix, outcomes)
            # Before the fleet's control tail adds spans of its own.
            breakdown = layer_breakdown(tracer, wall * CLIENTS)
            layers.update(self._fleet_layers(tracer, ServeClient, url,
                                             outcomes))
            after = self._scrape()
            failures = self._check_executions(after)
        failures += [f"traced request {o.index}: {o.error}"
                     for o in outcomes if o.error]
        layers.update(self._daemon_layers(before, after))
        layers["serialize.packed_mb"] = sum(
            self.reference_bytes[rank] for rank in set(self.sequence)) / 1e6
        layers.update(breakdown)
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.chrome_trace(), handle)
        return TracedPass(wall, layers, str(spans_file), failures)

    @staticmethod
    def _wrap_client(tracer: Tracer, client_cls: type, prefix: str) -> None:
        """Time each client HTTP call as ``<prefix>.<call>``."""
        tracer.wrap(client_cls, "submit_doc", f"{prefix}.submit")
        tracer.wrap(client_cls, "status", f"{prefix}.status")
        tracer.wrap(client_cls, "result", f"{prefix}.result")
        tracer.wrap(client_cls, "_decode", f"{prefix}.decode")

    def _client_layers(self, tracer: Tracer, prefix: str,
                       outcomes: list[Outcome]) -> dict[str, float]:
        requests = max(1, len(outcomes))
        layers = {}
        for call in ENDPOINTS:
            durations = tracer.durations(f"{prefix}.{call}")
            layers[f"{prefix}.{call}_p50_ms"] = (
                median(durations) * 1e3 if durations else 0.0)
        layers[f"{prefix}.polls_per_job"] = \
            tracer.count(f"{prefix}.status") / requests
        layers[f"{prefix}.hit_p50_ms"], layers[f"{prefix}.miss_p50_ms"] = \
            hit_miss_p50_ms(outcomes)
        if prefix == "serve":
            layers["serve.result_kb_p50"] = median(
                [self.reference_bytes[o.rank] for o in outcomes]) / 1024
            layers["serve.client_decode_ms"] = \
                tracer.total("serve.decode") / requests * 1e3
        return layers

    def _daemon_layers(self, before: list[dict[str, float]],
                       after: list[dict[str, float]]) -> dict[str, float]:
        """Deltas of the executing daemons' own counters."""
        def delta(series: str) -> float:
            return sum(b.get(series, 0.0) for b in after) \
                - sum(a.get(series, 0.0) for a in before)

        layers = {
            "serve.memo_hits": delta("repro_serve_cache_memo_hits_total"),
            "serve.disk_hits": delta("repro_serve_cache_disk_hits_total"),
            "serve.misses": delta("repro_serve_cache_misses_total"),
            "serve.coalesced": delta("repro_serve_jobs_coalesced_total"),
            "serve.retries": delta("repro_serve_worker_retries_total"),
            "serve.rejected": delta("repro_serve_jobs_rejected_total"),
            "pool.executed": delta("repro_engine_g5_executed"),
            "pool.disk_hits": delta("repro_engine_g5_disk_hits"),
            "g5.simulate_s": delta("repro_engine_g5_executed_seconds"),
        }
        buckets: dict[float, float] = {}
        for scrape_before, scrape_after in zip(before, after):
            for series, value in scrape_after.items():
                if not series.startswith(
                        "repro_serve_request_seconds_bucket{"):
                    continue
                labels = dict(part.split("=", 1) for part in
                              series[series.index("{") + 1:-1].split(","))
                if labels["endpoint"].strip('"') not in ENDPOINTS:
                    continue
                bound = float(labels["le"].strip('"').replace("+Inf", "inf"))
                buckets[bound] = buckets.get(bound, 0.0) + value \
                    - scrape_before.get(series, 0.0)
        layers["serve.request_seconds_p50"] = histogram_quantile(
            list(buckets.items()), 0.5) * 1e3
        return layers

    def _fleet_layers(self, tracer: Tracer, client_cls: type, url: str,
                      outcomes: list[Outcome]) -> dict[str, float]:
        """Nothing on a direct daemon; see :class:`ServeFleet`."""
        return {}


class ServeFleet(ServeDirect):
    name = "serve_fleet"
    prefix = "fleet"
    target = ("fleet coordinator + 2 x `fleet worker --jobs 1`, default "
              "cadences")
    #: Half of serve_direct's documents: a request through the fleet
    #: costs ~50 ms of polling, so the run affords 110 of them, and with
    #: 44 first touches the median reply would no longer be a hit.
    cpus = ("atomic", "o3")

    @property
    def n_requests(self) -> int:
        return 30 if self.smoke else 110

    @property
    def tail_requests(self) -> int:
        """Requests sent straight to worker 1 after the traced sequence."""
        return 10 if self.smoke else 100

    def _start(self, started: list[Daemon], scratch: Path) -> str:
        from repro.serve import ServeClient

        coordinator = Daemon(["fleet", "coordinator", "--port", "0"],
                             scratch)
        started.append(coordinator)
        url = coordinator.wait_banner()
        workers = []
        for number in (1, 2):
            worker = Daemon(["fleet", "worker", "--coordinator", url,
                             "--port", "0", "--jobs", "1", "--cache-dir",
                             str(scratch / f"worker{number}")], scratch)
            started.append(worker)
            workers.append(worker)
        self.worker_urls = [worker.wait_banner() for worker in workers]
        client = ServeClient(url, timeout=REQUEST_TIMEOUT)
        deadline = time.monotonic() + REGISTRATION_TIMEOUT
        while True:
            up = [worker for worker in self._fleet_doc(client)["workers"]
                  if worker.get("state") == "up"]
            if len(up) >= len(workers):
                return url
            if time.monotonic() >= deadline:
                raise HarnessError(
                    f"only {len(up)} of {len(workers)} fleet workers "
                    f"registered within {REGISTRATION_TIMEOUT:.0f}s")
            time.sleep(0.02)

    @staticmethod
    def _fleet_doc(client) -> dict:
        # ServeClient has no public wrapper for the fleet document; its
        # JSON helper is what the fleet's own worker agent uses too.
        return client._json("GET", "/api/v1/fleet")

    def _fleet_layers(self, tracer: Tracer, client_cls: type, url: str,
                      outcomes: list[Outcome]) -> dict[str, float]:
        """Coordinator counters, plus a direct-to-worker tail as control.

        The tail re-requests the sequence's first documents from worker
        1 directly: every one is a hit there (memo, disk or peer store),
        so ``fleet hit p50 - tail hit p50`` is what the coordinator hop
        adds to a hit.
        """
        coordinator = client_cls(url, timeout=REQUEST_TIMEOUT)
        metrics = coordinator.metrics()
        workers = self._fleet_doc(coordinator)["workers"]
        dispatched = [worker.get("jobs_dispatched", 0) for worker in workers]

        self._wrap_client(tracer, client_cls, "serve")
        try:
            _, tail = self._drive(self.worker_urls[0],
                                  self.sequence[:self.tail_requests], tracer)
        finally:
            tracer.unwrap_all()
        layers = self._client_layers(tracer, "serve", tail)
        fleet_hit, direct_hit = (hit_miss_p50_ms(outcomes)[0],
                                 hit_miss_p50_ms(tail)[0])
        layers.update({
            "fleet.overhead_p50_ms": (fleet_hit - direct_hit
                                      if fleet_hit and direct_hit else 0.0),
            "fleet.dispatches": metrics.get(
                "repro_fleet_dispatches_total", 0.0),
            "fleet.redispatches": metrics.get(
                "repro_fleet_redispatches_total", 0.0),
            "fleet.coalesced": metrics.get(
                "repro_fleet_jobs_coalesced_total", 0.0),
            "fleet.worker_share_max": (max(dispatched) / sum(dispatched)
                                       if sum(dispatched) else 0.0),
            "fleet.store_requests": sum(
                scrape.get('repro_serve_request_seconds_count'
                           '{endpoint="store"}', 0.0)
                for scrape in self._scrape()),
        })
        return layers
