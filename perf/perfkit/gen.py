"""Seeded input generators: figure order, g5 job lists, request sequences.

Every generator is a pure function of ``(seed, smoke)``.  The *set* of
work in a workload is fixed — the same figures, the same g5 jobs, the
same multiset of job documents — and the seed only permutes the order
the program under test sees it in.  That keeps total work identical
across seeds (so metrics from runs with different seeds are comparable
and their spread is measurement noise, not input variance) while still
varying what the program can observe: which figure pays the first
replay, which g5 job pays the cold imports, which request meets an
in-flight twin and coalesces.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

#: The campaign of ``figs_cold`` / ``figs_warm``: Xeon (fig2/8/10/15),
#: M1 (fig8), the FireSim sweep (fig14), the huge-page knob (fig10) and
#: the multi-core guests (fig16).
FIGURES = ("fig2", "fig8", "fig10", "fig14", "fig15", "fig16")
SMOKE_FIGURES = ("fig8", "fig16")

CPU_MODELS = ("atomic", "timing", "minor", "o3")

#: Guest workloads of the serving documents (the registry's eleven).
SERVE_WORKLOADS = ("blackscholes", "boot_exit", "canneal", "dedup", "fmm",
                   "ocean_cp", "ocean_ncp", "sieve", "streamcluster",
                   "water_nsquared", "water_spatial")
SMOKE_SERVE_WORKLOADS = ("sieve", "ocean_cp", "fmm", "water_nsquared")

ZIPF_EXPONENT = 1.1


def _rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    digest = hashlib.sha256(f"{stream}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def figure_order(seed: int, smoke: bool = False) -> list[str]:
    """The campaign's figure ids in the order given to the CLI."""
    figures = list(SMOKE_FIGURES if smoke else FIGURES)
    _rng(seed, "figs").shuffle(figures)
    return figures


@dataclass(frozen=True)
class SimJob:
    """One in-process g5 job of ``sim_single`` / ``sim_multi``."""

    workload: str
    cpu: str
    mode: str = "se"
    threads: int = 1
    #: Event-queue domains; None leaves the job on its default SimConfig.
    domains: Optional[int] = None
    record: bool = True

    @property
    def key(self) -> str:
        """Stable identity used to pair jobs in the correctness checks."""
        parts = [self.workload, self.cpu, self.mode, f"x{self.threads}"]
        if self.domains is not None:
            parts.append(f"d{self.domains}")
        if not self.record:
            parts.append("norecord")
        return "/".join(parts)


def sim_single_jobs(seed: int) -> list[SimJob]:
    """Per-CPU-model kernel throughput: SE record-on/off plus FS boot."""
    jobs = [SimJob(workload, cpu)
            for workload in ("sieve", "canneal", "ocean_cp")
            for cpu in CPU_MODELS]
    jobs += [SimJob("sieve", cpu, record=False)
             for cpu in ("atomic", "timing", "o3")]
    jobs += [SimJob("boot_exit", cpu, mode="fs") for cpu in ("atomic", "o3")]
    _rng(seed, "sim_single").shuffle(jobs)
    return jobs


def sim_multi_jobs(seed: int) -> list[SimJob]:
    """Coherent 4-core guests and sharded event queues."""
    jobs = []
    for workload in ("ocean_cp", "sieve", "water_nsquared"):
        jobs.append(SimJob(workload, "atomic"))
        jobs.append(SimJob(workload, "atomic", threads=4))
        jobs += [SimJob(workload, "timing", threads=4, domains=domains)
                 for domains in (1, 3, 5)]
    _rng(seed, "sim_multi").shuffle(jobs)
    return jobs


def documents(cpus: tuple[str, ...] = CPU_MODELS,
              smoke: bool = False) -> list[dict]:
    """The distinct ``{workload} x {cpu}`` g5 job documents, by rank.

    Rank order (most to least requested) is a fixed hash order, not a
    seeded one: result payloads span 30-480 KB, so re-ranking per seed
    would change the bytes a hit moves and with them every latency.
    """
    workloads = SMOKE_SERVE_WORKLOADS if smoke else SERVE_WORKLOADS
    docs = [{"kind": "g5", "workload": workload, "cpu": cpu, "scale": "test"}
            for workload in workloads for cpu in cpus]
    docs.sort(key=lambda doc: hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest())
    return docs


def zipf_counts(n_docs: int, n_requests: int) -> list[int]:
    """Requests per rank: Zipf(1.1) shares, every document at least once.

    Deterministic rounding of the expected counts rather than sampling,
    so every seed touches every document exactly as often (and causes
    exactly ``n_docs`` first-touch executions).
    """
    if n_requests < n_docs:
        raise ValueError(f"{n_requests} requests cannot touch "
                         f"{n_docs} documents")
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n_docs)]
    total = sum(weights)
    counts = [max(1, round(n_requests * weight / total))
              for weight in weights]
    counts[0] += n_requests - sum(counts)
    if counts[0] < 1:
        raise ValueError("request count too small for the document set")
    return counts


def request_sequence(seed: int, n_docs: int, n_requests: int) -> list[int]:
    """Document indices in arrival order: the Zipf multiset, shuffled."""
    sequence = [rank for rank, count
                in enumerate(zipf_counts(n_docs, n_requests))
                for _ in range(count)]
    _rng(seed, "requests").shuffle(sequence)
    return sequence
