"""`repro.fleet` — multi-node serving over the `repro.serve` daemon.

One **coordinator** process fronts N **worker** daemons:

- workers register over HTTP and heartbeat every few hundred ms; a
  worker that misses enough heartbeats is declared dead and its
  dispatched jobs are re-routed (``registry``);
- each job routes to a worker by its exec cache-key digest via
  rendezvous hashing, so identical submissions land on the same worker
  and coalescing stays global (``coordinator``);
- every worker serves its content-addressed cache as a shared store
  (``worker``); a :class:`~repro.fleet.store.FleetCache` reads its
  misses through to the live peers, so any worker can serve any result
  a live worker holds, bit-identically; nothing is replicated
  (``store``);
- admission control is end-to-end: worker 429s propagate into
  coordinator backpressure, and coordinator 429s carry the daemon's
  constant Retry-After.
"""

from .coordinator import Coordinator, CoordinatorConfig, CoordinatorServer
from .registry import WorkerInfo, WorkerRegistry
from .store import FleetCache
from .worker import FleetWorker, WorkerConfig, WorkerServer

__all__ = ["Coordinator", "CoordinatorConfig", "CoordinatorServer",
           "FleetCache", "FleetWorker", "WorkerConfig", "WorkerInfo",
           "WorkerRegistry", "WorkerServer"]
