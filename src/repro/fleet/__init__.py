"""`repro.fleet` — multi-node serving over the `repro.serve` daemon.

One **coordinator** process fronts N **worker** daemons:

- workers register over HTTP and heartbeat every few hundred ms; a
  worker that misses enough heartbeats is declared dead and its
  dispatched jobs are re-routed (``registry``);
- each job routes to a worker by its exec cache-key digest via
  rendezvous hashing, so identical submissions land on the same worker
  and coalescing stays global (``coordinator``);
- every worker exposes its content-addressed cache as a shared store;
  a :class:`~repro.fleet.store.FleetCache` reads through to peers and
  replicates new entries, so any worker can serve any cached result
  bit-identically (``store``);
- admission control is end-to-end: worker 429s propagate into
  coordinator backpressure, and coordinator 429s carry Retry-After
  computed from the cost model's predictions (``http``).
"""

from .coordinator import Coordinator, CoordinatorConfig, CoordinatorServer
from .registry import WorkerInfo, WorkerRegistry
from .store import FleetCache
from .worker import FleetWorker, WorkerConfig

__all__ = ["Coordinator", "CoordinatorConfig", "CoordinatorServer",
           "FleetCache", "FleetWorker", "WorkerConfig", "WorkerInfo",
           "WorkerRegistry"]
