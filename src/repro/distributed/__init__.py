"""Lease-based distributed campaign execution with at-least-once workers.

The campaign stack was built for this moment: per-scenario
``SeedSequence`` children make placement irrelevant to results,
:class:`~repro.experiments.backends.BackendSpec` is the picklable wire
format a remote worker rebuilds its backend from, and
:mod:`repro.store`'s ``(campaign_id, scenario_index)`` primary key is
the idempotent dedup primitive that makes at-least-once delivery safe.
This package closes the loop:

- :mod:`repro.distributed.queue` — :class:`WorkQueue`, a sqlite work
  queue (WAL mode, write retries) shareable over a filesystem by any
  number of processes or hosts, holding per-campaign chunk tasks with
  lease-based ``claim``/``renew``/``release`` and automatic reclaim of
  dead workers' chunks on lease expiry;
- :mod:`repro.distributed.worker` — :class:`Worker`, the durable
  worker loop: build the backend once from the submitted spec, claim
  chunks, simulate them through the exact megabatch path, drain
  records into the :class:`~repro.store.ResultStore` (duplicate
  delivery dedups), heartbeat the lease while simulating;
- :mod:`repro.distributed.coordinator` — :func:`submit` (plan a
  campaign into chunks with pre-spawned seeds; re-submitting a
  completed campaign enqueues nothing), :class:`DistributedRun`
  (``wait``/``iter_progress``/``collect`` — the collected
  :class:`~repro.experiments.ResultSet` is bitwise identical to a
  serial storeless run; a waiter no live worker serves drains the
  campaign itself), and :func:`run_workers`, which spawns a local
  fleet for scripted ``submit`` → ``run_workers`` → ``collect`` cycles.

Fleets are also a first-class *backend*: the megabatch backend plus a
queue and a store path (:class:`DistributedBackend`) sits in the
registry under the ``"distributed"`` key, so
``Campaign(backend="distributed", backend_options={"queue": ...,
"store": ...})`` — and every consumer of the campaign API — runs
``submit`` → ``wait`` → ``collect`` against an external fleet.

On the command line: ``repro submit`` enqueues a campaign, ``repro
worker`` runs a worker (one per host/core, anywhere the queue file is
reachable), ``repro status`` tracks the fleet, ``repro queue gc``
collects finished chunks and orphaned job rows, and ``repro campaign
--backend distributed`` runs a whole campaign against the fleet.
"""

from repro.distributed.coordinator import (
    DistributedRun,
    Progress,
    run_workers,
    submit,
)
from repro.distributed.queue import (
    ChunkCounts,
    ChunkState,
    ClaimedChunk,
    GcReport,
    JobInfo,
    WorkerInfo,
    WorkQueue,
    default_worker_id,
)
from repro.distributed.supervisor import (
    FleetReport,
    FleetSupervisor,
    WorkerEvent,
)
from repro.distributed.worker import (
    EXIT_HEARTBEAT_DEAD,
    HeartbeatFailure,
    Worker,
    WorkerStats,
)
from repro.distributed.backend import DistributedBackend

__all__ = [
    "ChunkCounts",
    "ChunkState",
    "ClaimedChunk",
    "DistributedBackend",
    "DistributedRun",
    "EXIT_HEARTBEAT_DEAD",
    "FleetReport",
    "FleetSupervisor",
    "GcReport",
    "HeartbeatFailure",
    "JobInfo",
    "Progress",
    "Worker",
    "WorkerEvent",
    "WorkerInfo",
    "WorkerStats",
    "WorkQueue",
    "default_worker_id",
    "run_workers",
    "submit",
]
