"""The ``"distributed"`` simulation backend: campaigns on a live fleet.

:mod:`repro.distributed` gives campaigns fleets through an explicit
seam — ``Campaign.submit()`` for asynchronous, scripted runs.  This
module makes fleets a *first-class backend*: registering
:class:`DistributedBackend` under the ``"distributed"`` registry key
means a single ``Campaign(backend="distributed", ...).run(seed)`` — and
therefore :class:`~repro.montecarlo.MonteCarloEstimator`,
:class:`~repro.search.SearchRunner`,
:class:`~repro.search.EncounterFitness` and ``repro campaign --backend
distributed`` — submits its chunks to an **already-running external
worker fleet** and streams the results back, bitwise identical to the
serial run of the same seed.

The backend bundles everything a fleet campaign needs:

- the shared :class:`~repro.distributed.WorkQueue` and
  :class:`~repro.store.ResultStore` paths (explicit ``queue=``/
  ``store=`` backend options, or the ``REPRO_QUEUE``/``REPRO_STORE``
  environment variables);
- the *inner* simulation backend key the fleet's workers execute
  (``"vectorized-batch"`` by default) — provenance is transparent:
  the campaign's content-addressed identity and its ``ResultSet``
  report the inner backend, because the inner backend is what
  determines every output bit;
- the fleet policy: lease length, skew margin, poll interval, wait
  timeout, and the **fallback** rule — when the queue has no live
  worker that could serve the campaign (none registered, none
  heartbeating, or all pinned to other campaigns), an in-process
  fallback worker drains the chunks instead, so the path never hangs
  on an empty fleet.

Chunks that fail permanently (:data:`~repro.distributed.queue.
MAX_ATTEMPTS` exhausted) surface as a ``RuntimeError`` from
``Campaign.run`` carrying each poisoned chunk's ``last_error`` — never
as a hung ``wait()``.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence, Union

from repro import telemetry
from repro.distributed.coordinator import (
    DistributedRun,
    _check_not_terminal,
    _queue_path,
    _store_path,
    submit,
)
from repro.distributed.queue import (
    DEFAULT_SKEW_MARGIN,
    DEFAULT_WORKER_TTL,
    WorkQueue,
)
from repro.distributed.worker import Worker
from repro.experiments.backends import (
    BackendSpec,
    SimulationBackend,
    _validate_equipage,
    available_backends,
    make_backend,
)
from repro.sim.batch import BatchResult
from repro.sim.encounter import EncounterSimConfig
from repro.store import ResultStore
from repro.util.rng import SeedLike

#: Environment variables supplying default queue/store paths, so
#: ``backend="distributed"`` works with zero per-call ceremony once a
#: shell (or CI job) has exported where its fleet lives.
QUEUE_ENV = "REPRO_QUEUE"
STORE_ENV = "REPRO_STORE"


class DistributedBackend:
    """Fleet-native campaign execution behind the backend registry.

    Constructed like every other backend —
    ``make_backend("distributed", table=..., equipage=..., ...)`` —
    plus the fleet options below, which
    :class:`~repro.experiments.Campaign` forwards from its
    ``backend_options=`` argument.

    Parameters
    ----------
    queue / store:
        Shared work-queue and result-store paths; default from the
        ``REPRO_QUEUE`` / ``REPRO_STORE`` environment variables.
    inner:
        Registry key of the simulation backend the fleet's workers
        execute (and the provenance identity of the campaign).
    lease_seconds / poll_interval / skew_margin:
        Lease policy for the fallback worker and progress polling;
        ``skew_margin`` guards reclaims against cross-host clock skew.
    fallback:
        When ``True`` (default), drain the campaign with an in-process
        worker whenever no live fleet member could serve it — an empty
        fleet degrades to a local run instead of hanging.
    worker_ttl:
        Heartbeat age under which an external worker counts as live.
    wait_timeout:
        Upper bound on waiting for the fleet (``None`` = unbounded).
    chunk_size:
        Default scenarios per queued chunk (``None`` = planner's
        choice).
    verify:
        When ``True``, run :meth:`~repro.store.ResultStore.verify`
        over the campaign's records after the fleet drains and before
        collecting — a corrupted record (torn write, bit-rot) raises
        instead of flowing into the result set as truth.
    """

    name = "distributed"

    def __init__(
        self,
        table=None,
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
        queue: Optional[str] = None,
        store: Optional[str] = None,
        inner: str = "vectorized-batch",
        lease_seconds: float = 60.0,
        poll_interval: float = 0.05,
        skew_margin: float = DEFAULT_SKEW_MARGIN,
        fallback: bool = True,
        worker_ttl: float = DEFAULT_WORKER_TTL,
        wait_timeout: Optional[float] = None,
        chunk_size: Optional[int] = None,
        verify: bool = False,
    ):
        _validate_equipage(equipage, table)
        if inner == self.name or inner not in available_backends():
            raise ValueError(
                f"inner backend {inner!r} must be a registered "
                "simulation backend other than 'distributed'"
            )
        if worker_ttl < DEFAULT_WORKER_TTL:
            # Worker heartbeats refresh at most every quarter/third of
            # DEFAULT_WORKER_TTL (the queue's write throttle and the
            # busy-chunk renew cadence); a tighter TTL would read a
            # perfectly live fleet as dead between beats and hijack
            # its campaign with the fallback worker.
            raise ValueError(
                f"worker_ttl must be >= {DEFAULT_WORKER_TTL} (the "
                "worker heartbeat cadence cannot satisfy a tighter "
                "liveness window)"
            )
        queue = queue or os.environ.get(QUEUE_ENV)
        store = store or os.environ.get(STORE_ENV)
        if not queue or not store:
            raise ValueError(
                "the distributed backend needs a shared queue and "
                "result store: pass backend_options={'queue': ..., "
                f"'store': ...}} or set ${QUEUE_ENV} and ${STORE_ENV}"
            )
        self.queue_path = _queue_path(queue)
        self.store_path = _store_path(store)
        self.table = table
        self.config = config or EncounterSimConfig()
        self.equipage = equipage
        self.coordination = coordination
        self.inner = inner
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.skew_margin = skew_margin
        self.fallback = fallback
        self.worker_ttl = worker_ttl
        self.wait_timeout = wait_timeout
        self.chunk_size = chunk_size
        self.verify = verify
        self._local: Optional[SimulationBackend] = None

    def __repr__(self) -> str:
        return (
            f"DistributedBackend(queue={self.queue_path!r}, "
            f"store={self.store_path!r}, inner={self.inner!r})"
        )

    # ------------------------------------------------------------------
    # Provenance and wire formats
    # ------------------------------------------------------------------
    @property
    def provenance_name(self) -> str:
        """The backend name campaign identity records.

        The inner backend determines every output bit — *where* the
        chunks execute does not — so a distributed campaign shares its
        content-addressed id (and resumes from / dedups against) the
        same campaign run in-process with the inner backend.
        """
        return self.inner

    def worker_spec(self) -> BackendSpec:
        """The spec shipped to fleet workers: the *inner* backend.

        Workers must simulate, not re-dispatch — shipping the
        distributed spec itself would recurse.
        """
        return BackendSpec(
            backend=self.inner,
            equipage=self.equipage,
            coordination=self.coordination,
            config=self.config,
            table_bytes=(
                self.table.to_bytes() if self.table is not None else None
            ),
        )

    def capture_spec(self) -> BackendSpec:
        """The spec describing *this* backend (queue, store, fleet)."""
        spec = self.worker_spec()
        return BackendSpec(
            backend=self.name,
            equipage=spec.equipage,
            coordination=spec.coordination,
            config=spec.config,
            table_bytes=spec.table_bytes,
            queue_path=self.queue_path,
            store_path=self.store_path,
            inner=self.inner,
            fleet={
                "lease_seconds": self.lease_seconds,
                "poll_interval": self.poll_interval,
                "skew_margin": self.skew_margin,
                "fallback": self.fallback,
                "worker_ttl": self.worker_ttl,
                "wait_timeout": self.wait_timeout,
                "chunk_size": self.chunk_size,
                "verify": self.verify,
            },
        )

    # ------------------------------------------------------------------
    # Direct simulation (degenerate local path)
    # ------------------------------------------------------------------
    def _local_backend(self) -> SimulationBackend:
        """The inner backend, built locally and lazily.

        Serves callers that bypass campaigns and ask the backend to
        simulate directly (e.g. :class:`~repro.search.fitness.
        FalseAlarmFitness` drives per-genome two-arm simulations):
        dispatching single scenarios through a fleet would be all
        overhead, so direct calls execute in-process — with bits
        identical to what a fleet worker would produce, since workers
        build exactly this backend from :meth:`worker_spec`.
        """
        if self._local is None:
            self._local = make_backend(
                self.inner,
                table=self.table,
                config=self.config,
                equipage=self.equipage,
                coordination=self.coordination,
            )
        return self._local

    def simulate(
        self,
        params,
        num_runs: int,
        seed: SeedLike = None,
    ) -> BatchResult:
        """Simulate one scenario in-process (see :meth:`_local_backend`)."""
        return self._local_backend().simulate(params, num_runs, seed=seed)

    def simulate_many(
        self,
        params_list: Sequence,
        num_runs: int,
        seeds: Sequence[SeedLike],
    ) -> List[BatchResult]:
        """Bulk in-process simulation.

        Always present (so campaign planning sizes wide chunks — fewer
        queue tasks per campaign), but the inner backend may not
        implement the bulk protocol itself: then the chunk runs
        scenario by scenario, which produces the same bits — each
        scenario's result derives only from its own seed.
        """
        inner = self._local_backend()
        bulk = getattr(inner, "simulate_many", None)
        if bulk is not None:
            return bulk(params_list, num_runs, seeds)
        return [
            inner.simulate(params, num_runs, seed=seed)
            for params, seed in zip(params_list, seeds)
        ]

    # ------------------------------------------------------------------
    # Campaign delegation (the seam Campaign.run/iter_records use)
    # ------------------------------------------------------------------
    def run_campaign(self, campaign, seed=None, chunk_size=None):
        """Submit *campaign* to the fleet, await it, collect the result.

        ``Campaign.run``/``iter_records`` delegate here when their
        campaign was built with this backend.  The returned
        :class:`~repro.experiments.ResultSet` is bitwise identical to
        the serial in-process run of the same campaign and seed; its
        metadata records the usual ``campaign_id``/``loaded``/
        ``simulated`` keys plus ``distributed_fallback`` (whether the
        in-process fallback worker had to run).
        """
        start = time.perf_counter()
        run = submit(
            campaign,
            seed,
            queue=self.queue_path,
            store=self.store_path,
            chunk_size=chunk_size or self.chunk_size,
        )
        with telemetry.span(
            "campaign.await", campaign_id=run.campaign_id
        ) as await_span:
            fallback_ran = self._await(run)
            await_span.set(fallback=fallback_ran)
        if self.verify:
            with ResultStore(self.store_path) as store:
                report = store.verify(campaign_id=run.campaign_id)
            if not report.ok:
                raise RuntimeError(
                    f"campaign {run.campaign_id[:12]} failed integrity "
                    f"verification before collect:\n{report.describe()}"
                )
        results = run.collect()
        results.metadata["distributed_workers"] = "fleet"
        results.metadata["distributed_fallback"] = fallback_ran
        results.wall_time = time.perf_counter() - start
        return results

    def _await(self, run: DistributedRun) -> bool:
        """Wait for the fleet, draining in-process when none is live.

        Each poll asks one question with one queue handle: are there
        claimable chunks and no live worker that could serve this
        campaign (unpinned or pinned to it)?  If so — fleet empty, or
        its members died and their leases expired — an in-process
        fallback worker executes **one chunk** and the loop re-checks,
        so ``wait_timeout`` keeps chunk-level granularity through a
        fallback drain, a fleet dying *mid-campaign* still falls back,
        and a fleet arriving mid-drain takes the remaining chunks
        over.  The fallback worker instance persists across chunks
        (its backend builds once).  Permanently failed chunks raise
        with their ``last_error`` diagnoses; a campaign whose chunk
        rows vanished (garbage-collected mid-wait) raises instead of
        polling forever.
        """
        # Monotonic deadline (PR-5 time discipline): wall-clock steps
        # must not fire spurious timeouts mid-wait.
        deadline = (
            None
            if self.wait_timeout is None
            else time.monotonic() + self.wait_timeout
        )
        fallback_worker: Optional[Worker] = None
        with WorkQueue(
            self.queue_path, skew_margin=self.skew_margin
        ) as queue, ResultStore(self.store_path) as store:
            while True:
                snapshot = run._snapshot(queue, store)
                if snapshot.complete:
                    return fallback_worker is not None
                _check_not_terminal(queue, run.campaign_id, snapshot)
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"campaign {run.campaign_id[:12]} incomplete "
                        f"after {self.wait_timeout}s "
                        f"({snapshot.describe()})"
                    )
                if (
                    self.fallback
                    and queue.claimable(run.campaign_id)
                    and not queue.live_workers(
                        run.campaign_id, ttl=self.worker_ttl
                    )
                ):
                    if fallback_worker is None:
                        fallback_worker = Worker(
                            self.queue_path,
                            lease_seconds=self.lease_seconds,
                            poll_interval=self.poll_interval,
                            campaign_id=run.campaign_id,
                            skew_margin=self.skew_margin,
                        )
                    # One chunk, and hand control straight back if a
                    # rival snatched it first (idle_timeout) — the
                    # outer loop owns the deadline and terminal
                    # checks, so the drain must never block in here.
                    fallback_worker.run(
                        max_chunks=1, idle_timeout=self.poll_interval
                    )
                    continue
                time.sleep(self.poll_interval)
