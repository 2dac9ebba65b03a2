"""The distributed :class:`Worker`: claim chunks, simulate, drain to store.

A worker is one process's share of a distributed campaign.  Its loop:

1. :meth:`~repro.distributed.queue.WorkQueue.claim` one chunk (lease-
   based: chunks abandoned by dead workers become claimable again when
   their lease expires);
2. build the simulation backend from the job's submitted
   :class:`~repro.experiments.backends.BackendSpec` — **once** per
   distinct spec, cached across every chunk the worker executes;
3. simulate the chunk through the exact megabatch path serial campaigns
   use (:func:`repro.experiments.campaign._execute_chunk`), so each
   scenario's bits derive only from its own pre-spawned seed and
   placement cannot change any result;
4. write every record through the job's
   :class:`~repro.store.ResultStore` — the ``(campaign_id,
   scenario_index)`` primary key makes crash/retry/duplicate delivery
   harmless — then mark the chunk done.

While a chunk simulates, a background heartbeat thread renews its lease
so long-running chunks on a live worker are not reclaimed.  If the
lease is ever lost (the queue presumed us dead and a rival reclaimed
the chunk), the worker **abandons** the in-flight result instead of
draining it: the rival owns the chunk now, and a zombie writing records
and timing after losing its lease is exactly the split-brain write the
lease exists to prevent.  The renew verdict is consulted twice — the
heartbeat's last answer, plus one authoritative renew immediately
before the drain (the heartbeat only samples every ``lease/3``).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro import faults, telemetry
from repro.distributed.queue import (
    DEFAULT_SKEW_MARGIN,
    DEFAULT_WORKER_TTL,
    ClaimedChunk,
    JobInfo,
    WorkQueue,
    default_worker_id,
)
from repro.experiments.backends import BackendSpec, SimulationBackend
from repro.experiments.campaign import RunRecord, _execute_chunk
from repro.faults import InjectedWorkerCrash
from repro.sim.batch import KERNEL_PHASES
from repro.store import ResultStore
from repro.telemetry.metrics import MetricsRegistry

#: Exit status of ``repro worker`` when the lease-heartbeat thread died
#: while a chunk simulated.  Distinct from generic failures (1) so a
#: supervisor can tell "this worker's renewal machinery broke — restart
#: it" apart from "this chunk's simulation raised".
EXIT_HEARTBEAT_DEAD = 43


class HeartbeatFailure(RuntimeError):
    """The lease-heartbeat thread died while its chunk simulated.

    Without the heartbeat the worker cannot keep its lease alive, so
    every further long chunk would silently lose its claim mid-flight.
    The worker releases the in-flight chunk (a rival can take it
    immediately) and re-raises this instead of swallowing it — the CLI
    maps it to :data:`EXIT_HEARTBEAT_DEAD` so a supervisor replaces the
    worker process.
    """


@dataclass
class WorkerStats:
    """What one :meth:`Worker.run` invocation did."""

    worker_id: str = ""
    chunks_done: int = 0
    chunks_failed: int = 0
    #: Chunks whose lease was lost mid-simulation: the result was
    #: abandoned (a rival owns the chunk), nothing was written.
    chunks_lost: int = 0
    records_written: int = 0
    records_deduped: int = 0
    wall_time: float = 0.0
    backends_built: int = 0

    def summary(self) -> str:
        """One line for logs and the CLI."""
        return (
            f"worker {self.worker_id}: {self.chunks_done} chunks done"
            f" ({self.chunks_failed} failed, {self.chunks_lost} lost), "
            f"{self.records_written} records written"
            f" ({self.records_deduped} deduped), "
            f"{self.backends_built} backend build(s), "
            f"{self.wall_time:.2f}s"
        )


class _LeaseHeartbeat(threading.Thread):
    """Renews one claimed chunk's lease while it simulates.

    Runs on its own queue connection (sqlite connections are not shared
    across threads).  Sets :attr:`lost` and stops if the queue refuses
    a renewal — the lease expired and the chunk was reclaimed.
    """

    def __init__(
        self,
        queue_path: str,
        chunk: ClaimedChunk,
        lease_seconds: float,
    ):
        super().__init__(daemon=True)
        self._queue_path = queue_path
        self._chunk = chunk
        self._lease_seconds = lease_seconds
        # A third of the lease, but never slower than a third of the
        # liveness TTL: renewals also refresh the workers-table
        # heartbeat, and a worker busy simulating a long chunk must
        # keep reading as *live* — otherwise coordinators would spin
        # up fallback workers against a perfectly healthy fleet.
        self._interval = max(
            min(lease_seconds / 3.0, DEFAULT_WORKER_TTL / 3.0), 0.02
        )
        self._stop_event = threading.Event()
        #: Set once the first beat has a verdict (or the thread died).
        self._first_beat = threading.Event()
        self.lost = False
        #: Traceback text if the thread died on an exception.
        self.error: Optional[str] = None

    def run(self) -> None:
        try:
            with WorkQueue(self._queue_path) as queue:
                # First beat immediately, not a third of a lease in:
                # renewal machinery broken from the start is discovered
                # while chunk one simulates (and a seeded fault plan
                # hits the first beat at a deterministic point — chunk
                # start — independent of how fast the chunk runs).
                while True:
                    if faults.fire("worker.heartbeat.stall") is None:
                        # A stall fire skips this renewal: the lease
                        # ages toward expiry as if the thread wedged.
                        faults.maybe_fail(
                            "worker.heartbeat.die",
                            lambda event: RuntimeError(
                                "injected heartbeat death"
                            ),
                        )
                        if not queue.renew(
                            self._chunk.campaign_id,
                            self._chunk.chunk_index,
                            self._chunk.worker_id,
                            self._lease_seconds,
                        ):
                            self.lost = True
                            return
                    self._first_beat.set()
                    if self._stop_event.wait(self._interval):
                        return
        except Exception:
            self.error = traceback.format_exc()
        finally:
            self._first_beat.set()

    def settle(self) -> None:
        """Wait (at most one beat interval) for the first beat's verdict.

        A chunk can finish simulating before this thread has opened its
        queue; judging :attr:`dead` or :attr:`lost` then would read a
        heartbeat that never ran.
        """
        self._first_beat.wait(self._interval)

    @property
    def dead(self) -> bool:
        """Died without a verdict: neither stopped nor lease-lost.

        A heartbeat that exited any other way left the worker flying
        blind — its lease decays with nobody renewing it.
        """
        if self.error is not None:
            return True
        return (
            not self.is_alive()
            and not self.lost
            and not self._stop_event.is_set()
        )

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


class Worker:
    """A durable at-least-once campaign worker.

    Parameters
    ----------
    queue_path:
        Path of the shared :class:`~repro.distributed.queue.WorkQueue`
        database.  The worker opens its own connection (and the
        heartbeat thread another), so any number of workers can point
        at the same file.
    worker_id:
        Identity used for lease ownership; defaults to ``host:pid``.
    lease_seconds:
        Lease length per claim/renewal.  The heartbeat renews at a
        third of this, so a worker must be unresponsive for a full
        lease before its chunk is reclaimed.
    poll_interval:
        Sleep between claim attempts when the queue has nothing
        claimable.
    campaign_id:
        When set, the worker claims (and waits on) only this
        campaign's chunks — the scoping ``repro worker --campaign``,
        :func:`~repro.distributed.run_workers` and
        :class:`~repro.distributed.FleetSupervisor` use so a fleet
        neither executes unrelated queued work nor blocks on another
        campaign's leases.
    skew_margin:
        Extra seconds beyond a lease's stamped expiry before this
        worker reclaims it (see
        :data:`~repro.distributed.queue.DEFAULT_SKEW_MARGIN`); set it
        to a bound on cross-host clock skew when the queue file spans
        machines.
    """

    def __init__(
        self,
        queue_path: Union[str, Path],
        worker_id: Optional[str] = None,
        lease_seconds: float = 60.0,
        poll_interval: float = 0.2,
        campaign_id: Optional[str] = None,
        skew_margin: float = DEFAULT_SKEW_MARGIN,
    ):
        self.queue_path = str(queue_path)
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.campaign_id = campaign_id
        self.skew_margin = skew_margin
        # Backends are rebuilt at most once per distinct submitted
        # spec; every chunk of a campaign (and any campaign sharing
        # the spec) reuses the same instance.  Job rows (which carry
        # that potentially large spec blob) are likewise fetched once.
        self._backends: Dict[bytes, SimulationBackend] = {}
        self._stores: Dict[str, ResultStore] = {}
        self._jobs: Dict[str, "JobInfo"] = {}
        # Private registry (never the process default): an in-process
        # fallback worker inside a coordinator must not double-count
        # against the coordinator's own registry, and publication to
        # the queue is per-worker-id anyway.
        self.metrics = MetricsRegistry()
        self._m_chunks = self.metrics.counter(
            "repro_worker_chunks_total",
            "Chunks this worker finished, by outcome (done/failed/lost).",
        )
        self._m_chunk_seconds = self.metrics.histogram(
            "repro_worker_chunk_seconds",
            "Claim-to-release chunk execution time (the lease hold).",
        )
        self._m_records = self.metrics.counter(
            "repro_worker_records_total",
            "Records drained to the store, by outcome (written/deduped).",
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        max_chunks: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        forever: bool = False,
    ) -> WorkerStats:
        """Claim and execute chunks until there is nothing left to do.

        Default exit condition ("drain mode"): stop when the queue has
        no claimable chunk *and* nothing is still claimed by another
        worker — i.e. every chunk is done or failed.  While other
        workers hold live leases, keep polling: their chunks become
        claimable here if their leases expire.

        ``forever=True`` keeps polling even over an empty queue (a
        long-lived service worker); ``idle_timeout`` bounds how long to
        poll without claiming anything; ``max_chunks`` bounds the work
        (useful in tests and for scale-down).
        """
        stats = WorkerStats(worker_id=self.worker_id)
        start = time.perf_counter()
        idle_since: Optional[float] = None
        # Fault seam: a skewed worker opens its queue handle with an
        # offset clock, as a host whose wall clock drifted would.
        skew = faults.clock_skew("worker.clock.skew")
        # repro-lint: ok[R2] deliberate skew-injection seam: the chaos
        # harness simulates a host whose wall clock drifted, so this
        # closure *must* capture the wall clock; the queue's lease math
        # still runs on its single time authority, which is the
        # contract under test.
        clock = (lambda: time.time() + skew) if skew else None
        crashed = False
        try:
            with WorkQueue(
                self.queue_path, skew_margin=self.skew_margin, clock=clock,
                metrics=self.metrics,
            ) as queue:
                try:
                    while (
                        max_chunks is None or stats.chunks_done < max_chunks
                    ):
                        chunk = queue.claim(
                            self.worker_id,
                            self.lease_seconds,
                            campaign_id=self.campaign_id,
                        )
                        if chunk is None:
                            # Monotonic idle clock: a wall-clock step
                            # (NTP slew, host suspend) must not fake an
                            # idle timeout or reset one.
                            now = time.monotonic()
                            idle_since = idle_since or now
                            if (
                                idle_timeout is not None
                                and now - idle_since >= idle_timeout
                            ):
                                break
                            if not forever and self._queue_drained(queue):
                                break
                            time.sleep(self.poll_interval)
                            continue
                        idle_since = None
                        self._execute(queue, chunk, stats)
                        self._publish_metrics(queue)
                except InjectedWorkerCrash:
                    # A simulated process death dies with everything in
                    # hand: no release, no deregistration.  The lease
                    # and liveness row age out exactly as they would
                    # after a real SIGKILL.
                    crashed = True
                    raise
                finally:
                    if not crashed:
                        # Clean exit: final metrics snapshot, then drop
                        # the liveness row, so a finished worker is not
                        # counted as a live fleet member (its published
                        # totals survive until queue GC ages them out).
                        self._publish_metrics(queue)
                        try:
                            queue.deregister_worker(self.worker_id)
                        except Exception:
                            pass
        finally:
            for store in self._stores.values():
                store.close()
            self._stores.clear()
        stats.wall_time = time.perf_counter() - start
        return stats

    def _queue_drained(self, queue: WorkQueue) -> bool:
        """No chunk is claimable and none is claimed by anyone else.

        Scoped to this worker's campaign when one was set, so a
        campaign-pinned worker exits as soon as *its* campaign drains,
        whatever other jobs share the queue.
        """
        for tally in queue.counts(self.campaign_id).values():
            if tally.pending or tally.claimed:
                return False
        return True

    # ------------------------------------------------------------------
    # Chunk execution
    # ------------------------------------------------------------------
    def _execute(
        self, queue: WorkQueue, chunk: ClaimedChunk, stats: WorkerStats
    ) -> None:
        """Simulate one claimed chunk and drain it into the store."""
        heartbeat = _LeaseHeartbeat(
            self.queue_path, chunk, self.lease_seconds
        ) if self.queue_path != ":memory:" else None
        if heartbeat is not None:
            heartbeat.start()
        chunk_start = time.perf_counter()
        try:
            faults.maybe_crash("worker.crash.post-claim")
            job = self._job_for(queue, chunk.campaign_id)
        except InjectedWorkerCrash:
            if heartbeat is not None:
                heartbeat.stop()
            raise
        except Exception:
            if heartbeat is not None:
                heartbeat.stop()
            error = traceback.format_exc()
            print(
                f"[worker {self.worker_id}] chunk "
                f"{chunk.campaign_id[:12]}/{chunk.chunk_index} failed "
                f"(attempt {chunk.attempts}):\n{error}",
                file=sys.stderr,
            )
            queue.release(
                chunk.campaign_id,
                chunk.chunk_index,
                self.worker_id,
                done=False,
                error=error.strip().splitlines()[-1],
            )
            stats.chunks_failed += 1
            self._m_chunks.inc(outcome="failed")
            return
        context = self._arm_trace(job)
        chunk_span = telemetry.span(
            "worker.chunk",
            campaign_id=chunk.campaign_id,
            chunk_index=chunk.chunk_index,
            attempts=chunk.attempts,
            worker_id=self.worker_id,
        )
        if (
            context is not None
            and chunk_span.span_id is not None
            and chunk_span.parent_id is None
        ):
            # In-process fallback workers share the submitting
            # process's collector (whose remote_parent is unset):
            # seat the chunk under the job's recorded parent span so
            # the trace stays one connected tree.
            chunk_span.parent_id = context.get("parent_id")
        try:
            with chunk_span:
                self._execute_traced(
                    queue, chunk, stats, heartbeat, job, chunk_span,
                    chunk_start,
                )
        finally:
            collector = telemetry.collector()
            if collector is not None:
                collector.flush()

    def _execute_traced(
        self,
        queue: WorkQueue,
        chunk: ClaimedChunk,
        stats: WorkerStats,
        heartbeat: Optional[_LeaseHeartbeat],
        job: JobInfo,
        chunk_span,
        chunk_start: float,
    ) -> None:
        """The span-wrapped body of :meth:`_execute`."""
        try:
            backend = self._backend_for(job.backend_spec, stats)
            # Payload items are (index, name, params, seed): the name
            # travels with the work because workers never see the
            # campaign's scenario list.
            items = pickle.loads(chunk.payload)
            names = {index: name for index, name, _, _ in items}
            work = [(index, params, seed) for index, _, params, seed in items]
            phase_before = self._phase_snapshot(backend)
            sim_span = telemetry.span("worker.simulate", scenarios=len(work))
            with sim_span:
                sim_wall = time.time()
                outcomes = _execute_chunk(backend, job.runs_per_scenario, work)
            # repro-lint: ok[R2] sim_wall is the span-start *epoch* for
            # the synthetic kernel-phase spans; the durations laid out
            # from it are KernelProfile perf_counter deltas, never
            # wall-clock arithmetic.
            self._record_phase_spans(backend, phase_before, sim_span, sim_wall)
            if heartbeat is not None:
                heartbeat.settle()
            if heartbeat is not None and heartbeat.dead:
                # The renewal machinery broke while we simulated —
                # distinct from a *lost* lease: nobody else owns the
                # chunk yet, but nobody is keeping it ours either.
                raise HeartbeatFailure(
                    f"lease heartbeat thread died while chunk "
                    f"{chunk.campaign_id[:12]}/{chunk.chunk_index} "
                    f"simulated: "
                    f"{heartbeat.error or 'thread exited silently'}"
                )
            if not self._still_held(queue, chunk, heartbeat):
                # The lease was lost while simulating: a rival owns the
                # chunk (and may already have finished it).  Abandon
                # the in-flight result — writing records or timing now
                # would be a zombie racing the legitimate owner.
                if heartbeat is not None:
                    heartbeat.stop()
                stats.chunks_lost += 1
                self._m_chunks.inc(outcome="lost")
                chunk_span.set(outcome="lost")
                return
            faults.maybe_crash("worker.crash.pre-drain")
            store = self._store_for(job.store_path)
            written = deduped = 0
            with telemetry.span("worker.drain") as drain_span:
                for position, ((index, params, _), (_, result)) in enumerate(
                    zip(work, outcomes)
                ):
                    record = RunRecord(
                        index=index,
                        name=names[index],
                        params=params,
                        runs=result,
                    )
                    if store.add_record(chunk.campaign_id, record):
                        written += 1
                    else:
                        deduped += 1
                    if position == 0:
                        faults.maybe_crash("worker.crash.mid-drain")
                store.add_wall_time(
                    chunk.campaign_id,
                    time.perf_counter() - chunk_start,
                    cpu_count=os.cpu_count(),
                )
                drain_span.set(written=written, deduped=deduped)
            stats.records_written += written
            stats.records_deduped += deduped
            if written:
                self._m_records.inc(written, outcome="written")
            if deduped:
                self._m_records.inc(deduped, outcome="deduped")
        except InjectedWorkerCrash:
            # Simulated process death: the heartbeat dies with the
            # process (stop it — in-process chaos harnesses would
            # otherwise leak a zombie renewer) but the chunk is NOT
            # released.  Its lease expires and a rival reclaims it,
            # exactly as after a real SIGKILL.
            if heartbeat is not None:
                heartbeat.stop()
            raise
        except HeartbeatFailure as failure:
            # Hand the chunk back immediately (worker-id guarded, so a
            # no-op if the decayed lease was already reclaimed) and let
            # the failure propagate: this worker cannot protect any
            # further lease, so it must exit distinctly, not soldier on.
            if heartbeat is not None:
                heartbeat.stop()
            queue.release(
                chunk.campaign_id,
                chunk.chunk_index,
                self.worker_id,
                done=False,
                error=str(failure),
            )
            stats.chunks_failed += 1
            self._m_chunks.inc(outcome="failed")
            raise
        except Exception:
            if heartbeat is not None:
                heartbeat.stop()
            # Surface the failure (workers usually run headless) and
            # keep it on the chunk row, so a chunk that eventually
            # lands 'failed' after MAX_ATTEMPTS carries its diagnosis.
            error = traceback.format_exc()
            print(
                f"[worker {self.worker_id}] chunk "
                f"{chunk.campaign_id[:12]}/{chunk.chunk_index} failed "
                f"(attempt {chunk.attempts}):\n{error}",
                file=sys.stderr,
            )
            queue.release(
                chunk.campaign_id,
                chunk.chunk_index,
                self.worker_id,
                done=False,
                error=error.strip().splitlines()[-1],
            )
            stats.chunks_failed += 1
            self._m_chunks.inc(outcome="failed")
            chunk_span.set(outcome="failed")
            return
        if heartbeat is not None:
            heartbeat.stop()
        # A lease lost between the pre-drain check and here still
        # cannot corrupt anything: the release is worker-id guarded
        # and refused, and the drained records dedup in the store.
        if queue.release(
            chunk.campaign_id, chunk.chunk_index, self.worker_id, done=True
        ):
            stats.chunks_done += 1
            self._m_chunks.inc(outcome="done")
            self._m_chunk_seconds.observe(time.perf_counter() - chunk_start)

    def _still_held(
        self,
        queue: WorkQueue,
        chunk: ClaimedChunk,
        heartbeat: Optional[_LeaseHeartbeat],
    ) -> bool:
        """Whether this worker still owns *chunk* at drain time.

        Consults the heartbeat's verdict first, then performs one
        authoritative renew on the main connection: the heartbeat only
        samples every ``lease/3``, so a lease reclaimed since its last
        beat would otherwise go unnoticed exactly when it matters.
        In-memory queues run without a heartbeat (no rival process can
        reach them) and skip the check.
        """
        if heartbeat is None:
            return True
        if heartbeat.lost:
            return False
        return queue.renew(
            chunk.campaign_id,
            chunk.chunk_index,
            self.worker_id,
            self.lease_seconds,
        )

    def _job_for(self, queue: WorkQueue, campaign_id: str) -> JobInfo:
        """The job row for a campaign, fetched once per campaign.

        The row carries the backend-spec blob (a serialized logic
        table, potentially MBs); caching avoids re-reading it from the
        queue file for every chunk.
        """
        job = self._jobs.get(campaign_id)
        if job is None:
            job = queue.job(campaign_id)
            self._jobs[campaign_id] = job
        return job

    def _backend_for(
        self, spec_blob: bytes, stats: WorkerStats
    ) -> SimulationBackend:
        """The backend for a submitted spec, built exactly once."""
        backend = self._backends.get(spec_blob)
        if backend is None:
            spec: BackendSpec = pickle.loads(spec_blob)
            backend = spec.build()
            self._backends[spec_blob] = backend
            stats.backends_built += 1
        return backend

    def _store_for(self, store_path: str) -> ResultStore:
        """The result store a job drains into, opened once per path."""
        store = self._stores.get(store_path)
        if store is None:
            store = ResultStore(store_path, metrics=self.metrics)
            self._stores[store_path] = store
        return store

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _arm_trace(self, job: JobInfo) -> Optional[dict]:
        """Join the submitting coordinator's trace, if the job carries one.

        The coordinator stamps ``{"trace": {trace_id, parent_id, db}}``
        into the job metadata (never into :class:`CampaignSpec` — the
        campaign id must stay bitwise identical).  Workers re-seat the
        process collector per traced job; untraced jobs leave whatever
        arming (e.g. ``REPRO_TRACE``) already in force untouched.
        Returns the job's trace context when it has one.
        """
        metadata = job.metadata if isinstance(job.metadata, dict) else {}
        context = metadata.get("trace")
        if not isinstance(context, dict) or "trace_id" not in context:
            return None
        try:
            telemetry.ensure(
                context.get("db") or job.store_path,
                context["trace_id"],
                remote_parent=context.get("parent_id"),
                process=f"worker:{self.worker_id}",
            )
        except Exception:
            # Tracing is best-effort: a bad span db must never take
            # down the worker that was asked to trace into it.
            pass
        return context

    @staticmethod
    def _phase_snapshot(backend: SimulationBackend) -> Optional[dict]:
        """Current per-phase kernel totals, when traced and profilable."""
        if not telemetry.armed():
            return None
        enable = getattr(backend, "enable_profiling", None)
        if enable is None:
            return None
        profile = getattr(backend, "kernel_profile", None)
        if profile is None:
            profile = enable()
        return {phase: getattr(profile, phase) for phase in KERNEL_PHASES}

    @staticmethod
    def _record_phase_spans(
        backend: SimulationBackend,
        before: Optional[dict],
        sim_span,
        sim_wall: float,
    ) -> None:
        """Re-seat this chunk's :class:`KernelProfile` deltas as spans.

        The kernel times phases in bulk, not as nested calls, so the
        spans are synthetic: laid end to end under the simulate span in
        canonical phase order, flagged ``synthetic`` so consumers know
        the layout (not the totals) is reconstructed.
        """
        if before is None or sim_span.span_id is None:
            return
        collector = telemetry.collector()
        profile = getattr(backend, "kernel_profile", None)
        if collector is None or profile is None:
            return
        offset = 0.0
        for phase in KERNEL_PHASES:
            delta = getattr(profile, phase) - before.get(phase, 0.0)
            if delta <= 0.0:
                continue
            collector.record(
                f"kernel.{phase}",
                sim_wall + offset,
                delta,
                sim_span.span_id,
                {"synthetic": True, "campaign_id": sim_span.campaign_id},
            )
            offset += delta

    def _publish_metrics(self, queue: WorkQueue) -> None:
        """Best-effort snapshot of this worker's registry to the queue."""
        try:
            queue.publish_metrics(self.worker_id, self.metrics.flatten())
        except Exception:
            pass
