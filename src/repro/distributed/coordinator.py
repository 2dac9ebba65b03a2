"""Coordinator side of distributed campaigns: submit, track, collect.

:func:`submit` plans a :class:`~repro.experiments.Campaign` into chunk
tasks using the campaign's own planner — the per-scenario
``SeedSequence`` children are spawned **before** submission, exactly as
a serial run would spawn them, so which worker (or host) executes a
scenario cannot affect a single output bit.  The campaign is registered
in the :class:`~repro.store.ResultStore` under its content-addressed
provenance hash, already-stored scenarios are filtered out of the
submitted chunks (re-submitting a completed campaign enqueues nothing
and re-simulates nothing), and the remaining chunks land in the shared
:class:`~repro.distributed.queue.WorkQueue`.

The returned :class:`DistributedRun` handle tracks the campaign
(:meth:`~DistributedRun.wait`, :meth:`~DistributedRun.iter_progress`)
and reconstructs the final :class:`~repro.experiments.ResultSet` from
the store (:meth:`~DistributedRun.collect`) — bitwise identical to a
serial storeless run of the same campaign and seed, because every
record round-trips losslessly and every scenario's bits derive only
from its own pre-spawned seed.  A waiter that finds no live worker
able to serve its campaign drains it in-process.

:func:`run_workers` spawns a local fleet for scripted submit → work →
collect cycles; the ``"distributed"`` backend
(:mod:`repro.distributed.backend`) runs submit → wait → collect
behind ``Campaign.run``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro import telemetry
from repro.distributed.queue import ChunkCounts, WorkQueue
from repro.distributed.worker import Worker, WorkerStats
from repro.experiments.backends import BackendSpec
from repro.experiments.campaign import (
    Campaign,
    ResultSet,
    _fingerprint_of,
)
from repro.store import CampaignSpec, ResultStore

QueueLike = Union[str, Path, WorkQueue]
StoreLike = Union[str, Path, ResultStore]


def _queue_path(queue: QueueLike) -> str:
    path = queue.path if isinstance(queue, WorkQueue) else str(queue)
    if path == ":memory:":
        raise ValueError(
            "distributed execution needs a file-backed queue: a "
            "':memory:' queue is invisible to worker processes"
        )
    # Absolute: workers may be launched from any directory (or host
    # mount point), and the job row ships this path verbatim.
    return os.path.abspath(path)


def _store_path(store: StoreLike) -> str:
    path = store.path if isinstance(store, ResultStore) else str(store)
    if path == ":memory:":
        raise ValueError(
            "distributed execution needs a file-backed result store: "
            "workers in other processes must reach it by path"
        )
    return os.path.abspath(path)


def _stuck_message(queue: WorkQueue, campaign_id: str, snapshot) -> str:
    """Diagnosis for a campaign whose chunks failed permanently.

    Carries each poisoned chunk's ``last_error`` so the error a caller
    sees from ``Campaign.run``/``wait()`` names the actual failure,
    not just the count.
    """
    failures = [
        state
        for state in queue.chunk_states(campaign_id)
        if state.status == "failed"
    ]
    detail = "; ".join(
        f"chunk {state.chunk_index} after {state.attempts} attempt(s): "
        f"{state.last_error or 'unknown error'}"
        for state in failures[:3]
    )
    if len(failures) > 3:
        detail += f"; ... {len(failures) - 3} more"
    return (
        f"campaign {campaign_id[:12]} is stuck: "
        f"{snapshot.chunks.failed} chunk(s) failed permanently "
        f"({snapshot.describe()})" + (f" — {detail}" if detail else "")
    )


def _vanished_message(campaign_id: str, snapshot) -> str:
    """Diagnosis for an incomplete campaign with no chunk rows left."""
    return (
        f"campaign {campaign_id[:12]} has "
        f"{snapshot.records_done}/{snapshot.num_scenarios} records but "
        "no chunks in this queue — its rows were garbage-collected "
        "(or this is the wrong queue); re-submit to enqueue the "
        "missing work"
    )


def _check_not_terminal(queue: WorkQueue, campaign_id: str,
                        snapshot) -> None:
    """Raise if an *incomplete* campaign can never progress.

    The dead-end states of :meth:`DistributedRun.iter_progress`, the
    poll loop every waiter runs: chunk rows vanished from the queue
    (garbage-collected mid-wait, or a wrong queue path), and every
    remaining chunk failed permanently.  Call only when
    ``snapshot.complete`` is already false.
    """
    if snapshot.chunks.total == 0:
        raise RuntimeError(_vanished_message(campaign_id, snapshot))
    if snapshot.chunks.failed and snapshot.chunks.pending == 0 and (
        snapshot.chunks.claimed == 0
    ):
        raise RuntimeError(_stuck_message(queue, campaign_id, snapshot))
    if snapshot.chunks.done == snapshot.chunks.total:
        # Workers mark a chunk done only after committing its records,
        # so all-done with records still missing means this waiter is
        # reading a different store than the one the job drained into
        # (the queue's job row pins the store path) — no amount of
        # polling will ever fill it.
        raise RuntimeError(
            f"campaign {campaign_id[:12]}: every chunk is done but "
            f"only {snapshot.records_done}/{snapshot.num_scenarios} "
            "records are in this store — the queue's job row points "
            "at a different result store; collect from that store "
            "instead"
        )


@dataclass(frozen=True)
class Progress:
    """One poll of a distributed campaign's completion state."""

    campaign_id: str
    chunks: ChunkCounts
    records_done: int
    num_scenarios: int
    #: Chunks this waiter executed in-process because no live worker
    #: could serve the campaign (0 when the fleet did all the work).
    drained: int = 0

    @property
    def complete(self) -> bool:
        """All chunks drained and every scenario's record stored."""
        return (
            self.chunks.remaining == 0
            and self.records_done >= self.num_scenarios
        )

    def describe(self) -> str:
        """One status line."""
        return (
            f"{self.campaign_id[:12]}: "
            f"records {self.records_done}/{self.num_scenarios}, "
            f"chunks {self.chunks.describe()}"
        )


@dataclass(frozen=True)
class DistributedRun:
    """Handle to one submitted campaign: track it and collect results."""

    campaign_id: str
    queue_path: str
    store_path: str
    num_scenarios: int
    #: Scenarios already stored at submission time (they were never
    #: enqueued; the workers simulate only the missing remainder).
    already_stored: int
    #: Chunks newly enqueued by this submission (0 when the campaign
    #: was already complete, or when the same id was already queued).
    chunks_enqueued: int
    #: Span id of the ``campaign.submit`` span (``None`` when tracing
    #: was disarmed).  ``wait()``/``collect()`` open on an empty span
    #: stack; seating them here keeps one submission one trace tree.
    trace_parent: Optional[str] = None

    @property
    def simulated(self) -> int:
        """Scenarios the worker fleet had to simulate."""
        return self.num_scenarios - self.already_stored

    def _snapshot(
        self, queue: WorkQueue, store: ResultStore, drained: int = 0
    ) -> Progress:
        return Progress(
            campaign_id=self.campaign_id,
            chunks=queue.chunk_counts(self.campaign_id),
            records_done=len(store.completed_indices(self.campaign_id)),
            num_scenarios=self.num_scenarios,
            drained=drained,
        )

    def progress(self) -> Progress:
        """One snapshot of queue and store completion."""
        with WorkQueue(self.queue_path) as queue, ResultStore(
            self.store_path
        ) as store:
            return self._snapshot(queue, store)

    def iter_progress(
        self, poll: float = 0.2, timeout: Optional[float] = None
    ) -> Iterator[Progress]:
        """Yield :class:`Progress` snapshots until the campaign completes.

        The terminal snapshot (``complete == True``) is yielded too.
        Raises ``TimeoutError`` if *timeout* elapses first, and
        ``RuntimeError`` if chunks fail permanently (no worker can make
        further progress).  One queue and one store connection are held
        for the whole polling loop (re-opening them per poll would
        needlessly contend with the workers writing to the same files).

        Drain contract: when a poll finds claimable chunks and no live
        worker that could serve this campaign (unpinned or pinned to
        it), the waiter runs **one chunk** in-process with a worker
        pinned to the campaign (built once, so its backend builds
        once), then polls again.  An empty or dead fleet thus completes
        here; a fleet arriving mid-drain takes the rest.  ``drained``
        counts the chunks the waiter finished.
        """
        # Monotonic deadline: a wall-clock step mid-wait must neither
        # fire a spurious timeout nor extend the wait (the PR-5 time
        # discipline, applied to the coordinator's own clock).
        deadline = None if timeout is None else time.monotonic() + timeout
        fallback: Optional[Worker] = None
        drained = 0
        with WorkQueue(self.queue_path) as queue, ResultStore(
            self.store_path
        ) as store:
            while True:
                snapshot = self._snapshot(queue, store, drained)
                yield snapshot
                if snapshot.complete:
                    return
                _check_not_terminal(queue, self.campaign_id, snapshot)
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"campaign {self.campaign_id[:12]} incomplete "
                        f"after {timeout}s ({snapshot.describe()})"
                    )
                if queue.claimable(self.campaign_id) and not (
                    queue.live_workers(self.campaign_id)
                ):
                    if fallback is None:
                        fallback = Worker(
                            self.queue_path,
                            poll_interval=poll,
                            campaign_id=self.campaign_id,
                        )
                    # One chunk, and straight back if a rival snatched
                    # it first (idle_timeout): this loop owns the
                    # deadline and terminal checks, so the drain must
                    # never block in there.
                    stats = fallback.run(max_chunks=1, idle_timeout=poll)
                    drained += stats.chunks_done
                    continue
                time.sleep(poll)

    def wait(
        self, timeout: Optional[float] = None, poll: float = 0.2
    ) -> Progress:
        """Block until the campaign completes; return the final state.

        Drains in-process under :meth:`iter_progress`'s contract, so
        an unserved campaign completes rather than timing out.
        """
        snapshot = None
        with telemetry.span(
            "campaign.wait", campaign_id=self.campaign_id
        ) as wait_span:
            if wait_span.span_id is not None and wait_span.parent_id is None:
                wait_span.parent_id = self.trace_parent
            for snapshot in self.iter_progress(poll=poll, timeout=timeout):
                pass
            assert snapshot is not None
            wait_span.set(
                records_done=snapshot.records_done, drained=snapshot.drained
            )
        return snapshot

    def collect(self) -> ResultSet:
        """Reconstruct the completed campaign's :class:`ResultSet`.

        Bitwise identical to a serial storeless run of the same
        campaign and seed: records come back from their lossless store
        blobs in scenario-index order, and each scenario's bits derived
        only from its own pre-spawned seed, whichever worker ran it.
        """
        with telemetry.span(
            "campaign.collect", campaign_id=self.campaign_id
        ) as collect_span, ResultStore(self.store_path) as store:
            if (collect_span.span_id is not None
                    and collect_span.parent_id is None):
                collect_span.parent_id = self.trace_parent
            done = len(store.completed_indices(self.campaign_id))
            if done < self.num_scenarios:
                raise RuntimeError(
                    f"campaign {self.campaign_id[:12]} has "
                    f"{done}/{self.num_scenarios} records — wait() for "
                    "the workers to finish before collecting"
                )
            results = store.resultset(self.campaign_id)
        results.metadata.setdefault("loaded", self.already_stored)
        results.metadata.setdefault("simulated", self.simulated)
        results.metadata.setdefault("cpu_count", os.cpu_count())
        return results


def submit(
    campaign: Campaign,
    seed=None,
    *,
    queue: QueueLike,
    store: StoreLike,
    chunk_size: Optional[int] = None,
    metadata: Optional[dict] = None,
) -> DistributedRun:
    """Plan *campaign* into chunk tasks and enqueue the missing ones.

    Planning is exactly the serial planner: the root seed spawns one
    child per scenario before anything is enqueued, so placement across
    workers cannot affect results.  The campaign registers in the store
    under its content-addressed id; scenarios the store already holds
    are filtered out (a re-submitted completed campaign enqueues
    nothing), and submission is idempotent per campaign id — a second
    submit while chunks are in flight re-enqueues nothing.

    The campaign's backend must be registry-built (capturable as a
    :class:`~repro.experiments.backends.BackendSpec`): the queue ships
    the spec, never a pickled backend instance.
    """
    queue_path = _queue_path(queue)
    store_path = _store_path(store)
    submit_span = telemetry.span("campaign.submit")
    with submit_span:
        try:
            backend_spec = BackendSpec.capture(campaign.backend)
        except TypeError as error:
            raise TypeError(
                "distributed campaigns need a registry-built backend whose "
                f"spec can be shipped to workers: {error}"
            ) from None

        from repro.util.rng import as_seed_sequence

        root = as_seed_sequence(seed)
        with telemetry.span("campaign.plan"):
            # Fingerprint before planning spawns from the sequence (the
            # identity rule Campaign.run follows).
            seed_fp = _fingerprint_of(root)
            scenario_list, chunks, _ = campaign._plan(root, 1, chunk_size)
            spec = CampaignSpec.capture(
                campaign, scenario_list, root, seed_fp=seed_fp
            )

        with ResultStore(store_path) as result_store:
            campaign_id = result_store.open_campaign(spec)
            done = result_store.completed_indices(campaign_id)
        submit_span.set(
            campaign_id=campaign_id, num_scenarios=len(scenario_list),
            already_stored=len(done),
        )

        # Ship only missing work; names travel with the params because
        # workers never see the scenario list.
        payloads: List[bytes] = []
        for chunk in chunks:
            remaining = [
                (index, scenario_list[index].name, params, child)
                for index, params, child in chunk
                if index not in done
            ]
            if remaining:
                payloads.append(pickle.dumps(remaining))

        # Trace propagation rides the *job* metadata, never the spec:
        # the campaign id and digest of a traced run must stay bitwise
        # identical to its untraced twin.  Workers parent their chunk
        # spans to this trace's root span (the enclosing fleet span if
        # one is open, else this submit span).
        context = telemetry.trace_context()
        if context is not None:
            metadata = dict(metadata or {})
            metadata["trace"] = context

        with telemetry.span("campaign.enqueue"), WorkQueue(
            queue_path
        ) as work_queue:
            try:
                existing = work_queue.job(campaign_id)
            except KeyError:
                existing = None
            if existing is not None and existing.store_path != store_path:
                # submit_job is idempotent per campaign id, so a re-submit
                # against a different store would silently enqueue nothing
                # while the waiter watches a store no worker writes to —
                # an unbounded hang.  Refuse up front instead.
                raise ValueError(
                    f"campaign {campaign_id[:12]} is already queued in "
                    f"{queue_path} bound to store {existing.store_path}; "
                    f"re-submitting it with store {store_path} would never "
                    "complete — collect from the original store, or gc the "
                    "queue first"
                )
            enqueued = (
                work_queue.submit_job(
                    campaign_id,
                    store_path,
                    pickle.dumps(backend_spec),
                    campaign.runs_per_scenario,
                    len(scenario_list),
                    payloads,
                    metadata=metadata,
                )
                if payloads
                else 0
            )
        submit_span.set(chunks_enqueued=enqueued)

    return DistributedRun(
        campaign_id=campaign_id,
        queue_path=queue_path,
        store_path=store_path,
        num_scenarios=len(scenario_list),
        already_stored=len(done),
        chunks_enqueued=enqueued,
        trace_parent=submit_span.span_id,
    )


def _worker_main(
    queue_path: str,
    lease_seconds: float,
    poll_interval: float,
    campaign_id: Optional[str],
    skew_margin: float,
) -> None:
    """Entry point of a spawned local worker process (drain and exit)."""
    Worker(
        queue_path,
        lease_seconds=lease_seconds,
        poll_interval=poll_interval,
        campaign_id=campaign_id,
        skew_margin=skew_margin,
    ).run()


def run_workers(
    queue: QueueLike,
    num_workers: int = 2,
    lease_seconds: float = 60.0,
    poll_interval: float = 0.1,
    campaign_id: Optional[str] = None,
    skew_margin: float = 0.0,
) -> None:
    """Spawn *num_workers* local worker processes and join them.

    Each worker drains the queue (claims until every chunk is done or
    failed) and exits; *campaign_id* pins the fleet to one campaign's
    chunks, so shared queues with other in-flight jobs neither feed
    this fleet unrelated work nor keep it waiting on unrelated leases.
    Multi-host deployments run ``repro worker`` on each host instead.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    queue_path = _queue_path(queue)
    processes = [
        multiprocessing.Process(
            target=_worker_main,
            args=(queue_path, lease_seconds, poll_interval, campaign_id,
                  skew_margin),
        )
        for _ in range(num_workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()

