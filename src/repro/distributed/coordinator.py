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

:class:`Progress` is the one rule for when a fleet campaign is done or
stuck: the waiter, the campaign service and ``repro status`` all judge
through it.  Local multi-process fleets come from
:class:`~repro.distributed.FleetSupervisor` (``repro fleet``); the
``"distributed"`` backend (:mod:`repro.distributed.backend`) runs
submit → wait → collect behind ``Campaign.run``.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from repro import telemetry
from repro.distributed.queue import ChunkCounts, WorkQueue
from repro.distributed.worker import Worker
from repro.experiments.backends import BackendSpec
from repro.experiments.campaign import Campaign, ResultSet, usable_cpus
from repro.store import ResultStore

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
        """Every scenario's record stored and every chunk settled.

        Workers store a chunk's records *before* releasing it, so the
        record count alone would read complete while the last chunk is
        still claimed.  A failed chunk whose records are all stored
        (an earlier attempt wrote them) does not hold the campaign up.
        """
        return (
            self.records_done >= self.num_scenarios and self.chunks.settled
        )

    def problem(self, queue: WorkQueue) -> Optional[str]:
        """Why this campaign can never complete, or ``None``.

        The dead ends: its chunk rows vanished from *queue*
        (garbage-collected, or the wrong queue); chunks failed
        permanently (naming up to three ``last_error``s, the only case
        that reads the chunk rows); or every chunk is done with records
        still missing.  Snapshots count chunks *before* records:
        workers store records before releasing a chunk, so that last
        state can then never be a worker caught in between.
        """
        if self.complete:
            return None
        chunks = self.chunks
        head = f"campaign {self.campaign_id[:12]}"
        if chunks.total == 0:
            return (
                f"{head} has {self.records_done}/{self.num_scenarios} "
                "records but no chunks in this queue — its rows were "
                "garbage-collected (or this is the wrong queue); "
                "re-submit to enqueue the missing work"
            )
        if chunks.settled and chunks.failed:
            failures = [
                state for state in queue.chunk_states(self.campaign_id)
                if state.status == "failed"
            ]
            detail = "; ".join(
                f"chunk {state.chunk_index} after {state.attempts} "
                f"attempt(s): {state.last_error or 'unknown error'}"
                for state in failures[:3]
            )
            if len(failures) > 3:
                detail += f"; ... {len(failures) - 3} more"
            return (
                f"{head} is stuck: {chunks.failed} chunk(s) failed "
                f"permanently ({self.describe()})"
                + (f" — {detail}" if detail else "")
            )
        if chunks.done == chunks.total:
            # Workers mark a chunk done only after committing its
            # records, so the records left this store afterwards or
            # never reached it; no amount of polling fills them.
            return (
                f"{head}: every chunk is done but only "
                f"{self.records_done}/{self.num_scenarios} records are "
                "in this store — either the queue's job row points at a "
                "different result store (collect from that one), or "
                "records were quarantined by `repro store verify "
                "--repair` (re-submit to top the job up)"
            )
        return None

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
            # Chunks before records (see Progress.problem).
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
        ``RuntimeError`` carrying :meth:`Progress.problem` when the
        campaign reaches a dead end.  One queue and one store
        connection are held for the whole polling loop (re-opening
        them per poll would needlessly contend with the workers
        writing to the same files).

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
                problem = snapshot.problem(queue)
                if problem is not None:
                    raise RuntimeError(problem)
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
        results.metadata.setdefault("cpu_count", usable_cpus())
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

    Planning is the campaign's own planner: the root seed spawns one
    child per scenario before anything is enqueued, so placement across
    workers cannot affect results, and a chunk over the noise-tape
    budget raises ``ValueError`` before the campaign reaches the store
    or the queue.  The campaign registers in the store under its
    content-addressed id; scenarios the store already holds are
    filtered out (a re-submitted completed campaign enqueues nothing),
    and submission is idempotent per campaign id — a second submit
    while chunks are in flight re-enqueues nothing.

    The campaign's backend must be registry-built (capturable as a
    :class:`~repro.experiments.backends.BackendSpec`): the queue ships
    the spec, never a pickled backend instance.  The spec names the
    backend's logic table by the digest the campaign id already
    hashes, and the queue stores the table's raw bytes once per
    digest, so re-submitting on a table the queue holds ships none.
    """
    queue_path = _queue_path(queue)
    store_path = _store_path(store)
    submit_span = telemetry.span("campaign.submit")
    with submit_span:
        try:
            BackendSpec.validate(campaign.backend)
        except TypeError as error:
            raise TypeError(
                "distributed campaigns need a registry-built backend whose "
                f"spec can be shipped to workers: {error}"
            ) from None

        with telemetry.span("campaign.plan"), ResultStore(
            store_path
        ) as result_store:
            # The campaign's own planner: the identity rule and the
            # chunking of Campaign.run, and its noise-tape budget
            # before anything is stored or queued.
            plan = campaign._plan(
                seed, chunk_size=chunk_size, store=result_store
            )
        campaign_id = plan.campaign_id
        num_scenarios = len(plan.scenarios)
        backend_spec = BackendSpec.capture(campaign.backend)
        table = getattr(campaign.backend, "table", None)
        submit_span.set(
            campaign_id=campaign_id, num_scenarios=num_scenarios,
            already_stored=len(plan.done),
        )

        # Ship only missing work; names travel with the params because
        # workers never see the scenario list.
        payloads = [
            pickle.dumps([
                (index, plan.scenarios[index].name, params, child)
                for index, params, child in chunk
            ])
            for chunk in plan.chunks
        ]

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
                    num_scenarios,
                    payloads,
                    metadata=metadata,
                    table=(
                        None if table is None
                        else (backend_spec.table_digest, table.byte_parts())
                    ),
                )
                if payloads
                else 0
            )
        submit_span.set(chunks_enqueued=enqueued)

    return DistributedRun(
        campaign_id=campaign_id,
        queue_path=queue_path,
        store_path=store_path,
        num_scenarios=num_scenarios,
        already_stored=len(plan.done),
        chunks_enqueued=enqueued,
        trace_parent=submit_span.span_id,
    )
