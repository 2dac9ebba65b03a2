"""The sqlite-backed :class:`WorkQueue`: durable chunk tasks with leases.

One queue database coordinates any number of worker processes — on one
machine or on many hosts sharing a filesystem.  Layout is two tables:
``jobs`` holds one row per submitted campaign (the picklable
:class:`~repro.experiments.backends.BackendSpec` blob a worker rebuilds
its backend from, the result-store path it drains into, and the
campaign's shape), and ``chunks`` holds one row per work chunk (a
pickled list of ``(scenario_index, params, seed)`` items), keyed
``(campaign_id, chunk_index)``.

Delivery is *at-least-once* via lease-based claiming:

- :meth:`WorkQueue.claim` atomically hands one claimable chunk to a
  worker and stamps a lease deadline; a chunk is claimable while
  ``pending`` or when a previous claimant's lease has **expired** — so
  a chunk held by a dead worker is reclaimed automatically;
- :meth:`WorkQueue.renew` heartbeats a live worker's lease (and tells
  the worker if it lost the chunk to someone else);
- :meth:`WorkQueue.release` marks the chunk ``done`` (or returns it to
  ``pending`` after a failure), guarded by the claiming worker's id so
  a zombie cannot clobber a reclaimed chunk's state.

A chunk may therefore execute more than once (worker killed after
simulating but before releasing), which is exactly why workers write
results through :class:`~repro.store.ResultStore`: its ``(campaign_id,
scenario_index)`` primary key makes duplicate delivery a no-op.

Time discipline: a queue file shared between hosts has no global
clock, and lease logic that mixes different hosts' wall clocks is the
classic split-brain hazard — a fast clock reclaims a live worker's
chunk early, a slow one keeps a dead worker's lease alive.  Every
lease decision here therefore uses a **single time authority per
decision**: one ``_now()`` reading from the deciding connection's own
clock covers both the claimability comparison and the new deadline
stamp, renewals only ever *extend* a deadline (a behind-clock
heartbeat cannot shorten a lease it just confirmed), and reclaim
waits out a configurable ``skew_margin`` beyond the stamped expiry so
bounded cross-host skew cannot steal a live lease.  Tests inject
``clock=`` callables to simulate hosts skewed in both directions.

Worker liveness: every claim attempt (even one that finds nothing)
upserts a heartbeat row into the ``workers`` table, so coordinators
can ask :meth:`WorkQueue.live_workers` whether anyone is actually
polling — the signal :meth:`DistributedRun.wait
<repro.distributed.coordinator.DistributedRun.wait>` uses to drain a
campaign in-process instead of hanging on an empty fleet.

Concurrency: the database runs in WAL mode with a busy timeout, and
every write transaction opens ``BEGIN IMMEDIATE`` inside a short
retry loop, so many workers hammering one queue file serialize cleanly
instead of surfacing ``database is locked`` errors.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.telemetry.metrics import MetricsRegistry, REGISTRY, merge_samples

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    campaign_id       TEXT PRIMARY KEY,
    submitted_at      TEXT NOT NULL,
    store_path        TEXT NOT NULL,
    backend_spec      BLOB NOT NULL,
    runs_per_scenario INTEGER NOT NULL,
    num_scenarios     INTEGER NOT NULL,
    num_chunks        INTEGER NOT NULL,
    metadata          TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS chunks (
    campaign_id   TEXT NOT NULL REFERENCES jobs(campaign_id),
    chunk_index   INTEGER NOT NULL,
    payload       BLOB NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    worker_id     TEXT,
    lease_expires REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    done_at       REAL,
    last_error    TEXT,
    PRIMARY KEY (campaign_id, chunk_index)
);
CREATE INDEX IF NOT EXISTS idx_chunks_claimable
    ON chunks (status, lease_expires);
CREATE TABLE IF NOT EXISTS workers (
    worker_id   TEXT PRIMARY KEY,
    campaign_id TEXT,
    started_at  REAL NOT NULL,
    heartbeat   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS worker_metrics (
    worker_id TEXT PRIMARY KEY,
    updated   REAL NOT NULL,
    samples   TEXT NOT NULL
);
"""

#: Chunk lifecycle states.  ``failed`` is terminal: a chunk that kept
#: erroring past :data:`MAX_ATTEMPTS` stops cycling instead of
#: poisoning the queue forever.
CHUNK_STATUSES = ("pending", "claimed", "done", "failed")

#: Claim attempts (initial + reclaims) before a chunk is marked failed.
MAX_ATTEMPTS = 5

#: Default extra seconds a lease must be past its stamped expiry before
#: another host may reclaim it.  Zero (same-host fleets share one
#: clock) keeps reclaim latency minimal; deployments spanning hosts
#: should set ``WorkQueue(skew_margin=...)`` (and ``repro worker
#: --skew-margin``) to a bound on their cross-host clock skew.
DEFAULT_SKEW_MARGIN = 0.0

#: Heartbeat age (seconds) under which a registered worker counts as
#: live.  Workers refresh their row on claim attempts and lease
#: renewals (throttled to :data:`_HEARTBEAT_REFRESH`), so a live
#: worker's heartbeat is never close to this old.
DEFAULT_WORKER_TTL = 15.0

#: Minimum seconds between workers-table upserts per (handle, worker).
#: An idle fleet polls claim every fraction of a second; without the
#: throttle every empty-handed poll would turn into a real WAL write
#: on the shared queue file.  A quarter TTL keeps rows comfortably
#: fresh while idle polling stays write-free.
_HEARTBEAT_REFRESH = DEFAULT_WORKER_TTL / 4.0

#: Write-transaction retries when the database stays locked beyond the
#: busy timeout (contended multi-host filesystems).
_WRITE_RETRIES = 5
_RETRY_BACKOFF = 0.05


@dataclass(frozen=True)
class JobInfo:
    """One submitted campaign's queue-side description."""

    campaign_id: str
    submitted_at: str
    store_path: str
    backend_spec: bytes
    runs_per_scenario: int
    num_scenarios: int
    num_chunks: int
    metadata: dict


@dataclass(frozen=True)
class ClaimedChunk:
    """One chunk handed to a worker, with its lease deadline."""

    campaign_id: str
    chunk_index: int
    payload: bytes
    worker_id: str
    lease_expires: float
    attempts: int


@dataclass(frozen=True)
class ChunkState:
    """One chunk row's lifecycle state (introspection/debugging)."""

    campaign_id: str
    chunk_index: int
    status: str
    worker_id: Optional[str]
    lease_expires: Optional[float]
    attempts: int
    #: Most recent execution failure (kept across reclaims, so a chunk
    #: that ends up ``failed`` carries its diagnosis).
    last_error: Optional[str] = None


@dataclass(frozen=True)
class ChunkCounts:
    """Per-status chunk tallies for one campaign."""

    pending: int = 0
    claimed: int = 0
    done: int = 0
    failed: int = 0

    @property
    def total(self) -> int:
        return self.pending + self.claimed + self.done + self.failed

    @property
    def remaining(self) -> int:
        """Chunks not yet done (failed ones count: they need attention)."""
        return self.total - self.done

    def describe(self) -> str:
        """Compact ``pending/claimed/done`` display cell."""
        text = f"{self.pending}p/{self.claimed}c/{self.done}d"
        if self.failed:
            text += f"/{self.failed}F"
        return text

    def to_dict(self) -> dict:
        """Plain-JSON view (the service/CLI machine-readable shape)."""
        return {
            "pending": self.pending,
            "claimed": self.claimed,
            "done": self.done,
            "failed": self.failed,
            "total": self.total,
        }


@dataclass(frozen=True)
class WorkerInfo:
    """One registered worker's liveness row."""

    worker_id: str
    #: Campaign the worker is pinned to (``None`` = serves any job).
    campaign_id: Optional[str]
    started_at: float
    heartbeat: float

    def to_dict(self, now: Optional[float] = None) -> dict:
        """Plain-JSON view; *now* (queue clock) adds heartbeat age."""
        row = {
            "worker_id": self.worker_id,
            "campaign_id": self.campaign_id,
            "started_at": self.started_at,
            "heartbeat": self.heartbeat,
        }
        if now is not None:
            row["heartbeat_age"] = max(0.0, now - self.heartbeat)
        return row


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`WorkQueue.gc` pass dropped (or would drop)."""

    dry_run: bool
    #: Campaigns whose rows were eligible for collection.
    campaigns: Tuple[str, ...] = ()
    done_chunks: int = 0
    failed_chunks: int = 0
    jobs: int = 0
    stale_workers: int = 0

    @property
    def chunks(self) -> int:
        return self.done_chunks + self.failed_chunks

    def describe(self) -> str:
        """One summary line for the CLI."""
        verb = "would drop" if self.dry_run else "dropped"
        return (
            f"{verb} {self.chunks} chunk(s) "
            f"({self.done_chunks} done, {self.failed_chunks} failed), "
            f"{self.jobs} job row(s) "
            f"across {len(self.campaigns)} campaign(s), "
            f"{self.stale_workers} stale worker row(s)"
        )


class WorkQueue:
    """A filesystem-shareable sqlite work queue of campaign chunks.

    Parameters
    ----------
    path:
        Queue database path.  Every worker and coordinator process opens
        its own :class:`WorkQueue` on the same path; sqlite's WAL mode
        plus the retry discipline here make concurrent access safe.
    skew_margin:
        Extra seconds a lease must be past its stamped expiry before
        *this* connection reclaims it — a bound on how far another
        host's clock may run behind ours without us stealing its live
        lease.  Defaults to :data:`DEFAULT_SKEW_MARGIN`.
    clock:
        Override for the connection's time source (epoch seconds).
        Defaults to the sqlite connection's own clock, so every lease
        decision compares and stamps with a single authority; tests
        inject skewed clocks to simulate multi-host drift.
    """

    def __init__(
        self,
        path: Union[str, Path],
        skew_margin: float = DEFAULT_SKEW_MARGIN,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if skew_margin < 0:
            raise ValueError("skew_margin must be >= 0")
        self.skew_margin = float(skew_margin)
        self._clock = clock
        # Queue-seam metric families, resolved once: claim/renew/release
        # outcomes are counted after their transaction commits (never
        # inside it — a retried txn must not double-count).
        registry = metrics if metrics is not None else REGISTRY
        self.metrics = registry
        self._m_claims = registry.counter(
            "repro_queue_claims_total",
            "Chunk claim attempts by outcome"
            " (claimed/reclaimed/empty/poisoned).",
        )
        self._m_renewals = registry.counter(
            "repro_queue_renewals_total",
            "Lease renewals by outcome (renewed/lost).",
        )
        self._m_releases = registry.counter(
            "repro_queue_releases_total",
            "Chunk releases by outcome (done/retry/stale).",
        )
        self._m_enqueued = registry.counter(
            "repro_queue_chunks_enqueued_total",
            "Chunk rows enqueued through submit_job.",
        )
        #: Last heartbeat upsert per (worker_id, campaign_id) on this
        #: handle, for the :data:`_HEARTBEAT_REFRESH` throttle.
        self._heartbeats: Dict[Tuple[str, Optional[str]], float] = {}
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        # Manual transaction control: claim/release must wrap their
        # read-modify-write in one BEGIN IMMEDIATE.
        self._conn.isolation_level = None
        self._conn.execute("PRAGMA busy_timeout = 30000")
        if self.path != ":memory:":
            # WAL lets readers (status polling) proceed under writers.
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.executescript(_SCHEMA)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"WorkQueue(path={self.path!r})"

    # repro-lint: ok[R4] read-only SELECT of the connection clock; a
    # WorkQueue handle is never shared across threads, and lease
    # *decisions* that consume this reading run inside _write.
    def _now(self) -> float:
        """This connection's clock (epoch seconds) — the single time
        authority every lease decision on this handle compares *and*
        stamps with.  One ``_now()`` reading per decision: a claim's
        claimability test and its new deadline never mix two clocks.
        """
        if self._clock is not None:
            return float(self._clock())
        return float(
            self._conn.execute(
                "SELECT (julianday('now') - 2440587.5) * 86400.0"
            ).fetchone()[0]
        )

    def _write(self, fn):
        """Run *fn* inside ``BEGIN IMMEDIATE``, retrying on lock."""
        for attempt in range(_WRITE_RETRIES):
            try:
                # Fault seam: a "queue.write" fire behaves exactly like
                # a busy database — transient storms are absorbed by
                # this very retry loop, sustained ones propagate.
                faults.maybe_fail(
                    "queue.write",
                    lambda event: sqlite3.OperationalError(
                        "database is locked (injected busy storm)"
                    ),
                )
                self._conn.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError:
                if attempt == _WRITE_RETRIES - 1:
                    raise
                time.sleep(_RETRY_BACKOFF * (attempt + 1))
                continue
            try:
                result = fn()
                # Fault seam: "queue.commit" stretches the window in
                # which this transaction holds the write lock.
                faults.maybe_delay("queue.commit")
                self._conn.execute("COMMIT")
                return result
            # repro-lint: ok[R3] rollback-and-reraise, not a swallow:
            # the open BEGIN IMMEDIATE must be rolled back even for
            # BaseException (InjectedWorkerCrash, KeyboardInterrupt) or
            # the handle would hold the write lock forever and no lease
            # could ever be released; the unconditional raise keeps the
            # fault seam open.
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_job(
        self,
        campaign_id: str,
        store_path: str,
        backend_spec: bytes,
        runs_per_scenario: int,
        num_scenarios: int,
        chunk_payloads: Sequence[bytes],
        metadata: Optional[dict] = None,
    ) -> int:
        """Enqueue one campaign's chunks; idempotent per campaign id.

        Returns the number of chunks newly enqueued.  A re-submit while
        the existing job still has chunks in flight (pending or
        claimed) enqueues nothing and returns ``0`` — that work will
        land on its own, and the store dedups any record either way.

        A re-submit of a *settled* job (every chunk done or failed)
        whose payloads cover work the store is missing tops the job up:
        the payloads are appended as fresh chunk rows after the highest
        existing index.  This is how quarantined scenarios (``repro
        store verify --repair``) and attempts-exhausted failures get
        back into the queue — the caller only ships payloads for
        scenarios absent from the store, so a top-up re-enqueues
        exactly the damaged tail.
        """

        def txn() -> int:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO jobs (campaign_id, submitted_at,"
                " store_path, backend_spec, runs_per_scenario,"
                " num_scenarios, num_chunks, metadata)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    store_path,
                    backend_spec,
                    runs_per_scenario,
                    num_scenarios,
                    len(chunk_payloads),
                    json.dumps(metadata or {}),
                ),
            )
            if cursor.rowcount == 0:
                if not chunk_payloads:
                    return 0
                in_flight = self._conn.execute(
                    "SELECT COUNT(*) FROM chunks WHERE campaign_id = ?"
                    " AND status IN ('pending', 'claimed')",
                    (campaign_id,),
                ).fetchone()[0]
                if in_flight:
                    return 0
                next_index = self._conn.execute(
                    "SELECT COALESCE(MAX(chunk_index), -1) + 1"
                    " FROM chunks WHERE campaign_id = ?",
                    (campaign_id,),
                ).fetchone()[0]
                self._conn.executemany(
                    "INSERT INTO chunks (campaign_id, chunk_index,"
                    " payload) VALUES (?, ?, ?)",
                    [
                        (campaign_id, next_index + offset, payload)
                        for offset, payload in enumerate(chunk_payloads)
                    ],
                )
                self._conn.execute(
                    "UPDATE jobs SET num_chunks = num_chunks + ?"
                    " WHERE campaign_id = ?",
                    (len(chunk_payloads), campaign_id),
                )
                return len(chunk_payloads)
            self._conn.executemany(
                "INSERT INTO chunks (campaign_id, chunk_index, payload)"
                " VALUES (?, ?, ?)",
                [
                    (campaign_id, index, payload)
                    for index, payload in enumerate(chunk_payloads)
                ],
            )
            return len(chunk_payloads)

        enqueued = self._write(txn)
        if enqueued:
            self._m_enqueued.inc(enqueued)
        return enqueued

    # ------------------------------------------------------------------
    # Lease-based claiming
    # ------------------------------------------------------------------
    def claim(
        self,
        worker_id: str,
        lease_seconds: float = 60.0,
        campaign_id: Optional[str] = None,
    ) -> Optional[ClaimedChunk]:
        """Atomically claim one claimable chunk, or ``None``.

        A chunk is claimable while ``pending``, or while ``claimed``
        with a lease **expired beyond the skew margin** (its previous
        worker is presumed dead; the reclaim increments ``attempts``).
        Chunks past :data:`MAX_ATTEMPTS` are marked ``failed`` instead
        of being handed out again.

        The expiry comparison and the new deadline stamp share one
        :meth:`_now` reading from this connection, and every claim
        attempt — fruitful or not — refreshes this worker's liveness
        heartbeat in the ``workers`` table.
        """

        outcome = "empty"

        def txn() -> Optional[ClaimedChunk]:
            nonlocal outcome
            now = self._now()
            self._heartbeat_worker(worker_id, campaign_id, now)
            clauses = (
                "(status = 'pending' OR"
                " (status = 'claimed' AND lease_expires < ?))"
            )
            params: List = [now - self.skew_margin]
            if campaign_id is not None:
                clauses += " AND campaign_id = ?"
                params.append(campaign_id)
            row = self._conn.execute(
                f"SELECT campaign_id, chunk_index, payload, attempts"
                f" FROM chunks WHERE {clauses}"
                f" ORDER BY campaign_id, chunk_index LIMIT 1",
                params,
            ).fetchone()
            if row is None:
                return None
            attempts = row["attempts"] + 1
            if attempts > MAX_ATTEMPTS:
                outcome = "poisoned"
                self._conn.execute(
                    "UPDATE chunks SET status = 'failed', worker_id = NULL,"
                    " lease_expires = NULL WHERE campaign_id = ?"
                    " AND chunk_index = ?",
                    (row["campaign_id"], row["chunk_index"]),
                )
                return None
            outcome = "reclaimed" if attempts > 1 else "claimed"
            deadline = now + lease_seconds
            self._conn.execute(
                "UPDATE chunks SET status = 'claimed', worker_id = ?,"
                " lease_expires = ?, attempts = ?"
                " WHERE campaign_id = ? AND chunk_index = ?",
                (
                    worker_id,
                    deadline,
                    attempts,
                    row["campaign_id"],
                    row["chunk_index"],
                ),
            )
            return ClaimedChunk(
                campaign_id=row["campaign_id"],
                chunk_index=row["chunk_index"],
                payload=row["payload"],
                worker_id=worker_id,
                lease_expires=deadline,
                attempts=attempts,
            )

        claimed = self._write(txn)
        self._m_claims.inc(outcome=outcome)
        return claimed

    def renew(
        self,
        campaign_id: str,
        chunk_index: int,
        worker_id: str,
        lease_seconds: float = 60.0,
    ) -> bool:
        """Extend a held lease (heartbeat).

        Returns ``False`` when the chunk is no longer held by
        *worker_id* — its lease expired and someone else reclaimed it —
        so a slow worker learns it has been presumed dead.

        Renewal is **monotone**: the deadline only moves forward.  A
        renewing host whose clock runs behind the claim-time stamp
        must not *shorten* a lease it just confirmed alive — that is
        exactly the skew that gets a live worker's chunk reclaimed
        early.
        """

        def txn() -> bool:
            now = self._now()
            cursor = self._conn.execute(
                "UPDATE chunks SET lease_expires ="
                " MAX(COALESCE(lease_expires, 0), ?)"
                " WHERE campaign_id = ? AND chunk_index = ?"
                " AND worker_id = ? AND status = 'claimed'",
                (
                    now + lease_seconds,
                    campaign_id,
                    chunk_index,
                    worker_id,
                ),
            )
            if cursor.rowcount > 0:
                self._heartbeat_worker(worker_id, None, now, pin=False)
            return cursor.rowcount > 0

        renewed = self._write(txn)
        self._m_renewals.inc(outcome="renewed" if renewed else "lost")
        return renewed

    def release(
        self,
        campaign_id: str,
        chunk_index: int,
        worker_id: str,
        done: bool = True,
        error: Optional[str] = None,
    ) -> bool:
        """Finish (or give back) a claimed chunk, guarded by worker id.

        ``done=True`` marks the chunk complete; ``done=False`` returns
        it to ``pending`` for another worker (a failed execution, whose
        *error* text is kept on the row so a chunk that eventually
        lands ``failed`` carries its diagnosis).  Returns ``False``
        when *worker_id* no longer holds the chunk — the release is
        then a no-op, so a zombie worker whose chunk was reclaimed
        cannot corrupt the new claimant's state.
        """

        def txn() -> bool:
            if done:
                cursor = self._conn.execute(
                    "UPDATE chunks SET status = 'done', done_at = ?,"
                    " lease_expires = NULL WHERE campaign_id = ?"
                    " AND chunk_index = ? AND worker_id = ?"
                    " AND status = 'claimed'",
                    (self._now(), campaign_id, chunk_index, worker_id),
                )
            else:
                cursor = self._conn.execute(
                    "UPDATE chunks SET status = 'pending', worker_id = NULL,"
                    " lease_expires = NULL,"
                    " last_error = COALESCE(?, last_error)"
                    " WHERE campaign_id = ? AND chunk_index = ?"
                    " AND worker_id = ? AND status = 'claimed'",
                    (error, campaign_id, chunk_index, worker_id),
                )
            return cursor.rowcount > 0

        released = self._write(txn)
        self._m_releases.inc(
            outcome=("done" if done else "retry") if released else "stale"
        )
        return released

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    # repro-lint: ok[R4] read-only snapshot SELECT; WorkQueue handles
    # are per-process/thread by contract (workers, coordinators and the
    # service each open their own), so introspection reads need no lock
    # — only read-modify-write decisions go through _write.
    def job(self, campaign_id: str) -> JobInfo:
        """One submitted campaign's job row."""
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no job matching {campaign_id!r}")
        return self._job(row)

    # repro-lint: ok[R4] read-only snapshot SELECT on this handle's
    # private connection (see job() above).
    def jobs(self) -> List[JobInfo]:
        """All submitted campaigns, oldest first."""
        rows = self._conn.execute(
            "SELECT * FROM jobs ORDER BY submitted_at, campaign_id"
        )
        return [self._job(row) for row in rows]

    # repro-lint: ok[R4] read-only snapshot SELECT on this handle's
    # private connection (see job() above).
    def counts(
        self, campaign_id: Optional[str] = None
    ) -> Dict[str, ChunkCounts]:
        """Per-campaign chunk tallies, keyed by campaign id."""
        query = (
            "SELECT campaign_id, status, COUNT(*) AS n FROM chunks"
        )
        params: tuple = ()
        if campaign_id is not None:
            query += " WHERE campaign_id = ?"
            params = (campaign_id,)
        query += " GROUP BY campaign_id, status"
        tallies: Dict[str, Dict[str, int]] = {}
        for row in self._conn.execute(query, params):
            tallies.setdefault(row["campaign_id"], {})[row["status"]] = (
                row["n"]
            )
        return {
            cid: ChunkCounts(**per_status)
            for cid, per_status in tallies.items()
        }

    def chunk_counts(self, campaign_id: str) -> ChunkCounts:
        """One campaign's chunk tallies (all-zero if it has no chunks)."""
        return self.counts(campaign_id).get(campaign_id, ChunkCounts())

    # repro-lint: ok[R4] read-only snapshot SELECT on this handle's
    # private connection (see job() above).
    def chunk_states(self, campaign_id: str) -> List[ChunkState]:
        """Every chunk row of one campaign, in chunk order."""
        rows = self._conn.execute(
            "SELECT campaign_id, chunk_index, status, worker_id,"
            " lease_expires, attempts, last_error FROM chunks"
            " WHERE campaign_id = ? ORDER BY chunk_index",
            (campaign_id,),
        )
        return [
            ChunkState(
                campaign_id=row["campaign_id"],
                chunk_index=row["chunk_index"],
                status=row["status"],
                worker_id=row["worker_id"],
                lease_expires=row["lease_expires"],
                attempts=row["attempts"],
                last_error=row["last_error"],
            )
            for row in rows
        ]

    def drained(self, campaign_id: str) -> bool:
        """Whether every chunk of *campaign_id* is done."""
        tally = self.chunk_counts(campaign_id)
        return tally.remaining == 0

    # repro-lint: ok[R4] read-only snapshot SELECT on this handle's
    # private connection (see job() above); actual claims re-test the
    # condition inside their own _write transaction.
    def claimable(self, campaign_id: Optional[str] = None) -> int:
        """Chunks a worker could claim right now (incl. expired leases).

        Uses the same connection-clock-plus-skew-margin condition as
        :meth:`claim`, so "claimable" here never disagrees with what a
        claim on this handle would actually take.
        """
        query = (
            "SELECT COUNT(*) FROM chunks WHERE (status = 'pending' OR"
            " (status = 'claimed' AND lease_expires < ?))"
        )
        params: List = [self._now() - self.skew_margin]
        if campaign_id is not None:
            query += " AND campaign_id = ?"
            params.append(campaign_id)
        return self._conn.execute(query, params).fetchone()[0]

    # ------------------------------------------------------------------
    # Worker liveness
    # ------------------------------------------------------------------
    # repro-lint: ok[R4] helper that runs *inside* the caller's _write
    # transaction by contract: its only call sites are the claim() and
    # renew() txn closures, so the upsert commits atomically with the
    # lease decision it accompanies.
    def _heartbeat_worker(
        self,
        worker_id: str,
        campaign_id: Optional[str],
        now: float,
        pin: bool = True,
    ) -> None:
        """Upsert one worker's liveness row (inside a write txn).

        ``pin=True`` (the claim path) records the worker's campaign
        scope too; ``pin=False`` (lease renewals, possibly from a
        different connection than the claiming loop) only refreshes
        the heartbeat.  Upserts are throttled per handle: a recent
        enough row (within :data:`_HEARTBEAT_REFRESH`) is left alone,
        so tight idle polling costs no writes.
        """
        key = (worker_id, campaign_id if pin else None)
        last = self._heartbeats.get(key)
        if last is not None and 0 <= now - last < _HEARTBEAT_REFRESH:
            return
        self._heartbeats[key] = now
        if pin:
            self._conn.execute(
                "INSERT INTO workers (worker_id, campaign_id,"
                " started_at, heartbeat) VALUES (?, ?, ?, ?)"
                " ON CONFLICT(worker_id) DO UPDATE SET"
                " heartbeat = excluded.heartbeat,"
                " campaign_id = excluded.campaign_id",
                (worker_id, campaign_id, now, now),
            )
        else:
            self._conn.execute(
                "INSERT INTO workers (worker_id, campaign_id,"
                " started_at, heartbeat) VALUES (?, NULL, ?, ?)"
                " ON CONFLICT(worker_id) DO UPDATE SET"
                " heartbeat = excluded.heartbeat",
                (worker_id, now, now),
            )

    @staticmethod
    def _worker_info(row) -> WorkerInfo:
        """One ``workers`` row as a :class:`WorkerInfo`."""
        return WorkerInfo(
            worker_id=row["worker_id"],
            campaign_id=row["campaign_id"],
            started_at=row["started_at"],
            heartbeat=row["heartbeat"],
        )

    def live_workers(
        self,
        campaign_id: Optional[str] = None,
        ttl: float = DEFAULT_WORKER_TTL,
    ) -> List[WorkerInfo]:
        """Workers whose heartbeat is fresher than *ttl* seconds.

        With *campaign_id*, only workers that could serve that
        campaign count: unpinned workers and workers pinned to it —
        a fleet pinned to some *other* campaign is not going to drain
        ours, however alive it is.
        """
        query = "SELECT * FROM workers WHERE heartbeat >= ?"
        params: List = [self._now() - ttl]
        if campaign_id is not None:
            query += " AND (campaign_id IS NULL OR campaign_id = ?)"
            params.append(campaign_id)
        # repro-lint: ok[R4] read-only snapshot SELECT on this handle's
        # private connection (see job() above).
        return [
            self._worker_info(row)
            for row in self._conn.execute(query, params)
        ]

    def workers(self) -> List[WorkerInfo]:
        """Every registered worker row, live or stale, newest first.

        The fleet-introspection view behind the service's
        ``GET /workers``: pair with :meth:`now` to compute heartbeat
        ages against the queue's own clock (never the caller's —
        cross-host skew is exactly what the queue clock exists to
        avoid).
        """
        # repro-lint: ok[R4] read-only snapshot SELECT on this handle's
        # private connection (see job() above).
        return [
            self._worker_info(row)
            for row in self._conn.execute(
                "SELECT * FROM workers ORDER BY heartbeat DESC, worker_id"
            )
        ]

    def now(self) -> float:
        """The queue's own clock (the single lease time authority)."""
        return self._now()

    # ------------------------------------------------------------------
    # Fleet metrics publication
    # ------------------------------------------------------------------
    def publish_metrics(self, worker_id: str, samples: Sequence[dict]) -> None:
        """Upsert one worker's flattened metric samples.

        Workers publish their private registry's ``flatten()`` output
        after each chunk; the row is an absolute point-in-time snapshot
        (not a delta), so re-publication is idempotent and a crashed
        worker's last snapshot keeps counting toward fleet totals until
        GC ages it out.
        """
        blob = json.dumps(list(samples))

        def txn() -> None:
            self._conn.execute(
                "INSERT INTO worker_metrics (worker_id, updated, samples)"
                " VALUES (?, ?, ?)"
                " ON CONFLICT(worker_id) DO UPDATE SET"
                " updated = excluded.updated, samples = excluded.samples",
                (worker_id, self._now(), blob),
            )

        self._write(txn)

    def fleet_metric_samples(
        self, max_age: Optional[float] = None
    ) -> List[dict]:
        """Sum every published worker snapshot into one sample list.

        The service merges this with its own registry for fleet-wide
        ``/metrics`` totals.  *max_age* (seconds, against the queue
        clock) drops snapshots from long-gone workers.
        """
        query = "SELECT samples FROM worker_metrics"
        params: List = []
        if max_age is not None:
            query += " WHERE updated >= ?"
            params.append(self._now() - max_age)
        query += " ORDER BY worker_id"
        sets = []
        # repro-lint: ok[R4] read-only snapshot SELECT on this handle's
        # private connection (see job() above).
        for row in self._conn.execute(query, params):
            try:
                sets.append(json.loads(row["samples"]))
            except (TypeError, ValueError):
                continue
        return merge_samples(*sets)

    def deregister_worker(self, worker_id: str) -> None:
        """Drop one worker's liveness row (clean exit)."""
        self._heartbeats = {
            key: stamp
            for key, stamp in self._heartbeats.items()
            if key[0] != worker_id
        }
        self._write(
            lambda: self._conn.execute(
                "DELETE FROM workers WHERE worker_id = ?", (worker_id,)
            )
        )

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    # repro-lint: ok[R4] the eligibility scan is read-only snapshot
    # SELECTs on this handle's private connection; every deletion runs
    # in the _write transaction below, which re-applies only decisions
    # (done/failed chunks, stale heartbeats) that cannot re-enter
    # flight — GC never cancels pending or claimed work.
    def gc(
        self,
        campaign_id: Optional[str] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
        worker_ttl: float = 300.0,
    ) -> GcReport:
        """Drop finished work: done/failed chunks and orphaned job rows.

        A campaign is *eligible* when it has no actionable chunks left
        (nothing pending, nothing claimed — drained or terminally
        failed), or when *max_age* is given and its job row is older
        than that many seconds (aged out, whatever its state).  For
        eligible campaigns the ``done``/``failed`` chunk rows are
        deleted — their payloads are the bulk of the file — and job
        rows left without any chunks are deleted too.  Pending and
        claimed chunks always survive: GC never cancels work.

        Worker liveness rows whose heartbeat is older than
        *worker_ttl* seconds are dropped as well (dead fleets).

        ``dry_run=True`` reports what would be dropped without
        touching anything.  Returns a :class:`GcReport` either way.
        """
        now = self._now()
        job_rows = self._conn.execute(
            "SELECT campaign_id, submitted_at FROM jobs"
            + (" WHERE campaign_id = ?" if campaign_id is not None else ""),
            (campaign_id,) if campaign_id is not None else (),
        ).fetchall()
        tallies = self.counts(campaign_id)

        eligible: List[str] = []
        droppable_jobs: List[str] = []
        done_chunks = failed_chunks = 0
        for row in job_rows:
            tally = tallies.get(row["campaign_id"], ChunkCounts())
            drained = tally.pending == 0 and tally.claimed == 0
            aged_out = False
            if max_age is not None:
                try:
                    submitted = datetime.fromisoformat(
                        row["submitted_at"]
                    ).timestamp()
                except ValueError:
                    submitted = None
                if submitted is not None:
                    aged_out = now - submitted > max_age
            if not (drained or aged_out):
                continue
            eligible.append(row["campaign_id"])
            done_chunks += tally.done
            failed_chunks += tally.failed
            # Deleting the done/failed chunks leaves the job orphaned
            # exactly when it had no pending/claimed chunks.
            if drained:
                droppable_jobs.append(row["campaign_id"])

        stale_cutoff = now - worker_ttl
        stale_workers = self._conn.execute(
            "SELECT COUNT(*) FROM workers WHERE heartbeat < ?",
            (stale_cutoff,),
        ).fetchone()[0]

        report = GcReport(
            dry_run=dry_run,
            campaigns=tuple(eligible),
            done_chunks=done_chunks,
            failed_chunks=failed_chunks,
            jobs=len(droppable_jobs),
            stale_workers=stale_workers,
        )
        if dry_run or not (eligible or stale_workers):
            return report

        def txn() -> None:
            for cid in eligible:
                self._conn.execute(
                    "DELETE FROM chunks WHERE campaign_id = ?"
                    " AND status IN ('done', 'failed')",
                    (cid,),
                )
            for cid in droppable_jobs:
                self._conn.execute(
                    "DELETE FROM jobs WHERE campaign_id = ?", (cid,)
                )
            self._conn.execute(
                "DELETE FROM workers WHERE heartbeat < ?", (stale_cutoff,)
            )
            self._conn.execute(
                "DELETE FROM worker_metrics WHERE updated < ?",
                (stale_cutoff,),
            )

        self._write(txn)
        return report

    @staticmethod
    def _job(row: sqlite3.Row) -> JobInfo:
        return JobInfo(
            campaign_id=row["campaign_id"],
            submitted_at=row["submitted_at"],
            store_path=row["store_path"],
            backend_spec=row["backend_spec"],
            runs_per_scenario=row["runs_per_scenario"],
            num_scenarios=row["num_scenarios"],
            num_chunks=row["num_chunks"],
            metadata=json.loads(row["metadata"]),
        )


def default_worker_id() -> str:
    """A host- and process-unique worker identity."""
    host = os.uname().nodename if hasattr(os, "uname") else "host"
    return f"{host}:{os.getpid()}"
