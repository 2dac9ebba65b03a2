"""The sqlite-backed :class:`ResultStore`: durable campaign results.

Layout is two tables.  ``campaigns`` holds one row per
content-addressed :class:`~repro.store.spec.CampaignSpec` (the
provenance — backend, equipage, runs, seed entropy, digests — plus
accumulated wall time and the machine's CPU count).  ``records`` holds
one row per completed scenario, keyed ``(campaign_id,
scenario_index)``: the aggregate columns queries filter on, the genome,
and the full per-run outcome arrays as one raw blob — enough to
reconstruct a :class:`~repro.experiments.ResultSet` bit for bit.

That primary key is the dedup/resume contract: inserting an
already-stored ``(campaign, scenario)`` is a no-op, and
:meth:`ResultStore.completed_indices` tells a re-run of the same spec
which scenarios it can skip.  Every write of one record commits, so a
campaign killed mid-stream keeps everything it finished.

A runs blob is the 4-byte prefix ``RUN\\x01``, then each per-run field
as one contiguous column: ``min_separation`` and ``min_horizontal`` as
little-endian float64, ``nmac``, ``own_alerted`` and
``intruder_alerted`` as one byte each — 19 bytes per run, so its length
alone says how many runs it holds.  Rows written before this layout
hold ``np.savez`` archives; they are read as they are, never rewritten.
The prefix picks the decoder (the zip local-header magic ``PK\\x03\\x04``
means npz, anything else but ``RUN\\x01`` is refused), so data bytes
never do.  Each row's ``checksum`` is the sha256 of its stored blob,
and every read compares it before decoding: a raw blob has no CRC of
its own, and a flipped bit must not resume as a result.

One open :class:`ResultStore` may be shared across threads: the
campaign service's request threads and its watchlist thread all read
(and the submission runner writes) through one handle.  A single
connection guarded by an ``RLock`` keeps that safe for ``:memory:``
stores too, where per-thread connections would each see a different
database.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sqlite3
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import faults
from repro.encounters.encoding import EncounterParameters
from repro.experiments.campaign import ResultSet, RunRecord
from repro.sim.batch import BatchResult
from repro.store.spec import CampaignSpec
from repro.util.sqlite import open_schema

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id       TEXT PRIMARY KEY,
    created_at        TEXT NOT NULL,
    backend           TEXT NOT NULL,
    equipage          TEXT NOT NULL,
    coordination      INTEGER NOT NULL,
    runs_per_scenario INTEGER NOT NULL,
    num_scenarios     INTEGER NOT NULL,
    seed_entropy      TEXT,
    table_digest      TEXT,
    config_digest     TEXT,
    scenarios_digest  TEXT NOT NULL,
    wall_time         REAL NOT NULL DEFAULT 0.0,
    cpu_count         INTEGER,
    metadata          TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS records (
    campaign_id         TEXT NOT NULL REFERENCES campaigns(campaign_id),
    scenario_index      INTEGER NOT NULL,
    name                TEXT NOT NULL,
    genome              BLOB NOT NULL,
    num_runs            INTEGER NOT NULL,
    nmac_rate           REAL NOT NULL,
    mean_min_separation REAL NOT NULL,
    min_separation      REAL NOT NULL,
    min_horizontal      REAL NOT NULL,
    own_alert_rate      REAL NOT NULL,
    intruder_alert_rate REAL NOT NULL,
    runs_blob           BLOB NOT NULL,
    checksum            TEXT,
    PRIMARY KEY (campaign_id, scenario_index)
);
CREATE INDEX IF NOT EXISTS idx_records_nmac
    ON records (campaign_id, nmac_rate);
CREATE TABLE IF NOT EXISTS quarantine (
    campaign_id    TEXT NOT NULL,
    scenario_index INTEGER NOT NULL,
    name           TEXT NOT NULL,
    reason         TEXT NOT NULL,
    quarantined_at TEXT NOT NULL,
    PRIMARY KEY (campaign_id, scenario_index)
);
"""

#: Prefix of every raw runs blob.  It is not the zip local-header magic
#: ``PK\x03\x04`` that starts the ``np.savez`` blobs of older rows, so the
#: first four bytes alone choose the decoder.
_RAW_MAGIC = b"RUN\x01"
_NPZ_MAGIC = b"PK\x03\x04"

#: The raw layout after the prefix: each ``BatchResult`` field as one
#: column of ``num_runs`` items, in this order and on-disk dtype.
_RAW_FIELDS = (
    ("min_separation", np.dtype("<f8")),
    ("min_horizontal", np.dtype("<f8")),
    ("nmac", np.dtype("?")),
    ("own_alerted", np.dtype("?")),
    ("intruder_alerted", np.dtype("?")),
)
#: Bytes per run of a raw blob (19).
_RUN_BYTES = sum(dtype.itemsize for _, dtype in _RAW_FIELDS)

#: Aggregate columns of a ``records`` row, named as ``RunRecord``
#: properties.  All are ``NOT NULL``, and sqlite binds NaN as NULL.
_AGGREGATE_FIELDS = (
    "nmac_rate",
    "mean_min_separation",
    "min_separation",
    "min_horizontal",
    "own_alert_rate",
    "intruder_alert_rate",
)


class _CorruptBlob(ValueError):
    """A runs blob that fails a check against its ``records`` row."""


def _pack_runs(runs: BatchResult) -> bytes:
    """Raw encoding of the per-run outcome arrays (module docstring)."""
    columns = [
        np.ascontiguousarray(getattr(runs, name), dtype=dtype)
        for name, dtype in _RAW_FIELDS
    ]
    if any(column.shape != (runs.num_runs,) for column in columns):
        raise ValueError(
            "per-run arrays must be 1-D and of one length, got shapes "
            + ", ".join(
                f"{name} {column.shape}"
                for (name, _), column in zip(_RAW_FIELDS, columns)
            )
        )
    return b"".join([_RAW_MAGIC] + [column.tobytes() for column in columns])


def _unpack_runs(blob: bytes, num_runs: int) -> BatchResult:
    """Inverse of :func:`_pack_runs`, exact; also reads npz blobs.

    *num_runs* is the row's run count, which the blob must hold.
    Decoded arrays are writable copies in native byte order.
    """
    prefix = bytes(blob[: len(_RAW_MAGIC)])
    if prefix == _RAW_MAGIC:
        expected = len(_RAW_MAGIC) + _RUN_BYTES * num_runs
        if len(blob) != expected:
            raise _CorruptBlob(
                f"run count mismatch (blob is {len(blob)} bytes, "
                f"{num_runs} runs need {expected})"
            )
        fields = {}
        offset = len(_RAW_MAGIC)
        for name, dtype in _RAW_FIELDS:
            column = np.frombuffer(
                blob, dtype=dtype, count=num_runs, offset=offset
            )
            fields[name] = column.astype(dtype.newbyteorder("="))
            offset += dtype.itemsize * num_runs
        return BatchResult(**fields)
    if prefix != _NPZ_MAGIC:
        raise _CorruptBlob(
            f"undecodable runs blob: unknown prefix {prefix!r}"
        )
    with np.load(io.BytesIO(blob)) as data:
        runs = BatchResult(**{name: data[name] for name, _ in _RAW_FIELDS})
    if runs.num_runs != num_runs:
        raise _CorruptBlob(
            f"run count mismatch (blob has {runs.num_runs}, "
            f"row says {num_runs})"
        )
    return runs


def _checked_runs(row) -> BatchResult:
    """Decode a ``records`` row's runs blob, checking it first.

    The blob must hash to the row's stored checksum — compared before
    decoding, because a raw blob has no CRC of its own — and hold the
    row's ``num_runs`` runs; otherwise :class:`_CorruptBlob` says why.
    A legacy npz row with no checksum keeps its zip CRC-32 check, and
    fails as ``np.load`` does.
    """
    blob = row["runs_blob"]
    stored = row["checksum"]
    if stored is not None:
        actual = hashlib.sha256(blob).hexdigest()
        if actual != stored:
            raise _CorruptBlob(
                f"checksum mismatch (stored {stored[:12]}..., "
                f"blob hashes to {actual[:12]}...)"
            )
    return _unpack_runs(blob, row["num_runs"])


def _entropy_to_text(entropy: Optional[int]) -> Optional[str]:
    """Seed entropy as decimal text — 128-bit ints never touch float."""
    return None if entropy is None else str(int(entropy))


def _entropy_from_text(text: Optional[str]) -> Optional[int]:
    return None if text in (None, "") else int(text)


#: Token sequences that turn a filter expression into something other
#: than one expression: statement separators and SQL comments (which
#: can hide a separator from a human reviewer).
_FORBIDDEN_FILTER_TOKENS = (";", "--", "/*", "*/")


def _paginate(
    query: str, values: tuple, limit: Optional[int], offset: int
) -> Tuple[str, tuple]:
    """Append LIMIT/OFFSET (validated) to an ordered query."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if limit is None and not offset:
        return query, values
    # sqlite needs a LIMIT before OFFSET; -1 means unbounded.
    return (
        query + " LIMIT ? OFFSET ?",
        values + (-1 if limit is None else int(limit), int(offset)),
    )


def _validate_filter(where: str) -> str:
    """Vet a user-supplied SQL filter expression.

    ``records(where=...)`` / ``campaigns(where=...)`` interpolate the
    filter into the query text by design (it is an expression over the
    row columns, with ``?`` placeholders for values), so reject the
    constructs that would let a "filter" smuggle in additional
    statements: separators and comment sequences.  Values must travel
    through *params*, never through the expression.
    """
    for token in _FORBIDDEN_FILTER_TOKENS:
        if token in where:
            raise ValueError(
                f"invalid filter {where!r}: {token!r} is not allowed "
                "(filters must be a single SQL expression; pass values "
                "via ? placeholders and params)"
            )
    return where


@dataclass(frozen=True)
class CampaignInfo:
    """One ``campaigns`` row, plus how many records it has so far."""

    campaign_id: str
    created_at: str
    backend: str
    equipage: str
    coordination: bool
    runs_per_scenario: int
    num_scenarios: int
    completed: int
    seed_entropy: Optional[int]
    wall_time: float
    cpu_count: Optional[int]
    metadata: dict
    #: Digest of the resolved scenario list — campaigns sharing it ran
    #: the *same* encounters, so their rates compare apples to apples
    #: (the comparability rule ``diff`` pairing and the service
    #: watchlist's baseline regression checks both use).
    scenarios_digest: str = ""

    @property
    def complete(self) -> bool:
        """Whether every scenario of the spec has a stored record."""
        return self.completed >= self.num_scenarios

    @property
    def label(self) -> str:
        """Human label (from metadata), or the short campaign id."""
        return str(self.metadata.get("label", self.campaign_id[:12]))

    def to_dict(self) -> dict:
        """Plain-JSON view — the one machine-readable campaign shape
        shared by ``repro store list --format json`` and the service's
        ``GET /campaigns``."""
        return {
            "campaign_id": self.campaign_id,
            "label": self.label,
            "created_at": self.created_at,
            "backend": self.backend,
            "equipage": self.equipage,
            "coordination": self.coordination,
            "runs_per_scenario": self.runs_per_scenario,
            "num_scenarios": self.num_scenarios,
            "completed": self.completed,
            "complete": self.complete,
            "seed_entropy": (
                None if self.seed_entropy is None
                else str(self.seed_entropy)
            ),
            "wall_time": self.wall_time,
            "cpu_count": self.cpu_count,
            "scenarios_digest": self.scenarios_digest,
            "metadata": self.metadata,
        }

    def describe(self) -> str:
        """One summary line for listings."""
        status = "complete" if self.complete else (
            f"{self.completed}/{self.num_scenarios}"
        )
        return (
            f"{self.campaign_id[:12]}  {self.label:<24} "
            f"{self.num_scenarios:>5} x {self.runs_per_scenario:<4} "
            f"{self.backend:<16} {self.equipage:<8} {status}"
        )


@dataclass(frozen=True)
class StoredRecord:
    """One ``records`` row: a :class:`RunRecord` plus its campaign id."""

    campaign_id: str
    record: RunRecord

    @property
    def index(self) -> int:
        return self.record.index

    @property
    def name(self) -> str:
        return self.record.name


@dataclass(frozen=True)
class CampaignDiff:
    """A cross-campaign comparison of two stored campaigns."""

    a: CampaignInfo
    b: CampaignInfo
    aggregates_a: dict
    aggregates_b: dict
    #: Per-scenario (index, nmac_rate_a, nmac_rate_b) for paired
    #: scenarios — only populated when both campaigns resolved the same
    #: scenario list (equal scenario digests).
    paired_nmac: Tuple[Tuple[int, float, float], ...]

    def to_dict(self) -> dict:
        """Plain-JSON view (the service's ``GET .../diff/...`` body)."""
        return {
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "aggregates_a": self.aggregates_a,
            "aggregates_b": self.aggregates_b,
            "deltas": {
                key: self.aggregates_b[key] - self.aggregates_a[key]
                for key in (
                    "nmac_rate", "alert_rate", "mean_min_separation",
                )
            },
            "paired_scenarios": len(self.paired_nmac),
            "paired_nmac_changed": sum(
                1 for _, ra, rb in self.paired_nmac if ra != rb
            ),
        }

    def summary(self) -> str:
        """Human-readable side-by-side comparison."""
        rows = [
            ("scenarios", "scenarios"),
            ("total_runs", "total_runs"),
            ("nmac_rate", "nmac_rate"),
            ("alert_rate", "alert_rate"),
            ("mean_min_separation", "mean_min_separation"),
        ]
        lines = [
            f"A: {self.a.campaign_id[:12]} ({self.a.label}) "
            f"[{self.a.backend} equipage={self.a.equipage}]",
            f"B: {self.b.campaign_id[:12]} ({self.b.label}) "
            f"[{self.b.backend} equipage={self.b.equipage}]",
            f"{'metric':<22} {'A':>12} {'B':>12} {'B-A':>12}",
        ]
        for label, key in rows:
            va, vb = self.aggregates_a[key], self.aggregates_b[key]
            lines.append(
                f"{label:<22} {va:>12.4f} {vb:>12.4f} {vb - va:>+12.4f}"
            )
        if self.paired_nmac:
            moved = sum(1 for _, ra, rb in self.paired_nmac if ra != rb)
            lines.append(
                f"paired scenarios: {len(self.paired_nmac)} "
                f"({moved} with changed NMAC rate)"
            )
        else:
            lines.append(
                "paired scenarios: none (different scenario lists)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CorruptRecord:
    """One record that failed integrity verification."""

    campaign_id: str
    scenario_index: int
    name: str
    reason: str

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "scenario_index": self.scenario_index,
            "name": self.name,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class IntegrityReport:
    """What one :meth:`ResultStore.verify` pass found (and did)."""

    checked: int
    corrupt: Tuple[CorruptRecord, ...]
    #: Legacy rows with no stored checksum, verified by decode only.
    missing_checksum: int
    #: Whether corrupt rows were quarantined (``repair=True``).
    repaired: bool
    #: Legacy checksums written back during a repair pass.
    backfilled: int

    @property
    def ok(self) -> bool:
        """No corruption found (or every corrupt row was quarantined)."""
        return not self.corrupt or self.repaired

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "corrupt": [c.to_dict() for c in self.corrupt],
            "missing_checksum": self.missing_checksum,
            "repaired": self.repaired,
            "backfilled": self.backfilled,
            "ok": self.ok,
        }

    def describe(self) -> str:
        """Human summary for the ``repro store verify`` CLI."""
        lines = [
            f"checked {self.checked} record(s): "
            f"{len(self.corrupt)} corrupt, "
            f"{self.missing_checksum} legacy (no checksum)"
        ]
        for item in self.corrupt:
            verdict = "quarantined" if self.repaired else "CORRUPT"
            lines.append(
                f"  [{verdict}] {item.campaign_id[:12]}/"
                f"{item.scenario_index} ({item.name}): {item.reason}"
            )
        if self.corrupt and self.repaired:
            lines.append(
                "corrupt rows quarantined; re-running the campaign "
                "re-simulates exactly those scenarios"
            )
        elif self.corrupt:
            lines.append(
                "run `repro store verify --repair` to quarantine them"
            )
        if self.backfilled:
            lines.append(
                f"backfilled {self.backfilled} legacy checksum(s)"
            )
        return "\n".join(lines)


class ResultStore:
    """A durable, queryable sink for campaign results.

    Parameters
    ----------
    path:
        Sqlite database path (created on first use), or ``":memory:"``
        for an ephemeral store.

    The store is the persistence seam of the experiment stack:
    :meth:`~repro.experiments.Campaign.run` and ``iter_records`` write
    through it (gaining resume and dedup), and its query API
    (:meth:`campaigns`, :meth:`records`, :meth:`resultset`,
    :meth:`diff`) reads results back across campaigns without re-running
    anything.
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        metrics=None,
    ):
        self.path = str(path)
        # Store-seam metric families (repro.telemetry): callers that
        # keep a private registry (distributed workers) pass it in;
        # everyone else shares the process default.
        from repro.telemetry.metrics import REGISTRY

        registry = metrics if metrics is not None else REGISTRY
        self.metrics = registry
        self._m_writes = registry.counter(
            "repro_store_writes_total",
            "Record writes by outcome (written/deduped).",
        )
        self._m_verify_scans = registry.counter(
            "repro_store_verify_scans_total",
            "Integrity verification passes over this store.",
        )
        self._m_verify_corrupt = registry.counter(
            "repro_store_verify_corrupt_total",
            "Records found corrupt by verify().",
        )
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # Process-pool campaign workers never touch the store (records
        # flow back to the driving process), but *distributed* workers
        # (repro.distributed) write into one shared store file
        # concurrently: WAL mode plus a generous busy timeout make
        # those single-statement INSERT ... ON CONFLICT DO NOTHING
        # commits serialize cleanly, and the PK dedup makes their
        # ordering irrelevant.
        #
        # Within one process the handle itself is shared across threads
        # (service request threads + watchlist thread + submission
        # runner): one connection guarded by _lock rather than
        # per-thread connections, because a ':memory:' database exists
        # per connection and per-thread readers would each see an
        # empty store.
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA busy_timeout = 30000")
        if self.path != ":memory:":
            self._conn.execute("PRAGMA synchronous = NORMAL")
        # Fleets open one fresh store file from many processes at once.
        open_schema(self._conn, _SCHEMA)
        # Stores created before per-record checksums existed lack the
        # column (executescript only creates missing *tables*): migrate
        # in place.  Legacy rows keep checksum NULL — verify() falls
        # back to decodability for them, and repair backfills.
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(records)")
        }
        if "checksum" not in columns:
            self._conn.execute(
                "ALTER TABLE records ADD COLUMN checksum TEXT"
            )
        self._conn.commit()

    def _fetchall(self, query: str, params: Sequence = ()) -> list:
        """Run one read query to completion under the lock."""
        with self._lock:
            return self._conn.execute(query, tuple(params)).fetchall()

    def _fetchone(self, query: str, params: Sequence = ()):
        with self._lock:
            return self._conn.execute(query, tuple(params)).fetchone()

    def _commit(self, query: str, params: Sequence = ()) -> int:
        """Run one write statement and commit it, under the lock."""
        with self._lock:
            cursor = self._conn.execute(query, tuple(params))
            self._conn.commit()
            return cursor.rowcount

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ResultStore(path={self.path!r})"

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def open_campaign(
        self, spec: CampaignSpec, metadata: Optional[dict] = None
    ) -> str:
        """Register *spec* (idempotent) and return its campaign id."""
        campaign_id = spec.campaign_id
        self._commit(
            "INSERT OR IGNORE INTO campaigns (campaign_id, created_at,"
            " backend, equipage, coordination, runs_per_scenario,"
            " num_scenarios, seed_entropy, table_digest, config_digest,"
            " scenarios_digest, metadata)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                campaign_id,
                datetime.now(timezone.utc).isoformat(timespec="seconds"),
                spec.backend,
                spec.equipage,
                int(spec.coordination),
                spec.runs_per_scenario,
                spec.num_scenarios,
                _entropy_to_text(spec.seed_entropy),
                spec.table_digest,
                spec.config_digest,
                spec.scenarios_digest,
                json.dumps(metadata or {}),
            ),
        )
        return campaign_id

    def add_record(self, campaign_id: str, record: RunRecord) -> bool:
        """Persist one scenario record; returns ``False`` on a duplicate.

        The ``(campaign_id, scenario_index)`` primary key makes this the
        dedup point: the same scenario of the same spec (and therefore
        the same seed) is stored exactly once, whoever runs it and
        however often.  Only a conflict on that key is a duplicate; any
        other constraint failure raises.  Each record commits
        individually, so a campaign killed mid-stream keeps everything
        it finished.

        Every row carries the sha256 of its packed per-run blob, so a
        torn write or later bit-rot is detectable (:meth:`verify`, and
        every read) instead of resuming as truth.

        Raises ``ValueError`` for a NaN aggregate: sqlite would bind it
        as NULL, and the record would be lost while its scenario is
        re-simulated on every resume.  ±inf is stored as it is.
        """
        aggregates = [getattr(record, field) for field in _AGGREGATE_FIELDS]
        for field, value in zip(_AGGREGATE_FIELDS, aggregates):
            if math.isnan(value):
                raise ValueError(
                    f"record {campaign_id[:12]}/{record.index} "
                    f"({record.name}): {field} is NaN"
                )
        blob = _pack_runs(record.runs)
        checksum = hashlib.sha256(blob).hexdigest()
        # Fault seam: a torn write persists a truncated blob while the
        # checksum still describes the intended bytes — the shape
        # verify() exists to catch.
        if faults.fire("store.write.torn") is not None:
            blob = blob[: max(1, len(blob) // 3)]
        query = (
            "INSERT INTO records (campaign_id, scenario_index,"
            " name, genome, num_runs, nmac_rate, mean_min_separation,"
            " min_separation, min_horizontal, own_alert_rate,"
            " intruder_alert_rate, runs_blob, checksum)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
            " ON CONFLICT (campaign_id, scenario_index) DO NOTHING"
        )
        values = (
            campaign_id,
            record.index,
            record.name,
            np.ascontiguousarray(
                record.params.as_array(), dtype=np.float64
            ).tobytes(),
            record.num_runs,
            *aggregates,
            blob,
            checksum,
        )
        changed = self._commit(query, values)
        # Fault seam: at-least-once delivery hands the same record in
        # twice; the primary key must make the second a no-op.
        if faults.fire("store.write.duplicate") is not None:
            self._commit(query, values)
        self._m_writes.inc(outcome="written" if changed > 0 else "deduped")
        return changed > 0

    def add_wall_time(self, campaign_id: str, seconds: float,
                      cpu_count: Optional[int] = None) -> None:
        """Accumulate simulation wall time (and record the CPU count)."""
        self._commit(
            "UPDATE campaigns SET wall_time = wall_time + ?,"
            " cpu_count = COALESCE(?, cpu_count) WHERE campaign_id = ?",
            (float(seconds), cpu_count, campaign_id),
        )

    def merge_metadata(self, campaign_id: str, updates: dict) -> None:
        """Merge *updates* into a campaign's metadata (new values win)."""
        with self._lock:  # read-modify-write must not interleave
            row = self._conn.execute(
                "SELECT metadata FROM campaigns WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
            if row is None:
                raise KeyError(f"no campaign matching {campaign_id!r}")
            metadata = json.loads(row[0])
            metadata.update(updates)
            self._conn.execute(
                "UPDATE campaigns SET metadata = ? WHERE campaign_id = ?",
                (json.dumps(metadata), campaign_id),
            )
            self._conn.commit()

    def ingest(
        self, result_set: ResultSet, label: str = ""
    ) -> str:
        """Store an already-materialized :class:`ResultSet`.

        The persistence path for results produced without a store (the
        benchmark harness).  Identity is content-addressed from the
        result set itself, so re-ingesting identical results dedups to
        the same campaign.
        """
        spec = CampaignSpec.of_resultset(result_set)
        metadata = dict(result_set.metadata)
        if label:
            metadata.setdefault("label", label)
        metadata.setdefault("workers", result_set.workers)
        campaign_id = self.open_campaign(spec, metadata=metadata)
        for record in result_set:
            self.add_record(campaign_id, record)
        # Re-ingesting identical content refreshes timing but must not
        # clobber what an earlier ingest recorded (its label above all)
        # — existing metadata keys win the merge.
        with self._lock:
            existing = json.loads(
                self._conn.execute(
                    "SELECT metadata FROM campaigns WHERE campaign_id = ?",
                    (campaign_id,),
                ).fetchone()[0]
            )
            metadata.update(existing)
            cpu_count = result_set.metadata.get("cpu_count")
            self._conn.execute(
                "UPDATE campaigns SET wall_time = ?, cpu_count ="
                " COALESCE(?, cpu_count), metadata = ?"
                " WHERE campaign_id = ?",
                (
                    float(result_set.wall_time),
                    cpu_count,
                    json.dumps(metadata),
                    campaign_id,
                ),
            )
            self._conn.commit()
        return campaign_id

    # ------------------------------------------------------------------
    # Resume support
    # ------------------------------------------------------------------
    def completed_indices(self, campaign_id: str) -> Set[int]:
        """Scenario indices already stored for *campaign_id*."""
        rows = self._fetchall(
            "SELECT scenario_index FROM records WHERE campaign_id = ?",
            (campaign_id,),
        )
        return {row[0] for row in rows}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve(self, campaign_id: str) -> str:
        """Resolve a (possibly abbreviated) campaign id to the full id."""
        rows = self._fetchall(
            "SELECT campaign_id FROM campaigns WHERE campaign_id LIKE ?",
            (campaign_id + "%",),
        )
        if not rows:
            raise KeyError(f"no campaign matching {campaign_id!r}")
        if len(rows) > 1:
            raise KeyError(
                f"ambiguous campaign id {campaign_id!r} "
                f"({len(rows)} matches)"
            )
        return rows[0][0]

    def campaigns(
        self,
        where: Optional[str] = None,
        params: Sequence = (),
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[CampaignInfo]:
        """All stored campaigns, newest first.

        *where* is an optional SQL filter over the ``campaigns`` columns
        (e.g. ``"equipage = ?"`` with ``params=("none",)``);
        *limit*/*offset* paginate large stores (the ordering is stable,
        so consecutive pages tile the full listing).
        """
        query = (
            "SELECT c.*, (SELECT COUNT(*) FROM records r"
            " WHERE r.campaign_id = c.campaign_id) AS completed"
            " FROM campaigns c"
        )
        if where:
            query += f" WHERE {_validate_filter(where)}"
        query += " ORDER BY c.created_at DESC, c.campaign_id"
        query, values = _paginate(query, tuple(params), limit, offset)
        rows = self._execute_filtered(query, values, where)
        return [self._info(row) for row in rows]

    def totals(self) -> Dict[str, int]:
        """Store-wide row counts (the service's health/brief numbers)."""
        return {
            "campaigns": self._fetchone("SELECT COUNT(*) FROM campaigns")[0],
            "records": self._fetchone("SELECT COUNT(*) FROM records")[0],
        }

    def get_campaign(self, campaign_id: str) -> CampaignInfo:
        """One campaign's info (accepts abbreviated ids)."""
        campaign_id = self.resolve(campaign_id)
        matches = self.campaigns("c.campaign_id = ?", (campaign_id,))
        return matches[0]

    def _records_query(
        self,
        columns: str,
        campaign_id: Optional[str],
        where: Optional[str],
        params: Sequence,
        limit: Optional[int],
        offset: int,
    ) -> Tuple[str, tuple]:
        """Build the shared filtered/paginated records query."""
        query = f"SELECT {columns} FROM records"
        clauses, values = [], []
        if campaign_id is not None:
            clauses.append("campaign_id = ?")
            values.append(self.resolve(campaign_id))
        if where:
            clauses.append(f"({_validate_filter(where)})")
            values.extend(params)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY campaign_id, scenario_index"
        return _paginate(query, tuple(values), limit, offset)

    def records(
        self,
        campaign_id: Optional[str] = None,
        where: Optional[str] = None,
        params: Sequence = (),
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[StoredRecord]:
        """Stored records, optionally filtered, across campaigns.

        *where* filters over the ``records`` columns (e.g.
        ``"nmac_rate > ?"``); omit *campaign_id* to query every
        campaign at once — the cross-campaign shape ("all scenarios
        anywhere with NMACs") loose JSON files could not answer.
        *limit*/*offset* paginate: the ordering (campaign id, scenario
        index) is stable, so pages tile the full result and a service
        request never has to materialize a whole campaign.
        """
        query, values = self._records_query(
            "*", campaign_id, where, params, limit, offset
        )
        rows = self._execute_filtered(query, values, where)
        return [
            StoredRecord(
                campaign_id=row["campaign_id"], record=self._record(row)
            )
            for row in rows
        ]

    def record_rows(
        self,
        campaign_id: Optional[str] = None,
        where: Optional[str] = None,
        params: Sequence = (),
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Dict[str, object]]:
        """Like :meth:`records`, but scalar aggregate columns only.

        Returns plain dicts of the indexed per-scenario columns without
        reading any per-run blob — the shape the service's records
        endpoint and the watchlist's ranking scans use, where fetching,
        hashing and decoding every run of millions of scenarios would
        dominate the query.
        """
        columns = (
            "campaign_id, scenario_index, name, num_runs, nmac_rate,"
            " mean_min_separation, min_separation, min_horizontal,"
            " own_alert_rate, intruder_alert_rate"
        )
        query, values = self._records_query(
            columns, campaign_id, where, params, limit, offset
        )
        rows = self._execute_filtered(query, values, where)
        return [dict(row) for row in rows]

    def _execute_filtered(
        self, query: str, values: tuple, where: Optional[str]
    ):
        """Execute a query carrying a user filter; fail with a clean error.

        A malformed filter (bad column, syntax error, wrong placeholder
        count) surfaces as a one-line ``ValueError`` naming the filter,
        not a sqlite traceback — the CLI passes it straight through to
        the user.
        """
        try:
            return self._fetchall(query, values)
        except (sqlite3.OperationalError, sqlite3.ProgrammingError) as error:
            if where is None:
                raise
            raise ValueError(
                f"malformed filter {where!r}: {error}"
            ) from None

    def get_record(
        self, campaign_id: str, scenario_index: int
    ) -> Optional[RunRecord]:
        """One stored record, or ``None`` if that scenario is missing.

        Point lookups (rather than a long-lived cursor) are what the
        campaign resume path uses to interleave stored records with a
        live simulation stream that is inserting into the same table.
        """
        row = self._fetchone(
            "SELECT * FROM records WHERE campaign_id = ?"
            " AND scenario_index = ?",
            (campaign_id, scenario_index),
        )
        return None if row is None else self._record(row)

    def iter_records(
        self, campaign_id: str, batch: int = 256
    ) -> Iterator[RunRecord]:
        """Stream one campaign's records in scenario-index order.

        Rows are fetched in keyset pages of *batch* under the
        connection lock, never via a cursor held open across yields —
        other threads' queries and writes interleave safely between
        pages.
        """
        last = -1
        while True:
            rows = self._fetchall(
                "SELECT * FROM records WHERE campaign_id = ?"
                " AND scenario_index > ?"
                " ORDER BY scenario_index LIMIT ?",
                (campaign_id, last, batch),
            )
            if not rows:
                return
            for row in rows:
                yield self._record(row)
            last = rows[-1]["scenario_index"]

    def resultset(self, campaign_id: str) -> ResultSet:
        """Reconstruct the full :class:`ResultSet` of one campaign.

        Per-run arrays come back from their lossless blobs, so the
        records are bitwise identical to the run(s) that produced them;
        ``wall_time`` is the accumulated simulation time across every
        run that wrote into the campaign.
        """
        campaign_id = self.resolve(campaign_id)
        info = self.get_campaign(campaign_id)
        records = list(self.iter_records(campaign_id))
        metadata = dict(info.metadata)
        metadata.setdefault("campaign_id", campaign_id)
        if info.cpu_count is not None:
            metadata.setdefault("cpu_count", info.cpu_count)
        return ResultSet(
            records=records,
            backend=info.backend,
            equipage=info.equipage,
            coordination=info.coordination,
            runs_per_scenario=info.runs_per_scenario,
            seed_entropy=info.seed_entropy,
            workers=int(metadata.get("workers", 1)),
            wall_time=info.wall_time,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def verify(
        self,
        campaign_id: Optional[str] = None,
        repair: bool = False,
        batch: int = 256,
    ) -> IntegrityReport:
        """Check every stored record's per-run blob against its checksum.

        A record is corrupt when its blob no longer hashes to the
        stored sha256 (torn write, bit-rot), fails to decode, or
        decodes to the wrong run count.  Legacy rows written before
        checksums existed (``checksum IS NULL``) are verified by
        decodability alone.

        With ``repair=True`` corrupt rows are **quarantined**: moved
        out of ``records`` into the ``quarantine`` table (reason +
        timestamp), so the campaign's completed-index set shrinks by
        exactly those scenarios — a resume of the same spec re-simulates
        precisely the damaged tail and nothing else.  Repair also
        backfills legacy rows' checksums (they just proved decodable).

        Scans in keyset pages of *batch* — never a whole store in
        memory, and other threads' reads/writes interleave between
        pages.
        """
        if campaign_id is not None:
            campaign_id = self.resolve(campaign_id)
        checked = 0
        missing_checksum = 0
        corrupt: List[CorruptRecord] = []
        backfill: List[Tuple[str, str, int]] = []
        last: Tuple[str, int] = ("", -1)
        while True:
            clauses = ["(campaign_id, scenario_index) > (?, ?)"]
            values: List[object] = [last[0], last[1]]
            if campaign_id is not None:
                clauses.append("campaign_id = ?")
                values.append(campaign_id)
            rows = self._fetchall(
                "SELECT campaign_id, scenario_index, name, num_runs,"
                " runs_blob, checksum FROM records"
                f" WHERE {' AND '.join(clauses)}"
                " ORDER BY campaign_id, scenario_index LIMIT ?",
                (*values, batch),
            )
            if not rows:
                break
            for row in rows:
                checked += 1
                if row["checksum"] is None:
                    missing_checksum += 1
                reason = self._check_blob(row)
                if reason is not None:
                    corrupt.append(
                        CorruptRecord(
                            campaign_id=row["campaign_id"],
                            scenario_index=row["scenario_index"],
                            name=row["name"],
                            reason=reason,
                        )
                    )
                elif row["checksum"] is None and repair:
                    backfill.append((
                        hashlib.sha256(row["runs_blob"]).hexdigest(),
                        row["campaign_id"],
                        row["scenario_index"],
                    ))
            last = (rows[-1]["campaign_id"], rows[-1]["scenario_index"])
        if repair and (corrupt or backfill):
            self._quarantine(corrupt, backfill)
        self._m_verify_scans.inc()
        if corrupt:
            self._m_verify_corrupt.inc(len(corrupt))
        return IntegrityReport(
            checked=checked,
            corrupt=tuple(corrupt),
            missing_checksum=missing_checksum,
            repaired=repair,
            backfilled=len(backfill),
        )

    @staticmethod
    def _check_blob(row) -> Optional[str]:
        """Why one record row is corrupt, or ``None`` if it is sound."""
        try:
            _checked_runs(row)
        except _CorruptBlob as error:
            return str(error)
        except Exception as error:  # whatever np.load raises for npz
            return f"undecodable runs blob: {type(error).__name__}: {error}"
        return None

    def _quarantine(
        self,
        corrupt: Sequence[CorruptRecord],
        backfill: Sequence[Tuple[str, str, int]],
    ) -> None:
        """Move corrupt rows aside and backfill legacy checksums.

        One transaction: a repair interrupted halfway must not leave a
        record deleted but unquarantined (or vice versa).
        """
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        with self._lock:
            for item in corrupt:
                self._conn.execute(
                    "INSERT OR REPLACE INTO quarantine (campaign_id,"
                    " scenario_index, name, reason, quarantined_at)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (
                        item.campaign_id,
                        item.scenario_index,
                        item.name,
                        item.reason,
                        stamp,
                    ),
                )
                self._conn.execute(
                    "DELETE FROM records WHERE campaign_id = ?"
                    " AND scenario_index = ?",
                    (item.campaign_id, item.scenario_index),
                )
            for checksum, cid, index in backfill:
                self._conn.execute(
                    "UPDATE records SET checksum = ? WHERE campaign_id = ?"
                    " AND scenario_index = ? AND checksum IS NULL",
                    (checksum, cid, index),
                )
            self._conn.commit()

    def quarantined(
        self, campaign_id: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """Quarantine-table rows (all campaigns, or one)."""
        query = "SELECT * FROM quarantine"
        values: tuple = ()
        if campaign_id is not None:
            query += " WHERE campaign_id = ?"
            values = (self.resolve(campaign_id),)
        query += " ORDER BY campaign_id, scenario_index"
        return [dict(row) for row in self._fetchall(query, values)]

    # ------------------------------------------------------------------
    # Export / comparison
    # ------------------------------------------------------------------
    def export_json(
        self,
        campaign_id: str,
        path: Union[str, Path],
        include_genomes: bool = True,
    ) -> Path:
        """Write one campaign as the standard campaign JSON export."""
        return self.resultset(campaign_id).to_json(
            path, include_genomes=include_genomes
        )

    def export_csv(self, campaign_id: str, path: Union[str, Path]) -> Path:
        """Write one campaign as the standard per-scenario CSV export."""
        return self.resultset(campaign_id).to_csv(path)

    def aggregates(self, campaign_id: str) -> dict:
        """Campaign-level aggregates from the indexed scalar columns.

        Matches :meth:`ResultSet.aggregates` without touching the
        per-run blobs — the per-record means/rates weighted by
        ``num_runs`` reproduce the run-level statistics exactly, so
        comparing large campaigns stays O(rows), not O(runs).
        """
        campaign_id = self.resolve(campaign_id)
        row = self._fetchone(
            "SELECT COUNT(*), SUM(num_runs),"
            " SUM(nmac_rate * num_runs),"
            " SUM(own_alert_rate * num_runs),"
            " SUM(mean_min_separation * num_runs),"
            " MIN(min_separation)"
            " FROM records WHERE campaign_id = ?",
            (campaign_id,),
        )
        scenarios, total_runs = row[0], int(row[1] or 0)
        if not total_runs:
            raise KeyError(f"campaign {campaign_id!r} has no records")
        wall_time = self._fetchone(
            "SELECT wall_time FROM campaigns WHERE campaign_id = ?",
            (campaign_id,),
        )[0]
        return {
            "scenarios": scenarios,
            "total_runs": total_runs,
            "nmac_count": int(round(row[2])),
            "nmac_rate": row[2] / total_runs,
            "alert_rate": row[3] / total_runs,
            "mean_min_separation": row[4] / total_runs,
            "worst_min_separation": row[5],
            "wall_time": wall_time,
        }

    def diff(self, campaign_a: str, campaign_b: str) -> CampaignDiff:
        """Compare two stored campaigns (e.g. unequipped vs equipped).

        Works entirely off the aggregate columns — no per-run blob is
        decoded, so diffing very large campaigns is cheap.
        """
        info_a = self.get_campaign(campaign_a)
        info_b = self.get_campaign(campaign_b)
        paired: Tuple[Tuple[int, float, float], ...] = ()
        if info_a.scenarios_digest == info_b.scenarios_digest:
            rows = self._fetchall(
                "SELECT a.scenario_index, a.nmac_rate, b.nmac_rate"
                " FROM records a JOIN records b"
                " ON a.scenario_index = b.scenario_index"
                " WHERE a.campaign_id = ? AND b.campaign_id = ?"
                " ORDER BY a.scenario_index",
                (info_a.campaign_id, info_b.campaign_id),
            )
            paired = tuple((r[0], r[1], r[2]) for r in rows)
        return CampaignDiff(
            a=info_a,
            b=info_b,
            aggregates_a=self.aggregates(info_a.campaign_id),
            aggregates_b=self.aggregates(info_b.campaign_id),
            paired_nmac=paired,
        )

    # ------------------------------------------------------------------
    # Row decoding
    # ------------------------------------------------------------------
    @staticmethod
    def _info(row: sqlite3.Row) -> CampaignInfo:
        return CampaignInfo(
            campaign_id=row["campaign_id"],
            created_at=row["created_at"],
            backend=row["backend"],
            equipage=row["equipage"],
            coordination=bool(row["coordination"]),
            runs_per_scenario=row["runs_per_scenario"],
            num_scenarios=row["num_scenarios"],
            completed=row["completed"],
            seed_entropy=_entropy_from_text(row["seed_entropy"]),
            wall_time=row["wall_time"],
            cpu_count=row["cpu_count"],
            metadata=json.loads(row["metadata"]),
            scenarios_digest=row["scenarios_digest"],
        )

    @staticmethod
    def _record(row: sqlite3.Row) -> RunRecord:
        """Decode one ``records`` row; a corrupt one raises ``ValueError``.

        Every read checks the blob (:func:`_checked_runs`), so a record
        damaged after it was written is refused by name instead of
        resuming as a result.
        """
        try:
            runs = _checked_runs(row)
        except _CorruptBlob as error:
            raise ValueError(
                f"stored record {row['campaign_id'][:12]}/"
                f"{row['scenario_index']} ({row['name']}) is corrupt: "
                f"{error}; run `repro store verify --repair` to "
                "quarantine it, and a re-run re-simulates it"
            ) from None
        genome = np.frombuffer(row["genome"], dtype=np.float64)
        return RunRecord(
            index=row["scenario_index"],
            name=row["name"],
            params=EncounterParameters.from_array(genome),
            runs=runs,
        )
