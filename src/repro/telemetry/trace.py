"""Span tracer: cross-process campaign traces in a per-store sqlite table.

A :class:`Collector` is armed per process and writes finished spans
into a ``spans`` table living in the same sqlite file as the result
store, so a campaign's trace travels with its results.  Spans carry a
``trace_id`` shared across processes: the coordinator stamps it into
the queue job's metadata, workers pick it up and parent their chunk
spans to the coordinator's root span — no collector daemon, no
sockets, same crash-safe WAL transport as the queue and store.

Timing discipline: ``duration`` is a ``perf_counter`` delta (immune to
wall-clock skew, the PR-5 rule); ``started_at`` is a wall-clock anchor
used only to align spans from different hosts on one waterfall.

Span ids come from ``os.urandom`` — never the campaign's seeded RNG —
so tracing cannot perturb bitwise determinism.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.sqlite import open_schema

__all__ = [
    "Collector",
    "Span",
    "critical_path",
    "load_spans",
    "new_id",
    "render_trace",
    "span_totals",
    "span_tree",
    "trace_payload",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS spans (
    span_id    TEXT PRIMARY KEY,
    trace_id   TEXT NOT NULL,
    parent_id  TEXT,
    name       TEXT NOT NULL,
    campaign_id TEXT,
    process    TEXT NOT NULL,
    started_at REAL NOT NULL,
    duration   REAL,
    status     TEXT NOT NULL DEFAULT 'ok',
    attributes TEXT NOT NULL DEFAULT '{}',
    events     TEXT NOT NULL DEFAULT '[]'
);
CREATE INDEX IF NOT EXISTS idx_spans_trace ON spans (trace_id);
CREATE INDEX IF NOT EXISTS idx_spans_campaign ON spans (campaign_id);
"""

_FLUSH_THRESHOLD = 64


def new_id() -> str:
    """16-hex-char id from the OS entropy pool (never the sim RNG)."""
    return os.urandom(8).hex()


class Span:
    """One timed operation; context-manager use records errors."""

    __slots__ = (
        "span_id", "trace_id", "parent_id", "name", "campaign_id",
        "process", "started_at", "duration", "status", "attributes",
        "events", "_t0", "_collector",
    )

    def __init__(
        self,
        collector: "Collector",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Optional[dict] = None,
    ):
        self._collector = collector
        self.span_id = new_id()
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = dict(attributes or {})
        self.campaign_id = self.attributes.get("campaign_id")
        self.process = collector.process
        self.events: List[dict] = []
        self.status = "ok"
        # repro-lint: ok[R2] span-start epoch, stored/reported only: it
        # anchors the waterfall on the wall clock so spans from
        # different hosts line up; every duration and event offset is
        # computed from the perf_counter t0 below.
        self.started_at = time.time()
        self.duration: Optional[float] = None
        self._t0 = time.perf_counter()

    def set(self, **attributes) -> "Span":
        self.attributes.update(attributes)
        if "campaign_id" in attributes:
            self.campaign_id = attributes["campaign_id"]
        return self

    def event(self, name: str, **attributes) -> None:
        self.events.append({
            "name": name,
            "offset": time.perf_counter() - self._t0,
            **attributes,
        })

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", repr(exc))
        self._collector.end_span(self)
        return False

    def row(self) -> Tuple:
        return (
            self.span_id, self.trace_id, self.parent_id, self.name,
            self.campaign_id, self.process, self.started_at,
            self.duration, self.status,
            json.dumps(self.attributes, default=str, sort_keys=True),
            json.dumps(self.events, default=str),
        )


class Collector:
    """Per-process span sink writing the store-file ``spans`` table.

    ``remote_parent`` seats this process's root spans under a span
    started elsewhere (the coordinator's), keeping one connected tree
    per campaign across the fleet.
    """

    def __init__(
        self,
        db_path: str,
        trace_id: Optional[str] = None,
        remote_parent: Optional[str] = None,
        process: Optional[str] = None,
    ):
        self.db_path = str(db_path)
        self.trace_id = trace_id or new_id()
        self.remote_parent = remote_parent
        self.process = process or f"pid-{os.getpid()}"
        #: Owning pid: a forked child inheriting this collector must
        #: not use it (stale sqlite handle, wrong process name) — the
        #: module facade checks this and re-arms.
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffer: List[Tuple] = []
        self._conn: Optional[sqlite3.Connection] = None

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def root_id(self) -> Optional[str]:
        """Id of this thread's bottom-most open span (trace anchor)."""
        stack = self._stack()
        return stack[0].span_id if stack else self.remote_parent

    def start_span(self, name: str, attributes: Optional[dict] = None) -> Span:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else self.remote_parent
        span = Span(self, name, self.trace_id, parent_id, attributes)
        if span.campaign_id is None and stack:
            span.campaign_id = stack[-1].campaign_id
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._t0
        stack = self._stack()
        if span in stack:
            del stack[stack.index(span):]
        with self._lock:
            self._buffer.append(span.row())
            drain = not stack or len(self._buffer) >= _FLUSH_THRESHOLD
        if drain:
            self.flush()

    def record(
        self,
        name: str,
        started_at: float,
        duration: float,
        parent_id: Optional[str],
        attributes: Optional[dict] = None,
        status: str = "ok",
    ) -> str:
        """Write an already-timed span (kernel phase timers)."""
        span = Span(self, name, self.trace_id, parent_id, attributes)
        span.started_at = started_at
        span.duration = duration
        span.status = status
        with self._lock:
            self._buffer.append(span.row())
        return span.span_id

    # -- persistence ----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            conn = sqlite3.connect(
                self.db_path, timeout=30.0, check_same_thread=False,
            )
            conn.execute("PRAGMA busy_timeout=30000")
            open_schema(conn, _SCHEMA)
            conn.commit()
            self._conn = conn
        return self._conn

    def flush(self) -> None:
        with self._lock:
            rows, self._buffer = self._buffer, []
        if not rows:
            return
        conn = self._connect()
        with self._lock:
            conn.executemany(
                "INSERT OR REPLACE INTO spans VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            conn.commit()

    def close(self) -> None:
        self.flush()
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


# -- reading traces back ------------------------------------------------


def load_spans(
    db_path: str,
    campaign_id: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> List[dict]:
    """Spans for one trace, as dicts, oldest first.

    With only a ``campaign_id``, picks that campaign's most recent
    trace (latest root ``started_at``).
    """
    conn = sqlite3.connect(db_path, timeout=30.0)
    conn.row_factory = sqlite3.Row
    try:
        tables = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "spans" not in tables:
            return []
        if trace_id is None and campaign_id is not None:
            row = conn.execute(
                "SELECT trace_id FROM spans WHERE campaign_id LIKE ? "
                "ORDER BY started_at DESC LIMIT 1",
                (campaign_id + "%",),
            ).fetchone()
            if row is None:
                return []
            trace_id = row["trace_id"]
        if trace_id is None:
            row = conn.execute(
                "SELECT trace_id FROM spans ORDER BY started_at DESC LIMIT 1"
            ).fetchone()
            if row is None:
                return []
            trace_id = row["trace_id"]
        rows = conn.execute(
            "SELECT * FROM spans WHERE trace_id = ? ORDER BY started_at",
            (trace_id,),
        ).fetchall()
    finally:
        conn.close()
    out = []
    for row in rows:
        span = dict(row)
        span["attributes"] = json.loads(span.get("attributes") or "{}")
        span["events"] = json.loads(span.get("events") or "[]")
        out.append(span)
    return out


def span_tree(spans: Sequence[dict]) -> List[dict]:
    """Nest spans by parent id; returns the list of roots.

    Spans whose parent never landed (a crashed process) surface as
    extra roots rather than disappearing.
    """
    by_id: Dict[str, dict] = {}
    for span in spans:
        node = dict(span)
        node["children"] = []
        by_id[node["span_id"]] = node
    roots: List[dict] = []
    for node in by_id.values():
        parent = by_id.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def start(node: dict) -> float:
        return node.get("started_at") or 0.0
    for node in by_id.values():
        node["children"].sort(key=start)
    roots.sort(key=start)
    return roots


def _end(node: dict) -> float:
    return (node.get("started_at") or 0.0) + (node.get("duration") or 0.0)


def critical_path(roots: Sequence[dict]) -> List[str]:
    """Span ids on the latest-finishing chain from root to leaf."""
    if not roots:
        return []
    node = max(roots, key=_end)
    path = [node["span_id"]]
    while node["children"]:
        node = max(node["children"], key=_end)
        path.append(node["span_id"])
    return path


def span_totals(spans: Sequence[dict]) -> Dict[str, dict]:
    """Per-span-name ``{"count", "seconds"}``, largest total first.

    Over a campaign's trace this is its layer split — the four
    ``kernel.*`` phases included — summed across every process.
    """
    totals: Dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += span.get("duration") or 0.0
    return dict(
        sorted(totals.items(), key=lambda item: -item[1]["seconds"])
    )


def trace_payload(spans: Sequence[dict]) -> dict:
    """The ``GET /campaigns/{id}/trace`` body: tree + summary."""
    roots = span_tree(spans)
    processes = sorted({span["process"] for span in spans})
    campaigns = sorted({
        span["campaign_id"] for span in spans if span.get("campaign_id")
    })

    def strip(node: dict) -> dict:
        return {
            "span_id": node["span_id"],
            "parent_id": node.get("parent_id"),
            "name": node["name"],
            "process": node["process"],
            "started_at": node.get("started_at"),
            "duration": node.get("duration"),
            "status": node.get("status", "ok"),
            "attributes": node.get("attributes", {}),
            "events": node.get("events", []),
            "children": [strip(child) for child in node["children"]],
        }

    return {
        "trace_id": spans[0]["trace_id"] if spans else None,
        "campaign_ids": campaigns,
        "span_count": len(spans),
        "processes": processes,
        "critical_path": critical_path(roots),
        "totals": span_totals(spans),
        "roots": [strip(root) for root in roots],
    }


def render_trace(spans: Sequence[dict], width: int = 32) -> str:
    """Text waterfall: indent = depth, bar = when, ``*`` = critical path.

    Offsets are wall-clock relative to the earliest span and clamped
    at zero, so modest cross-host skew degrades the picture, not the
    renderer.
    """
    if not spans:
        return "(no spans)"
    roots = span_tree(spans)
    critical = set(critical_path(roots))
    t0 = min(span.get("started_at") or 0.0 for span in spans)
    t1 = max(_end(span) for span in spans)
    window = max(t1 - t0, 1e-9)
    lines = [
        f"trace {spans[0]['trace_id']} · {len(spans)} spans · "
        f"{len({s['process'] for s in spans})} processes · "
        f"{window:.3f}s wall window"
    ]

    def walk(node: dict, depth: int) -> None:
        offset = max((node.get("started_at") or t0) - t0, 0.0)
        duration = node.get("duration") or 0.0
        left = int(round(offset / window * width))
        bar_len = max(int(round(duration / window * width)), 1)
        left = min(left, width - 1)
        bar_len = min(bar_len, width - left)
        bar = " " * left + "▇" * bar_len
        mark = "*" if node["span_id"] in critical else " "
        status = "" if node.get("status") == "ok" else " !" + str(
            node.get("status"))
        label = "  " * depth + node["name"]
        lines.append(
            f"{mark}{label:<38.38} {offset:>8.3f}s {duration:>8.3f}s "
            f"|{bar:<{width}}|{status} [{node['process']}]"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    crit_time = sum(
        (span.get("duration") or 0.0)
        for span in spans if span["span_id"] in critical
    )
    lines.append(
        f"critical path: {len(critical)} spans, {crit_time:.3f}s summed"
    )
    lines.append("totals per span name:")
    for name, total in span_totals(spans).items():
        lines.append(
            f"  {name:<36.36} {total['count']:>6}x {total['seconds']:>9.3f}s"
        )
    return "\n".join(lines)
