"""`repro.telemetry`: spans + metrics for campaigns, fleets, services.

Two halves, one doctrine (observable but never observable *in the
results*):

* **Tracing** — :func:`span` opens a span on the process-global
  :class:`~repro.telemetry.trace.Collector`.  Disarmed (the default)
  it returns a shared no-op object: no allocation beyond the kwargs
  dict, no clock reads, no locks — cheap enough to leave the hooks in
  the worker/queue/store seams permanently.  Arm with :func:`arm` (or
  the :func:`collect` context manager); child processes arm themselves
  from the queue job's ``trace`` metadata or from the trace context a
  process-pool task carries.

  Kernel phases are spans too: every megabatch kernel call hands its
  phase timers to :func:`record_phases`, which writes them as
  ``kernel.tape_draw`` / ``kernel.decision`` / ``kernel.physics`` /
  ``kernel.observe`` children of the open span (a ``campaign.chunk``
  on the serial and pool paths, a ``worker.simulate`` on a fleet).
  :func:`~repro.telemetry.trace.span_totals` sums any trace per span
  name — the phase split of a whole campaign.

* **Metrics** — every process owns :data:`REGISTRY` (workers keep a
  private registry so fallback in-process drains never double-count);
  see :mod:`repro.telemetry.metrics` for publication/aggregation.

Trace ids never enter :class:`CampaignSpec`: a traced campaign keeps
the bitwise-identical campaign id and results digest of its untraced
twin.  Span ids come from ``os.urandom``, not the seeded RNG.

Usage::

    from repro import telemetry

    with telemetry.collect("results.sqlite"):
        campaign.run(store=store)
    print(telemetry.render_trace(
        telemetry.load_spans("results.sqlite")))
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Tuple

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    REGISTRY,
    exposition,
    merge_samples,
)
from repro.telemetry.snapshot import assemble, scrape
from repro.telemetry.trace import (
    Collector,
    Span,
    critical_path,
    load_spans,
    new_id,
    render_trace,
    span_totals,
    span_tree,
    trace_payload,
)

__all__ = [
    "Collector",
    "DEFAULT_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "arm",
    "armed",
    "assemble",
    "collect",
    "collector",
    "critical_path",
    "current_span",
    "disarm",
    "ensure",
    "event",
    "exposition",
    "load_spans",
    "merge_samples",
    "new_id",
    "record_phases",
    "render_trace",
    "scrape",
    "span",
    "span_totals",
    "span_tree",
    "trace_context",
    "trace_payload",
]

_collector: Optional[Collector] = None


class _NoopSpan:
    """Shared do-nothing span for the disarmed path."""

    __slots__ = ()
    span_id = None
    trace_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def event(self, name, **attributes) -> None:
        return None


_NOOP = _NoopSpan()


def collector() -> Optional[Collector]:
    """The armed collector, if any.

    A collector inherited across ``fork`` is discarded (not closed —
    its sqlite handle and span buffer belong to the parent): the child
    re-arms from job metadata or its task's trace context with its own
    identity.
    """
    global _collector
    if _collector is not None and _collector.pid != os.getpid():
        _collector = None
    return _collector


def armed() -> bool:
    return collector() is not None


def arm(
    db_path: str,
    trace_id: Optional[str] = None,
    remote_parent: Optional[str] = None,
    process: Optional[str] = None,
) -> Collector:
    """Install a process-global collector writing spans to ``db_path``."""
    global _collector
    if _collector is not None:
        _collector.close()
    _collector = Collector(
        db_path, trace_id=trace_id, remote_parent=remote_parent,
        process=process,
    )
    return _collector


def ensure(
    db_path: str,
    trace_id: str,
    remote_parent: Optional[str] = None,
    process: Optional[str] = None,
) -> Collector:
    """Arm for ``(db, trace)`` unless the current collector already is.

    The worker's entry point: jobs from different traced submissions
    re-seat the collector; repeated chunks of one job reuse it.
    """
    current = collector()
    if (
        current is not None
        and current.trace_id == trace_id
        and current.db_path == str(db_path)
    ):
        return current
    return arm(
        db_path, trace_id=trace_id, remote_parent=remote_parent,
        process=process,
    )


def disarm() -> None:
    """Flush and remove the collector; hooks return to no-op cost."""
    global _collector
    if _collector is not None:
        _collector.close()
    _collector = None


@contextmanager
def collect(db_path: str, trace_id: Optional[str] = None):
    """Arm for the duration of a block, restoring the previous state."""
    global _collector
    previous = _collector
    _collector = Collector(db_path, trace_id=trace_id)
    try:
        yield _collector
    finally:
        _collector.close()
        _collector = previous


def span(name: str, **attributes):
    """Open a span (context manager); free when no collector is armed."""
    c = _collector
    if c is None:
        return _NOOP
    if c.pid != os.getpid():
        c = collector()
        if c is None:
            return _NOOP
    return c.start_span(name, attributes or None)


def current_span():
    c = _collector
    if c is None or c.pid != os.getpid():
        return None
    return c.current()


def record_phases(*phases: Tuple[str, float]) -> None:
    """Record ``(name, seconds)`` timers as children of the open span.

    For code that times its phases in bulk rather than as nested calls
    (the megabatch kernel).  The spans are *synthetic*: real totals,
    laid end to end from the parent's start in the order given, so the
    placement is reconstructed.  Disarmed, or with no span open, this
    returns at once.
    """
    c = _collector
    if c is None or c.pid != os.getpid():
        return
    parent = c.current()
    if parent is None:
        return
    attributes = {"synthetic": True, "campaign_id": parent.campaign_id}
    started_at = parent.started_at
    for name, seconds in phases:
        c.record(name, started_at, seconds, parent.span_id, attributes)
        started_at += seconds


def event(name: str, **attributes) -> None:
    """Attach an event to the current span, if one is open."""
    c = _collector
    if c is None or c.pid != os.getpid():
        return
    current = c.current()
    if current is not None:
        current.event(name, **attributes)


def trace_context() -> Optional[dict]:
    """Propagation payload for queue metadata and pool tasks."""
    c = collector()
    if c is None:
        return None
    return {
        "db": c.db_path,
        "trace_id": c.trace_id,
        "parent_id": c.root_id(),
    }
