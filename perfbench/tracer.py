"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the program: :meth:`Tracer.installed`
swaps a timing wrapper in for each listed public method (class
attributes, or a module function looked up at call time) and restores
the originals on exit, so nothing under ``src/`` changes.  A span is
``(id, parent, name, start, end, phase, round, attrs)``; parents come
from a per-thread stack, so a kernel call made inside ``Campaign.run``
is that campaign span's child.  Spans stay in memory until the run ends
and are then written out with the result (see ``run.py``).

Work done inside pool or fleet child processes is invisible here: a
wrapper inherited by a forked child passes straight through.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (owner, attribute, span name, attrs(*args, **kwargs) -> dict or None)
Target = Tuple[object, str, str, Optional[Callable[..., dict]]]


class Tracer:
    """Collects spans; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.phase = "setup"
        self.round: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "phase": self.phase,
                "round": self.round, "attrs": attrs,
            })

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target for the duration of the ``with`` body."""
        patches = []
        try:
            for owner, attr, name, attrs_of in targets:
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, attrs_of))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _wrap(self, original, name: str, attrs_of):
        binder = type(original) if isinstance(
            original, (classmethod, staticmethod)
        ) else None
        func = original.__func__ if binder else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:  # forked pool child
                return func(*args, **kwargs)
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with tracer.span(name, **attrs):
                return func(*args, **kwargs)

        return binder(traced) if binder else traced


def self_times(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total duration and total self time.

    A span's self time is its duration minus the part of that interval
    its child spans cover (children are merged first, so overlapping
    children on other threads are not subtracted twice).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        duration = span["end"] - span["start"]
        row = out.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered
    return out


def within(spans: List[dict], ancestor: str) -> List[dict]:
    """The spans that have a span named *ancestor* above them."""
    by_id = {span["id"]: span for span in spans}

    def has_ancestor(span) -> bool:
        parent = span["parent"]
        while parent is not None:
            above = by_id.get(parent)
            if above is None:
                return False
            if above["name"] == ancestor:
                return True
            parent = above["parent"]
        return False

    return [span for span in spans if has_ancestor(span)]


def busy(spans: Iterable[dict], name: str) -> float:
    """Total duration of the spans called *name*."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def count(spans: Iterable[dict], name: str) -> int:
    """Number of spans called *name*."""
    return sum(1 for s in spans if s["name"] == name)


def attr_sum(spans: Iterable[dict], name: str, key: str) -> int:
    """Sum of one integer attribute over the spans called *name*."""
    return sum(int(s["attrs"].get(key, 0)) for s in spans if s["name"] == name)
