"""`FleetSupervisor`: a self-healing local worker fleet.

The supervisor is how a script or ``repro fleet`` starts local worker
processes.  A fleet that merely spawned workers and joined them would
end one worker short each time one segfaults, gets OOM-killed, or
exits with :data:`~repro.distributed.worker.EXIT_HEARTBEAT_DEAD`.  The
supervisor spawns ``repro worker`` **subprocesses**, watches them (exit
codes, plus the queue's own heartbeat table for live-but-wedged
workers), and

- **restarts** crashed workers with exponential backoff — a SIGKILLed
  worker's chunk is reclaimed when its lease expires, and the
  replacement (or a surviving sibling) finishes the campaign;
- **detects crash loops**: a slot that crashes ``max_restarts`` times
  within ``restart_window`` seconds gives up instead of burning CPU
  forever, keeping the last lines of the worker's stderr as the
  diagnosis;
- **degrades gracefully**: one poisoned slot does not stop the others —
  the fleet finishes on fewer workers, and only if *every* slot gave up
  with work still queued does :meth:`FleetSupervisor.run` raise (naming
  that stderr).

Workers run in drain mode — exit status 0 means "queue drained" and is
never restarted — so ``repro fleet --workers N`` is a one-shot
campaign executor with worker-level fault tolerance, and the chaos
suite drives it with injected crash schedules via ``REPRO_FAULT_PLAN``
(the environment is inherited by the spawned workers).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

from repro import telemetry
from repro.distributed.queue import (
    DEFAULT_SKEW_MARGIN,
    WorkQueue,
)

#: How many trailing stderr bytes a crash report keeps per worker.
_STDERR_TAIL_BYTES = 4096

#: Each restart of a slot waits this many times longer than the last,
#: up to :data:`MAX_BACKOFF` seconds.
BACKOFF_FACTOR = 2.0
MAX_BACKOFF = 5.0


def _read_tail(path: str, limit: int = _STDERR_TAIL_BYTES) -> str:
    """The last *limit* bytes of a worker's stderr file, as text."""
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            if size > limit:
                handle.seek(size - limit)
            return handle.read().decode("utf-8", "replace").strip()
    except OSError:
        return ""


@dataclass
class WorkerEvent:
    """One observation in a fleet's life: an exit, restart, or give-up."""

    kind: str  # "exit" | "crash" | "restart" | "gave-up" | "stall-kill"
    slot: int
    worker_id: str
    returncode: Optional[int] = None
    stderr_tail: str = ""

    def describe(self) -> str:
        code = "" if self.returncode is None else f" (exit {self.returncode})"
        return f"[slot {self.slot}] {self.worker_id}: {self.kind}{code}"


@dataclass
class FleetReport:
    """What one supervised fleet run did."""

    workers: int
    restarts: int
    gave_up: int
    drained: bool
    wall_time: float
    events: List[WorkerEvent] = field(default_factory=list)
    last_stderr: str = ""

    def summary(self) -> str:
        """One line for logs and the ``repro fleet`` CLI."""
        status = "drained" if self.drained else "NOT drained"
        return (
            f"fleet: {self.workers} worker slot(s), "
            f"{self.restarts} restart(s), {self.gave_up} gave up, "
            f"{status} in {self.wall_time:.2f}s"
        )

    def tail(self, limit: int = 8) -> List[str]:
        """The last *limit* events, one line each — the at-a-glance
        incident log ``repro fleet`` prints even without ``--verbose``.
        """
        return [event.describe() for event in self.events[-limit:]]


class _Slot:
    """One supervised worker position and its restart history."""

    def __init__(self, index: int, backoff: float):
        self.index = index
        self.proc: Optional[subprocess.Popen] = None
        self.worker_id = ""
        self.state = "idle"  # idle|running|waiting|done|gave-up
        self.spawns = 0
        self.backoff = backoff
        self.resume_at = 0.0
        self.started_at = 0.0
        self.crash_times: Deque[float] = deque()
        self.stderr_path: Optional[str] = None
        self.last_stderr = ""


class FleetSupervisor:
    """Spawn, monitor, and heal a local fleet of worker processes.

    Parameters
    ----------
    queue:
        The shared work-queue database the workers drain.
    workers:
        Number of worker slots (concurrently live worker processes).
    campaign_id:
        Pin every worker to one campaign's chunks (what
        ``repro fleet --campaign`` uses).
    lease_seconds / poll_interval / skew_margin:
        Forwarded to each worker process.  The supervisor polls its
        workers at the same ``poll_interval``.
    restart_backoff:
        Exponential backoff between a slot's restarts: first restart
        after ``restart_backoff`` seconds, each further one
        :data:`BACKOFF_FACTOR` times later, capped at
        :data:`MAX_BACKOFF`.  A slot's backoff resets once its crashes
        age out of the window.
    max_restarts / restart_window:
        Crash-loop detection: a slot observing ``max_restarts`` crashes
        within ``restart_window`` seconds **gives up** (no further
        restarts).  The fleet degrades to the remaining slots; if all
        slots give up with work still queued, :meth:`run` raises.
    stall_timeout:
        When set, a worker process that is alive but whose queue
        heartbeat is older than this (and which has been running at
        least this long) is killed and treated as crashed — the
        escape hatch for wedged-but-breathing workers.
    command:
        Factory ``(slot_index, worker_id) -> argv`` overriding the
        spawned command — tests substitute cheap scripted processes.
        Defaults to ``python -m repro.cli worker ...``.
    """

    def __init__(
        self,
        queue: Union[str, Path],
        workers: int = 2,
        campaign_id: Optional[str] = None,
        lease_seconds: float = 15.0,
        poll_interval: float = 0.1,
        skew_margin: float = DEFAULT_SKEW_MARGIN,
        restart_backoff: float = 0.25,
        max_restarts: int = 5,
        restart_window: float = 60.0,
        stall_timeout: Optional[float] = None,
        command: Optional[Callable[[int, str], Sequence[str]]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        self.queue_path = str(queue)
        self.workers = workers
        self.campaign_id = campaign_id
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.skew_margin = skew_margin
        self.restart_backoff = restart_backoff
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        self.stall_timeout = stall_timeout
        self._command = command or self._default_command
        self._slots = [
            _Slot(index, restart_backoff) for index in range(workers)
        ]
        self._events: List[WorkerEvent] = []
        self._restarts = 0
        self._last_stderr = ""

    # ------------------------------------------------------------------
    # Introspection (tests SIGKILL real pids through this)
    # ------------------------------------------------------------------
    def pids(self) -> Dict[int, int]:
        """Live worker pids by slot index."""
        return {
            slot.index: slot.proc.pid
            for slot in self._slots
            if slot.proc is not None and slot.proc.poll() is None
        }

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _default_command(self, slot: int, worker_id: str) -> List[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--queue",
            self.queue_path,
            "--worker-id",
            worker_id,
            "--lease",
            str(self.lease_seconds),
            "--poll",
            str(self.poll_interval),
            "--skew-margin",
            str(self.skew_margin),
        ]
        if self.campaign_id:
            argv += ["--campaign", self.campaign_id]
        return argv

    def _start(self, slot: _Slot) -> None:
        slot.spawns += 1
        slot.worker_id = (
            f"sup-{os.getpid()}-{slot.index}.{slot.spawns}"
        )
        # Stderr goes to a file, not a pipe: nobody needs to pump it,
        # so a chatty worker can never deadlock on a full pipe buffer,
        # and the tail survives the process for crash reports.
        handle = tempfile.NamedTemporaryFile(
            mode="wb",
            prefix=f"repro-fleet-{slot.index}-",
            suffix=".stderr",
            delete=False,
        )
        slot.stderr_path = handle.name
        slot.proc = subprocess.Popen(
            list(self._command(slot.index, slot.worker_id)),
            stdout=subprocess.DEVNULL,
            stderr=handle,
        )
        handle.close()
        slot.state = "running"
        slot.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # The monitor loop
    # ------------------------------------------------------------------
    def run(self, timeout: Optional[float] = None) -> FleetReport:
        """Supervise the fleet until the queue drains (or all give up).

        Raises ``RuntimeError`` when every slot crash-looped into
        giving up while work remains queued (the message carries the
        last worker stderr), and ``TimeoutError`` when *timeout*
        elapses first (all workers are killed).
        """
        start = time.perf_counter()
        # Monotonic supervisor clock: deadlines, backoff resumption and
        # stall grace are all durations — a wall-clock step must not
        # restart workers early or fake a timeout.  Queue heartbeat
        # ages still come from the queue's own clock (see _stalled).
        deadline = None if timeout is None else time.monotonic() + timeout
        supervise_span = telemetry.span(
            "fleet.supervise", workers=self.workers,
            campaign_id=self.campaign_id,
        )
        with supervise_span, WorkQueue(
            self.queue_path, skew_margin=self.skew_margin
        ) as queue:
            for slot in self._slots:
                self._start(slot)
            try:
                while True:
                    now = time.monotonic()
                    if self._poll_slots(queue, now):
                        break
                    if deadline is not None and now > deadline:
                        self._kill_all()
                        raise TimeoutError(
                            f"fleet incomplete after {timeout}s "
                            f"({self._restarts} restart(s); "
                            f"queue {self.queue_path})"
                        )
                    time.sleep(self.poll_interval)
                # Failed chunks count as settled: diagnosing them is
                # Progress's job, the supervisor's is worker liveness.
                drained = queue.settled(self.campaign_id)
            finally:
                self._cleanup_stderr_files()
            gave_up = sum(
                1 for slot in self._slots if slot.state == "gave-up"
            )
            if not drained and gave_up == len(self._slots):
                stderr = self._last_stderr or "(no stderr captured)"
                raise RuntimeError(
                    f"fleet gave up: every worker slot crash-looped "
                    f"({self.max_restarts} crashes within "
                    f"{self.restart_window}s); work remains queued. "
                    f"Last worker stderr:\n{stderr}"
                )
            supervise_span.set(
                restarts=self._restarts, gave_up=gave_up, drained=drained,
            )
        return FleetReport(
            workers=self.workers,
            restarts=self._restarts,
            gave_up=gave_up,
            drained=drained,
            wall_time=time.perf_counter() - start,
            events=list(self._events),
            last_stderr=self._last_stderr,
        )

    def _poll_slots(self, queue: WorkQueue, now: float) -> bool:
        """Advance every slot one tick; ``True`` when all are settled."""
        settled = True
        for slot in self._slots:
            if slot.state == "running":
                returncode = slot.proc.poll()
                if returncode is None:
                    if self._stalled(queue, slot, now):
                        slot.proc.kill()
                        slot.proc.wait()
                        self._record(
                            "stall-kill", slot, returncode=None
                        )
                        # Falls through to the waiting check below:
                        # a stall-killed slot schedules its restart
                        # this same tick.
                        self._on_crash(slot, now, stalled=True)
                    else:
                        settled = False
                        continue
                elif returncode == 0:
                    # Drain-mode success: the queue had nothing left
                    # for this worker.  Never restarted.
                    slot.state = "done"
                    self._record("exit", slot, returncode=0)
                else:
                    self._record(
                        "crash", slot, returncode=returncode
                    )
                    self._on_crash(slot, now)
            if slot.state == "waiting":
                if now >= slot.resume_at:
                    self._start(slot)
                    self._restarts += 1
                    self._record("restart", slot)
                    settled = False
                else:
                    settled = False
        return settled

    def _stalled(self, queue: WorkQueue, slot: _Slot, now: float) -> bool:
        """Alive but heartbeat-silent past ``stall_timeout``?"""
        if self.stall_timeout is None:
            return False
        if now - slot.started_at < self.stall_timeout:
            return False  # still within startup grace
        queue_now = queue.now()
        for info in queue.workers():
            if info.worker_id == slot.worker_id:
                return queue_now - info.heartbeat > self.stall_timeout
        # Never registered a heartbeat despite running past the grace
        # period: wedged before its first claim attempt.
        return True

    def _on_crash(
        self, slot: _Slot, now: float, stalled: bool = False
    ) -> None:
        slot.last_stderr = (
            _read_tail(slot.stderr_path) if slot.stderr_path else ""
        )
        if slot.last_stderr:
            self._last_stderr = slot.last_stderr
        slot.crash_times.append(now)
        while (
            slot.crash_times
            and now - slot.crash_times[0] > self.restart_window
        ):
            slot.crash_times.popleft()
        if len(slot.crash_times) >= self.max_restarts:
            slot.state = "gave-up"
            self._record("gave-up", slot)
            return
        if len(slot.crash_times) == 1:
            # First crash in a fresh window: start the ladder over.
            slot.backoff = self.restart_backoff
        slot.state = "waiting"
        slot.resume_at = now + slot.backoff
        slot.backoff = min(slot.backoff * BACKOFF_FACTOR, MAX_BACKOFF)

    def _record(
        self,
        kind: str,
        slot: _Slot,
        returncode: Optional[int] = None,
    ) -> None:
        """Log one fleet event — unconditionally, into three sinks.

        The in-memory list feeds :class:`FleetReport` (and its
        :meth:`~FleetReport.tail`), the metrics registry counts it for
        ``/metrics``, and when tracing is armed it lands as an event on
        the supervise span — none of which is gated on ``--verbose``,
        which only controls live printing.
        """
        self._events.append(
            WorkerEvent(
                kind=kind,
                slot=slot.index,
                worker_id=slot.worker_id,
                returncode=returncode,
                stderr_tail=slot.last_stderr if kind != "exit" else "",
            )
        )
        telemetry.REGISTRY.counter(
            "repro_supervisor_events_total",
            "Fleet supervisor events by kind"
            " (exit/crash/restart/gave-up/stall-kill).",
        ).inc(kind=kind)
        telemetry.event(
            f"fleet:{kind}", slot=slot.index, worker_id=slot.worker_id,
            returncode=returncode,
        )

    def _kill_all(self) -> None:
        for slot in self._slots:
            if slot.proc is not None and slot.proc.poll() is None:
                slot.proc.kill()
                slot.proc.wait()

    def _cleanup_stderr_files(self) -> None:
        for slot in self._slots:
            if slot.stderr_path:
                slot.last_stderr = (
                    slot.last_stderr or _read_tail(slot.stderr_path)
                )
                try:
                    os.unlink(slot.stderr_path)
                except OSError:
                    pass
