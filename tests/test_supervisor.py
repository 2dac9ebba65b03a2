"""Tests for the self-healing fleet supervisor (`repro fleet`).

The supervisor's contract: crashed worker subprocesses are restarted
(their chunks reclaimed via lease expiry), a crash-looping slot gives
up after ``max_restarts`` crashes within ``restart_window`` instead of
burning CPU forever, one poisoned slot degrades the fleet rather than
stopping it, and only when *every* slot has given up with work still
queued does the run raise — naming the last worker's stderr.

Crash-loop and degradation mechanics run with cheap scripted
subprocesses via the ``command=`` seam; one ``slow`` test SIGKILLs a
real worker mid-campaign and asserts the healed fleet's results are
bitwise identical to the serial run.
"""

import signal
import sys
import threading
import time

import pytest

from repro.distributed import FleetSupervisor, WorkQueue
from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, SampledSource
from repro.store import ResultStore
from repro.store.spec import results_digest

SCENARIOS = 5
RUNS = 3
SEED = 11


def make_campaign(scenarios: int = SCENARIOS, **kwargs) -> Campaign:
    return Campaign(
        SampledSource(StatisticalEncounterModel(), scenarios),
        equipage="none",
        runs_per_scenario=RUNS,
        **kwargs,
    )


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "queue.sqlite", tmp_path / "store.sqlite"


def crashing_command(message="boom", code=2):
    """A factory for subprocesses that write *message* and die."""

    def factory(slot, worker_id):
        return [
            sys.executable, "-c",
            f"import sys; sys.stderr.write({message!r}); sys.exit({code})",
        ]

    return factory


def sleeper_command(slot, worker_id):
    """A subprocess that never claims, never heartbeats, never exits."""
    return [sys.executable, "-c", "import time; time.sleep(600)"]


def submit_campaign(queue_path, store_path, chunk_size=1):
    campaign = make_campaign()
    run = campaign.submit(
        seed=SEED, queue=queue_path, store=store_path,
        chunk_size=chunk_size,
    )
    return campaign, run


class TestCrashLoop:
    def test_all_slots_crash_looping_gives_up_with_stderr(self, paths):
        queue_path, store_path = paths
        submit_campaign(queue_path, store_path)
        supervisor = FleetSupervisor(
            queue_path,
            workers=2,
            restart_backoff=0.01,
            max_restarts=3,
            restart_window=60.0,
            poll_interval=0.01,
            command=crashing_command("boom: table file missing"),
        )
        with pytest.raises(RuntimeError) as excinfo:
            supervisor.run(timeout=30)
        message = str(excinfo.value)
        assert "fleet gave up" in message
        assert "boom: table file missing" in message
        # Each slot crashed max_restarts times, restarted in between.
        kinds = [event.kind for event in supervisor._events]
        assert kinds.count("gave-up") == 2
        assert kinds.count("crash") == 2 * 3
        assert kinds.count("restart") == 2 * (3 - 1)
        # No work was lost — every chunk is still queued for a
        # healthy fleet to pick up later.
        with WorkQueue(queue_path) as queue:
            tally = queue.chunk_counts(
                list(queue.counts().keys())[0]
            )
            assert tally.pending == SCENARIOS

    def test_empty_queue_drains_without_restarts(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path):
            pass  # create the database; nothing queued
        report = FleetSupervisor(
            queue_path, workers=2, poll_interval=0.01
        ).run(timeout=60)
        assert report.drained
        assert report.restarts == 0 and report.gave_up == 0
        assert "drained" in report.summary()

    def test_crash_of_an_idle_fleet_is_not_an_error(self, paths):
        # Workers crash-loop but the queue holds no work: give-up with
        # nothing queued is a degraded success, not a RuntimeError.
        queue_path, _ = paths
        with WorkQueue(queue_path):
            pass
        report = FleetSupervisor(
            queue_path,
            workers=1,
            restart_backoff=0.01,
            max_restarts=2,
            poll_interval=0.01,
            command=crashing_command(),
        ).run(timeout=30)
        assert report.gave_up == 1
        assert report.drained  # vacuously: nothing was queued
        assert report.last_stderr == "boom"


class TestDegradation:
    def test_one_poisoned_slot_degrades_not_fails(self, paths):
        queue_path, store_path = paths
        campaign, run = submit_campaign(queue_path, store_path)
        serial = make_campaign().run(seed=SEED)
        supervisor = FleetSupervisor(
            queue_path,
            workers=2,
            lease_seconds=5.0,
            poll_interval=0.05,
            restart_backoff=0.01,
            max_restarts=2,
        )
        default = supervisor._default_command

        def mixed(slot, worker_id):
            if slot == 0:
                return crashing_command("poisoned slot")(slot, worker_id)
            return default(slot, worker_id)

        supervisor._command = mixed
        report = supervisor.run(timeout=120)
        assert report.drained
        assert report.gave_up == 1  # slot 0 crash-looped out
        with ResultStore(store_path) as store:
            assert store.verify(campaign_id=run.campaign_id).ok
            final = store.resultset(run.campaign_id)
        assert results_digest(final) == results_digest(serial)


class TestStallDetection:
    def test_wedged_worker_is_killed_and_counted_as_crash(self, paths):
        queue_path, store_path = paths
        submit_campaign(queue_path, store_path)
        supervisor = FleetSupervisor(
            queue_path,
            workers=1,
            restart_backoff=0.01,
            max_restarts=2,
            stall_timeout=0.5,
            poll_interval=0.05,
            command=sleeper_command,
        )
        with pytest.raises(RuntimeError, match="fleet gave up"):
            supervisor.run(timeout=30)
        kinds = [event.kind for event in supervisor._events]
        assert "stall-kill" in kinds

    def test_timeout_kills_the_fleet(self, paths):
        queue_path, store_path = paths
        submit_campaign(queue_path, store_path)
        supervisor = FleetSupervisor(
            queue_path,
            workers=1,
            poll_interval=0.05,
            command=sleeper_command,
        )
        with pytest.raises(TimeoutError):
            supervisor.run(timeout=0.5)
        assert supervisor.pids() == {}  # nothing left running


@pytest.mark.slow
class TestRealFleet:
    def test_sigkilled_worker_is_replaced_and_results_bitwise(
        self, paths
    ):
        import os

        queue_path, store_path = paths
        campaign, run = submit_campaign(queue_path, store_path)
        serial = make_campaign().run(seed=SEED)
        supervisor = FleetSupervisor(
            queue_path,
            workers=2,
            campaign_id=run.campaign_id,
            lease_seconds=1.0,
            poll_interval=0.05,
            restart_backoff=0.05,
        )
        outcome = {}

        def drive():
            outcome["report"] = supervisor.run(timeout=300)

        thread = threading.Thread(target=drive)
        thread.start()
        # Assassinate the first worker that comes up.
        deadline = time.time() + 60
        while not supervisor.pids() and time.time() < deadline:
            time.sleep(0.02)
        pids = supervisor.pids()
        assert pids, "no worker ever started"
        os.kill(next(iter(pids.values())), signal.SIGKILL)
        thread.join(timeout=300)
        assert not thread.is_alive()
        report = outcome["report"]
        assert report.drained
        assert report.restarts >= 1
        assert report.gave_up == 0
        with ResultStore(store_path) as store:
            assert store.verify(campaign_id=run.campaign_id).ok
            final = store.resultset(run.campaign_id)
        assert results_digest(final) == results_digest(serial)
