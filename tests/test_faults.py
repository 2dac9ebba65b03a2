"""Chaos suite: seeded fault injection through the production seams.

The contract under test is the issue's acceptance criterion: a
campaign executed under a seeded :class:`~repro.faults.FaultPlan` —
worker crashes at every stage of chunk execution, lease churn, busy
storms, torn and duplicated store writes — must finish with a results
digest **bitwise identical** to the undisturbed serial run of the same
campaign and seed.  Planted corruption must be caught by
``ResultStore.verify``, quarantined by ``--repair``, and healed by
resume with *exactly* the damaged scenarios re-simulated.

The crash harness here is in-process: each
:class:`~repro.faults.InjectedWorkerCrash` models one process death
(the worker's lease is left to expire, exactly like a SIGKILL), and
the harness "restarts" the worker with a fresh :class:`Worker` the way
a supervisor would.  Real-subprocess supervision is covered in
``test_supervisor.py``.
"""

import sqlite3
import threading
import time

import pytest

from repro import faults
from repro.distributed import (
    EXIT_HEARTBEAT_DEAD,
    Worker,
    WorkQueue,
)
from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, SampledSource
from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedWorkerCrash,
)
from repro.service import CampaignService, Watchlist, WatchlistThread, make_app
from repro.service.testing import ServiceClient
from repro.store import ResultStore
from repro.store.spec import results_digest

SCENARIOS = 5
RUNS = 3
SEED = 11

#: Unequipped named-scenario spec for service-level tests (no table).
SERVICE_SPEC = {
    "scenarios": ["head_on", "tail_approach"],
    "runs": 2,
    "seed": 5,
    "equipage": "none",
    "wait": True,
    "timeout": 60,
}


def make_campaign(scenarios: int = SCENARIOS, **kwargs) -> Campaign:
    """A tiny unequipped campaign (no logic table: fast to simulate)."""
    return Campaign(
        SampledSource(StatisticalEncounterModel(), scenarios),
        equipage="none",
        runs_per_scenario=RUNS,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def disarm_faults():
    """No plan leaks into (or out of) any test."""
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "queue.sqlite", tmp_path / "store.sqlite"


def drain_with_restarts(queue_path, lease=0.4, max_deaths=20):
    """Drain the queue, restarting after every injected worker death.

    Returns ``(deaths, stats_list)`` — one stats entry per worker
    incarnation that exited cleanly or died.
    """
    deaths = 0
    stats_list = []
    for _ in range(max_deaths + 1):
        worker = Worker(
            queue_path,
            worker_id=f"chaos-{deaths}",
            lease_seconds=lease,
            poll_interval=0.02,
        )
        try:
            stats_list.append(worker.run())
            return deaths, stats_list
        except InjectedWorkerCrash:
            deaths += 1
    raise AssertionError(
        f"worker died more than {max_deaths} times; runaway schedule"
    )


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_times_schedule_fires_exactly_those_calls(self):
        plan = FaultPlan(seed=0, rules=[FaultRule("p", times=(2, 5))])
        fired = [plan.fire("p") is not None for _ in range(6)]
        assert fired == [False, True, False, False, True, False]
        assert plan.calls("p") == 6
        assert plan.fired("p") == 2
        assert [event.call for event in plan.events] == [2, 5]

    def test_rate_schedule_replays_exactly_from_seed(self):
        def pattern(plan, calls=200):
            return [plan.fire("p") is not None for _ in range(calls)]

        rule = FaultRule("p", rate=0.3)
        first = pattern(FaultPlan(seed=7, rules=[rule]))
        again = pattern(FaultPlan(seed=7, rules=[rule]))
        other = pattern(FaultPlan(seed=8, rules=[rule]))
        assert first == again
        assert first != other
        assert 20 < sum(first) < 120  # sanity: the rate is honored

    def test_points_draw_independent_streams(self):
        plan = FaultPlan(
            seed=7,
            rules=[FaultRule("a", rate=0.5), FaultRule("b", rate=0.5)],
        )
        pattern_a = [plan.fire("a") is not None for _ in range(100)]
        pattern_b = [plan.fire("b") is not None for _ in range(100)]
        assert pattern_a != pattern_b

    def test_max_fires_caps_a_rule(self):
        plan = FaultPlan(
            seed=0, rules=[FaultRule("p", rate=1.0, max_fires=3)]
        )
        fires = sum(plan.fire("p") is not None for _ in range(10))
        assert fires == 3

    def test_unruled_points_never_fire_but_are_counted(self):
        plan = FaultPlan(seed=0, rules=[FaultRule("p", times=(1,))])
        assert plan.fire("other") is None
        assert plan.calls("other") == 1
        assert plan.fired("other") == 0

    def test_json_round_trip_preserves_the_schedule(self):
        plan = FaultPlan(
            seed=42,
            rules=[
                FaultRule("a", rate=0.25, max_fires=2, delay=0.5),
                FaultRule("b", times=(1, 3), skew=-2.0),
            ],
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.rules == plan.rules
        for _ in range(50):
            assert (plan.fire("a") is None) == (clone.fire("a") is None)
            assert (plan.fire("b") is None) == (clone.fire("b") is None)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("p", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule("p", times=(0,))
        with pytest.raises(ValueError):
            FaultRule("")
        with pytest.raises(ValueError):
            FaultPlan(rules=[FaultRule("p"), FaultRule("p")])

    def test_env_var_arms_a_fresh_process(self, monkeypatch):
        plan = FaultPlan(seed=3, rules=[FaultRule("p", times=(1,))])
        monkeypatch.setenv(faults.PLAN_ENV, plan.to_json())
        faults.clear()  # simulate a fresh process: nothing installed
        active = faults.active_plan()
        assert active is not None
        assert active.rules == plan.rules
        # An explicit install — even of None — overrides the env.
        faults.install(None)
        assert faults.active_plan() is None

    def test_inject_scopes_and_restores(self):
        outer = FaultPlan(seed=1, rules=[FaultRule("p", times=(1,))])
        inner = FaultPlan(seed=2, rules=[FaultRule("q", times=(1,))])
        faults.install(outer)
        with faults.inject(inner):
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer

    def test_hooks_are_noops_without_a_plan(self):
        assert faults.fire("p") is None
        faults.maybe_crash("p")  # must not raise
        assert faults.clock_skew("p") == 0.0


# ----------------------------------------------------------------------
# Queue seam: busy storms
# ----------------------------------------------------------------------
class TestQueueBusyStorm:
    def _submit(self, queue):
        return queue.submit_job(
            "c1", "store.sqlite", b"spec", RUNS, 2,
            [b"chunk0", b"chunk1"],
        )

    def test_transient_storm_is_absorbed_by_the_retry_loop(self, paths):
        queue_path, _ = paths
        plan = FaultPlan(
            seed=0, rules=[FaultRule("queue.write", times=(1, 2))]
        )
        with faults.inject(plan), WorkQueue(queue_path) as queue:
            assert self._submit(queue) == 2
            assert queue.chunk_counts("c1").total == 2
        assert plan.fired("queue.write") == 2

    def test_persistent_storm_finally_surfaces(self, paths):
        queue_path, _ = paths
        # Every retry attempt of one transaction fails: the queue must
        # give up loudly, not spin forever.
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule("queue.write", times=(1, 2, 3, 4, 5))],
        )
        with faults.inject(plan), WorkQueue(queue_path) as queue:
            with pytest.raises(sqlite3.OperationalError):
                self._submit(queue)
            # The queue stays usable once the storm passes.
            assert self._submit(queue) == 2


# ----------------------------------------------------------------------
# Store seam: torn and duplicate writes, verify/repair/heal
# ----------------------------------------------------------------------
class TestStoreIntegrity:
    def test_torn_write_detected_quarantined_and_healed(self, tmp_path):
        campaign = make_campaign()
        serial = campaign.run(seed=SEED)
        plan = FaultPlan(
            seed=0, rules=[FaultRule("store.write.torn", times=(2,))]
        )
        with ResultStore(tmp_path / "store.sqlite") as store:
            with faults.inject(plan):
                campaign.run(seed=SEED, store=store)
            assert plan.fired("store.write.torn") == 1

            report = store.verify()
            assert not report.ok
            assert len(report.corrupt) == 1
            assert "checksum mismatch" in report.corrupt[0].reason
            damaged_index = report.corrupt[0].scenario_index

            repaired = store.verify(repair=True)
            assert repaired.ok and repaired.repaired
            quarantined = store.quarantined()
            assert [row["scenario_index"] for row in quarantined] == [
                damaged_index
            ]

            # Resume re-simulates exactly the quarantined scenario.
            healed = campaign.run(seed=SEED, store=store)
            assert healed.metadata["simulated"] == 1
            assert healed.metadata["loaded"] == SCENARIOS - 1
            assert store.verify().ok
            assert results_digest(healed) == results_digest(serial)

    def test_repair_then_resubmit_heals_through_the_queue(self, paths):
        # The queue-path twin of the serial resume test above: after
        # ``--repair`` the job's chunks are all settled, so a re-submit
        # tops the job up with exactly the quarantined scenarios and a
        # plain worker re-simulates them.
        queue_path, store_path = paths
        campaign = make_campaign()
        serial = make_campaign().run(seed=SEED)
        run = campaign.submit(
            seed=SEED, queue=queue_path, store=store_path, chunk_size=1
        )
        plan = FaultPlan(
            seed=0, rules=[FaultRule("store.write.torn", times=(2,))]
        )
        with faults.inject(plan):
            Worker(queue_path, poll_interval=0.02).run()
        assert plan.fired("store.write.torn") == 1
        with ResultStore(store_path) as store:
            assert not store.verify().ok
            assert store.verify(repair=True).repaired
            damaged = [
                row["scenario_index"] for row in store.quarantined()
            ]
        # Every chunk is done, so waiting cannot fill the hole; the
        # diagnosis names the quarantine and the re-submit that heals.
        with pytest.raises(RuntimeError, match="quarantined.*re-submit"):
            run.wait(timeout=5, poll=0.01)
        resubmit = campaign.submit(
            seed=SEED, queue=queue_path, store=store_path, chunk_size=1
        )
        assert resubmit.campaign_id == run.campaign_id
        assert resubmit.chunks_enqueued == len(damaged) == 1
        assert resubmit.already_stored == SCENARIOS - 1
        stats = Worker(queue_path, poll_interval=0.02).run()
        assert stats.chunks_done == 1
        assert stats.records_written == 1  # only the damaged tail
        with ResultStore(store_path) as store:
            assert store.verify().ok
            final = store.resultset(run.campaign_id)
        assert results_digest(final) == results_digest(serial)

    def test_duplicate_delivery_dedups_bitwise(self, tmp_path):
        campaign = make_campaign()
        serial = campaign.run(seed=SEED)
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule("store.write.duplicate", rate=1.0)],
        )
        with ResultStore(tmp_path / "store.sqlite") as store:
            with faults.inject(plan):
                stored = campaign.run(seed=SEED, store=store)
            assert plan.fired("store.write.duplicate") == SCENARIOS
            assert store.verify().ok
            assert results_digest(stored) == results_digest(serial)

    def test_verify_backfills_legacy_rows_without_checksums(
        self, tmp_path
    ):
        campaign = make_campaign()
        with ResultStore(tmp_path / "store.sqlite") as store:
            result = campaign.run(seed=SEED, store=store)
            cid = result.metadata["campaign_id"]
            store._conn.execute(
                "UPDATE records SET checksum = NULL WHERE campaign_id = ?"
                " AND scenario_index = 0",
                (cid,),
            )
            store._conn.commit()
            report = store.verify()
            assert report.missing_checksum == 1
            assert report.ok  # legacy rows are not corruption
            repaired = store.verify(repair=True)
            assert repaired.backfilled == 1
            after = store.verify()
            assert after.missing_checksum == 0 and after.ok


# ----------------------------------------------------------------------
# Worker seam: crashes, heartbeat death, clock skew
# ----------------------------------------------------------------------
class TestWorkerChaos:
    def _submit(self, queue_path, store_path, chunk_size=1):
        campaign = make_campaign()
        run = campaign.submit(
            seed=SEED, queue=queue_path, store=store_path,
            chunk_size=chunk_size,
        )
        return campaign, run

    def test_crash_mid_drain_resumes_bitwise(self, paths):
        queue_path, store_path = paths
        campaign, run = self._submit(queue_path, store_path)
        serial = make_campaign().run(seed=SEED)
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule("worker.crash.mid-drain", times=(1,))],
        )
        with faults.inject(plan):
            deaths, stats_list = drain_with_restarts(queue_path)
        assert deaths == 1
        # The crashed incarnation wrote its chunk's first record before
        # dying; the reclaiming incarnation redelivers it and the store
        # dedups.
        assert sum(s.records_deduped for s in stats_list) >= 1
        with ResultStore(store_path) as store:
            assert store.verify().ok
            final = store.resultset(run.campaign_id)
        assert results_digest(final) == results_digest(serial)

    def test_crash_at_every_stage_still_converges(self, paths):
        queue_path, store_path = paths
        campaign, run = self._submit(queue_path, store_path)
        serial = make_campaign().run(seed=SEED)
        plan = FaultPlan(
            seed=0,
            rules=[
                FaultRule("worker.crash.post-claim", times=(1,)),
                FaultRule("worker.crash.pre-drain", times=(2,)),
                FaultRule("worker.crash.mid-drain", times=(3,)),
            ],
        )
        with faults.inject(plan):
            deaths, _ = drain_with_restarts(queue_path)
        assert deaths == 3
        with ResultStore(store_path) as store:
            assert store.verify().ok
            final = store.resultset(run.campaign_id)
        assert results_digest(final) == results_digest(serial)

    def test_heartbeat_death_exits_with_distinct_status(self, paths):
        from repro.cli import main

        queue_path, store_path = paths
        campaign, run = self._submit(
            queue_path, store_path, chunk_size=SCENARIOS
        )
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule("worker.heartbeat.die", times=(1,))],
        )
        with faults.inject(plan):
            rc = main([
                "worker", "--queue", str(queue_path),
                "--lease", "0.12", "--poll", "0.02",
            ])
        assert rc == EXIT_HEARTBEAT_DEAD
        # The chunk was handed back, not left to its lease: it is
        # pending again, carrying the diagnosis.
        with WorkQueue(queue_path) as queue:
            (state,) = queue.chunk_states(run.campaign_id)
        assert state.status == "pending"
        assert "heartbeat thread died" in state.last_error
        # A healthy replacement finishes.
        stats = Worker(
            queue_path, lease_seconds=10.0, poll_interval=0.02
        ).run()
        assert stats.chunks_done == 1
        with ResultStore(store_path) as store:
            assert store.verify(campaign_id=run.campaign_id).ok
            final = store.resultset(run.campaign_id)
        assert results_digest(final) == results_digest(
            make_campaign().run(seed=SEED)
        )

    def test_skewed_clock_worker_still_bitwise_correct(self, paths):
        queue_path, store_path = paths
        campaign, run = self._submit(queue_path, store_path)
        serial = make_campaign().run(seed=SEED)
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule(
                "worker.clock.skew", times=(1,), skew=120.0
            )],
        )
        with faults.inject(plan):
            stats = Worker(
                queue_path, lease_seconds=10.0, poll_interval=0.02
            ).run()
        assert stats.chunks_done == SCENARIOS
        with ResultStore(store_path) as store:
            final = store.resultset(run.campaign_id)
        assert results_digest(final) == results_digest(serial)

    @pytest.mark.slow
    def test_randomized_schedules_replay_and_converge(self, paths):
        serial = make_campaign().run(seed=SEED)
        for chaos_seed in (1, 2, 3):
            queue_path, store_path = (
                paths[0].with_suffix(f".{chaos_seed}.sqlite"),
                paths[1].with_suffix(f".{chaos_seed}.sqlite"),
            )
            campaign, run = self._submit(queue_path, store_path)
            # Rate-based chaos, capped so no chunk can hit the queue's
            # poison threshold (MAX_ATTEMPTS) by crash alone.
            plan = FaultPlan(
                seed=chaos_seed,
                rules=[
                    FaultRule("worker.crash.post-claim", rate=0.2,
                              max_fires=2),
                    FaultRule("worker.crash.mid-drain", rate=0.2,
                              max_fires=2),
                    FaultRule("queue.write", rate=0.05, max_fires=3),
                    FaultRule("store.write.duplicate", rate=0.3),
                ],
            )
            with faults.inject(plan):
                drain_with_restarts(queue_path)
            with ResultStore(store_path) as store:
                assert store.verify().ok
                final = store.resultset(run.campaign_id)
            assert results_digest(final) == results_digest(serial), (
                f"chaos seed {chaos_seed} diverged"
            )


# ----------------------------------------------------------------------
# Queue gc racing a live fleet (satellite: gc never drops live work)
# ----------------------------------------------------------------------
class TestGcUnderChaos:
    def test_gc_racing_slow_commit_fleet_drops_nothing(self, paths):
        queue_path, store_path = paths
        campaign = make_campaign()
        serial = campaign.run(seed=SEED)
        run = campaign.submit(
            seed=SEED, queue=queue_path, store=store_path, chunk_size=1
        )
        cid = run.campaign_id
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule("queue.commit", rate=1.0, delay=0.02)],
        )
        errors = []

        def drain():
            try:
                drain_with_restarts(queue_path)
            except Exception as error:  # surfaced after the join
                errors.append(error)

        with faults.inject(plan):
            worker_thread = threading.Thread(target=drain)
            worker_thread.start()
            gc_passes = 0
            with WorkQueue(queue_path) as admin, ResultStore(
                store_path
            ) as store:
                while worker_thread.is_alive():
                    actionable = {
                        chunk.chunk_index
                        for chunk in admin.chunk_states(cid)
                        if chunk.status in ("pending", "claimed")
                    }
                    admin.gc()
                    remaining = {
                        chunk.chunk_index for chunk in admin.chunk_states(cid)
                    }
                    # A chunk may finish between the two reads, and gc
                    # may then drop it: that is collection, not loss.
                    # Workers store records before releasing a chunk,
                    # and with chunk_size=1 on a fresh store chunk i
                    # carries scenario i — so every actionable chunk
                    # gc dropped must have its record stored.
                    vanished = actionable - remaining
                    assert vanished <= store.completed_indices(cid), (
                        f"gc dropped unfinished chunks {sorted(vanished)}"
                    )
                    gc_passes += 1
                    time.sleep(0.01)
            worker_thread.join()
        assert not errors, errors
        assert gc_passes > 0
        assert plan.fired("queue.commit") > 0  # the fault was live
        with ResultStore(store_path) as store:
            assert store.verify(campaign_id=cid).ok
            final = store.resultset(cid)
        assert results_digest(final) == results_digest(serial)


# ----------------------------------------------------------------------
# Service seam: submit retry + watchlist health surfacing
# ----------------------------------------------------------------------
class TestServiceUnderChaos:
    def test_transient_submit_fault_is_retried(self, tmp_path):
        service = CampaignService(
            str(tmp_path / "store.sqlite"),
            queue=str(tmp_path / "queue.sqlite"),
        )
        try:
            plan = FaultPlan(
                seed=0,
                rules=[FaultRule("service.submit", times=(1, 2))],
            )
            with faults.inject(plan):
                receipt = service.submit(dict(SERVICE_SPEC))
            assert plan.fired("service.submit") == 2
            assert receipt["campaign_id"]
            assert receipt["progress"]["complete"] is True
        finally:
            service.close()

    def test_wedged_queue_finally_propagates(self, tmp_path):
        service = CampaignService(
            str(tmp_path / "store.sqlite"),
            queue=str(tmp_path / "queue.sqlite"),
        )
        try:
            plan = FaultPlan(
                seed=0,
                rules=[FaultRule("service.submit", rate=1.0)],
            )
            with faults.inject(plan):
                with pytest.raises(sqlite3.OperationalError):
                    service.submit(dict(SERVICE_SPEC))
            # Once the fault clears, the same submission succeeds.
            receipt = service.submit(dict(SERVICE_SPEC))
            assert receipt["campaign_id"]
        finally:
            service.close()

    def test_healthz_surfaces_watchlist_scan_failures(self):
        with ResultStore(":memory:") as store:
            service = CampaignService(store)
            try:
                watchlist = Watchlist(store)
                client = ServiceClient(make_app(service, watchlist))
                health = client.get("/healthz").json()["watchlist"]
                assert health["scans"] == 0
                assert health["last_error"] is None

                def boom():
                    raise RuntimeError("scan exploded")

                watchlist._refresh = boom
                with pytest.raises(RuntimeError):
                    watchlist.refresh()
                health = client.get("/healthz").json()["watchlist"]
                assert health["failures"] == 1
                assert health["consecutive_failures"] == 1
                assert health["last_error"] == (
                    "RuntimeError: scan exploded"
                )
                assert health["last_error_at"] is not None

                del watchlist._refresh  # restore the real scan
                watchlist.refresh()
                health = client.get("/healthz").json()["watchlist"]
                assert health["scans"] == 1
                assert health["consecutive_failures"] == 0
                assert health["failures"] == 1  # history is kept
            finally:
                service.close()

    def test_watchlist_thread_survives_failing_scans(self, capsys):
        with ResultStore(":memory:") as store:
            watchlist = Watchlist(store)

            def boom():
                raise RuntimeError("scan exploded")

            watchlist._refresh = boom
            thread = WatchlistThread(watchlist, interval=0.01)
            thread.start()
            deadline = time.time() + 5
            while (
                watchlist.scan_health()["failures"] < 2
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert thread.is_alive()  # failures never kill the loop
            thread.stop()
            health = watchlist.scan_health()
            assert health["failures"] >= 2
            assert health["consecutive_failures"] == health["failures"]
            assert "scan exploded" in health["last_error"]
