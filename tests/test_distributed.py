"""Tests for lease-based distributed campaign execution.

The contract under test is the acceptance criterion of the subsystem:
a campaign executed by independent worker processes through
``repro.distributed`` produces a :class:`~repro.experiments.ResultSet`
**bitwise identical** to the serial storeless run of the same campaign
and seed — including across worker crashes, lease expiry reclaims and
duplicate chunk deliveries — and a re-submitted completed campaign
performs zero new simulations.
"""

import multiprocessing
import pickle
import time
from pathlib import Path

import pytest

from repro.distributed import (
    Worker,
    WorkQueue,
    submit,
)
from repro.distributed.queue import MAX_ATTEMPTS
from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, SampledSource
from repro.experiments.campaign import RunRecord, _execute_chunk
from repro.montecarlo import MonteCarloEstimator
from repro.store import ResultStore

SCENARIOS = 5
RUNS = 3
SEED = 11

RUN_FIELDS = (
    "min_separation",
    "min_horizontal",
    "nmac",
    "own_alerted",
    "intruder_alerted",
)


def make_campaign(scenarios: int = SCENARIOS, **kwargs) -> Campaign:
    """A tiny unequipped campaign (no logic table: fast to simulate)."""
    return Campaign(
        SampledSource(StatisticalEncounterModel(), scenarios),
        equipage="none",
        runs_per_scenario=RUNS,
        **kwargs,
    )


def fleet_options(queue_path, store_path, **extra) -> dict:
    """backend_options for a "distributed" backend on these paths."""
    options = {"queue": str(queue_path), "store": str(store_path)}
    options.update(extra)
    return options


def assert_bitwise_equal(a, b):
    """Per-record bitwise equality of two result sets."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.index == rb.index
        assert ra.name == rb.name
        assert (ra.params.as_array() == rb.params.as_array()).all()
        for field in RUN_FIELDS:
            assert (
                getattr(ra.runs, field) == getattr(rb.runs, field)
            ).all(), field


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "queue.sqlite", tmp_path / "store.sqlite"


# ----------------------------------------------------------------------
# WorkQueue mechanics
# ----------------------------------------------------------------------
class TestWorkQueue:
    def _enqueue(self, queue, campaign_id="c1", chunks=2):
        return queue.submit_job(
            campaign_id,
            "store.sqlite",
            b"spec",
            RUNS,
            chunks,
            [f"chunk{i}".encode() for i in range(chunks)],
        )

    def test_submit_is_idempotent(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            assert self._enqueue(queue) == 2
            # While chunks are in flight a re-submit enqueues nothing.
            assert self._enqueue(queue) == 0
            assert queue.chunk_counts("c1").total == 2

    def test_settled_job_can_be_topped_up(self, paths):
        # After every chunk settles, a re-submit with fresh payloads
        # appends them as new chunk rows (the repair-resume path: the
        # caller only ships work the store is missing).
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            assert self._enqueue(queue) == 2
            for index in range(2):
                queue.claim("w1", lease_seconds=30)
                queue.release("c1", index, "w1", done=True)
            assert queue.drained("c1")
            assert queue.submit_job(
                "c1", "store.sqlite", b"spec", RUNS, 2, [b"chunk-redo"]
            ) == 1
            tally = queue.chunk_counts("c1")
            assert tally.total == 3 and tally.pending == 1
            assert queue.job("c1").num_chunks == 3
            # The appended chunk claims like any other, at a fresh
            # index past the originals.
            held = queue.claim("w2", lease_seconds=30)
            assert held.chunk_index == 2
            assert held.payload == b"chunk-redo"

    def test_claim_release_cycle(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            self._enqueue(queue)
            first = queue.claim("w1", lease_seconds=30)
            assert first is not None
            assert first.chunk_index == 0
            assert first.attempts == 1
            second = queue.claim("w2", lease_seconds=30)
            assert second.chunk_index == 1
            # Everything claimed: nothing left.
            assert queue.claim("w3", lease_seconds=30) is None
            assert queue.release("w1-chunk", 0, "w1", done=True) is False
            assert queue.release(first.campaign_id, 0, "w1", done=True)
            assert queue.chunk_counts("c1").done == 1
            # Failed execution returns the chunk to pending.
            assert queue.release(second.campaign_id, 1, "w2", done=False)
            assert queue.chunk_counts("c1").pending == 1

    def test_expired_lease_is_reclaimed(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            self._enqueue(queue, chunks=1)
            held = queue.claim("dead-worker", lease_seconds=0.01)
            assert held is not None
            time.sleep(0.05)
            reclaimed = queue.claim("live-worker", lease_seconds=30)
            assert reclaimed is not None
            assert reclaimed.chunk_index == held.chunk_index
            assert reclaimed.attempts == 2
            # The dead worker lost the lease: renew and release refuse.
            assert not queue.renew("c1", 0, "dead-worker", 30)
            assert not queue.release("c1", 0, "dead-worker", done=True)
            # The live worker's completion sticks.
            assert queue.release("c1", 0, "live-worker", done=True)
            assert queue.drained("c1")

    def test_renew_extends_live_lease(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            self._enqueue(queue, chunks=1)
            held = queue.claim("w1", lease_seconds=0.2)
            assert queue.renew("c1", 0, "w1", lease_seconds=60)
            # Renewed past the original deadline: not claimable.
            time.sleep(0.25)
            assert queue.claim("w2", lease_seconds=30) is None
            assert held.worker_id == "w1"

    def test_poison_chunk_fails_after_max_attempts(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            self._enqueue(queue, chunks=1)
            for attempt in range(MAX_ATTEMPTS):
                held = queue.claim(f"w{attempt}", lease_seconds=30)
                assert held is not None
                assert held.attempts == attempt + 1
                queue.release("c1", 0, f"w{attempt}", done=False)
            assert queue.claim("w-final", lease_seconds=30) is None
            tally = queue.chunk_counts("c1")
            assert tally.failed == 1
            assert not queue.drained("c1")

    def test_memory_queue_rejected_for_distribution(self, tmp_path):
        with pytest.raises(ValueError, match="file-backed"):
            submit(
                make_campaign(),
                SEED,
                queue=":memory:",
                store=tmp_path / "s.sqlite",
            )
        with pytest.raises(ValueError, match="file-backed"):
            submit(
                make_campaign(),
                SEED,
                queue=tmp_path / "q.sqlite",
                store=":memory:",
            )


# ----------------------------------------------------------------------
# Coordinator + worker: the bitwise contract
# ----------------------------------------------------------------------
class TestDistributedExecution:
    def test_single_worker_matches_serial_bitwise(self, paths):
        queue_path, store_path = paths
        serial = make_campaign().run(seed=SEED)
        run = submit(
            make_campaign(), SEED,
            queue=queue_path, store=store_path, chunk_size=2,
        )
        assert run.num_scenarios == SCENARIOS
        assert run.chunks_enqueued == 3
        stats = Worker(queue_path, lease_seconds=10, poll_interval=0.02).run()
        assert stats.chunks_done == 3
        assert stats.records_written == SCENARIOS
        assert stats.backends_built == 1
        final = run.wait(timeout=10, poll=0.02)
        assert final.complete
        assert_bitwise_equal(serial, run.collect())

    def test_campaigns_sharing_a_table_share_one_backend(
        self, paths, tiny_table
    ):
        """A long-lived worker builds one backend per distinct spec and
        keeps no spec blob (a serialized logic table) per campaign."""
        queue_path, store_path = paths
        campaign = Campaign(
            SampledSource(StatisticalEncounterModel(), 2),
            table=tiny_table,
            runs_per_scenario=RUNS,
        )
        runs = [
            submit(campaign, seed, queue=queue_path, store=store_path)
            for seed in (1, 2, 3)
        ]
        assert len({run.campaign_id for run in runs}) == 3
        worker = Worker(queue_path, poll_interval=0.02)
        stats = worker.run()
        assert stats.chunks_done == 3
        assert stats.backends_built == 1
        assert len(worker._backends) == 1
        assert set(worker._jobs) == {run.campaign_id for run in runs}
        for job, spec_key in worker._jobs.values():
            assert job.backend_spec == b""
            assert spec_key in worker._backends
        for seed, run in zip((1, 2, 3), runs):
            assert_bitwise_equal(campaign.run(seed=seed), run.collect())

    def test_resubmit_completed_campaign_simulates_nothing(self, paths):
        queue_path, store_path = paths
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        Worker(queue_path, poll_interval=0.02).run()
        resubmit = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        assert resubmit.campaign_id == run.campaign_id
        assert resubmit.chunks_enqueued == 0
        assert resubmit.already_stored == SCENARIOS
        assert resubmit.simulated == 0
        # A worker pointed at the queue finds nothing to do.
        stats = Worker(queue_path, poll_interval=0.02).run()
        assert stats.chunks_done == 0 and stats.records_written == 0
        assert_bitwise_equal(make_campaign().run(seed=SEED),
                             resubmit.collect())

    def test_partial_store_submits_only_missing_tail(self, paths):
        queue_path, store_path = paths
        # Pre-store a prefix through the ordinary resume path by
        # truncating an iter_records stream.
        with ResultStore(store_path) as store:
            stream = make_campaign().iter_records(seed=SEED, store=store)
            for _ in range(2):
                next(stream)
            stream.close()
        run = submit(
            make_campaign(), SEED,
            queue=queue_path, store=store_path, chunk_size=1,
        )
        assert run.already_stored == 2
        assert run.simulated == SCENARIOS - 2
        assert run.chunks_enqueued == SCENARIOS - 2
        Worker(queue_path, poll_interval=0.02).run()
        assert_bitwise_equal(make_campaign().run(seed=SEED), run.collect())

    def test_collect_before_completion_raises(self, paths):
        queue_path, store_path = paths
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        with pytest.raises(RuntimeError, match="wait"):
            run.collect()

    def test_unregistered_backend_rejected(self, paths):
        queue_path, store_path = paths

        class OpaqueBackend:
            name = "opaque"

            def simulate(self, params, num_runs, seed=None):
                raise NotImplementedError

        campaign = make_campaign()
        campaign.backend = OpaqueBackend()
        with pytest.raises(TypeError, match="registry-built"):
            submit(campaign, SEED, queue=queue_path, store=store_path)

    @pytest.mark.slow
    def test_two_worker_processes_match_serial_bitwise(self, paths):
        queue_path, store_path = paths
        serial = make_campaign().run(seed=SEED)
        run = submit(
            make_campaign(), SEED,
            queue=queue_path, store=store_path, chunk_size=1,
        )
        assert run.chunks_enqueued == SCENARIOS
        from repro.distributed import run_workers

        run_workers(queue_path, num_workers=2, lease_seconds=10,
                    poll_interval=0.02)
        final = run.wait(timeout=30, poll=0.05)
        assert final.complete
        collected = run.collect()
        assert_bitwise_equal(serial, collected)
        # Both workers really participated... or at minimum every chunk
        # completed exactly once.
        with WorkQueue(run.queue_path) as queue:
            states = queue.chunk_states(run.campaign_id)
        assert all(state.status == "done" for state in states)


# ----------------------------------------------------------------------
# Fault injection: dead workers, reclaims, duplicate delivery
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_dead_worker_chunk_reclaimed_no_duplicates(self, paths):
        """A worker dies mid-chunk after writing a partial record.

        The chunk's lease expires, a live worker reclaims and fully
        re-executes it (duplicate delivery of the partial record), and
        the final result set is bitwise identical to the serial run
        with no duplicated records.
        """
        queue_path, store_path = paths
        serial = make_campaign().run(seed=SEED)
        run = submit(
            make_campaign(), SEED,
            queue=queue_path, store=store_path, chunk_size=2,
        )
        # Simulate the doomed worker by hand: claim with a tiny lease,
        # execute the chunk, write ONE record, then "crash" (never
        # release, never heartbeat).
        with WorkQueue(queue_path) as queue:
            held = queue.claim("doomed", lease_seconds=0.05)
            assert held is not None
            job = queue.job(held.campaign_id)
            backend = pickle.loads(job.backend_spec).build()
            items = pickle.loads(held.payload)
            work = [(i, params, seed) for i, _, params, seed in items]
            outcomes = _execute_chunk(backend, job.runs_per_scenario, work)
            first_index, first_result = outcomes[0]
            with ResultStore(store_path) as store:
                assert store.add_record(
                    held.campaign_id,
                    RunRecord(
                        index=first_index,
                        name=items[0][1],
                        params=items[0][2],
                        runs=first_result,
                    ),
                )
        time.sleep(0.1)  # the doomed worker's lease expires

        stats = Worker(
            queue_path, worker_id="live", lease_seconds=10,
            poll_interval=0.02,
        ).run()
        final = run.wait(timeout=10, poll=0.02)
        assert final.complete

        # The reclaimed chunk was fully re-executed: its already-stored
        # record arrived again and deduped instead of duplicating.
        assert stats.records_deduped == 1
        assert stats.records_written == SCENARIOS - 1
        with WorkQueue(queue_path) as queue:
            states = queue.chunk_states(run.campaign_id)
        assert all(state.status == "done" for state in states)
        assert any(state.attempts == 2 for state in states)

        with ResultStore(store_path) as store:
            assert len(store.completed_indices(run.campaign_id)) == SCENARIOS
        assert_bitwise_equal(serial, run.collect())

    @pytest.mark.slow
    def test_killed_worker_process_chunk_reclaimed(self, paths):
        """SIGKILL a real worker process mid-run; the fleet recovers."""
        queue_path, store_path = paths
        serial = make_campaign(8).run(seed=SEED)
        run = submit(
            make_campaign(8), SEED,
            queue=queue_path, store=store_path, chunk_size=1,
        )

        def crashy(queue_path):
            # Claims one chunk under a short lease and dies holding it.
            with WorkQueue(queue_path) as queue:
                assert queue.claim("crashy", lease_seconds=0.2) is not None

        victim = multiprocessing.Process(
            target=crashy, args=(str(queue_path),)
        )
        victim.start()
        victim.join()

        stats = Worker(
            queue_path, lease_seconds=5, poll_interval=0.02
        ).run()
        final = run.wait(timeout=30, poll=0.05)
        assert final.complete
        assert stats.records_written == 8
        assert_bitwise_equal(serial, run.collect())


# ----------------------------------------------------------------------
# Scripted fleets: submit, campaign-pinned workers, failure diagnosis
# ----------------------------------------------------------------------
class TestScriptedFleet:
    def test_pinned_worker_is_scoped_to_its_campaign(self, paths):
        """A shared queue with unrelated in-flight work must not feed a
        campaign-pinned worker other jobs' chunks, nor block its exit
        on their leases."""
        queue_path, store_path = paths
        # An unrelated job: one chunk claimed by an external worker
        # under a long (live) lease, one chunk pending.
        with WorkQueue(queue_path) as queue:
            queue.submit_job(
                "unrelated", str(store_path), b"not-a-real-spec",
                RUNS, 2, [b"chunk-a", b"chunk-b"],
            )
            assert queue.claim(
                "external", lease_seconds=3600, campaign_id="unrelated"
            ) is not None

        serial = make_campaign().run(seed=SEED)
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        start = time.monotonic()
        Worker(
            queue_path, poll_interval=0.02, campaign_id=run.campaign_id
        ).run()
        assert time.monotonic() - start < 30  # not waiting out the 1h lease
        assert run.progress().complete
        assert_bitwise_equal(serial, run.collect())
        # The unrelated job is untouched: its pending chunk was never
        # claimed (a scoped worker would have choked on the fake spec).
        with WorkQueue(queue_path) as queue:
            tally = queue.chunk_counts("unrelated")
            assert tally.pending == 1 and tally.claimed == 1
            assert tally.failed == 0

    def test_wait_drains_unserved_campaign_in_process(self, paths):
        """No worker running: wait() drains the campaign itself, one
        chunk per poll, instead of polling until its timeout."""
        queue_path, store_path = paths
        serial = make_campaign().run(seed=SEED)
        run = submit(
            make_campaign(), SEED,
            queue=queue_path, store=store_path, chunk_size=2,
        )
        assert run.chunks_enqueued == 3
        final = run.wait(timeout=30, poll=0.02)
        assert final.complete
        assert final.drained == run.chunks_enqueued
        assert_bitwise_equal(serial, run.collect())
        with WorkQueue(queue_path) as queue:
            states = queue.chunk_states(run.campaign_id)
            # The waiter's worker deregistered: nothing looks live.
            assert queue.live_workers() == []
        assert all(state.status == "done" for state in states)

    def test_submit_resolves_relative_paths(self, tmp_path, monkeypatch):
        """Workers launch from any cwd: job rows must carry absolute
        paths even when the submitter used relative ones."""
        monkeypatch.chdir(tmp_path)
        run = submit(
            make_campaign(), SEED, queue="q.sqlite", store="s.sqlite"
        )
        assert Path(run.queue_path).is_absolute()
        assert Path(run.store_path).is_absolute()
        with WorkQueue(run.queue_path) as queue:
            job = queue.job(run.campaign_id)
        assert Path(job.store_path).is_absolute()
        # A worker run from elsewhere still drains into the right store.
        monkeypatch.chdir(tmp_path.parent)
        Worker(run.queue_path, poll_interval=0.02).run()
        assert_bitwise_equal(make_campaign().run(seed=SEED), run.collect())

    def test_failed_chunk_records_last_error(self, paths, capsys):
        queue_path, store_path = paths
        with WorkQueue(queue_path) as queue:
            queue.submit_job(
                "poison", str(store_path), b"not-a-pickled-spec",
                RUNS, 1, [b"junk-payload"],
            )
        stats = Worker(
            queue_path, lease_seconds=5, poll_interval=0.01
        ).run(max_chunks=None, idle_timeout=0.1)
        assert stats.chunks_failed >= 1
        assert "failed" in capsys.readouterr().err
        with WorkQueue(queue_path) as queue:
            states = queue.chunk_states("poison")
        assert states[0].last_error  # diagnosis survives on the row


# ----------------------------------------------------------------------
# CLI: submit / worker / status / store records / --queue column
# ----------------------------------------------------------------------
class TestDistributedCli:
    BASE = ["--sample", "4", "--runs", "3", "--seed", "7",
            "--equipage", "none"]

    def _submit(self, main, tmp_path, capsys):
        queue = str(tmp_path / "q.sqlite")
        store = str(tmp_path / "s.sqlite")
        assert main(["submit", *self.BASE,
                     "--queue", queue, "--store", store]) == 0
        return queue, store, capsys.readouterr().out

    def test_submit_worker_status_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        queue, store, out = self._submit(main, tmp_path, capsys)
        assert "enqueued 1 chunk(s)" in out

        assert main(["status", queue]) == 0
        assert "1 incomplete" in capsys.readouterr().out

        assert main(["worker", "--queue", queue, "--poll", "0.02"]) == 0
        worker_out = capsys.readouterr().out
        assert "1 chunks done" in worker_out
        assert "4 records written" in worker_out

        assert main(["status", queue]) == 0
        assert "0 incomplete" in capsys.readouterr().out

        # Re-submit: completed campaign enqueues nothing.
        assert main(["submit", *self.BASE,
                     "--queue", queue, "--store", store]) == 0
        resubmit_out = capsys.readouterr().out
        assert "enqueued 0 chunk(s)" in resubmit_out
        assert "already complete" in resubmit_out

    def test_store_list_show_queue_column(self, tmp_path, capsys):
        from repro.cli import main

        queue, store, _ = self._submit(main, tmp_path, capsys)
        assert main(["worker", "--queue", queue, "--poll", "0.02"]) == 0
        capsys.readouterr()

        assert main(["store", "list", store, "--queue", queue]) == 0
        listing = capsys.readouterr().out
        assert "queue" in listing.splitlines()[0]
        assert "0p/0c/1d" in listing

        campaign_id = [
            line.split()[0] for line in listing.splitlines()[1:]
            if line.strip()
        ][0]
        assert main(["store", "show", store, campaign_id,
                     "--queue", queue]) == 0
        shown = capsys.readouterr().out
        assert "queue:     0p/0c/1d" in shown

    def test_store_records_json_and_csv(self, tmp_path, capsys):
        import json as json_module

        from repro.cli import main

        queue, store, _ = self._submit(main, tmp_path, capsys)
        assert main(["worker", "--queue", queue, "--poll", "0.02"]) == 0
        capsys.readouterr()

        assert main(["store", "records", store,
                     "--where", "nmac_rate >= ?", "--params", "0"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert {"campaign_id", "name", "nmac_rate", "genome"} <= set(
            payload[0]
        )

        out_csv = tmp_path / "records.csv"
        assert main(["store", "records", store, "--format", "csv",
                     "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("campaign_id,index,name,num_runs")
        assert len(lines) == 5


# ----------------------------------------------------------------------
# Clock skew: one time authority per decision + reclaim margin
# ----------------------------------------------------------------------
class TestClockSkew:
    """Lease decisions on a multi-host queue must survive clock skew.

    Each ``WorkQueue`` handle gets an injected clock simulating one
    host; the skew margin and the monotone-renew rule are what keep a
    live worker's chunk from being reclaimed early and a renewing
    worker from sabotaging its own lease.
    """

    BASE = 1_000_000.0

    def _queue_at(self, path, offset=0.0, margin=0.0):
        return WorkQueue(
            path, skew_margin=margin, clock=lambda: self.BASE + offset
        )

    def _enqueue(self, queue, campaign_id="c1", chunks=1):
        queue.submit_job(
            campaign_id, "store.sqlite", b"spec", RUNS, chunks,
            [f"chunk{i}".encode() for i in range(chunks)],
        )

    def test_claim_stamps_with_connection_clock(self, paths):
        queue_path, _ = paths
        with self._queue_at(queue_path) as queue:
            self._enqueue(queue)
            held = queue.claim("w1", lease_seconds=30)
            # Comparison and stamp both came from the injected clock,
            # not from this process's wall clock.
            assert held.lease_expires == self.BASE + 30

    def test_ahead_clock_waits_out_skew_margin(self, paths):
        """A host running ahead must not reclaim a live lease early."""
        queue_path, _ = paths
        with self._queue_at(queue_path) as owner:
            self._enqueue(owner)
            assert owner.claim("w1", lease_seconds=30) is not None
        # 4s past the stamped expiry, but within the 10s margin: the
        # lease may only *look* expired because our clock runs fast.
        with self._queue_at(queue_path, offset=34, margin=10) as ahead:
            assert ahead.claimable() == 0
            assert ahead.claim("w2", lease_seconds=30) is None
        # Past expiry plus the margin: genuinely dead, reclaim.
        with self._queue_at(queue_path, offset=41, margin=10) as later:
            reclaimed = later.claim("w3", lease_seconds=30)
            assert reclaimed is not None
            assert reclaimed.attempts == 2
            assert reclaimed.lease_expires == self.BASE + 41 + 30

    def test_behind_clock_cannot_steal_live_lease(self, paths):
        queue_path, _ = paths
        with self._queue_at(queue_path) as owner:
            self._enqueue(owner)
            assert owner.claim("w1", lease_seconds=30) is not None
        with self._queue_at(queue_path, offset=-100) as behind:
            assert behind.claimable() == 0
            assert behind.claim("w2", lease_seconds=30) is None

    def test_renew_is_monotone_under_behind_clock(self, paths):
        """A behind-clock heartbeat must never *shorten* its lease.

        Without the MAX() in renew, a worker whose clock runs behind
        would stamp an already-past deadline with every heartbeat —
        handing its own live chunk to the next claimant.
        """
        queue_path, _ = paths
        with self._queue_at(queue_path) as owner:
            self._enqueue(owner)
            assert owner.claim("w1", lease_seconds=30) is not None
        with self._queue_at(queue_path, offset=-100) as behind:
            # The behind host renews its own lease: accepted, but the
            # deadline stays at BASE+30 instead of BASE-70.
            assert behind.renew("c1", 0, "w1", lease_seconds=30)
        with self._queue_at(queue_path, offset=25) as honest:
            assert honest.claim("w2", lease_seconds=30) is None
        # A renewal that genuinely extends still moves it forward.
        with self._queue_at(queue_path, offset=10) as later:
            assert later.renew("c1", 0, "w1", lease_seconds=30)
            (state,) = later.chunk_states("c1")
            assert state.lease_expires == self.BASE + 40


# ----------------------------------------------------------------------
# Worker liveness registry
# ----------------------------------------------------------------------
class TestWorkerLiveness:
    def test_claim_attempts_register_heartbeats(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            # Even a fruitless claim on an empty queue says "alive".
            assert queue.claim("roamer", lease_seconds=5) is None
            assert queue.claim(
                "pinned", lease_seconds=5, campaign_id="camp-a"
            ) is None
            live = {w.worker_id for w in queue.live_workers()}
            assert live == {"roamer", "pinned"}
            # Campaign scoping: an unpinned worker serves anyone, a
            # pinned worker only its own campaign.
            serves_a = {
                w.worker_id for w in queue.live_workers("camp-a")
            }
            assert serves_a == {"roamer", "pinned"}
            serves_b = {
                w.worker_id for w in queue.live_workers("camp-b")
            }
            assert serves_b == {"roamer"}
            queue.deregister_worker("roamer")
            assert {w.worker_id for w in queue.live_workers()} == {
                "pinned"
            }

    def test_stale_heartbeats_are_not_live(self, paths):
        queue_path, _ = paths
        base = 2_000_000.0
        with WorkQueue(queue_path, clock=lambda: base) as queue:
            queue.claim("w1", lease_seconds=5)
        with WorkQueue(queue_path, clock=lambda: base + 100) as later:
            assert later.live_workers(ttl=15) == []
            assert len(later.live_workers(ttl=200)) == 1

    def test_worker_run_deregisters_on_exit(self, paths):
        queue_path, _ = paths
        Worker(queue_path, worker_id="transient",
               poll_interval=0.01).run()
        with WorkQueue(queue_path) as queue:
            assert queue.live_workers() == []


# ----------------------------------------------------------------------
# Lost lease: the in-flight result must be abandoned, not drained
# ----------------------------------------------------------------------
class TestLostLeaseAbandonsDrain:
    def test_two_claimants_race_one_chunk(self, paths, monkeypatch):
        """The renew verdict gates the drain path.

        A slow worker simulates a chunk; while it does, a rival (a
        host whose clock says the lease long expired) reclaims the
        chunk, finishes it, and marks it done.  The slow worker's
        pre-drain renew must come back "no longer held" and the worker
        must abandon its result — writing nothing, releasing nothing.
        """
        import repro.distributed.worker as worker_module

        queue_path, store_path = paths
        serial = make_campaign().run(seed=SEED)
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        assert run.chunks_enqueued == 1

        real = worker_module._execute_chunk
        stolen_by_rival = {}

        def hijack(backend, num_runs, work):
            outcomes = real(backend, num_runs, work)
            if stolen_by_rival:
                return outcomes
            # While the slow worker was "simulating", a far-ahead host
            # decides the lease expired, reclaims the chunk, executes
            # it and completes it.
            with WorkQueue(
                queue_path, clock=lambda: time.time() + 3600
            ) as rival_queue:
                stolen = rival_queue.claim("rival", lease_seconds=7200)
                assert stolen is not None
                items = pickle.loads(stolen.payload)
                with ResultStore(store_path) as store:
                    for (index, name, params, _), (_, result) in zip(
                        items, outcomes
                    ):
                        store.add_record(
                            stolen.campaign_id,
                            RunRecord(
                                index=index, name=name,
                                params=params, runs=result,
                            ),
                        )
                assert rival_queue.release(
                    stolen.campaign_id, stolen.chunk_index, "rival",
                    done=True,
                )
                stolen_by_rival["chunk"] = stolen.chunk_index
            return outcomes

        monkeypatch.setattr(worker_module, "_execute_chunk", hijack)
        stats = Worker(
            queue_path, worker_id="slow", lease_seconds=10,
            poll_interval=0.01,
        ).run()

        # The slow worker consulted the renew verdict and abandoned.
        assert stats.chunks_lost == 1
        assert stats.chunks_done == 0
        assert stats.records_written == 0
        assert "0 chunks done" in stats.summary()
        assert "1 lost" in stats.summary()

        final = run.wait(timeout=10, poll=0.02)
        assert final.complete
        assert_bitwise_equal(serial, run.collect())


# ----------------------------------------------------------------------
# The "distributed" backend: fleets behind the registry key
# ----------------------------------------------------------------------
class TestDistributedBackend:
    def test_empty_fleet_falls_back_and_matches_serial_bitwise(
        self, paths
    ):
        """Zero live workers: the run completes via the in-process
        fallback worker instead of hanging, bit for bit."""
        queue_path, store_path = paths
        serial = make_campaign().run(seed=SEED)
        distributed = make_campaign(
            backend="distributed",
            backend_options=fleet_options(queue_path, store_path),
        ).run(seed=SEED)
        assert_bitwise_equal(serial, distributed)
        assert distributed.metadata["distributed_fallback"] is True
        assert distributed.metadata["distributed_workers"] == "fleet"
        assert distributed.metadata["simulated"] == SCENARIOS
        assert distributed.metadata["loaded"] == 0

    def test_rerun_loads_everything_from_the_store(self, paths):
        queue_path, store_path = paths
        options = fleet_options(queue_path, store_path)
        first = make_campaign(
            backend="distributed", backend_options=options
        ).run(seed=SEED)
        rerun = make_campaign(
            backend="distributed", backend_options=options
        ).run(seed=SEED)
        assert rerun.metadata["loaded"] == SCENARIOS
        assert rerun.metadata["simulated"] == 0
        assert rerun.metadata["distributed_fallback"] is False
        assert_bitwise_equal(first, rerun)

    def test_provenance_is_transparent(self, paths, tmp_path):
        """A distributed campaign is *the same experiment* as its
        in-process twin: same backend name, same content-addressed
        campaign id (so the two resume from and dedup against each
        other)."""
        queue_path, store_path = paths
        with ResultStore(tmp_path / "plain.sqlite") as plain_store:
            plain = make_campaign().run(seed=SEED, store=plain_store)
        distributed = make_campaign(
            backend="distributed",
            backend_options=fleet_options(queue_path, store_path),
        ).run(seed=SEED)
        assert distributed.backend == plain.backend
        assert (
            distributed.metadata["campaign_id"]
            == plain.metadata["campaign_id"]
        )

    def test_iter_records_streams_the_fleet_result(self, paths):
        queue_path, store_path = paths
        serial = list(make_campaign().iter_records(seed=SEED))
        streamed = list(
            make_campaign(
                backend="distributed",
                backend_options=fleet_options(queue_path, store_path),
            ).iter_records(seed=SEED)
        )
        assert [r.index for r in streamed] == [r.index for r in serial]
        for ra, rb in zip(serial, streamed):
            for field in RUN_FIELDS:
                assert (
                    getattr(ra.runs, field) == getattr(rb.runs, field)
                ).all()

    def test_env_vars_supply_queue_and_store(self, paths, monkeypatch):
        queue_path, store_path = paths
        monkeypatch.setenv("REPRO_QUEUE", str(queue_path))
        monkeypatch.setenv("REPRO_STORE", str(store_path))
        serial = make_campaign().run(seed=SEED)
        distributed = make_campaign(backend="distributed").run(seed=SEED)
        assert_bitwise_equal(serial, distributed)

    def test_missing_queue_and_store_is_a_clear_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE", raising=False)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(ValueError, match="queue"):
            make_campaign(backend="distributed")

    def test_conflicting_store_rejected_same_path_accepted(
        self, paths, tmp_path
    ):
        queue_path, store_path = paths
        campaign = make_campaign(
            backend="distributed",
            backend_options=fleet_options(queue_path, store_path),
        )
        with ResultStore(tmp_path / "other.sqlite") as other:
            with pytest.raises(ValueError, match="binds its result"):
                campaign.run(seed=SEED, store=other)
        # Pointing store= at the backend's own store file is harmless.
        with ResultStore(store_path) as same:
            result = campaign.run(seed=SEED, store=same)
        assert_bitwise_equal(make_campaign().run(seed=SEED), result)

    def test_submit_defaults_to_backend_paths(self, paths):
        queue_path, store_path = paths
        campaign = make_campaign(
            backend="distributed",
            backend_options=fleet_options(queue_path, store_path),
        )
        run = campaign.submit(seed=SEED)
        assert run.queue_path == campaign.backend.queue_path
        assert run.store_path == campaign.backend.store_path
        assert run.chunks_enqueued == 1
        # A later run() of the same campaign drains what it submitted.
        result = campaign.run(seed=SEED)
        assert_bitwise_equal(make_campaign().run(seed=SEED), result)

    def test_submit_without_paths_still_requires_them(self):
        with pytest.raises(TypeError, match="queue"):
            make_campaign().submit(seed=SEED)

    def test_backend_spec_roundtrip_carries_fleet_policy(
        self, paths, tiny_table
    ):
        """The captured spec of a fleet backend is the plain megabatch
        spec its workers run: no paths, no policy."""
        from dataclasses import fields

        from repro.distributed import DistributedBackend
        from repro.experiments import (
            BackendSpec,
            VectorizedBatchBackend,
            make_backend,
        )

        queue_path, store_path = paths
        backend = make_backend(
            "distributed",
            table=tiny_table,
            equipage="own-only",
            coordination=False,
            queue=str(queue_path),
            store=str(store_path),
        )
        spec = BackendSpec.capture(backend)
        assert [f.name for f in fields(spec)] == [
            "backend", "equipage", "coordination", "config",
            "table_bytes", "table_path",
        ]
        assert spec.backend == "vectorized-batch"
        assert (spec.equipage, spec.coordination) == ("own-only", False)
        assert spec.config == backend.config
        assert spec.table_path is None
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        assert type(rebuilt) is VectorizedBatchBackend
        assert not isinstance(rebuilt, DistributedBackend)
        assert (rebuilt.table.q == tiny_table.q).all()
        assert rebuilt.config == backend.config
        assert rebuilt.equipage == "own-only"
        assert rebuilt.coordination is False

    def test_poison_chunk_raises_with_last_error(
        self, paths, monkeypatch, capsys
    ):
        """A chunk failing MAX_ATTEMPTS raises a diagnosis from
        Campaign.run — it must not hang the wait loop."""
        import repro.distributed.worker as worker_module

        queue_path, store_path = paths

        def explode(backend, num_runs, work):
            raise RuntimeError("boom-payload-xyz")

        monkeypatch.setattr(worker_module, "_execute_chunk", explode)
        campaign = make_campaign(
            backend="distributed",
            backend_options=fleet_options(queue_path, store_path),
        )
        with pytest.raises(RuntimeError) as excinfo:
            campaign.run(seed=SEED)
        message = str(excinfo.value)
        assert "failed permanently" in message
        assert "boom-payload-xyz" in message
        # Read the id from the queue: a re-submit would now *top up*
        # the settled job, re-enqueueing the failed chunks for retry.
        with WorkQueue(queue_path) as queue:
            states = queue.chunk_states(queue.jobs()[0].campaign_id)
        assert all(state.status == "failed" for state in states)
        assert all(state.attempts == MAX_ATTEMPTS for state in states)

    def test_worker_pinned_elsewhere_does_not_suppress_fallback(
        self, paths
    ):
        """Liveness is scoped to the campaign: a heartbeating worker
        pinned to another campaign will never drain this one."""
        queue_path, store_path = paths
        with WorkQueue(queue_path) as queue:
            assert queue.claim(
                "pinned-elsewhere", lease_seconds=60,
                campaign_id="some-other-campaign",
            ) is None
            assert len(queue.live_workers()) == 1
        serial = make_campaign().run(seed=SEED)
        distributed = make_campaign(
            backend="distributed",
            backend_options=fleet_options(queue_path, store_path),
        ).run(seed=SEED)
        assert_bitwise_equal(serial, distributed)
        assert distributed.metadata["distributed_fallback"] is True
        with WorkQueue(queue_path) as queue:
            assert queue.live_workers(
                distributed.metadata["campaign_id"]
            ) == []

    def test_montecarlo_via_backend_key(self, paths, tiny_table):
        queue_path, store_path = paths
        model = StatisticalEncounterModel()
        plain = MonteCarloEstimator(
            tiny_table, model, runs_per_encounter=2
        ).estimate(3, seed=5)
        distributed = MonteCarloEstimator(
            tiny_table,
            model,
            runs_per_encounter=2,
            backend="distributed",
            backend_options=fleet_options(queue_path, store_path),
        ).estimate(3, seed=5)
        assert distributed.summary() == plain.summary()
        assert_bitwise_equal(
            plain.equipped_results, distributed.equipped_results
        )
        assert_bitwise_equal(
            plain.unequipped_results, distributed.unequipped_results
        )

    @pytest.mark.slow
    def test_live_two_worker_fleet_no_fallback(self, paths):
        """The acceptance criterion: Campaign.run(backend="distributed")
        against an already-running external 2-worker fleet is bitwise
        identical to serial, with the fallback worker never engaged."""
        queue_path, store_path = paths
        serial = make_campaign().run(seed=SEED)
        fleet = [
            multiprocessing.Process(
                target=_fleet_member, args=(str(queue_path),)
            )
            for _ in range(2)
        ]
        for process in fleet:
            process.start()
        try:
            deadline = time.time() + 15
            with WorkQueue(queue_path) as queue:
                while len(queue.live_workers(ttl=5.0)) < 2:
                    assert time.time() < deadline, "fleet never came up"
                    time.sleep(0.05)
            distributed = make_campaign(
                backend="distributed",
                backend_options=fleet_options(queue_path, store_path),
            ).run(seed=SEED, chunk_size=1)
        finally:
            for process in fleet:
                process.join(timeout=30)
                if process.is_alive():
                    process.terminate()
        assert_bitwise_equal(serial, distributed)
        assert distributed.metadata["distributed_fallback"] is False
        with WorkQueue(queue_path) as queue:
            states = queue.chunk_states(
                distributed.metadata["campaign_id"]
            )
        assert len(states) == SCENARIOS
        assert all(state.status == "done" for state in states)


def _fleet_member(queue_path: str) -> None:
    """An external service worker: polls until idle for a while."""
    Worker(queue_path, lease_seconds=10, poll_interval=0.02).run(
        forever=True, idle_timeout=4.0
    )


# ----------------------------------------------------------------------
# Queue garbage collection
# ----------------------------------------------------------------------
class TestQueueGc:
    def _enqueue(self, queue, campaign_id, chunks=2):
        queue.submit_job(
            campaign_id, "store.sqlite", b"spec", RUNS, chunks,
            [f"chunk{i}".encode() for i in range(chunks)],
        )

    def _finish(self, queue, campaign_id, count):
        for _ in range(count):
            chunk = queue.claim(
                "gc-worker", lease_seconds=30, campaign_id=campaign_id
            )
            assert chunk is not None
            assert queue.release(
                campaign_id, chunk.chunk_index, "gc-worker", done=True
            )

    def test_gc_drops_done_chunks_and_orphaned_jobs(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            self._enqueue(queue, "finished", chunks=2)
            self._finish(queue, "finished", 2)
            self._enqueue(queue, "active", chunks=2)
            self._finish(queue, "active", 1)

            dry = queue.gc(dry_run=True)
            assert dry.dry_run
            assert dry.campaigns == ("finished",)
            assert dry.done_chunks == 2 and dry.failed_chunks == 0
            assert dry.jobs == 1
            # Dry run touched nothing.
            assert queue.chunk_counts("finished").done == 2
            assert len(queue.jobs()) == 2

            report = queue.gc()
            assert not report.dry_run
            assert report.chunks == 2 and report.jobs == 1
            assert queue.chunk_counts("finished").total == 0
            assert [job.campaign_id for job in queue.jobs()] == ["active"]
            # The active campaign kept everything — even its done
            # chunk (it is not yet eligible) and its pending one.
            tally = queue.chunk_counts("active")
            assert tally.done == 1 and tally.pending == 1

    def test_gc_collects_failed_chunks_of_drained_campaigns(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            self._enqueue(queue, "poisoned", chunks=1)
            for attempt in range(MAX_ATTEMPTS):
                chunk = queue.claim(f"w{attempt}", lease_seconds=30)
                assert chunk is not None
                queue.release("poisoned", 0, f"w{attempt}", done=False)
            assert queue.claim("w-final", lease_seconds=30) is None
            assert queue.chunk_counts("poisoned").failed == 1

            report = queue.gc()
            assert report.failed_chunks == 1
            assert report.jobs == 1
            assert queue.chunk_counts("poisoned").total == 0
            assert queue.jobs() == []

    def test_gc_max_age_collects_stale_active_campaigns(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            self._enqueue(queue, "stale", chunks=2)
            self._finish(queue, "stale", 1)
            # Not drained, not aged: nothing to collect.
            assert queue.gc().campaigns == ()
        # A handle whose clock is an hour ahead sees the job aged out:
        # its done chunk goes, its pending chunk and job row stay.
        with WorkQueue(
            queue_path, clock=lambda: time.time() + 3600
        ) as later:
            report = later.gc(max_age=600)
            assert report.campaigns == ("stale",)
            assert report.done_chunks == 1
            assert report.jobs == 0
            tally = later.chunk_counts("stale")
            assert tally.pending == 1 and tally.done == 0
            assert len(later.jobs()) == 1

    def test_gc_campaign_filter(self, paths):
        queue_path, _ = paths
        with WorkQueue(queue_path) as queue:
            for cid in ("one", "two"):
                self._enqueue(queue, cid, chunks=1)
                self._finish(queue, cid, 1)
            report = queue.gc(campaign_id="one")
            assert report.campaigns == ("one",)
            assert queue.chunk_counts("one").total == 0
            assert queue.chunk_counts("two").done == 1
            assert [job.campaign_id for job in queue.jobs()] == ["two"]

    def test_gc_drops_stale_worker_rows(self, paths):
        queue_path, _ = paths
        base = 3_000_000.0
        with WorkQueue(queue_path, clock=lambda: base) as queue:
            queue.claim("old-worker", lease_seconds=5)
        with WorkQueue(queue_path, clock=lambda: base + 1000) as later:
            report = later.gc(worker_ttl=300)
            assert report.stale_workers == 1
            assert later.live_workers(ttl=10_000) == []


# ----------------------------------------------------------------------
# CLI: queue gc / --backend distributed / clean filter errors
# ----------------------------------------------------------------------
class TestFleetCli:
    BASE = ["--sample", "4", "--runs", "3", "--seed", "7",
            "--equipage", "none"]

    def test_queue_gc_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        queue = str(tmp_path / "q.sqlite")
        store = str(tmp_path / "s.sqlite")
        assert main(["submit", *self.BASE,
                     "--queue", queue, "--store", store]) == 0
        assert main(["worker", "--queue", queue, "--poll", "0.02"]) == 0
        capsys.readouterr()

        assert main(["queue", "gc", queue, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would drop 1 chunk(s) (1 done, 0 failed)" in out
        assert "1 job row(s)" in out
        # The dry run deleted nothing.
        assert main(["status", queue]) == 0
        assert "1 campaign(s), 0 incomplete" in capsys.readouterr().out

        assert main(["queue", "gc", queue]) == 0
        assert "dropped 1 chunk(s)" in capsys.readouterr().out
        assert main(["status", queue]) == 0
        assert "queue is empty" in capsys.readouterr().out
        # The results themselves are untouched by queue GC.
        assert main(["store", "list", store]) == 0
        assert "complete" in capsys.readouterr().out

    def test_queue_gc_missing_queue_is_clean_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="queue not found"):
            main(["queue", "gc", str(tmp_path / "nope.sqlite")])

    def test_campaign_backend_distributed(self, tmp_path, capsys):
        from repro.cli import main

        queue = str(tmp_path / "q.sqlite")
        store = str(tmp_path / "s.sqlite")
        assert main(["campaign", *self.BASE, "--backend", "distributed",
                     "--queue", queue, "--store", store]) == 0
        out = capsys.readouterr().out
        # Provenance-transparent: the summary names the inner backend.
        assert "backend=vectorized-batch" in out
        assert "simulated 4" in out
        # Re-running resumes from the fleet's store.
        assert main(["campaign", *self.BASE, "--backend", "distributed",
                     "--queue", queue, "--store", store]) == 0
        assert "loaded 4, simulated 0" in capsys.readouterr().out

    def test_campaign_backend_distributed_needs_paths(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.delenv("REPRO_QUEUE", raising=False)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit, match="queue"):
            main(["campaign", *self.BASE, "--backend", "distributed"])

    def test_store_records_filter_errors_are_one_line(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        queue = str(tmp_path / "q.sqlite")
        store = str(tmp_path / "s.sqlite")
        assert main(["campaign", *self.BASE, "--backend", "distributed",
                     "--queue", queue, "--store", store]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="not allowed"):
            main(["store", "records", store,
                  "--where", "nmac_rate > 0; DROP TABLE records"])
        with pytest.raises(SystemExit, match="malformed filter"):
            main(["store", "records", store,
                  "--where", "no_such_column = 1"])
        with pytest.raises(SystemExit, match="not allowed"):
            main(["store", "records", store,
                  "--where", "nmac_rate > 0 -- sneaky"])


# ----------------------------------------------------------------------
# Review hardening: throttled heartbeats, gc-vs-waiters, wait_timeout
# ----------------------------------------------------------------------
class TestReviewHardening:
    def test_idle_heartbeats_are_throttled(self, paths):
        """Tight idle polling must not write the workers table every
        poll — the row refreshes only once per quarter TTL."""
        queue_path, _ = paths
        now = {"t": 5_000_000.0}
        with WorkQueue(queue_path, clock=lambda: now["t"]) as queue:
            queue.claim("w1", lease_seconds=5)
            (worker,) = queue.live_workers(ttl=1e9)
            first = worker.heartbeat
            now["t"] += 1.0  # inside the refresh window: no write
            queue.claim("w1", lease_seconds=5)
            (worker,) = queue.live_workers(ttl=1e9)
            assert worker.heartbeat == first
            now["t"] += 10.0  # past the window: refreshed
            queue.claim("w1", lease_seconds=5)
            (worker,) = queue.live_workers(ttl=1e9)
            assert worker.heartbeat == first + 11.0

    def test_gc_of_stuck_campaign_makes_waiters_raise(
        self, paths, monkeypatch
    ):
        """gc'ing a failed campaign's rows must turn a blocked wait()
        into a clear error, not an infinite poll."""
        import repro.distributed.worker as worker_module

        queue_path, store_path = paths

        def explode(backend, num_runs, work):
            raise RuntimeError("poison")

        monkeypatch.setattr(worker_module, "_execute_chunk", explode)
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        Worker(queue_path, poll_interval=0.01).run()
        with WorkQueue(queue_path) as queue:
            assert queue.chunk_counts(run.campaign_id).failed == 1
            queue.gc()
            assert queue.chunk_counts(run.campaign_id).total == 0
        with pytest.raises(RuntimeError, match="garbage-collected"):
            run.wait(timeout=5, poll=0.01)

    def test_wait_timeout_raises_when_fleet_never_comes(self, paths):
        """A live worker that never claims keeps the waiter from
        draining, so the wait runs out its timeout."""
        queue_path, store_path = paths
        with WorkQueue(queue_path) as queue:
            # An idle claim registers an unpinned, heartbeating worker.
            assert queue.claim("idle-worker", lease_seconds=60) is None
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        with pytest.raises(TimeoutError, match="incomplete"):
            run.wait(timeout=0.3, poll=0.02)
        with WorkQueue(queue_path) as queue:
            assert queue.chunk_counts(run.campaign_id).pending == 1

    def test_resubmit_to_different_store_is_refused(self, paths, tmp_path):
        """A queue's job row pins its store; re-submitting the same
        campaign against a different store would hang forever (nothing
        enqueues, nothing ever lands in the new store) — refuse."""
        queue_path, store_path = paths
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        Worker(queue_path, poll_interval=0.02).run()
        assert run.wait(timeout=10, poll=0.02).complete
        with pytest.raises(ValueError, match="bound to store"):
            submit(
                make_campaign(), SEED,
                queue=queue_path, store=tmp_path / "other.sqlite",
            )

    def test_waiter_on_wrong_store_raises_not_hangs(self, paths, tmp_path):
        """A handle watching a store the job never drained into must
        surface the mismatch, not poll forever."""
        from repro.distributed import DistributedRun

        queue_path, store_path = paths
        run = submit(
            make_campaign(), SEED, queue=queue_path, store=store_path
        )
        Worker(queue_path, poll_interval=0.02).run()
        stale_handle = DistributedRun(
            campaign_id=run.campaign_id,
            queue_path=run.queue_path,
            store_path=str(tmp_path / "moved.sqlite"),
            num_scenarios=run.num_scenarios,
            already_stored=0,
            chunks_enqueued=0,
        )
        with pytest.raises(RuntimeError, match="different result store"):
            stale_handle.wait(timeout=5, poll=0.01)

    def test_worker_ttl_below_heartbeat_cadence_rejected(self, paths):
        """The fleet backend takes queue and store only: a removed
        fleet option fails at construction, naming the option."""
        queue_path, store_path = paths
        with pytest.raises(TypeError, match="worker_ttl"):
            make_campaign(
                backend="distributed",
                backend_options=fleet_options(
                    queue_path, store_path, worker_ttl=3.0
                ),
            )

    def test_simulate_many_falls_back_for_non_bulk_inner(
        self, paths, tiny_table
    ):
        """Direct simulate_many on the fleet backend (the path
        FalseAlarmFitness(backend="distributed") takes) runs the
        inherited megabatch kernel in-process, bit for bit."""
        import numpy as np

        from repro.experiments import make_backend

        queue_path, store_path = paths
        backend = make_backend(
            "distributed", table=tiny_table,
            queue=str(queue_path), store=str(store_path),
        )
        reference = make_backend("vectorized-batch", table=tiny_table)
        assert backend.name == reference.name == "vectorized-batch"
        scenarios = make_campaign().source.scenarios(
            seed=np.random.default_rng(0)
        )
        params = [s.params for s in scenarios[:3]]
        got = backend.simulate_many(params, 3, [1, 2, 3])
        expected = reference.simulate_many(params, 3, [1, 2, 3])
        assert len(got) == len(expected) == 3
        for result, expect in zip(got, expected):
            for field in RUN_FIELDS:
                assert (
                    getattr(result, field) == getattr(expect, field)
                ).all()
        # Nothing was queued: direct calls never touch the fleet.
        assert not queue_path.exists()
