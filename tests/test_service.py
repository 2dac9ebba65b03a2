"""Tests for the campaign REST service (`repro.service`).

Every endpoint is exercised through the in-process WSGI test client —
no sockets, so the full submit → progress → records → diff → watchlist
→ alert surface runs at unit-test speed against the exact routing and
serialization code the live server uses.  One ``slow``-marked test
covers the real socket path (threaded ``wsgiref`` server + urllib).

The two load-bearing guarantees from the issue are asserted directly:
a campaign submitted over the API stores bitwise-identical records to
the same spec run through ``Campaign.run``, and a degraded logic table
compared against a pinned baseline fires a ``GET /alerts`` regression.
"""

import json
import pickle
import threading
import time

import numpy as np
import pytest

from repro.acasx.logic_table import LogicTable
from repro.distributed import WorkQueue
from repro.experiments import Campaign
from repro.experiments.campaign import (
    MAX_WIRE_LANES,
    MAX_WIRE_RUNS,
    RunRecord,
    _execute_chunk,
)
from repro.experiments.scenario import MAX_WIRE_SAMPLE
from repro.service import (
    CampaignService,
    Watchlist,
    WatchlistThread,
    make_app,
    make_http_server,
)
from repro.service.app import MAX_BODY_BYTES
from repro.service.testing import ServiceClient
from repro.store import ResultStore
from repro.store.spec import results_digest

#: A small equipped campaign spec (resolves against the tiny table).
SPEC = {
    "scenarios": ["head_on", "tail_approach"],
    "runs": 3,
    "seed": 5,
    "wait": True,
}
#: Table-free spec: no solver involved at all.
UNEQUIPPED = {**SPEC, "equipage": "none"}


def degraded_table(table) -> LogicTable:
    """A deliberately broken twin: all-zero Q means no useful advice."""
    return LogicTable(
        table.config, np.zeros_like(table.q), metadata={"degraded": True}
    )


@pytest.fixture
def store():
    with ResultStore(":memory:") as result_store:
        yield result_store


@pytest.fixture
def service(store, tiny_table):
    svc = CampaignService(
        store,
        preset="tiny",
        tables={"tiny": tiny_table, "degraded": degraded_table(tiny_table)},
    )
    yield svc
    svc.close()


@pytest.fixture
def watchlist(store):
    return Watchlist(store, abs_tolerance=0.001)


@pytest.fixture
def client(service, watchlist):
    return ServiceClient(make_app(service, watchlist))


class TestSubmitFlow:
    def test_submit_progress_records_diff(self, client):
        receipt = client.post("/campaigns", json_body=SPEC).json()
        assert client.post("/campaigns", json_body=SPEC).status == 202
        cid = receipt["campaign_id"]
        assert receipt["num_scenarios"] == 2
        assert receipt["progress"]["complete"] is True

        progress = client.get(f"/campaigns/{cid}")
        assert progress.status == 200
        body = progress.json()
        assert body["completed"] == 2
        assert body["state"] == "done"
        assert body["error"] is None

        # Prefix resolution works over the API too.
        assert client.get(f"/campaigns/{cid[:10]}").status == 200

        rows = client.get(f"/campaigns/{cid}/records").json()
        assert rows["count"] == 2
        assert [r["scenario_index"] for r in rows["records"]] == [0, 1]
        page = client.get(
            f"/campaigns/{cid}/records?limit=1&offset=1"
        ).json()
        assert [r["scenario_index"] for r in page["records"]] == [1]
        filtered = client.get(
            f"/campaigns/{cid}/records?where=nmac_rate>=0"
        ).json()
        assert filtered["count"] == 2

        other = client.post(
            "/campaigns", json_body={**UNEQUIPPED, "label": "bare"}
        ).json()
        diff = client.get(
            f"/campaigns/{cid}/diff/{other['campaign_id']}"
        ).json()
        assert diff["a"]["campaign_id"] == cid
        assert diff["b"]["label"] == "bare"
        assert "nmac_rate" in diff["deltas"]
        # Same scenario list on both sides: records pair up.
        assert diff["paired_scenarios"] == 2

        listing = client.get("/campaigns").json()["campaigns"]
        assert {c["campaign_id"] for c in listing} == {
            cid, other["campaign_id"]
        }
        assert client.get("/campaigns?limit=1").json()["campaigns"][0][
            "campaign_id"
        ] in (cid, other["campaign_id"])

        health = client.get("/healthz").json()
        assert health["status"] == "ok"
        assert health["totals"] == {"campaigns": 2, "records": 4}

    def test_api_run_is_bitwise_identical_to_campaign_run(
        self, client, service, store, tiny_table
    ):
        receipt = client.post("/campaigns", json_body=SPEC).json()
        twin_store = ResultStore(":memory:")
        campaign = Campaign.from_spec(
            dict(SPEC), table=tiny_table, ignore=service.ENVELOPE_KEYS
        )
        twin = campaign.run(seed=SPEC["seed"], store=twin_store)
        assert twin.metadata["campaign_id"] == receipt["campaign_id"]
        assert results_digest(
            store.resultset(receipt["campaign_id"])
        ) == results_digest(twin)
        twin_store.close()

    def test_resubmission_of_complete_campaign_simulates_nothing(
        self, client
    ):
        first = client.post("/campaigns", json_body=UNEQUIPPED).json()
        again = client.post(
            "/campaigns",
            json_body={k: v for k, v in UNEQUIPPED.items() if k != "wait"},
        ).json()
        assert again["campaign_id"] == first["campaign_id"]
        assert again["mode"] == "complete"
        assert again["simulated"] == 0

    def test_async_submission_completes_in_background(self, client):
        receipt = client.post(
            "/campaigns",
            json_body={k: v for k, v in UNEQUIPPED.items() if k != "wait"},
        ).json()
        assert receipt["mode"] in ("inline", "complete")
        deadline = time.time() + 30
        while True:
            body = client.get(f"/campaigns/{receipt['campaign_id']}").json()
            if body["complete"]:
                break
            assert time.time() < deadline, "campaign never completed"
            time.sleep(0.02)
        assert body["state"] == "done"

    def test_label_round_trips(self, client):
        receipt = client.post(
            "/campaigns", json_body={**UNEQUIPPED, "label": "my-label"}
        ).json()
        body = client.get(f"/campaigns/{receipt['campaign_id']}").json()
        assert body["label"] == "my-label"


class TestErrorPaths:
    def test_unknown_campaign_is_404(self, client):
        for path in (
            "/campaigns/ffffffff",
            "/campaigns/ffffffff/records",
            "/campaigns/ffffffff/diff/eeeeeeee",
        ):
            response = client.get(path)
            assert response.status == 404
            assert "error" in response.json()

    def test_unknown_path_and_method(self, client):
        assert client.get("/nope").status == 404
        assert client.post("/healthz", json_body={}).status == 405
        assert client.request("DELETE", "/campaigns").status == 405

    def test_malformed_spec_is_400(self, client):
        for bad in (
            {"runs": 2},                             # no scenarios
            {**UNEQUIPPED, "runs": -1},              # bad runs
            {**UNEQUIPPED, "typo_key": 1},           # unknown key
            {**UNEQUIPPED, "scenarios": ["nope"]},   # unknown preset
            {**UNEQUIPPED, "scenarios": [[1, 2]]},   # genome too short
            {**UNEQUIPPED, "seed": -3},              # bad seed
            {**UNEQUIPPED, "backend": "distributed"},  # service owns dispatch
            {**SPEC, "preset": "nope"},              # unknown table preset
            {**SPEC, "backend": "agent-svo"},        # SVO takes no table
            [1, 2, 3],                               # not an object
        ):
            response = client.post("/campaigns", json_body=bad)
            assert response.status == 400, bad
            assert "error" in response.json()
        response = client.post(
            "/campaigns", json_body={**SPEC, "backend": "agent-svo"}
        )
        assert "reads no logic table" in response.json()["error"]

    def test_bad_wait_and_timeout_are_400(self, client):
        # json.dumps emits NaN/Infinity tokens, which Python's json
        # parses: a NaN deadline would never pass and hold the request
        # thread forever.
        for key, value in (
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("timeout", -1),
            ("timeout", 0),
            ("timeout", "60"),
            ("timeout", True),
            ("wait", "yes"),
            ("wait", 1),
        ):
            response = client.post(
                "/campaigns", json_body={**UNEQUIPPED, key: value}
            )
            assert response.status == 400, (key, value)
            assert key in response.json()["error"], (key, value)
        assert client.get("/campaigns").json()["campaigns"] == []
        accepted = client.post("/campaigns", json_body={
            **{k: v for k, v in UNEQUIPPED.items() if k != "wait"},
            "timeout": 0.5,
        })
        assert accepted.status == 202

    def test_malformed_body_is_400(self, client):
        assert client.post("/campaigns", body=b"{not json").status == 400
        assert client.post("/campaigns").status == 400  # empty body

    def test_body_over_the_cap_is_413(self, client):
        spec = json.dumps(UNEQUIPPED).encode("utf-8")
        at_cap = spec + b" " * (MAX_BODY_BYTES - len(spec))
        too_long = at_cap + b" "
        response = client.post("/campaigns", body=too_long)
        assert response.status == 413
        assert str(MAX_BODY_BYTES) in response.json()["error"]
        assert client.get("/campaigns").json()["campaigns"] == []
        # Exactly at the cap is still a body the service accepts.
        response = client.post("/campaigns", body=at_cap)
        assert response.status == 202
        assert response.json()["progress"]["complete"] is True

    def test_specs_over_the_wire_caps_are_400(self, client):
        # The service plans under its submission lock: a spec sized
        # past the caps must be refused before any planning starts.
        for bad, cap in (
            ({**UNEQUIPPED, "scenarios": {"sample": MAX_WIRE_SAMPLE + 1}},
             "MAX_WIRE_SAMPLE"),
            ({**UNEQUIPPED, "runs": MAX_WIRE_RUNS + 1}, "MAX_WIRE_RUNS"),
            ({**UNEQUIPPED, "runs": 8,
              "chunk_size": MAX_WIRE_LANES // 8 + 1}, "MAX_WIRE_LANES"),
        ):
            response = client.post("/campaigns", json_body=bad)
            assert response.status == 400, bad
            assert cap in response.json()["error"], bad
        assert client.get("/campaigns").json()["campaigns"] == []
        # Exactly MAX_WIRE_LANES lanes per chunk is accepted.
        response = client.post("/campaigns", json_body={
            **UNEQUIPPED, "runs": 8, "chunk_size": MAX_WIRE_LANES // 8,
        })
        assert response.status == 202
        assert response.json()["progress"]["complete"] is True

    def test_from_spec_checks_the_caps_without_planning(self):
        at_caps = {
            "scenarios": {"sample": MAX_WIRE_SAMPLE},
            "runs": MAX_WIRE_RUNS,
            "equipage": "none",
        }
        for key, over, cap in (
            ("scenarios", {"sample": 10**9}, "MAX_WIRE_SAMPLE"),
            ("runs", 10**9, "MAX_WIRE_RUNS"),
        ):
            with pytest.raises(ValueError, match=cap):
                Campaign.from_spec({**at_caps, key: over})
        campaign = Campaign.from_spec(at_caps)
        assert campaign.source.count == MAX_WIRE_SAMPLE
        assert campaign.runs_per_scenario == MAX_WIRE_RUNS

    def test_non_finite_genome_is_400(self, client):
        # Python's json parses the NaN token, so a non-finite genome
        # can arrive over HTTP; it must be refused, never simulated
        # into a NaN "no NMAC" verdict.
        body = (
            b'{"scenarios": [[30, 0, 30, 50, 1, -10, 25, 2.5, NaN]],'
            b' "equipage": "none", "runs": 2, "seed": 0}'
        )
        response = client.post("/campaigns", body=body)
        assert response.status == 400
        assert "intruder_vertical_speed" in response.json()["error"]

    def test_geometry_outside_its_envelope_is_400(self, client):
        # Finite but absurd: a 1e200 m/s own-ship would simulate into a
        # 1e186 m miss, a "no NMAC" verdict about no physical encounter.
        absurd = [1e200, 0, 30, 50, 1, -10, 25, 2.5, 0]
        response = client.post("/campaigns", json_body={
            **UNEQUIPPED, "scenarios": [absurd], "runs": 2,
        })
        assert response.status == 400
        error = response.json()["error"]
        assert "own_ground_speed" in error and "[0, 400]" in error
        assert client.get("/campaigns").json()["campaigns"] == []

    def test_oversized_noise_tape_is_400(self, client):
        # time_to_cpa=1e6 is finite, but one chunk of it would ask a
        # worker for gigabytes of noise tape: the planner refuses it
        # before anything is stored.
        absurd = [30, 0, 1e6, 50, 1, -10, 25, 2.5, 0]
        response = client.post("/campaigns", json_body={
            **UNEQUIPPED, "scenarios": [absurd], "runs": 100,
        })
        assert response.status == 400
        assert "MAX_TAPE_BYTES" in response.json()["error"]
        assert client.get("/campaigns").json()["campaigns"] == []
        sane = [30, 0, 30, 50, 1, -10, 25, 2.5, 0]
        assert client.post("/campaigns", json_body={
            **UNEQUIPPED, "scenarios": [sane], "runs": 100,
        }).status == 202

    def test_oversized_noise_tape_is_never_queued(self, tmp_path, tiny_table):
        # The same refusal on the fleet path: Campaign.submit and the
        # coordinator's submit raise before the campaign reaches the
        # store or a job row reaches the queue, so no worker ever
        # fails the chunk.
        from repro.distributed import submit

        queue_path = tmp_path / "queue.sqlite"
        store_path = tmp_path / "store.sqlite"
        campaign = Campaign(
            [[30, 0, 1e6, 50, 1, -10, 25, 2.5, 0]],
            table=tiny_table,
            runs_per_scenario=100,
        )
        for enqueue in (campaign.submit, lambda seed, **paths: submit(
            campaign, seed, **paths
        )):
            with pytest.raises(ValueError, match="MAX_TAPE_BYTES"):
                enqueue(0, queue=queue_path, store=store_path)
        with WorkQueue(queue_path) as queue:
            assert queue.jobs() == []
        with ResultStore(store_path) as store:
            assert store.campaigns() == []

    @pytest.mark.parametrize("queued", [False, True])
    def test_a_post_plans_its_campaign_once(
        self, tmp_path, monkeypatch, queued
    ):
        # Inline or queued, a POST plans once, on its request thread:
        # the inline runner and the queue's fallback drain reuse that
        # plan's chunks instead of planning again.
        planned_on = []
        plan = Campaign._plan

        def counting(campaign, *args, **kwargs):
            planned_on.append(threading.current_thread())
            return plan(campaign, *args, **kwargs)

        monkeypatch.setattr(Campaign, "_plan", counting)
        service = CampaignService(
            str(tmp_path / "store.sqlite"),
            queue=str(tmp_path / "queue.sqlite") if queued else None,
        )
        try:
            response = ServiceClient(make_app(service)).post(
                "/campaigns", json_body=UNEQUIPPED
            )
            assert response.status == 202
            assert response.json()["progress"]["complete"] is True
        finally:
            service.close()
        assert planned_on == [threading.current_thread()]

    def test_malformed_where_and_params_are_400(self, client):
        cid = client.post("/campaigns", json_body=UNEQUIPPED).json()[
            "campaign_id"
        ]
        bad = client.get(f"/campaigns/{cid}/records?where=1;DROP TABLE x")
        assert bad.status == 400
        assert client.get(
            f"/campaigns/{cid}/records?limit=banana"
        ).status == 400
        assert client.get(
            f"/campaigns/{cid}/records?offset=-1"
        ).status == 400

    def test_baseline_errors(self, client):
        assert client.post(
            "/watchlist/baseline", json_body={"campaign_id": "ffffffff"}
        ).status == 404
        assert client.post(
            "/watchlist/baseline", json_body={"wrong": "shape"}
        ).status == 400


class TestWatchlist:
    def test_degraded_table_fires_regression_alert(self, client):
        baseline = client.post(
            "/campaigns", json_body={**SPEC, "label": "baseline"}
        ).json()
        pinned = client.post(
            "/watchlist/baseline",
            json_body={"campaign_id": baseline["campaign_id"][:12]},
        ).json()
        assert pinned["baseline"] == baseline["campaign_id"]

        client.post(
            "/campaigns",
            json_body={**SPEC, "preset": "degraded", "label": "broken"},
        )
        body = client.get("/alerts?refresh=1").json()
        kinds = {alert["kind"] for alert in body["alerts"]}
        assert "nmac" in kinds
        nmac = next(a for a in body["alerts"] if a["kind"] == "nmac")
        assert nmac["campaign_label"] == "broken"
        assert nmac["value"] > nmac["threshold"] >= nmac["baseline_value"]
        assert "nmac regression" in nmac["message"]

        brief = client.get("/brief")
        assert brief.status == 200
        assert brief.headers["Content-Type"].startswith("text/plain")
        assert "alerts: 1 fired" in brief.text or "fired" in brief.text
        assert "baseline" in brief.text

    def test_incomparable_campaigns_do_not_alert(self, client):
        baseline = client.post(
            "/campaigns", json_body={**SPEC, "label": "baseline"}
        ).json()
        client.post(
            "/watchlist/baseline",
            json_body={"campaign_id": baseline["campaign_id"]},
        )
        # Different scenario list → different scenarios_digest → the
        # rates measure different encounters and must not be compared,
        # however much worse they are.
        client.post(
            "/campaigns",
            json_body={**SPEC, "preset": "degraded",
                       "scenarios": ["head_on"], "label": "other-scn"},
        )
        assert client.get("/alerts?refresh=1").json()["alerts"] == []

    def test_watchlist_ranks_by_risk_and_caches(self, client):
        client.post("/campaigns", json_body=SPEC)
        snap = client.get("/watchlist?refresh=1").json()
        risks = [entry["risk"] for entry in snap["entries"]]
        assert risks == sorted(risks, reverse=True)
        assert snap["records_scanned"] == 2
        cached = client.get("/watchlist").json()
        assert cached["generated_at"] == snap["generated_at"]
        fresh = client.get("/watchlist?refresh=1").json()
        assert fresh["generated_at"] >= snap["generated_at"]

    def test_watchlist_thread_scans_and_stops(self, store, watchlist):
        thread = WatchlistThread(watchlist, interval=0.01)
        thread.start()
        deadline = time.time() + 5
        while thread.scans < 2 and time.time() < deadline:
            time.sleep(0.01)
        thread.stop()
        assert thread.scans >= 2
        assert not thread.is_alive()
        scans_after_stop = thread.scans
        time.sleep(0.05)
        assert thread.scans == scans_after_stop

    def test_watchlist_cli_shape_without_service(self, store, tiny_table):
        # Watchlist is usable standalone (the `repro watchlist` path).
        campaign = Campaign(
            ["head_on"], table=tiny_table, runs_per_scenario=2
        )
        campaign.run(seed=0, store=store)
        watch = Watchlist(store, top=1)
        brief = watch.brief(refresh=True)
        assert "1 campaign(s)" in brief
        assert "none pinned" in brief


class TestQueueMode:
    def test_fallback_worker_drains_submission(self, tmp_path):
        service = CampaignService(
            str(tmp_path / "store.sqlite"),
            queue=str(tmp_path / "queue.sqlite"),
        )
        client = ServiceClient(make_app(service))
        try:
            receipt = client.post(
                "/campaigns", json_body={**UNEQUIPPED, "timeout": 60}
            ).json()
            assert receipt["mode"] == "fallback"
            assert receipt["chunks_enqueued"] >= 1
            progress = receipt["progress"]
            assert progress["complete"] is True
            assert progress["chunks"]["done"] == progress["chunks"]["total"]

            again = client.post(
                "/campaigns",
                json_body={k: v for k, v in UNEQUIPPED.items()
                           if k != "wait"},
            ).json()
            assert again["mode"] == "complete"
        finally:
            service.close()

    @staticmethod
    def _poison(monkeypatch) -> None:
        import repro.distributed.worker as worker_module

        def explode(backend, num_runs, work):
            raise RuntimeError("boom-service-poison")

        monkeypatch.setattr(worker_module, "_execute_chunk", explode)

    @staticmethod
    def _assert_failed_with_poison(client) -> None:
        (listed,) = client.get("/campaigns").json()["campaigns"]
        body = client.get(f"/campaigns/{listed['campaign_id']}").json()
        assert body["state"] == "failed"
        assert body["complete"] is False
        assert "failed permanently" in body["error"]
        assert "boom-service-poison" in body["error"]

    def test_poisoned_fallback_campaign_reads_failed(
        self, tmp_path, monkeypatch
    ):
        """No live worker: the fallback thread's wait() raises the
        coordinator's diagnosis and the campaign reads failed."""
        self._poison(monkeypatch)
        service = CampaignService(
            str(tmp_path / "store.sqlite"),
            queue=str(tmp_path / "queue.sqlite"),
        )
        client = ServiceClient(make_app(service))
        try:
            start = time.monotonic()
            response = client.post(
                "/campaigns", json_body={**UNEQUIPPED, "timeout": 20}
            )
            assert time.monotonic() - start < 10
            assert response.status == 500
            error = response.json()["error"]
            assert "failed permanently" in error
            assert "boom-service-poison" in error
            self._assert_failed_with_poison(client)
            (listed,) = client.get("/campaigns").json()["campaigns"]
            assert client.get(
                f"/campaigns/{listed['campaign_id']}"
            ).json()["mode"] == "fallback"
        finally:
            service.close()

    def test_poisoned_queued_campaign_reads_failed(
        self, tmp_path, monkeypatch
    ):
        """A live fleet whose chunks all fail: progress() reports
        failed from the queue's chunk counts instead of running."""
        from repro.distributed import Worker

        self._poison(monkeypatch)
        queue_path = str(tmp_path / "queue.sqlite")
        service = CampaignService(
            str(tmp_path / "store.sqlite"), queue=queue_path
        )
        client = ServiceClient(make_app(service))
        fleet = threading.Thread(
            target=lambda: Worker(queue_path, poll_interval=0.01).run(
                forever=True, idle_timeout=2.0
            ),
            daemon=True,
        )
        fleet.start()
        try:
            deadline = time.monotonic() + 10
            with WorkQueue(queue_path) as queue:
                while not queue.live_workers():
                    assert time.monotonic() < deadline, "worker never live"
                    time.sleep(0.01)
            start = time.monotonic()
            response = client.post(
                "/campaigns", json_body={**UNEQUIPPED, "timeout": 20}
            )
            assert time.monotonic() - start < 10
            assert response.status == 500
            error = response.json()["error"]
            assert "failed permanently" in error
            assert "boom-service-poison" in error
            self._assert_failed_with_poison(client)
            (listed,) = client.get("/campaigns").json()["campaigns"]
            assert client.get(
                f"/campaigns/{listed['campaign_id']}"
            ).json()["mode"] == "queued"
            fleet.join(timeout=10)
            assert not fleet.is_alive()
        finally:
            fleet.join(timeout=10)
            service.close()

    def test_gc_of_a_queued_campaign_reads_failed(
        self, tmp_path, monkeypatch
    ):
        """gc dropped the poisoned campaign's chunk and job rows: it
        reads failed at once instead of running until a wait times
        out."""
        from repro.distributed import Worker

        self._poison(monkeypatch)
        queue_path = str(tmp_path / "queue.sqlite")
        service = CampaignService(
            str(tmp_path / "store.sqlite"), queue=queue_path
        )
        client = ServiceClient(make_app(service))
        try:
            with WorkQueue(queue_path) as queue:
                # An idle claim registers a live worker, so the service
                # queues the campaign and starts no fallback thread.
                assert queue.claim("idle-worker", lease_seconds=60) is None
            spec = {k: v for k, v in UNEQUIPPED.items() if k != "wait"}
            receipt = client.post("/campaigns", json_body=spec).json()
            assert receipt["mode"] == "queued"
            cid = receipt["campaign_id"]
            # No progress read before the gc: it would already mark
            # the campaign failed for its poisoned chunk.
            Worker(queue_path, poll_interval=0.01).run()
            with WorkQueue(queue_path) as queue:
                assert queue.chunk_counts(cid).failed == 1
                queue.gc()
                assert queue.chunk_counts(cid).total == 0
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="garbage-collected"):
                service.wait(cid, timeout=3)
            assert time.monotonic() - start < 2
            body = client.get(f"/campaigns/{cid}").json()
            assert body["state"] == "failed"
            assert body["complete"] is False
            assert "garbage-collected" in body["error"]
        finally:
            service.close()

    def test_interrupted_campaign_run_outside_reads_external(self, tmp_path):
        """A campaign the service did not submit, with no chunks in its
        queue, is someone else's business: it reads external, not
        failed as if its chunk rows had vanished."""
        service = CampaignService(
            str(tmp_path / "store.sqlite"),
            queue=str(tmp_path / "queue.sqlite"),
        )
        client = ServiceClient(make_app(service))
        try:
            # Campaign.run's record stream, stopped after one record.
            stream = Campaign(
                SPEC["scenarios"], equipage="none", runs_per_scenario=3
            ).iter_records(seed=5, chunk_size=1, store=service.store)
            next(stream)
            stream.close()
            (listed,) = client.get("/campaigns").json()["campaigns"]
            body = client.get(f"/campaigns/{listed['campaign_id']}").json()
            assert body["completed"] == 1 and body["num_scenarios"] == 2
            assert body["complete"] is False
            assert body["state"] == "external"
            assert body["error"] is None
        finally:
            service.close()

    def test_claimed_chunk_keeps_campaign_incomplete(self, tmp_path):
        # A worker stores a chunk's records, then releases the chunk.
        # In between, every record is stored but the chunk is still
        # claimed: the campaign must not read complete yet.
        queue_path = tmp_path / "queue.sqlite"
        store_path = tmp_path / "store.sqlite"
        service = CampaignService(str(store_path), queue=str(queue_path))
        client = ServiceClient(make_app(service))
        try:
            with WorkQueue(queue_path) as queue:
                # An idle claim registers the fake worker as live, so
                # the service queues the campaign instead of draining
                # it with a fallback worker.
                assert queue.claim("fake-worker", lease_seconds=60) is None
                spec = {k: v for k, v in UNEQUIPPED.items() if k != "wait"}
                receipt = client.post("/campaigns", json_body=spec).json()
                assert receipt["mode"] == "queued"
                assert receipt["chunks_enqueued"] == 1
                cid = receipt["campaign_id"]

                held = queue.claim("fake-worker", lease_seconds=60)
                job = queue.job(cid)
                backend = pickle.loads(job.backend_spec).build()
                items = pickle.loads(held.payload)
                work = [(i, params, seed) for i, _, params, seed in items]
                outcomes = _execute_chunk(
                    backend, job.runs_per_scenario, work
                )
                with ResultStore(store_path) as store:
                    for (index, name, params, _), (_, runs) in zip(
                        items, outcomes
                    ):
                        store.add_record(cid, RunRecord(
                            index=index, name=name, params=params, runs=runs,
                        ))

                body = client.get(f"/campaigns/{cid}").json()
                assert body["completed"] == body["num_scenarios"] == 2
                assert body["chunks"]["claimed"] == 1
                assert body["complete"] is False
                assert body["state"] == "running"

                assert queue.release(cid, held.chunk_index, "fake-worker",
                                     done=True)
                body = client.get(f"/campaigns/{cid}").json()
                assert body["chunks"]["done"] == 1
                assert body["complete"] is True
                assert body["state"] == "done"
        finally:
            service.close()

    def test_workers_endpoint_reports_liveness(self, tmp_path):
        import sqlite3

        queue_path = tmp_path / "queue.sqlite"
        service = CampaignService(
            str(tmp_path / "store.sqlite"), queue=str(queue_path)
        )
        client = ServiceClient(make_app(service))
        try:
            body = client.get("/workers").json()
            assert body["workers"] == [] and body["live"] == []

            # Plant one fresh and one stale liveness row directly (a
            # real worker deregisters on clean exit, so its row would
            # be gone before the assertion).
            now = body["now"]
            with sqlite3.connect(queue_path) as conn:
                conn.execute(
                    "INSERT INTO workers (worker_id, campaign_id,"
                    " started_at, heartbeat) VALUES (?, NULL, ?, ?)",
                    ("fresh-worker", now, now),
                )
                conn.execute(
                    "INSERT INTO workers (worker_id, campaign_id,"
                    " started_at, heartbeat) VALUES (?, NULL, ?, ?)",
                    ("stale-worker", now - 9999, now - 9999),
                )
            body = client.get("/workers").json()
            assert [w["worker_id"] for w in body["workers"]] == [
                "fresh-worker", "stale-worker"
            ]
            assert body["live"] == ["fresh-worker"]
            fresh, stale = body["workers"]
            assert fresh["live"] and not stale["live"]
            assert stale["heartbeat_age"] > fresh["heartbeat_age"]
        finally:
            service.close()

    def test_no_queue_means_no_fleet(self, client):
        body = client.get("/workers").json()
        assert body == {"queue": None, "workers": [], "live": []}


@pytest.mark.slow
class TestLiveSocket:
    def test_submit_and_watch_over_real_http(self, store, tmp_path):
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        service = CampaignService(store)
        watchlist = Watchlist(store)
        server = make_http_server(
            make_app(service, watchlist), host="127.0.0.1", port=0
        )
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            body = json.dumps(UNEQUIPPED).encode()
            with urlopen(Request(f"{base}/campaigns", data=body,
                                 method="POST"), timeout=30) as response:
                assert response.status == 202
                receipt = json.loads(response.read())
            assert receipt["progress"]["complete"] is True
            cid = receipt["campaign_id"]
            with urlopen(f"{base}/campaigns/{cid}/records?limit=1",
                         timeout=30) as response:
                assert json.loads(response.read())["count"] == 1
            with urlopen(f"{base}/brief?refresh=1", timeout=30) as response:
                assert b"watchlist brief" in response.read()
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{base}/campaigns/ffffffff", timeout=30)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
