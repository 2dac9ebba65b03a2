"""Tests for `repro.telemetry`: tracing, metrics, and the front door.

The two acceptance criteria of the subsystem:

- a traced fleet campaign yields **one connected span tree** spanning
  the coordinator and both worker processes (>= 3 processes), while
  the campaign id and results digest stay **bitwise identical** to an
  untraced serial twin;
- disarmed telemetry is cheap enough to leave permanently in the hot
  seams (< 2% of a 50x100 megabatch campaign).
"""

import json
import multiprocessing
import time

import pytest

from repro import telemetry
from repro.distributed import WorkQueue, submit
from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, SampledSource
from repro.service import CampaignService, Watchlist, make_app
from repro.service.testing import ServiceClient
from repro.store import ResultStore
from repro.store.spec import results_digest
from repro.telemetry.metrics import MetricsRegistry, merge_samples
from repro.telemetry.snapshot import scrape

RUNS = 3
SEED = 11


def make_campaign(scenarios: int = 4, **kwargs) -> Campaign:
    kwargs.setdefault("equipage", "none")
    return Campaign(
        SampledSource(StatisticalEncounterModel(), scenarios),
        runs_per_scenario=RUNS,
        **kwargs,
    )


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "queue.sqlite", tmp_path / "store.sqlite"


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with telemetry disarmed."""
    telemetry.disarm()
    yield
    telemetry.disarm()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "a counter")
        counter.inc(outcome="ok")
        counter.inc(2, outcome="ok")
        counter.inc(outcome="bad")
        assert counter.value(outcome="ok") == 3
        assert counter.total() == 4
        gauge = registry.gauge("g", "a gauge")
        gauge.set(7)
        gauge.set(5)
        assert gauge.value() == 5
        hist = registry.histogram("h_seconds", "a histogram")
        hist.observe(0.003)
        hist.observe(0.02)
        hist.observe(99.0)
        assert hist.value() == 3

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(TypeError):
            registry.counter("x_total").set(1)

    def test_exposition_is_valid_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help text").inc(kind='we"ird\n')
        registry.histogram("h_seconds", "latency").observe(0.02)
        text = registry.exposition()
        assert "# HELP c_total help text" in text
        assert "# TYPE c_total counter" in text
        assert "# TYPE h_seconds histogram" in text
        assert '\\"' in text and "\\n" in text  # label escaping
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text
        assert text.endswith("\n")
        # Buckets are cumulative and monotone non-decreasing.
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_seconds_bucket")
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 1.0

    def test_merge_sums_counters_across_processes(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for registry, amount in ((a, 2), (b, 3)):
            registry.counter("c_total").inc(amount, outcome="done")
            registry.gauge("g").set(amount)
        merged = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in merge_samples(a.flatten(), b.flatten())
        }
        assert merged[("c_total", (("outcome", "done"),))] == 5
        assert merged[("g", ())] == 3  # gauges: last writer wins


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disarmed_span_is_noop(self):
        span = telemetry.span("anything", key="value")
        assert span.span_id is None
        with span as inner:
            inner.set(more="attrs")
            inner.event("nothing")

    def test_nesting_error_persist_and_tree(self, tmp_path):
        db = str(tmp_path / "spans.sqlite")
        with telemetry.collect(db):
            with telemetry.span("root", campaign_id="cafe01"):
                with telemetry.span("child"):
                    telemetry.event("tick", n=1)
                with pytest.raises(RuntimeError):
                    with telemetry.span("broken"):
                        raise RuntimeError("boom")
        spans = telemetry.load_spans(db, campaign_id="cafe01")
        assert {s["name"] for s in spans} == {"root", "child", "broken"}
        by_name = {s["name"]: s for s in spans}
        root = by_name["root"]
        assert root["parent_id"] is None
        assert by_name["child"]["parent_id"] == root["span_id"]
        # children inherit campaign_id from the enclosing span
        assert by_name["child"]["campaign_id"] == "cafe01"
        assert by_name["broken"]["status"] == "error"
        assert by_name["child"]["events"][0]["name"] == "tick"
        roots = telemetry.span_tree(spans)
        assert len(roots) == 1
        assert len(roots[0]["children"]) == 2
        path = telemetry.critical_path(roots)
        assert path[0] == root["span_id"]
        rendered = telemetry.render_trace(spans)
        assert "root" in rendered and "critical path" in rendered

    def test_traced_serial_run_identical_to_untraced(self, tmp_path):
        store_a = str(tmp_path / "a.sqlite")
        store_b = str(tmp_path / "b.sqlite")
        with ResultStore(store_a) as store:
            plain = make_campaign().run(seed=SEED, store=store)
        with telemetry.collect(store_b):
            with ResultStore(store_b) as store:
                traced = make_campaign().run(seed=SEED, store=store)
        assert (
            plain.metadata["campaign_id"] == traced.metadata["campaign_id"]
        )
        assert results_digest(plain) == results_digest(traced)
        spans = telemetry.load_spans(
            store_b, campaign_id=traced.metadata["campaign_id"]
        )
        assert any(s["name"] == "campaign.run" for s in spans)


# ----------------------------------------------------------------------
# Cross-process fleet tracing (the tentpole acceptance test)
# ----------------------------------------------------------------------
class TestFleetTracing:
    @pytest.mark.slow
    def test_fleet_trace_connected_across_processes_and_bitwise(
        self, paths
    ):
        queue_path, store_path = paths
        serial = make_campaign(6).run(seed=SEED)

        with telemetry.collect(str(store_path), trace_id="feed1234"):
            run = submit(
                make_campaign(6), SEED,
                queue=queue_path, store=store_path, chunk_size=1,
            )
            # Two real worker processes, each capped at 3 chunks so
            # both *must* participate to drain the 6 chunks.
            workers = [
                multiprocessing.Process(
                    target=_traced_fleet_member, args=(str(queue_path),)
                )
                for _ in range(2)
            ]
            for process in workers:
                process.start()
            for process in workers:
                process.join(timeout=60)
            final = run.wait(timeout=30, poll=0.05)
            assert final.complete
            collected = run.collect()

        # Bitwise identity: tracing must not perturb the results.
        assert run.campaign_id == serial.metadata.get(
            "campaign_id", run.campaign_id
        )
        assert results_digest(serial) == results_digest(collected)

        spans = telemetry.load_spans(str(store_path), trace_id="feed1234")
        processes = {s["process"] for s in spans}
        assert len(processes) >= 3, processes  # coordinator + 2 workers

        by_id = {s["span_id"]: s for s in spans}
        chunk_spans = [s for s in spans if s["name"] == "worker.chunk"]
        drain_spans = [s for s in spans if s["name"] == "worker.drain"]
        assert len(chunk_spans) == 6
        assert len(drain_spans) == 6
        # The kernel's phase spans sit under every simulate span, in
        # the worker process that ran it.
        simulate_spans = [s for s in spans if s["name"] == "worker.simulate"]
        assert len(simulate_spans) == 6
        for simulate in simulate_spans:
            kernel = [
                s for s in spans if s["parent_id"] == simulate["span_id"]
            ]
            assert sorted(s["name"] for s in kernel) == [
                "kernel.decision", "kernel.observe", "kernel.physics",
                "kernel.tape_draw",
            ]
            assert {s["process"] for s in kernel} == {simulate["process"]}
            assert all(s["attributes"]["synthetic"] for s in kernel)
        root = next(s for s in spans if s["name"] == "campaign.submit")
        assert root["parent_id"] is None
        # One connected tree: every span walks up to the submit root.
        for span in spans:
            node = span
            hops = 0
            while node["parent_id"] is not None:
                assert node["parent_id"] in by_id, (
                    f"{node['name']} has a dangling parent"
                )
                node = by_id[node["parent_id"]]
                hops += 1
                assert hops < 32
            assert node["span_id"] == root["span_id"], (
                f"{span['name']} not connected to the submit root"
            )
        # Both endpoints agree on the tree.
        payload = telemetry.trace_payload(spans)
        assert payload["span_count"] == len(spans)
        assert len(payload["roots"]) == 1
        assert len(payload["critical_path"]) >= 2

    def test_table_shipping_is_traced(self, paths, tiny_table):
        """Submits record the table write, the worker its one load and
        digest check, so trace totals show what shipping cost."""
        from repro.store import table_digest

        queue_path, store_path = paths
        digest = table_digest(tiny_table)
        with telemetry.collect(str(store_path), trace_id="7ab1e5"):
            runs = [
                submit(
                    make_campaign(2, table=tiny_table, equipage="both"),
                    seed, queue=queue_path, store=store_path,
                )
                for seed in (1, 2)
            ]
            worker = multiprocessing.Process(
                target=_traced_fleet_member, args=(str(queue_path),)
            )
            worker.start()
            worker.join(timeout=60)
            for run in runs:
                assert run.wait(timeout=30, poll=0.05).complete

        spans = telemetry.load_spans(str(store_path), trace_id="7ab1e5")
        by_id = {s["span_id"]: s for s in spans}
        puts = [s for s in spans if s["name"] == "queue.put_table"]
        assert [s["attributes"]["inserted"] for s in puts] == [True, False]
        for put in puts:
            assert put["attributes"]["digest"] == digest
            assert put["attributes"]["bytes"] == len(tiny_table.to_bytes())
            assert by_id[put["parent_id"]]["name"] == "campaign.enqueue"
        (load,) = [s for s in spans if s["name"] == "worker.load_table"]
        assert load["process"].startswith("worker:")
        assert load["attributes"]["digest"] == digest
        assert load["attributes"]["bytes"] == len(tiny_table.to_bytes())
        assert 0 <= load["attributes"]["check_s"] <= load["duration"]
        assert by_id[load["parent_id"]]["name"] == "worker.chunk"
        totals = telemetry.span_totals(spans)
        assert totals["queue.put_table"]["count"] == 2
        assert totals["worker.load_table"]["count"] == 1

    @pytest.mark.slow
    def test_worker_metrics_aggregate_through_queue(self, paths):
        queue_path, store_path = paths
        run = submit(
            make_campaign(4), SEED,
            queue=queue_path, store=store_path, chunk_size=1,
        )
        from repro.distributed import FleetSupervisor

        report = FleetSupervisor(
            queue_path, workers=2, lease_seconds=10, poll_interval=0.02
        ).run(timeout=120)
        assert report.drained
        assert run.wait(timeout=30, poll=0.05).complete
        with WorkQueue(queue_path) as queue:
            samples = queue.fleet_metric_samples()
        by_key = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in samples
        }
        assert by_key[
            ("repro_worker_chunks_total", (("outcome", "done"),))
        ] == 4
        assert by_key[
            ("repro_worker_records_total", (("outcome", "written"),))
        ] == 4
        text = scrape(
            registry=MetricsRegistry(),  # empty local side
            queue_path=str(queue_path), store_path=str(store_path),
        )
        assert 'repro_queue_chunks{status="done"} 4' in text
        assert "repro_store_records 4" in text
        assert 'repro_worker_chunks_total{outcome="done"} 4' in text


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
class TestOverhead:
    @pytest.mark.slow
    def test_disarmed_overhead_under_two_percent(self):
        campaign = Campaign(
            SampledSource(StatisticalEncounterModel(), 50),
            equipage="none",
            runs_per_scenario=100,
        )
        start = time.perf_counter()
        campaign.run(seed=SEED)
        wall = time.perf_counter() - start

        # A run of this shape opens ~51 spans (one per chunk plus the
        # run envelope); measure 5k disarmed hook calls — two orders of
        # magnitude more than reality — and demand they still fit in
        # the 2% budget.
        assert not telemetry.armed()
        start = time.perf_counter()
        for _ in range(5_000):
            with telemetry.span("noop", campaign_id="x"):
                pass
        hook_cost = time.perf_counter() - start
        assert hook_cost < 0.02 * wall, (
            f"5k disarmed spans took {hook_cost:.4f}s "
            f"vs campaign wall {wall:.4f}s"
        )


# ----------------------------------------------------------------------
# Service front door
# ----------------------------------------------------------------------
class TestServiceFrontDoor:
    def _client(self, tmp_path, arm: bool = False):
        store_path = str(tmp_path / "svc.sqlite")
        service = CampaignService(store_path)
        if arm:
            telemetry.arm(store_path, process="service-test")
        app = make_app(service, watchlist=Watchlist(service.store))
        return ServiceClient(app), service, store_path

    def test_metrics_endpoint_prometheus_text(self, tmp_path):
        client, service, _ = self._client(tmp_path)
        with service:
            assert client.get("/healthz").status == 200
            response = client.get("/metrics")
            assert response.status == 200
            text = response.text
            assert "# TYPE repro_http_requests_total counter" in text
            assert 'route="healthz"' in text
            assert "# TYPE repro_http_request_seconds histogram" in text
            assert "repro_store_campaigns 0" in text
            assert "repro_uptime_seconds" in text

    def test_healthz_carries_metrics_snapshot(self, tmp_path):
        client, service, _ = self._client(tmp_path)
        with service:
            body = client.get("/healthz").json()
            body = client.get("/healthz").json()
            assert body["status"] == "ok"
            assert body["uptime_seconds"] >= 0
            assert body["requests_total"] >= 1
            assert body["submissions_total"] == 0
            assert body["live_workers"] is None  # no queue configured
            assert "scans" in body["watchlist"]

    def test_submit_then_trace_endpoint(self, tmp_path):
        client, service, store_path = self._client(tmp_path, arm=True)
        # The registry is process-wide, so earlier tests' submissions
        # are in it too: this POST must add exactly one.
        submissions = telemetry.REGISTRY.counter(
            "repro_service_submissions_total"
        )
        inline_before = int(submissions.value(mode="inline"))
        with service:
            spec = {
                "scenarios": {"sample": 3},
                "equipage": "none",
                "runs": RUNS,
                "seed": SEED,
                "wait": True,
                "timeout": 60,
            }
            receipt = client.post("/campaigns", spec).json()
            campaign_id = receipt["campaign_id"]
            assert receipt["progress"]["complete"]
            telemetry.collector().flush()

            payload = client.get(f"/campaigns/{campaign_id}/trace").json()
            assert payload["campaign_id"] == campaign_id
            assert payload["span_count"] >= 1
            names = set()

            def walk(nodes):
                for node in nodes:
                    names.add(node["name"])
                    walk(node["children"])

            walk(payload["roots"])
            assert "service.request" in names or "campaign.run" in names

            assert client.get("/campaigns/zzzz/trace").status == 404

            text = client.get("/metrics").text
            assert (
                'repro_service_submissions_total{mode="inline"} '
                f"{inline_before + 1}"
            ) in text.splitlines()

    def test_trace_endpoint_memory_store_empty(self):
        service = CampaignService()  # :memory:
        client = ServiceClient(make_app(service))
        with service:
            spec = {
                "scenarios": {"sample": 2},
                "equipage": "none",
                "runs": 2,
                "wait": True,
            }
            receipt = client.post("/campaigns", spec).json()
            payload = client.get(
                f"/campaigns/{receipt['campaign_id']}/trace"
            ).json()
            assert payload["span_count"] == 0


# ----------------------------------------------------------------------
# Watchlist / supervisor instrumentation
# ----------------------------------------------------------------------
class TestSatellites:
    def test_watchlist_scan_counter_moves(self, tmp_path):
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            watchlist = Watchlist(store)
            before = telemetry.REGISTRY.counter(
                "repro_watchlist_scans_total"
            ).value(outcome="ok")
            watchlist.refresh()
            after = telemetry.REGISTRY.counter(
                "repro_watchlist_scans_total"
            ).value(outcome="ok")
        assert after == before + 1

    def test_fleet_report_tail(self):
        from repro.distributed.supervisor import FleetReport, WorkerEvent

        report = FleetReport(
            workers=1, restarts=3, gave_up=0, drained=True,
            wall_time=1.0,
            events=[
                WorkerEvent(kind="restart", slot=0, worker_id=f"w{i}")
                for i in range(12)
            ],
        )
        tail = report.tail(limit=8)
        assert len(tail) == 8
        assert tail[-1] == "[slot 0] w11: restart"


def _traced_fleet_member(queue_path: str) -> None:
    """A fleet worker capped at 3 chunks (forces both to take part)."""
    from repro.distributed import Worker

    Worker(queue_path, lease_seconds=10, poll_interval=0.02).run(
        max_chunks=3, idle_timeout=5.0
    )
