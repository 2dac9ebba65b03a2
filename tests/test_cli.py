"""Tests for the command-line interface.

Every command runs in-process through ``repro.cli.main`` with the fast
preset and a temporary cache, asserting on exit codes and output.
"""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def temp_cache(tmp_path, monkeypatch):
    """Point the table cache at a temp dir shared within one test."""
    import repro.acasx.cache as cache_module

    monkeypatch.setattr(cache_module, "DEFAULT_CACHE_DIR", tmp_path / "cache")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.preset == "test"
        assert args.seed == 0


class TestSolve:
    def test_solve_runs(self, capsys):
        assert main(["solve", "--preset", "test"]) == 0
        out = capsys.readouterr().out
        assert "solved: LogicTable" in out

    def test_solve_with_verification(self, capsys):
        assert main(["solve", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_solve_saves_table(self, tmp_path, capsys):
        out_path = tmp_path / "table.npz"
        assert main(["solve", "--out", str(out_path)]) == 0
        assert out_path.exists()

    def test_cache_reused(self, capsys):
        main(["solve", "--verbose"])
        first = capsys.readouterr().out
        main(["solve", "--verbose"])
        second = capsys.readouterr().out
        assert "cached table" in first
        assert "loaded cached table" in second


class TestSimulate:
    @pytest.mark.parametrize("geometry", ["head-on", "tail", "random"])
    def test_geometries(self, geometry, capsys):
        assert main(["simulate", "--geometry", geometry, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "NMAC:" in out

    def test_unequipped(self, capsys):
        assert main(
            ["simulate", "--geometry", "head-on", "--equipage", "none"]
        ) == 0
        out = capsys.readouterr().out
        assert "own alerted: False" in out

    def test_trace_rendering(self, capsys):
        assert main(["simulate", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "min sep" in out


class TestCampaign:
    def test_preset_campaign(self, capsys):
        assert main(["campaign", "--runs", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 scenarios x 4 runs" in out
        assert "backend=vectorized" in out

    def test_agent_backend_and_exports(self, tmp_path, capsys):
        out_json = tmp_path / "campaign.json"
        out_csv = tmp_path / "campaign.csv"
        code = main(
            [
                "campaign",
                "--scenarios", "head_on",
                "--backend", "agent",
                "--runs", "2",
                "--out", str(out_json),
                "--csv", str(out_csv),
            ]
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["backend"] == "agent"
        assert len(payload["scenarios"]) == 1
        assert out_csv.read_text().startswith("index,name,num_runs")

    def test_sampled_unequipped_campaign(self, capsys):
        code = main(
            [
                "campaign",
                "--sample", "3",
                "--equipage", "none",
                "--runs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 scenarios x 2 runs" in out
        assert "equipage=none" in out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--scenarios", "corkscrew"])

    def test_bad_numeric_flags_exit_cleanly(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--sample", "-2"])
        with pytest.raises(SystemExit):
            main(["campaign", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["campaign", "--sample", "2", "--scenarios", "head_on"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--backend", "quantum"])

    @pytest.mark.slow
    def test_workers_match_serial(self, capsys):
        argv = ["campaign", "--sample", "4", "--runs", "3", "--seed", "9"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical apart from the workers= label and wall time lines.
        strip = lambda text: [
            line for line in text.splitlines()
            if "workers=" not in line and "wall time" not in line
        ]
        assert strip(serial) == strip(parallel)


class TestCampaignStore:
    def test_store_resume_zero_simulations(self, tmp_path, capsys):
        argv = [
            "campaign", "--sample", "3", "--runs", "2", "--seed", "5",
            "--equipage", "none", "--store", str(tmp_path / "s.sqlite"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "simulated 3" in first
        # Identical spec: everything loads, nothing simulates.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "loaded 3, simulated 0" in second

    def test_traced_campaign_then_trace_prints_kernel_totals(
        self, tmp_path, capsys
    ):
        store_path = str(tmp_path / "s.sqlite")
        assert main([
            "campaign", "--sample", "3", "--runs", "2", "--seed", "5",
            "--equipage", "none", "--store", store_path, "--trace",
        ]) == 0
        out = capsys.readouterr().out
        campaign_id = out.split("trace recorded: repro trace ")[1].split()[0]
        assert main(["trace", campaign_id, "--store", store_path]) == 0
        trace = capsys.readouterr().out
        assert "kernel.decision" in trace
        footer = trace[trace.index("totals per span name:"):]
        for name in ("campaign.chunk", "kernel.tape_draw", "kernel.decision",
                     "kernel.physics", "kernel.observe"):
            assert name in footer
        # The phase split comes from the trace; --profile is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--profile"])

    def test_store_list_show_export_diff(self, tmp_path, capsys):
        store_path = str(tmp_path / "s.sqlite")
        base = ["campaign", "--sample", "3", "--runs", "2", "--seed", "5",
                "--store", store_path]
        assert main(base + ["--equipage", "none"]) == 0
        assert main(base) == 0
        capsys.readouterr()

        assert main(["store", "list", store_path]) == 0
        listing = capsys.readouterr().out
        ids = [
            line.split()[0]
            for line in listing.splitlines()[1:]
            if line.strip()
        ]
        assert len(ids) == 2

        assert main(["store", "show", store_path, ids[0]]) == 0
        shown = capsys.readouterr().out
        assert "campaign:" in shown
        assert "complete" in shown

        out_json = tmp_path / "export.json"
        out_csv = tmp_path / "export.csv"
        assert main(["store", "export", store_path, ids[0],
                     "--out", str(out_json), "--csv", str(out_csv)]) == 0
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert len(payload["scenarios"]) == 3
        assert out_csv.read_text().startswith("index,name,num_runs")

        assert main(["store", "diff", store_path, ids[0], ids[1]]) == 0
        diff = capsys.readouterr().out
        assert "nmac_rate" in diff
        assert "paired scenarios: 3" in diff

    def test_store_unknown_campaign_exits_cleanly(self, tmp_path, capsys):
        store_path = str(tmp_path / "s.sqlite")
        assert main(["store", "list", store_path]) == 0
        with pytest.raises(SystemExit):
            main(["store", "show", store_path, "deadbeef"])
        with pytest.raises(SystemExit):
            main(["store", "export", store_path, "deadbeef"])

    def test_montecarlo_store_logs_both_arms(self, tmp_path, capsys):
        store_path = str(tmp_path / "s.sqlite")
        assert main(["montecarlo", "--encounters", "3", "--runs", "2",
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "store [equipped]" in out
        assert "store [unequipped]" in out
        assert main(["store", "list", store_path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestSearch:
    def test_small_search_with_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "search",
                "--population", "8",
                "--generations", "2",
                "--runs", "5",
                "--top", "3",
                "--out", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert len(payload["top_encounters"]) == 3
        assert len(payload["generation_summary"]) == 2
        assert len(payload["top_encounters"][0]["genome"]) == 9
        # The report names what it searched.
        assert (
            payload["backend"], payload["equipage"],
            payload["coordination"], payload["table_preset"],
        ) == ("vectorized-batch", "both", True, "test")
        out = capsys.readouterr().out
        assert "geometry counts" in out

    def test_negative_top_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit, match="--top"):
            main(["search", "--top", "-1"])
        assert main([
            "search", "--population", "4", "--generations", "1",
            "--runs", "2", "--top", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "top encounters:\n  #" not in out

    def test_svo_backend_solves_no_table(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        def refuse(args):
            raise AssertionError("a logic table was loaded")

        monkeypatch.setattr(cli, "_load_table", refuse)
        report_path = tmp_path / "svo.json"
        assert main([
            "search", "--backend", "agent-svo", "--population", "4",
            "--generations", "2", "--runs", "2", "--top", "2",
            "--out", str(report_path),
        ]) == 0
        payload = json.loads(report_path.read_text())
        assert (payload["backend"], payload["table_preset"]) == (
            "agent-svo", None
        )
        assert main([
            "campaign", "--backend", "agent-svo", "--scenarios", "head_on",
            "--runs", "2",
        ]) == 0
        assert main([
            "montecarlo", "--backend", "agent-svo", "--encounters", "2",
            "--runs", "2",
        ]) == 0
        assert main([
            "submit", "--backend", "agent-svo", "--scenarios", "head_on",
            "--runs", "2", "--queue", str(tmp_path / "q.sqlite"),
            "--store", str(tmp_path / "s.sqlite"),
        ]) == 0
        assert "enqueued 1 chunk(s)" in capsys.readouterr().out

    def test_backend_flag_accepted(self, capsys):
        code = main(
            [
                "search",
                "--backend", "vectorized",
                "--equipage", "own-only",
                "--coordination", "off",
                "--population", "6",
                "--generations", "2",
                "--runs", "3",
                "--top", "2",
            ]
        )
        assert code == 0
        assert "top encounters" in capsys.readouterr().out


class TestMonteCarlo:
    def test_small_campaign(self, capsys):
        code = main(["montecarlo", "--encounters", "10", "--runs", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "risk ratio" in out

    @pytest.mark.slow
    def test_workers_match_serial(self, capsys):
        argv = ["montecarlo", "--encounters", "6", "--runs", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestInspect:
    def test_action_map_printed(self, capsys):
        assert main(["inspect"]) == 0
        out = capsys.readouterr().out
        assert "alerting envelope" in out
        assert "h=" in out
        # The alerting glyphs must appear somewhere in the map.
        assert any(glyph in out for glyph in "cdCD")


class TestAirspace:
    def test_equipped_run(self, capsys):
        code = main(["airspace", "--aircraft", "4", "--duration", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "closest pair" in out

    def test_unequipped_run(self, capsys):
        code = main(
            ["airspace", "--aircraft", "3", "--duration", "30",
             "--equipage", "none"]
        )
        assert code == 0
        assert "alerted: 0.00" in capsys.readouterr().out


class TestMachineReadableViews:
    """--format json + pagination: the script/service-shared surface."""

    def _seed_store(self, tmp_path, capsys, campaigns=2):
        store_path = str(tmp_path / "s.sqlite")
        for seed in range(campaigns):
            assert main(["campaign", "--sample", "3", "--runs", "2",
                         "--seed", str(seed), "--equipage", "none",
                         "--store", store_path]) == 0
        capsys.readouterr()
        return store_path

    def test_store_list_json_and_pagination(self, tmp_path, capsys):
        store_path = self._seed_store(tmp_path, capsys)
        assert main(["store", "list", store_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert {"campaign_id", "label", "complete", "num_scenarios",
                "scenarios_digest"} <= set(payload[0])

        assert main(["store", "list", store_path, "--format", "json",
                     "--limit", "1", "--offset", "1"]) == 0
        window = json.loads(capsys.readouterr().out)
        assert [c["campaign_id"] for c in window] == [
            payload[1]["campaign_id"]
        ]

    def test_store_records_pagination(self, tmp_path, capsys):
        store_path = self._seed_store(tmp_path, capsys, campaigns=1)
        assert main(["store", "records", store_path,
                     "--limit", "2", "--offset", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["index"] for r in rows] == [1, 2]

    def test_status_json(self, tmp_path, capsys):
        store_path = str(tmp_path / "s.sqlite")
        queue_path = str(tmp_path / "q.sqlite")
        assert main(["submit", "--sample", "2", "--runs", "2",
                     "--equipage", "none", "--queue", queue_path,
                     "--store", store_path]) == 0
        capsys.readouterr()
        assert main(["status", queue_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queue"] == queue_path
        assert len(payload["jobs"]) == 1
        job = payload["jobs"][0]
        assert job["num_scenarios"] == 2
        assert job["chunks"]["total"] >= 1
        assert job["complete"] is False  # nothing drained it yet

    def test_status_waits_for_a_claimed_chunk(self, tmp_path, capsys):
        # A worker stores a chunk's records before it releases the
        # chunk; in between, status must not call the campaign complete.
        import pickle

        from repro.distributed import WorkQueue
        from repro.experiments.campaign import RunRecord, _execute_chunk
        from repro.store import ResultStore

        store_path = str(tmp_path / "s.sqlite")
        queue_path = str(tmp_path / "q.sqlite")
        assert main(["submit", "--sample", "2", "--runs", "2",
                     "--equipage", "none", "--chunk-size", "1",
                     "--queue", queue_path, "--store", store_path]) == 0
        capsys.readouterr()

        def status():
            assert main(["status", queue_path, "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            return payload["jobs"][0], payload["incomplete"]

        with WorkQueue(queue_path) as queue, ResultStore(
            store_path
        ) as store:
            held = [queue.claim("w1", lease_seconds=60) for _ in range(2)]
            job = queue.job(held[0].campaign_id)
            backend = pickle.loads(job.backend_spec).build()
            for chunk in held:
                items = pickle.loads(chunk.payload)
                outcomes = _execute_chunk(
                    backend, job.runs_per_scenario,
                    [(index, params, seed)
                     for index, _, params, seed in items],
                )
                for (index, name, params, _), (_, runs) in zip(
                    items, outcomes
                ):
                    store.add_record(chunk.campaign_id, RunRecord(
                        index=index, name=name, params=params, runs=runs,
                    ))
            first, second = held
            assert queue.release(
                first.campaign_id, first.chunk_index, "w1", done=True
            )
            row, incomplete = status()
            assert row["records_done"] == 2
            assert row["chunks"]["done"] == row["chunks"]["claimed"] == 1
            assert row["complete"] is False
            assert incomplete == 1

            assert queue.release(
                second.campaign_id, second.chunk_index, "w1", done=True
            )
            row, incomplete = status()
            assert row["complete"] is True
            assert incomplete == 0

    def test_watchlist_command(self, tmp_path, capsys):
        store_path = self._seed_store(tmp_path, capsys, campaigns=1)
        assert main(["watchlist", store_path]) == 0
        brief = capsys.readouterr().out
        assert "watchlist brief" in brief
        assert "none pinned" in brief

        assert main(["watchlist", store_path, "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["records_scanned"] == 3
        assert snapshot["alerts"] == []

        with pytest.raises(SystemExit):
            main(["watchlist", str(tmp_path / "missing.sqlite")])
        with pytest.raises(SystemExit):
            main(["watchlist", store_path, "--baseline", "deadbeef"])

    def test_watchlist_fail_on_alert_gates(self, tmp_path, capsys):
        store_path = self._seed_store(tmp_path, capsys, campaigns=1)
        ids = json.loads(
            (main(["store", "list", store_path, "--format", "json"]),
             capsys.readouterr().out)[1]
        )
        baseline = ids[0]["campaign_id"]
        # Only the baseline itself is stored: nothing can regress.
        assert main(["watchlist", store_path, "--baseline", baseline,
                     "--fail-on-alert"]) == 0
