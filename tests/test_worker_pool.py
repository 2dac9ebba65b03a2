"""One warm process pool per GA search: bits, lifecycle, failure, trace.

``Campaign.run(pool=...)`` runs a plan on an open :class:`WorkerPool`.
:class:`EncounterFitness` keeps one open for a whole ``with`` scope,
which :meth:`GeneticAlgorithm.run` enters for the whole search.  The
CPU count is patched to 2 here, so every test below takes the pooled
path on any host.
"""

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import telemetry
from repro.encounters.generator import ParameterRanges
from repro.experiments import Campaign, WorkerPool, make_backend
from repro.experiments import campaign as campaign_module
from repro.search import fitness as fitness_module
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig, GeneticAlgorithm
from repro.store import ResultStore, results_digest

KERNEL_SPANS = (
    "kernel.tape_draw", "kernel.decision", "kernel.physics", "kernel.observe",
)


def use_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(campaign_module, "usable_cpus", lambda: count)


@pytest.fixture
def two_cpus(monkeypatch):
    use_cpus(monkeypatch, 2)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any attempt of the fitness to start a pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(fitness_module, "WorkerPool", refuse)


def children():
    return sorted(child.pid for child in multiprocessing.active_children())


def search(fitness, seed=7, generations=3, population=8, callback=None):
    ga = GeneticAlgorithm(ParameterRanges(), GAConfig(
        population_size=population, generations=generations,
    ))
    return ga.run(fitness, seed=seed, callback=callback)


def assert_same_search(a, b):
    assert len(a.fitness_history) == len(b.fitness_history)
    for x, y in zip(a.fitness_history, b.fitness_history):
        assert x.tobytes() == y.tobytes()
    assert a.best_genome.tobytes() == b.best_genome.tobytes()


def population(seed=0, size=8):
    ranges = ParameterRanges()
    return np.random.default_rng(seed).uniform(
        ranges.lows(), ranges.highs(), size=(size, len(ranges.lows()))
    )


class TestCampaignPool:
    def test_pool_runs_are_bitwise_serial(self, test_table):
        campaign = Campaign(
            population(), table=test_table, runs_per_scenario=4,
        )
        serial = campaign.run(seed=2)
        with WorkerPool([campaign.backend], 2) as pool:
            first = campaign.run(seed=2, pool=pool)
            pids = children()
            with ResultStore(":memory:") as store:
                stored = campaign.run(seed=2, pool=pool, store=store)
            assert children() == pids  # one warm pool for both runs
        assert children() == []
        assert first.workers == stored.workers == 2
        assert results_digest(first) == results_digest(serial)
        assert results_digest(stored) == results_digest(serial)

    def test_one_pool_serves_each_backend_it_holds(self, test_table):
        # Paired arms, one pool: each task names its campaign's backend.
        arms = [
            Campaign(population(), table=table, equipage=equipage,
                     runs_per_scenario=4)
            for table, equipage in ((test_table, "both"), (None, "none"))
        ]
        serial = [arm.run(seed=5) for arm in arms]
        with WorkerPool([arm.backend for arm in arms], 2) as pool:
            pooled = [arm.run(seed=5, pool=pool) for arm in arms]
            pids = children()
            again = arms[0].run(seed=5, pool=pool)
            assert children() == pids
        assert children() == []
        for got, want in zip(pooled + [again], serial + serial[:1]):
            assert results_digest(got) == results_digest(want)

    def test_montecarlo_runs_both_arms_on_one_pool(
        self, test_table, monkeypatch
    ):
        from repro.encounters.statistical import StatisticalEncounterModel
        from repro.montecarlo import MonteCarloEstimator
        from repro.montecarlo import estimator as estimator_module

        pools = []

        class CountedPool(WorkerPool):
            def __init__(self, backends, workers):
                pools.append(len(backends))
                super().__init__(backends, workers)

        monkeypatch.setattr(estimator_module, "WorkerPool", CountedPool)

        def estimate(workers):
            report = MonteCarloEstimator(
                test_table, StatisticalEncounterModel(),
                runs_per_encounter=3, workers=workers,
            ).estimate(6, seed=4)
            return [results_digest(arm) for arm in (
                report.equipped_results, report.unequipped_results
            )], report.summary()

        assert estimate(2) == estimate(1)
        assert pools == [2]
        assert children() == []

    def test_pool_for_another_backend_is_refused(self, test_table):
        campaign = Campaign(population(), table=test_table, runs_per_scenario=2)
        other = make_backend("vectorized-batch", table=test_table)
        with WorkerPool([other], 2) as pool:
            with pytest.raises(ValueError, match="different backend"):
                campaign.run(seed=0, pool=pool)

    def test_pool_and_workers_together_are_refused(self, test_table):
        campaign = Campaign(population(), table=test_table, runs_per_scenario=2)
        with WorkerPool([campaign.backend], 2) as pool:
            with pytest.raises(ValueError, match="not both"):
                campaign.run(seed=0, pool=pool, workers=2)

    def test_workers_n_reaps_its_one_shot_pool(self, test_table):
        campaign = Campaign(population(), table=test_table, runs_per_scenario=2)
        pooled = campaign.run(seed=1, workers=2)
        assert pooled.workers == 2
        assert children() == []
        assert results_digest(pooled) == results_digest(campaign.run(seed=1))


class TestSearchPool:
    def test_search_runs_on_one_pool_and_reaps_it(self, test_table, two_cpus):
        seen = []
        pooled = search(
            EncounterFitness(test_table, num_runs=10, seed=3),
            callback=lambda *_: seen.append(children()),
        )
        assert len(seen[0]) == 2
        assert seen == [seen[0]] * 3
        assert children() == []
        serial = search(EncounterFitness(test_table, num_runs=10, seed=3))
        assert_same_search(pooled, serial)

    def test_svo_search_pools_bitwise_serial(self, monkeypatch, two_cpus):
        # The agent-engine SVO key searches on the same warm pool as the
        # ACAS keys, with a serial search's bits.
        seen = []
        pooled = search(
            EncounterFitness(backend="agent-svo", num_runs=2, seed=3),
            generations=2, population=4,
            callback=lambda *_: seen.append(children()),
        )
        assert len(seen[0]) == 2
        assert children() == []
        use_cpus(monkeypatch, 1)
        serial = search(
            EncounterFitness(backend="agent-svo", num_runs=2, seed=3),
            generations=2, population=4,
        )
        assert_same_search(pooled, serial)

    def test_false_alarm_search_pools_bitwise_serial(
        self, test_table, monkeypatch, two_cpus
    ):
        # Both arms of the false-alarm fitness are EncounterFitness
        # campaigns: the search runs them on one warm pool holding both
        # arms' backends, reaps it, and scores every generation with a
        # serial search's bits.
        from repro.search.fitness import FalseAlarmFitness

        seen = []
        pooled = search(
            FalseAlarmFitness(test_table, num_runs=4, seed=3),
            generations=2, callback=lambda *_: seen.append(children()),
        )
        assert len(seen[0]) == 2
        assert seen == [seen[0]] * 2
        assert children() == []
        use_cpus(monkeypatch, 1)
        serial = search(
            FalseAlarmFitness(test_table, num_runs=4, seed=3), generations=2
        )
        assert_same_search(pooled, serial)

    def test_one_cpu_stays_serial(self, test_table, monkeypatch, no_pool):
        use_cpus(monkeypatch, 1)
        result = search(EncounterFitness(test_table, num_runs=4, seed=3))
        assert result.evaluations == 24

    def test_bare_evaluation_stays_serial(self, test_table, two_cpus, no_pool):
        fitness = EncounterFitness(test_table, num_runs=4, seed=3)
        assert fitness.evaluate_population(population()).shape == (8,)

    def test_fleet_backend_never_opens_a_pool(
        self, test_table, tmp_path, two_cpus, no_pool
    ):
        fitness = EncounterFitness(
            test_table, num_runs=3, seed=3, backend="distributed",
            backend_options={
                "queue": str(tmp_path / "queue.sqlite"),
                "store": str(tmp_path / "store.sqlite"),
            },
        )
        result = search(fitness, generations=1, population=4)
        assert result.evaluations == 4

    def test_search_that_raises_reaps_its_pool(self, test_table, two_cpus):
        def fail(generation, genomes, fitnesses):
            assert children()
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            search(EncounterFitness(test_table, num_runs=4, seed=3),
                   callback=fail)
        assert children() == []

    def test_nested_scopes_share_one_pool(self, test_table, two_cpus):
        fitness = EncounterFitness(test_table, num_runs=4, seed=3)
        seen = []
        with fitness:
            search(fitness, generations=2,
                   callback=lambda *_: seen.append(children()))
            assert children() == seen[0]  # the inner exit kept it open
            search(fitness, seed=8, generations=2,
                   callback=lambda *_: seen.append(children()))
        assert len(seen[0]) == 2
        assert seen == [seen[0]] * 4
        assert children() == []

    def test_killed_child_breaks_the_next_evaluation_only(
        self, test_table, monkeypatch, two_cpus
    ):
        pooled = EncounterFitness(test_table, num_runs=4, seed=3)
        twin = EncounterFitness(test_table, num_runs=4, seed=3)
        genomes = population()
        with pooled:
            pooled.evaluate_population(genomes)
            victim = children()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while victim in children() and time.monotonic() < deadline:
                time.sleep(0.01)
            start = time.monotonic()
            with pytest.raises(BrokenProcessPool):
                pooled.evaluate_population(genomes)
            assert time.monotonic() - start < 30
        assert children() == []
        # The twin draws the same noise streams, serially.
        use_cpus(monkeypatch, 1)
        twin.evaluate_population(genomes)
        twin.evaluate_population(genomes)
        serial = search(twin)
        use_cpus(monkeypatch, 2)
        seen = []
        fresh = search(pooled, callback=lambda *_: seen.append(children()))
        assert len(seen[0]) == 2 and victim not in seen[0]
        assert_same_search(fresh, serial)

    def test_pooled_search_stores_the_serial_campaigns(
        self, test_table, monkeypatch, two_cpus
    ):
        def stored_search(cpus):
            use_cpus(monkeypatch, cpus)
            store = ResultStore(":memory:")
            search(EncounterFitness(test_table, num_runs=4, seed=3,
                                    store=store))
            ids = [info.campaign_id for info in store.campaigns()]
            digests = {
                cid: results_digest(store.resultset(cid)) for cid in ids
            }
            store.close()
            return digests

        pooled = stored_search(2)
        assert len(pooled) == 3
        assert pooled == stored_search(1)


class TestPoolTrace:
    def test_traced_search_is_one_tree_per_generation(
        self, test_table, tmp_path, two_cpus
    ):
        db = str(tmp_path / "trace.sqlite")
        fitness = EncounterFitness(test_table, num_runs=40, seed=3)
        with fitness:
            # Start the pool untraced: the trace must still reach it.
            fitness.evaluate_population(population())
            with telemetry.collect(db) as collector:
                # Under an outer span, chunks still sit one level down.
                with telemetry.span("search"):
                    search(fitness)
            fitness.evaluate_population(population())  # untraced again
        spans = telemetry.load_spans(db, trace_id=collector.trace_id)
        runs = [s for s in spans if s["name"] == "campaign.run"]
        assert len(runs) == 3
        by_id = {s["span_id"]: s for s in spans}
        chunks = [s for s in spans if s["name"] == "campaign.chunk"]
        assert len(chunks) == 6  # none from the untraced evaluations
        for chunk in chunks:
            assert chunk["process"].startswith("pool:")
            kernel = [s for s in spans if s["parent_id"] == chunk["span_id"]]
            assert sorted(s["name"] for s in kernel) == sorted(KERNEL_SPANS)
            assert by_id[chunk["parent_id"]]["name"] == "campaign.run"
        for run in runs:
            # Each generation's chunks sit under its own campaign.run,
            # inside its time span, and ran at once in two processes.
            a, b = [c for c in chunks if c["parent_id"] == run["span_id"]]
            end = run["started_at"] + run["duration"]
            for chunk in (a, b):
                assert run["started_at"] <= chunk["started_at"] <= end
            assert a["process"] != b["process"]
            assert a["started_at"] < b["started_at"] + b["duration"]
            assert b["started_at"] < a["started_at"] + a["duration"]
