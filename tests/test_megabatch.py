"""Tests for the megabatch execution path.

Covers the ``"vectorized-batch"`` backend (cross-scenario lane
flattening in :meth:`repro.sim.batch.BatchEncounterSimulator.run_many`),
its equivalence guarantees against the ``"vectorized"`` and ``"agent"``
backends, chunked/streamed campaign execution, the picklable
:class:`BackendSpec` that fleet workers rebuild their backend from, and
the process pool whose workers receive the backend itself.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.acasx.logic_table import LogicTable
from repro.encounters import (
    StatisticalEncounterModel,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.experiments import (
    BackendSpec,
    Campaign,
    SampledSource,
    available_backends,
    make_backend,
)
from repro.experiments.campaign import (
    _execute_chunk,
    _init_worker,
    _worker_execute_chunk,
)
from repro.sim.batch import BatchEncounterSimulator
from repro.sim.encounter import EncounterSimConfig
from repro.store import results_digest

RESULT_FIELDS = (
    "min_separation",
    "min_horizontal",
    "nmac",
    "own_alerted",
    "intruder_alerted",
)


def assert_results_equal(a, b):
    """Assert two BatchResults are bitwise identical."""
    for field in RESULT_FIELDS:
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def assert_record_runs_equal(result_a, result_b):
    """Assert two campaign results carry bitwise-identical run arrays."""
    assert len(result_a) == len(result_b)
    for rec_a, rec_b in zip(result_a, result_b):
        assert rec_a.index == rec_b.index and rec_a.name == rec_b.name
        assert_results_equal(rec_a.runs, rec_b.runs)


@pytest.fixture(scope="module")
def mixed_durations():
    """Scenarios with different durations, so the active-lane mask is
    exercised (short encounters stop stepping while long ones go on)."""
    model = StatisticalEncounterModel()
    sampled = model.sample(4, seed=np.random.default_rng(11))
    return sampled + [
        head_on_encounter(time_to_cpa=8.0),
        tail_approach_encounter(time_to_cpa=55.0),
    ]


class TestRunMany:
    def test_registered_everywhere(self):
        assert "vectorized-batch" in available_backends()

    @pytest.mark.parametrize("equipage", ["both", "own-only", "none"])
    def test_bitwise_identical_to_per_scenario_run(
        self, test_table, mixed_durations, equipage
    ):
        # The megabatch flattens all scenarios into one lane array, yet
        # each scenario's slice must equal its standalone simulation
        # bit for bit — per-scenario noise streams plus lane-wise array
        # ops guarantee it.
        table = None if equipage == "none" else test_table
        sim = BatchEncounterSimulator(
            table, EncounterSimConfig(), equipage=equipage
        )
        seeds = list(np.random.SeedSequence(3).spawn(len(mixed_durations)))
        batched = sim.run_many(mixed_durations, 5, seeds)
        for params, seed, result in zip(mixed_durations, seeds, batched):
            single = sim.run(params, 5, seed=np.random.default_rng(seed))
            assert_results_equal(single, result)

    def test_validation(self, test_table):
        sim = BatchEncounterSimulator(test_table, EncounterSimConfig())
        with pytest.raises(ValueError, match="at least one"):
            sim.run_many([], 3)
        with pytest.raises(ValueError, match="num_runs"):
            sim.run_many([head_on_encounter()], 0)
        with pytest.raises(ValueError, match="seeds"):
            sim.run_many([head_on_encounter()], 3, seeds=[1, 2])

    def test_backend_simulate_matches_vectorized(self, test_table):
        # Single-scenario simulate() goes through the megabatch path
        # too, and must agree exactly with the "vectorized" backend.
        batch = make_backend("vectorized-batch", table=test_table)
        vec = make_backend("vectorized", table=test_table)
        params = tail_approach_encounter(overtake_speed=2.0)
        assert_results_equal(
            batch.simulate(params, 20, seed=7), vec.simulate(params, 20, seed=7)
        )


class TestBackendEquivalence:
    def test_exact_agreement_with_vectorized(self, test_table):
        # Stronger than statistical equivalence: the megabatch backend
        # replays the vectorized backend's noise streams per scenario,
        # so whole campaigns agree bit for bit.
        def run(backend):
            return Campaign(
                SampledSource(StatisticalEncounterModel(), 5),
                backend=backend,
                table=test_table,
                runs_per_scenario=8,
            ).run(seed=2016)

        assert_record_runs_equal(run("vectorized"), run("vectorized-batch"))

    @pytest.mark.slow
    def test_statistically_equivalent_to_agent(self, test_table):
        # Per-run randomness differs from the faithful agent engine,
        # but the reference encounter's outcome distribution must agree
        # (same NMAC rate / separation distribution within tolerance).
        def run(backend):
            return Campaign(
                tail_approach_encounter(overtake_speed=2.0),
                backend=backend,
                table=test_table,
                runs_per_scenario=40,
            ).run(seed=0)

        agent = run("agent")
        batch = run("vectorized-batch")
        a = agent.min_separations()
        v = batch.min_separations()
        pooled = np.sqrt((a.std() ** 2 + v.std() ** 2) / 2)
        assert abs(a.mean() - v.mean()) < max(3 * pooled, 20.0)
        assert abs(agent.nmac_rate - batch.nmac_rate) <= 0.25
        assert abs(agent.alert_rate - batch.alert_rate) <= 0.25


class TestChunkedExecution:
    @pytest.fixture(scope="class")
    def campaign(self, test_table):
        return Campaign(
            SampledSource(StatisticalEncounterModel(), 7),
            backend="vectorized-batch",
            table=test_table,
            runs_per_scenario=6,
        )

    def test_chunked_equals_unchunked_exactly(self, campaign):
        # Chunk boundaries cannot change any output bit: per-scenario
        # seeds and per-scenario noise streams make each lane's history
        # independent of which scenarios share its batch.
        unchunked = campaign.run(seed=5, chunk_size=7)
        for chunk_size in (1, 2, 3, 7, 50):
            chunked = campaign.run(seed=5, chunk_size=chunk_size)
            assert_record_runs_equal(unchunked, chunked)

    def test_chunk_size_validated(self, campaign):
        with pytest.raises(ValueError):
            campaign.run(seed=0, chunk_size=0)

    def test_streaming_matches_materialized(self, campaign):
        # iter_records is the streaming twin of run(): same records, in
        # index order, without materializing the list first.
        materialized = campaign.run(seed=9)
        streamed = list(campaign.iter_records(seed=9, chunk_size=3))
        assert [r.index for r in streamed] == list(range(len(materialized)))
        for rec_a, rec_b in zip(materialized, streamed):
            assert rec_a.name == rec_b.name
            assert_results_equal(rec_a.runs, rec_b.runs)

    def test_streaming_is_lazy(self, campaign):
        iterator = campaign.iter_records(seed=9)
        first = next(iterator)
        assert first.index == 0
        iterator.close()

    @pytest.mark.slow
    def test_parallel_streaming_matches_serial(self, campaign):
        serial = campaign.run(seed=4, workers=1, chunk_size=2)
        parallel = campaign.run(seed=4, workers=2, chunk_size=2)
        assert parallel.workers == 2
        assert_record_runs_equal(serial, parallel)


class TestBackendSpec:
    def test_capture_build_round_trip(self, test_table):
        backend = make_backend(
            "vectorized-batch",
            table=test_table,
            equipage="own-only",
            coordination=False,
        )
        spec = BackendSpec.capture(backend)
        rebuilt = spec.build()
        assert rebuilt.name == "vectorized-batch"
        assert rebuilt.equipage == "own-only"
        assert rebuilt.coordination is False
        np.testing.assert_array_equal(rebuilt.table.q, test_table.q)
        params = head_on_encounter()
        assert_results_equal(
            backend.simulate(params, 4, seed=1),
            rebuilt.simulate(params, 4, seed=1),
        )

    def test_capture_without_table(self):
        spec = BackendSpec.capture(make_backend("vectorized", equipage="none"))
        assert spec.table_bytes is None
        assert spec.build().equipage == "none"

    def test_capture_rejects_unregistered_instance(self, test_table):
        class Custom:
            name = "custom-unregistered"

        with pytest.raises(TypeError, match="not a registered backend"):
            BackendSpec.capture(Custom())

    def test_capture_rejects_protocol_only_backend(self, monkeypatch):
        # A registered backend satisfying only the SimulationBackend
        # protocol (name + simulate) carries no construction surface to
        # capture; it must raise TypeError, which submitting it to a
        # fleet reports as needing a registry-built backend.  The
        # registry dict is patched so the entry leaves with this test.
        from repro.experiments import backends, register_backend

        monkeypatch.setattr(backends, "_REGISTRY", dict(backends._REGISTRY))

        @register_backend("protocol-only-test")
        class Minimal:
            name = "protocol-only-test"

            def __init__(self, **kwargs):
                pass

            def simulate(self, params, num_runs, seed=None):
                raise NotImplementedError

        with pytest.raises(TypeError, match="missing construction"):
            BackendSpec.capture(Minimal())

    def test_spec_from_table_path(self, test_table, tmp_path):
        path = tmp_path / "table.npz"
        test_table.save(path)
        spec = BackendSpec(backend="agent", table_path=str(path))
        rebuilt = spec.build()
        assert rebuilt.name == "agent"
        np.testing.assert_array_equal(rebuilt.table.q, test_table.q)

    @pytest.mark.slow
    def test_parallel_campaign_rebuilds_backend_per_worker(self, test_table):
        # The pool initializer path: each worker receives the
        # campaign's backend once (no BackendSpec involved), and the
        # campaign result must not change.
        campaign = Campaign(
            SampledSource(StatisticalEncounterModel(), 6),
            backend="vectorized-batch",
            table=test_table,
            runs_per_scenario=4,
        )
        serial = campaign.run(seed=2016, workers=1, chunk_size=2)
        parallel = campaign.run(seed=2016, workers=3, chunk_size=2)
        assert parallel.workers == 3
        assert_record_runs_equal(serial, parallel)


class TestPoolWorkers:
    """``workers>1`` hands the backend object itself to the pool."""

    @pytest.mark.slow
    def test_parallel_campaign_never_encodes_the_table(
        self, test_table, monkeypatch
    ):
        # Table bytes are the fleet's wire format; a local pool must
        # not pay for encoding or decoding them.
        campaign = Campaign(
            SampledSource(StatisticalEncounterModel(), 4),
            backend="vectorized-batch",
            table=test_table,
            runs_per_scenario=3,
        )
        serial = campaign.run(seed=7, chunk_size=1)

        def refuse(*args, **kwargs):
            raise RuntimeError("pool workers must not re-encode the table")

        monkeypatch.setattr(LogicTable, "to_bytes", refuse)
        monkeypatch.setattr(LogicTable, "from_bytes", refuse)
        parallel = campaign.run(seed=7, workers=2, chunk_size=1)
        assert parallel.workers == 2
        assert results_digest(parallel) == results_digest(serial)

    @pytest.mark.slow
    def test_spawned_worker_matches_in_process_chunk(self, test_table):
        # Spawn-started workers get the backend pickled (numpy's raw
        # array pickling for the table) instead of inheriting it.
        backend = make_backend("vectorized-batch", table=test_table)
        seeds = np.random.SeedSequence(2016).spawn(2)
        chunk = [
            (0, head_on_encounter(), seeds[0]),
            (1, tail_approach_encounter(), seeds[1]),
        ]
        expected = _execute_chunk(backend, 4, chunk)
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(backend,),
        ) as pool:
            future = pool.submit(_worker_execute_chunk, 4, chunk)
            outcome = future.result(timeout=120)
        assert [index for index, _ in outcome] == [0, 1]
        for (_, want), (_, got) in zip(expected, outcome):
            assert_results_equal(want, got)


class TestPopulationEvaluation:
    def test_ga_population_evaluated_in_one_campaign(self, test_table):
        from repro.search.fitness import CollisionRateFitness, EncounterFitness

        genomes = np.stack(
            [
                head_on_encounter().as_array(),
                tail_approach_encounter(overtake_speed=2.0).as_array(),
                head_on_encounter(miss_distance=400.0).as_array(),
            ]
        )
        fitness = EncounterFitness(test_table, num_runs=5, seed=0)
        values = fitness.evaluate_population(genomes)
        assert values.shape == (3,)
        assert np.all(np.isfinite(values)) and np.all(values > 0)
        assert fitness.evaluations == 3
        # The ablation subclass must keep its own scoring in the
        # population path.
        rate_fitness = CollisionRateFitness(test_table, num_runs=5, seed=0)
        rates = rate_fitness.evaluate_population(genomes)
        assert np.all((0.0 <= rates) & (rates <= 1.0))
