"""Determinism regression tests.

Every experiment in the library must be a pure function of its seed.
These tests pin that property across subsystem boundaries (two fully
independent executions, not object reuse) so accidental global-RNG
usage or hidden state is caught immediately.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.encounters import StatisticalEncounterModel, head_on_encounter
from repro.montecarlo import MonteCarloEstimator
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner
from repro.sim import BatchEncounterSimulator, EncounterSimConfig, run_encounter
from repro.sim.airspace import AirspaceSimulation
from repro.sim.encounter import make_acas_pair
from repro.store import table_digest

#: Committed digests of one search
#: (:func:`test_search_matches_committed_digests`).
SEARCH_GOLDEN = Path(__file__).with_name("search_golden.json")


def test_encounter_run_bitwise_reproducible(test_table):
    results = []
    for __ in range(2):
        own, intruder = make_acas_pair(test_table)
        result = run_encounter(
            head_on_encounter(), own, intruder, EncounterSimConfig(),
            seed=1234, record_trace=True,
        )
        results.append(result)
    a, b = results
    assert a.min_separation == b.min_separation
    assert a.nmac == b.nmac
    for step_a, step_b in zip(a.trace.steps, b.trace.steps):
        np.testing.assert_array_equal(step_a.own_position, step_b.own_position)
        np.testing.assert_array_equal(
            step_a.intruder_position, step_b.intruder_position
        )
        assert step_a.own_advisory == step_b.own_advisory


def test_batch_run_bitwise_reproducible(test_table):
    runs = []
    for __ in range(2):
        simulator = BatchEncounterSimulator(test_table, EncounterSimConfig())
        runs.append(simulator.run(head_on_encounter(), 20, seed=99))
    np.testing.assert_array_equal(runs[0].min_separation, runs[1].min_separation)
    np.testing.assert_array_equal(runs[0].nmac, runs[1].nmac)


def one_seed_search(table, seed, population, generations, runs):
    """A search whose GA and fitness share one generator from *seed*."""
    rng = np.random.default_rng(seed)
    runner = SearchRunner(
        EncounterFitness(table, num_runs=runs, seed=rng),
        ga_config=GAConfig(
            population_size=population, generations=generations
        ),
    )
    return runner.run(seed=rng)


def test_search_reproducible(test_table):
    outcomes = []
    for __ in range(2):
        outcomes.append(one_seed_search(
            test_table, seed=5, population=8, generations=2, runs=4
        ))
    a, b = outcomes
    np.testing.assert_array_equal(
        a.ga_result.best_genome, b.ga_result.best_genome
    )
    assert a.ga_result.best_fitness == b.ga_result.best_fitness
    for fa, fb in zip(a.ga_result.fitness_history, b.ga_result.fitness_history):
        np.testing.assert_array_equal(fa, fb)


def test_search_matches_committed_digests(test_table):
    """A one-seed search hashes to the committed golden digests.

    They were recorded when the runner seeded the GA and the fitness
    from its own ``run(seed)``; a search whose GA and fitness draw from
    two generators, or any changed bit of the search, moves them.
    """
    golden = json.loads(SEARCH_GOLDEN.read_text())
    assert table_digest(test_table) == golden["table_digest"]
    outcome = one_seed_search(
        test_table, seed=golden["seed"], population=golden["population"],
        generations=golden["generations"], runs=golden["runs"],
    )
    assert len(outcome.top_encounters) == golden["top_k"]
    fitness = np.concatenate(outcome.ga_result.fitness_history)
    genomes = np.stack([e.genome for e in outcome.top_encounters])
    assert {
        "fitness_history": hashlib.sha256(
            fitness.astype(np.float64).tobytes()
        ).hexdigest(),
        "top_genomes": hashlib.sha256(
            genomes.astype(np.float64).tobytes()
        ).hexdigest(),
    } == golden["digests"], (
        f"search outputs moved (digests recorded under numpy "
        f"{golden['numpy']}, running {np.__version__})"
    )


def test_montecarlo_reproducible(test_table):
    reports = []
    for __ in range(2):
        estimator = MonteCarloEstimator(
            test_table, StatisticalEncounterModel(), runs_per_encounter=3
        )
        reports.append(estimator.estimate(8, seed=11))
    assert reports[0].summary() == reports[1].summary()


def test_airspace_reproducible(test_table):
    results = []
    for __ in range(2):
        simulation = AirspaceSimulation(test_table)
        results.append(simulation.run(4, duration=40.0, seed=21))
    assert results[0].min_pair_separation == results[1].min_pair_separation
    assert results[0].nmac_pairs == results[1].nmac_pairs
    assert results[0].alerts_by_aircraft == results[1].alerts_by_aircraft


def test_global_numpy_rng_untouched(test_table):
    """Library calls must not consume or reseed the global NumPy RNG."""
    np.random.seed(42)
    expected = np.random.RandomState(42).uniform(size=3)
    fitness = EncounterFitness(test_table, num_runs=3, seed=0)
    fitness(head_on_encounter().as_array())
    observed = np.random.uniform(size=3)
    np.testing.assert_array_equal(observed, expected)
