"""Tests for the GA, fitness, random search, runner and clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encounters.generator import ParameterRanges, ScenarioGenerator
from repro.search.clustering import cluster_genomes
from repro.search.fitness import (
    COLLISION_GAIN,
    CollisionRateFitness,
    EncounterFitness,
    paper_fitness,
)
from repro.search.ga import GAConfig, GeneticAlgorithm
from repro.search.random_search import random_search
from repro.search.runner import SearchRunner
from repro.sim.encounter import EncounterSimConfig


class TestPaperFitness:
    def test_collision_gains_maximum(self):
        assert paper_fitness(np.array([0.0])) == pytest.approx(COLLISION_GAIN)

    def test_formula(self):
        # Paper Sec. VII: fitness = mean(10000 / (1 + d_k)).
        d = np.array([0.0, 99.0, 9999.0])
        expected = np.mean(10_000.0 / (1.0 + d))
        assert paper_fitness(d) == pytest.approx(expected)

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
    def test_bounded_and_positive(self, distances):
        value = paper_fitness(np.array(distances))
        assert 0.0 < value <= COLLISION_GAIN

    def test_monotone_in_distance(self):
        # Closer encounters always score higher.
        near = paper_fitness(np.array([10.0]))
        far = paper_fitness(np.array([100.0]))
        assert near > far


class TestEncounterFitness:
    def test_tail_scores_higher_than_headon(self, test_table):
        from repro.encounters import head_on_encounter, tail_approach_encounter

        fitness = EncounterFitness(test_table, num_runs=20, seed=0)
        tail = fitness(
            tail_approach_encounter(
                overtake_speed=3.0, time_to_cpa=40.0,
                own_vertical_speed=-5.0, intruder_vertical_speed=5.0,
            ).as_array()
        )
        head_on = fitness(head_on_encounter().as_array())
        assert tail > head_on

    def test_report_fields(self, test_table):
        from repro.encounters import head_on_encounter

        fitness = EncounterFitness(test_table, num_runs=10, seed=0)
        report = fitness.report(head_on_encounter().as_array())
        assert report.fitness > 0
        assert 0.0 <= report.nmac_rate <= 1.0
        assert report.mean_min_separation > 0
        assert 0.0 <= report.alert_rate <= 1.0

    def test_evaluations_counted(self, test_table):
        from repro.encounters import head_on_encounter

        fitness = EncounterFitness(test_table, num_runs=5, seed=0)
        fitness(head_on_encounter().as_array())
        fitness(head_on_encounter().as_array())
        assert fitness.evaluations == 2

    def test_collision_rate_variant(self, test_table):
        from repro.encounters import head_on_encounter

        fitness = CollisionRateFitness(test_table, num_runs=10, seed=0)
        value = fitness(head_on_encounter().as_array())
        assert 0.0 <= value <= 1.0

    def test_num_runs_validated(self, test_table):
        with pytest.raises(ValueError):
            EncounterFitness(test_table, num_runs=0)


def sphere_fitness(genome: np.ndarray) -> float:
    """Analytic test fitness: maximized at the range midpoint."""
    ranges = ParameterRanges()
    mid = (ranges.lows() + ranges.highs()) / 2.0
    widths = ranges.highs() - ranges.lows()
    z = (genome - mid) / widths
    return float(-np.sum(z * z))


class TestGeneticAlgorithm:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=1)
        with pytest.raises(ValueError):
            GAConfig(generations=0)
        with pytest.raises(ValueError):
            GAConfig(elitism=10, population_size=10)
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)

    def test_improves_on_analytic_function(self):
        ranges = ParameterRanges()
        ga = GeneticAlgorithm(
            ranges, GAConfig(population_size=30, generations=8)
        )
        result = ga.run(sphere_fitness, seed=0)
        first_gen_best = result.fitness_history[0].max()
        assert result.best_fitness > first_gen_best

    def test_mean_fitness_rises(self):
        ranges = ParameterRanges()
        ga = GeneticAlgorithm(
            ranges, GAConfig(population_size=40, generations=6)
        )
        result = ga.run(sphere_fitness, seed=1)
        means = [f.mean() for f in result.fitness_history]
        assert means[-1] > means[0]

    def test_population_stays_in_ranges(self):
        ranges = ParameterRanges()
        ga = GeneticAlgorithm(
            ranges, GAConfig(population_size=20, generations=4)
        )
        result = ga.run(sphere_fitness, seed=2)
        for population in result.generations:
            assert np.all(population >= ranges.lows() - 1e-9)
            assert np.all(population <= ranges.highs() + 1e-9)

    def test_elitism_preserves_best(self):
        ranges = ParameterRanges()
        ga = GeneticAlgorithm(
            ranges, GAConfig(population_size=20, generations=5, elitism=2)
        )
        result = ga.run(sphere_fitness, seed=3)
        best_per_gen = [f.max() for f in result.fitness_history]
        # With a deterministic fitness and elitism, the per-generation
        # best never decreases.
        assert all(
            b2 >= b1 - 1e-12 for b1, b2 in zip(best_per_gen, best_per_gen[1:])
        )

    def test_deterministic_given_seed(self):
        ranges = ParameterRanges()
        ga = GeneticAlgorithm(ranges, GAConfig(population_size=10, generations=3))
        a = ga.run(sphere_fitness, seed=9)
        b = ga.run(sphere_fitness, seed=9)
        np.testing.assert_array_equal(a.best_genome, b.best_genome)
        assert a.best_fitness == b.best_fitness

    def test_evaluation_count(self):
        ranges = ParameterRanges()
        config = GAConfig(population_size=15, generations=4)
        result = GeneticAlgorithm(ranges, config).run(sphere_fitness, seed=0)
        assert result.evaluations == 60
        genomes, fitnesses = result.all_evaluated()
        assert genomes.shape == (60, 9)
        assert fitnesses.shape == (60,)

    def test_callback_invoked(self):
        seen = []
        ranges = ParameterRanges()
        ga = GeneticAlgorithm(ranges, GAConfig(population_size=8, generations=3))
        ga.run(sphere_fitness, seed=0,
               callback=lambda g, pop, fit: seen.append(g))
        assert seen == [0, 1, 2]

    def test_generation_summary(self):
        ranges = ParameterRanges()
        ga = GeneticAlgorithm(ranges, GAConfig(population_size=8, generations=2))
        result = ga.run(sphere_fitness, seed=0)
        summary = result.generation_summary()
        assert len(summary) == 2
        assert summary[0]["min"] <= summary[0]["mean"] <= summary[0]["max"]


class TestRandomSearch:
    def test_budget_respected(self):
        result = random_search(ParameterRanges(), sphere_fitness, budget=25, seed=0)
        assert result.evaluations == 25

    def test_best_is_argmax(self):
        result = random_search(ParameterRanges(), sphere_fitness, budget=40, seed=1)
        assert result.best_fitness == pytest.approx(result.fitnesses.max())

    def test_target_hit_index(self):
        result = random_search(
            ParameterRanges(), sphere_fitness, budget=50, seed=2,
            target_fitness=-1e9,  # trivially reached immediately
        )
        assert result.first_hit_index == 0

    def test_target_never_hit(self):
        result = random_search(
            ParameterRanges(), sphere_fitness, budget=10, seed=3,
            target_fitness=1.0,  # sphere_fitness is always <= 0
        )
        assert result.first_hit_index is None

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            random_search(ParameterRanges(), sphere_fitness, budget=0)

    def test_ga_beats_random_on_structured_fitness(self):
        # Equal budget: the GA exploits structure random search cannot.
        ranges = ParameterRanges()
        budget = 120
        ga = GeneticAlgorithm(
            ranges, GAConfig(population_size=20, generations=6)
        )
        ga_result = ga.run(sphere_fitness, seed=4)
        rs_result = random_search(ranges, sphere_fitness, budget=budget, seed=4)
        assert ga_result.evaluations == budget
        assert ga_result.best_fitness > rs_result.best_fitness


def make_runner(table, seed, population=10, generations=2, runs=5):
    """A one-generator search: *seed* drives the GA and the fitness."""
    rng = np.random.default_rng(seed)
    fitness = EncounterFitness(table, num_runs=runs, seed=rng)
    runner = SearchRunner(fitness, ga_config=GAConfig(
        population_size=population, generations=generations,
    ))
    return runner, rng


class TestSearchRunner:
    def test_end_to_end_search(self, test_table):
        runner, rng = make_runner(test_table, seed=0)
        outcome = runner.run(seed=rng, top_k=5)
        assert len(outcome.top_encounters) == 5
        assert outcome.ga_result.evaluations == 20
        summary = outcome.generation_summary()
        assert len(summary) == 2
        counts = outcome.geometry_counts()
        assert sum(counts.values()) == 5

    def test_top_encounters_sorted(self, test_table):
        runner, rng = make_runner(test_table, seed=1)
        outcome = runner.run(seed=rng, top_k=4)
        fits = [e.fitness for e in outcome.top_encounters]
        assert fits == sorted(fits, reverse=True)
        # Zero ranks none; a negative count is refused before the
        # search runs.
        assert runner.run(seed=rng, top_k=0).top_encounters == []
        evaluations = runner.fitness.evaluations
        with pytest.raises(ValueError, match="top_k"):
            runner.run(seed=rng, top_k=-3)
        assert runner.fitness.evaluations == evaluations

    def test_ranked_encounter_decodes(self, test_table):
        runner, rng = make_runner(test_table, seed=2, population=8)
        outcome = runner.run(seed=rng, top_k=3)
        top = outcome.top_encounters[0]
        assert top.parameters.time_to_cpa > 0
        assert top.geometry in ("head-on", "tail-approach", "crossing")

    def test_ready_backend_owns_the_search_setup(self, test_table):
        # The runner holds no setup of its own, so a ready backend is
        # searched as it is, and every generation's campaign records
        # the equipage that backend simulates.
        from repro.experiments import make_backend
        from repro.store import ResultStore

        backend = make_backend(
            "vectorized-batch", table=test_table, equipage="own-only"
        )
        with ResultStore(":memory:") as store:
            outcome = SearchRunner(
                EncounterFitness(
                    backend=backend, num_runs=2, seed=0, store=store
                ),
                ga_config=GAConfig(population_size=4, generations=2),
            ).run(seed=0)
            campaigns = store.campaigns()
        assert outcome.ga_result.evaluations == 8
        assert len(campaigns) == 2
        assert {c.equipage for c in campaigns} == {"own-only"}
        assert all(c.complete for c in campaigns)


class TestClustering:
    def test_recovers_planted_clusters(self):
        rng = np.random.default_rng(0)
        ranges = ParameterRanges()
        lows, highs = ranges.lows(), ranges.highs()
        center_a = lows + 0.2 * (highs - lows)
        center_b = lows + 0.8 * (highs - lows)
        cloud_a = center_a + rng.normal(0, 0.01, size=(30, 9)) * (highs - lows)
        cloud_b = center_b + rng.normal(0, 0.01, size=(30, 9)) * (highs - lows)
        genomes = np.vstack([cloud_a, cloud_b])
        result = cluster_genomes(genomes, k=2, ranges=ranges, seed=0)
        assert result.k == 2
        # Each planted cloud maps to one label.
        labels_a = set(result.labels[:30].tolist())
        labels_b = set(result.labels[30:].tolist())
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b
        assert result.sizes.sum() == 60

    def test_k_validation(self):
        genomes = ScenarioGenerator().random_genomes(5, seed=0)
        with pytest.raises(ValueError):
            cluster_genomes(genomes, k=0)
        with pytest.raises(ValueError):
            cluster_genomes(genomes, k=6)

    def test_single_cluster_center_is_mean(self):
        ranges = ParameterRanges()
        genomes = ScenarioGenerator(ranges).random_genomes(20, seed=1)
        result = cluster_genomes(genomes, k=1, ranges=ranges, seed=0)
        np.testing.assert_allclose(
            result.centers[0], genomes.mean(axis=0), rtol=1e-6
        )

    def test_describe_names_parameters(self):
        genomes = ScenarioGenerator().random_genomes(10, seed=2)
        result = cluster_genomes(genomes, k=2, seed=0)
        description = result.describe()
        assert len(description) == 2
        assert "time_to_cpa" in description[0]

    def test_center_parameters_decodable(self):
        genomes = ScenarioGenerator().random_genomes(10, seed=3)
        result = cluster_genomes(genomes, k=2, seed=0)
        params = result.center_parameters(0)
        assert params.time_to_cpa > 0
