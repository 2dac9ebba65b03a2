"""Experiment: paper Fig. 6 — fitness improvement over GA generations.

The paper runs population 200 for 5 generations with 100 simulations
per evaluation and observes that "in the first generation most
encounters are with low fitness, and over generations more and more
encounters get higher fitness".  This bench regenerates the
per-generation fitness series at a reduced budget (population 40,
5 generations, 25 runs/evaluation — scale with the environment variable
REPRO_PAPER_SCALE=1 for the full 200 x 5 x 100).
"""

import os

import numpy as np
from conftest import record_campaign, record_figure, record_result

from repro.analysis.figures import fitness_scatter, generation_means_figure
from repro.experiments import Campaign
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner

PAPER_SCALE = os.environ.get("REPRO_PAPER_SCALE") == "1"


def test_bench_fig6_fitness_over_generations(benchmark, fast_table, smoke):
    if PAPER_SCALE:
        ga_config = GAConfig(population_size=200, generations=5)
        num_runs = 100
    elif smoke:
        ga_config = GAConfig(population_size=10, generations=2)
        num_runs = 5
    else:
        ga_config = GAConfig(population_size=40, generations=5)
        num_runs = 25
    rng = np.random.default_rng(2016)
    runner = SearchRunner(
        EncounterFitness(fast_table, num_runs=num_runs, seed=rng),
        ga_config=ga_config,
    )

    outcome = benchmark.pedantic(
        lambda: runner.run(seed=rng, top_k=10), rounds=1, iterations=1
    )

    lines = [
        f"GA: population {ga_config.population_size}, "
        f"{ga_config.generations} generations, {num_runs} runs/evaluation"
        f" ({'paper' if PAPER_SCALE else 'reduced'} scale)",
        "generation |      min |     mean |      max | frac > gen0 mean",
    ]
    gen0_mean = float(outcome.ga_result.fitness_history[0].mean())
    for i, fits in enumerate(outcome.ga_result.fitness_history):
        frac_above = float(np.mean(fits > gen0_mean))
        lines.append(
            f"{i:>10} | {fits.min():8.1f} | {fits.mean():8.1f} | "
            f"{fits.max():8.1f} | {frac_above:.2f}"
        )
    first_mean = float(outcome.ga_result.fitness_history[0].mean())
    last_mean = float(outcome.ga_result.fitness_history[-1].mean())
    lines.append(
        f"mean fitness rose {first_mean:.1f} -> {last_mean:.1f} "
        f"({last_mean / first_mean:.2f}x)"
    )
    scatter_path = record_figure(
        fitness_scatter, outcome.ga_result, "fig6_scatter.svg"
    )
    means_path = record_figure(
        generation_means_figure, outcome.ga_result, "fig6_means.svg"
    )
    lines.append(f"figures: {scatter_path.name}, {means_path.name}")
    record_result("fig6_ga_fitness", "\n".join(lines) + "\n")

    # Re-simulate the search's top encounters through the campaign API
    # (megabatch backend) and persist the timed per-campaign record.
    top_genomes = np.stack([e.genome for e in outcome.top_encounters])
    validation = Campaign(
        top_genomes,
        backend="vectorized-batch",
        table=fast_table,
        runs_per_scenario=num_runs,
    ).run(seed=2016)
    record_campaign("fig6_top_encounters", validation)

    # The paper's qualitative claim: later generations concentrate on
    # higher fitness.  (Smoke runs are too tiny for it to hold
    # reliably; they only exercise the wiring.)
    if not smoke:
        assert last_mean > first_mean
