"""GA-based search for challenging encounters (paper Sections V-VII).

Runs a scaled-down version of the paper's experiment: a genetic
algorithm evolves 9-parameter encounter genomes toward situations where
the ACAS XU-like logic behaves poorly (fitness = mean(10000/(1+d))).
Afterward it:

- prints per-generation fitness statistics (the paper's Fig. 6);
- classifies the top encounters by geometry (Figs. 7-8: mostly tail
  approaches with one UAV climbing and the other descending);
- clusters the most challenging genomes into regions (the paper's
  future-work suggestion).

Paper scale is population 200 x 5 generations x 100 runs; this example
defaults to 30 x 4 x 20 so it finishes in well under a minute.  Pass
``--paper-scale`` for the full configuration.

Usage::

    python examples/ga_search_validation.py [--paper-scale]
"""

import sys
import time

import numpy as np

from repro import (
    EncounterFitness,
    GAConfig,
    SearchRunner,
    build_logic_table,
    test_config,
)
from repro.analysis.geometry import (
    is_vertical_crossing,
    relative_horizontal_speed_of,
)
from repro.search.clustering import cluster_genomes


def main(paper_scale: bool = False) -> None:
    if paper_scale:
        ga_config = GAConfig(population_size=200, generations=5)
        num_runs = 100
    else:
        ga_config = GAConfig(population_size=30, generations=4)
        num_runs = 20

    print("=== Building the system under test ===")
    table = build_logic_table(test_config())

    print(
        f"=== GA search: population {ga_config.population_size}, "
        f"{ga_config.generations} generations, {num_runs} runs/evaluation ==="
    )
    # One generator drives the GA and the fitness noise.
    rng = np.random.default_rng(2016)
    fitness = EncounterFitness(table, num_runs=num_runs, seed=rng)
    runner = SearchRunner(fitness, ga_config=ga_config)
    start = time.perf_counter()
    outcome = runner.run(seed=rng, top_k=10, verbose=True)
    elapsed = time.perf_counter() - start
    print(f"search took {elapsed:.1f}s "
          f"({outcome.ga_result.evaluations} evaluations)")
    print()

    print("=== Fitness by generation (cf. paper Fig. 6) ===")
    for row in outcome.generation_summary():
        print(
            f"generation {row['generation']}: "
            f"min={row['min']:8.1f}  mean={row['mean']:8.1f}  "
            f"max={row['max']:8.1f}"
        )
    print()

    print("=== Top challenging encounters (cf. paper Figs. 7-8) ===")
    for i, encounter in enumerate(outcome.top_encounters):
        params = encounter.parameters
        rel_speed = relative_horizontal_speed_of(params)
        crossing = "yes" if is_vertical_crossing(params) else "no"
        print(
            f"#{i + 1}: fitness={encounter.fitness:8.1f}  "
            f"geometry={encounter.geometry:<13}  "
            f"rel-horiz-speed={rel_speed:5.1f} m/s  "
            f"vertical-crossing={crossing}"
        )
    print(f"geometry counts: {outcome.geometry_counts()}")
    print()

    print("=== Clustering challenging genomes into regions ===")
    genomes, fitnesses = outcome.ga_result.all_evaluated()
    threshold = np.percentile(fitnesses, 80)
    challenging = genomes[fitnesses >= threshold]
    clusters = cluster_genomes(challenging, k=min(3, len(challenging)), seed=0)
    for description in clusters.describe():
        print(description)


if __name__ == "__main__":
    main(paper_scale="--paper-scale" in sys.argv)
