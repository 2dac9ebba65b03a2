"""Experiment: Section VIII future work — clustering challenging regions.

"It might be possible to extend the approach to instead find areas of
the search space ...  Data mining techniques, such as clustering,
could potentially be used."  Implements and measures that extension:
k-means over the high-fitness genomes of a finished search, reporting
whether the clusters isolate the tail-approach region (near-zero
relative bearing).
"""

import math

import numpy as np
from conftest import record_result

from repro.search.clustering import cluster_genomes
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner


def test_bench_clustering_regions(benchmark, fast_table):
    rng = np.random.default_rng(3)
    runner = SearchRunner(
        EncounterFitness(fast_table, num_runs=20, seed=rng),
        ga_config=GAConfig(population_size=40, generations=4),
    )
    outcome = runner.run(seed=rng)
    genomes, fitnesses = outcome.ga_result.all_evaluated()
    threshold = np.percentile(fitnesses, 75)
    challenging = genomes[fitnesses >= threshold]

    result = benchmark(cluster_genomes, challenging, 3, seed=0)

    lines = [
        f"clustered {len(challenging)} high-fitness genomes "
        f"(top quartile) into {result.k} regions:"
    ]
    bearing_index = 7  # intruder_bearing position in the genome
    for i in range(result.k):
        bearing = result.centers[i][bearing_index]
        # Distance of the bearing from "same track" (0 or 2*pi).
        off_parallel = min(bearing % (2 * math.pi),
                           2 * math.pi - bearing % (2 * math.pi))
        lines.append(
            f"  cluster {i}: size={int(result.sizes[i])}, "
            f"intruder bearing center={math.degrees(bearing):6.1f} deg "
            f"({math.degrees(off_parallel):5.1f} deg off-parallel)"
        )
    dominant = int(np.argmax(result.sizes))
    bearing = result.centers[dominant][bearing_index]
    off_parallel = min(bearing % (2 * math.pi),
                       2 * math.pi - bearing % (2 * math.pi))
    lines.append(
        "largest cluster sits "
        f"{math.degrees(off_parallel):.1f} deg off-parallel "
        "(tail-approach region is ~0 deg)"
    )
    record_result("clustering", "\n".join(lines) + "\n")

    # The challenging region the clusters isolate is the tail-approach
    # corridor: the dominant cluster's bearing is near-parallel.
    assert off_parallel < math.pi / 3
