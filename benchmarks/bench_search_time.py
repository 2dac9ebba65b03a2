"""Experiment: footnote 5 — "it took about 300 s on an ordinary laptop".

The paper's full search (population 200, 5 generations, 100 runs per
evaluation, Java/MASON/ECJ) took ~300 s.  This bench measures our
search throughput and extrapolates the cost of the full paper-scale
search through the vectorized batch simulator.
"""

import time

import numpy as np
from conftest import record_result

from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner

POPULATION = 20
GENERATIONS = 3
NUM_RUNS = 25

PAPER_EVALUATIONS = 200 * 5
PAPER_RUNS = 100


def test_bench_search_time(benchmark, fast_table):
    rng = np.random.default_rng(0)
    runner = SearchRunner(
        EncounterFitness(fast_table, num_runs=NUM_RUNS, seed=rng),
        ga_config=GAConfig(
            population_size=POPULATION, generations=GENERATIONS
        ),
    )

    start = time.perf_counter()
    outcome = benchmark.pedantic(
        lambda: runner.run(seed=rng), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start

    evaluations = outcome.ga_result.evaluations
    sim_runs = evaluations * NUM_RUNS
    per_run = elapsed / sim_runs
    paper_scale_estimate = per_run * PAPER_EVALUATIONS * PAPER_RUNS

    record_result(
        "search_time",
        f"measured: {evaluations} evaluations x {NUM_RUNS} runs "
        f"in {elapsed:.1f} s ({per_run * 1e3:.2f} ms per simulation run)\n"
        f"paper-scale extrapolation (200 x 5 x 100 runs): "
        f"{paper_scale_estimate:.0f} s\n"
        f"paper footnote 5: ~300 s on an ordinary laptop\n"
        f"within 10x of paper: {paper_scale_estimate < 3000.0}\n",
    )
    assert paper_scale_estimate < 3000.0
