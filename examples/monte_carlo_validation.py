"""Monte-Carlo validation (the complementary technique, paper Sec. IV/VIII).

Draws encounters from the synthetic statistical encounter model (the
stand-in for the radar-derived models the paper notes do not exist for
UAVs), simulates each with and without the avoidance system, and prints
rate estimates with confidence intervals — the statistical confidence
the GA search cannot provide.

Usage::

    python examples/monte_carlo_validation.py
"""

import time

from repro import (
    MonteCarloEstimator,
    StatisticalEncounterModel,
    build_logic_table,
    test_config,
)


def main() -> None:
    print("=== Building the system under test ===")
    table = build_logic_table(test_config())

    model = StatisticalEncounterModel()
    # The estimator runs paired repro.experiments campaigns; backend and
    # worker count are campaign knobs (the default megabatch kernel;
    # backend="agent" trades speed for the faithful engine, workers>1
    # fans encounters across processes without changing the estimate).
    estimator = MonteCarloEstimator(
        table, model, runs_per_encounter=20, workers=2,
    )

    print("=== Monte-Carlo campaign: 100 encounters x 20 runs x 2 arms ===")
    start = time.perf_counter()
    report = estimator.estimate(num_encounters=100, seed=0)
    print(f"campaign took {time.perf_counter() - start:.1f}s "
          f"(equipped arm wall: {report.equipped_results.wall_time:.1f}s)")
    print()
    print(report.summary())
    print()
    print(
        "Note the contrast with GA search (examples/ga_search_validation.py):\n"
        "Monte-Carlo gives rates with confidence intervals but spends most\n"
        "runs on unchallenging encounters; the GA concentrates simulation\n"
        "effort on the worst cases but assigns no statistical confidence —\n"
        "the complementarity the paper's Section VIII describes."
    )


if __name__ == "__main__":
    main()
