"""Experiment: paper Figs. 7-8 — what the challenging encounters look like.

"By further scrutinizing the high fitness encounters ... we found most
of them are tail approach situations."  Regenerates that analysis: run
the GA search, take the top encounters, and classify their geometry and
relative horizontal speed.
"""

import numpy as np
from conftest import record_result

from repro.analysis.geometry import (
    is_vertical_crossing,
    relative_horizontal_speed_of,
)
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner


def test_bench_fig78_challenging_geometry(benchmark, fast_table):
    rng = np.random.default_rng(7)
    runner = SearchRunner(
        EncounterFitness(fast_table, num_runs=25, seed=rng),
        ga_config=GAConfig(population_size=40, generations=5),
    )
    outcome = benchmark.pedantic(
        lambda: runner.run(seed=rng, top_k=10), rounds=1, iterations=1
    )

    lines = ["top 10 encounters by fitness:"]
    rel_speeds = []
    for i, encounter in enumerate(outcome.top_encounters):
        params = encounter.parameters
        rel_speed = relative_horizontal_speed_of(params)
        rel_speeds.append(rel_speed)
        lines.append(
            f"#{i + 1}: fitness={encounter.fitness:8.1f} "
            f"geometry={encounter.geometry:<13} "
            f"rel-horiz-speed={rel_speed:5.1f} m/s "
            f"vert-crossing={'y' if is_vertical_crossing(params) else 'n'}"
        )
    counts = outcome.geometry_counts()
    lines.append(f"geometry counts: {counts}")
    lines.append(
        f"median relative horizontal speed of top encounters: "
        f"{np.median(rel_speeds):.1f} m/s "
        "(paper: 'the relative speed is very small')"
    )
    record_result("fig78_challenging", "\n".join(lines) + "\n")

    # The paper's finding: tail approaches dominate the top encounters.
    assert counts.get("tail-approach", 0) >= 6
