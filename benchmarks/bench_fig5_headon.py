"""Experiment: paper Fig. 5 — coordinated head-on resolution.

The paper's demonstration: a head-on encounter where the own-ship's
logic chooses a climb, coordination forbids the intruder from climbing
too, and the pair separates.  Regenerates the advisory assignment and
the resulting separation; times one full agent-based encounter.
"""

from conftest import record_figure, record_result

from repro.analysis.figures import trajectory_figure
from repro.encounters import head_on_encounter
from repro.sim import EncounterSimConfig, run_encounter
from repro.sim.encounter import make_acas_pair

UP = {"CLIMB", "STRONG_CLIMB"}
DOWN = {"DESCEND", "STRONG_DESCEND"}


def test_bench_fig5_headon(benchmark, paper_table):
    params = head_on_encounter(ground_speed=30.0, time_to_cpa=30.0)
    config = EncounterSimConfig()

    def run_once():
        own, intruder = make_acas_pair(paper_table, coordination=True)
        return run_encounter(
            params, own, intruder, config, seed=5, record_trace=True
        )

    result = benchmark(run_once)
    own_advisories = set(result.trace.advisories_issued("own")) - {"COC", ""}
    intr_advisories = set(result.trace.advisories_issued("intruder")) - {
        "COC", ""
    }
    opposite_senses = not (
        (own_advisories & UP and intr_advisories & UP)
        or (own_advisories & DOWN and intr_advisories & DOWN)
    )

    figure = record_figure(
        trajectory_figure,
        result.trace,
        "fig5_trajectories.svg",
        title="Coordinated head-on resolution (cf. Fig. 5)",
    )
    record_result(
        "fig5_headon",
        "head-on encounter, both equipped, coordinated (cf. Fig. 5)\n"
        f"NMAC: {result.nmac}\n"
        f"min separation: {result.min_separation:.1f} m\n"
        f"own advisories:      {sorted(own_advisories)}\n"
        f"intruder advisories: {sorted(intr_advisories)}\n"
        f"senses complementary (paper: climb paired with descend): "
        f"{opposite_senses}\n"
        f"figure: {figure.name} (+ plan view)\n",
    )
    assert not result.nmac
    assert own_advisories or intr_advisories
    assert opposite_senses
