"""Ablation: disturbance and sensor-noise magnitude sweeps.

Section IV of the paper stresses that validation must probe the gap
between the offline model's assumed stochasticity and the simulated
"reality".  This ablation sweeps (a) the environment disturbance and
(b) the ADS-B sensor noise around their defaults and measures the
equipped NMAC rate on the challenging tail-approach geometry.
"""

from conftest import record_result

from repro.encounters import tail_approach_encounter
from repro.sim import BatchEncounterSimulator, EncounterSimConfig
from repro.sim.disturbance import DisturbanceModel
from repro.sim.sensors import AdsBSensor

RUNS = 100


def test_bench_ablation_noise(benchmark, paper_table):
    params = tail_approach_encounter(
        overtake_speed=3.0, time_to_cpa=40.0,
        own_vertical_speed=-5.0, intruder_vertical_speed=5.0,
    )

    def sweep():
        rows = []
        for disturbance_std in (0.15, 0.45, 0.9):
            config = EncounterSimConfig(
                disturbance=DisturbanceModel(
                    vertical_rate_std=disturbance_std
                )
            )
            result = BatchEncounterSimulator(paper_table, config).run(
                params, RUNS, seed=31
            )
            rows.append(("disturbance", disturbance_std, result))
        for velocity_std in (0.0, 0.2, 1.0):
            config = EncounterSimConfig(
                sensor=AdsBSensor(
                    horizontal_velocity_std=velocity_std,
                    vertical_velocity_std=velocity_std,
                )
            )
            result = BatchEncounterSimulator(paper_table, config).run(
                params, RUNS, seed=32
            )
            rows.append(("sensor-velocity", velocity_std, result))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"tail-approach geometry, {RUNS} runs per cell:"]
    for kind, magnitude, result in rows:
        lines.append(
            f"  {kind:<16} std={magnitude:4.2f}: "
            f"NMAC {int(result.nmac.sum()):>3}/{RUNS}, "
            f"alert rate {result.own_alerted.mean():.2f}, "
            f"mean min sep {result.min_separation.mean():6.1f} m"
        )
    lines.append(
        "(noisier sensed closure paradoxically triggers more spurious-\n"
        " but-useful alerts in slow tail chases — the stable wrong\n"
        " low-risk assessment needs accurate sensing)"
    )
    record_result("ablation_noise", "\n".join(lines) + "\n")
    assert len(rows) == 6
