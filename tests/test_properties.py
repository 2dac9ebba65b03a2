"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* encounter the scenario space can
produce — the kind of blanket guarantees unit tests on hand-picked
cases cannot give.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.dynamics.aircraft import cpa_horizontal_miss, time_to_cpa
from repro.encounters.encoding import (
    EncounterParameters,
    decode_encounter,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.search.fitness import COLLISION_GAIN, paper_fitness
from repro.sim import BatchEncounterSimulator, EncounterSimConfig
from repro.sim.batch_reference import reference_run_many
from repro.sim.disturbance import DisturbanceModel
from repro.sim.sensors import AdsBSensor

#: Strategy over the full scenario-generator parameter box.
encounter_params = st.builds(
    EncounterParameters,
    own_ground_speed=st.floats(15.0, 50.0),
    own_vertical_speed=st.floats(-5.0, 5.0),
    time_to_cpa=st.floats(20.0, 40.0),
    cpa_horizontal_distance=st.floats(0.0, 152.0),
    cpa_angle=st.floats(0.0, 2 * math.pi),
    cpa_vertical_distance=st.floats(-30.0, 30.0),
    intruder_ground_speed=st.floats(15.0, 50.0),
    intruder_bearing=st.floats(0.0, 2 * math.pi),
    intruder_vertical_speed=st.floats(-5.0, 5.0),
)


class TestEncounterGeometryProperties:
    @settings(max_examples=60)
    @given(encounter_params)
    def test_unmaneuvered_cpa_miss_within_configured_bounds(self, params):
        # The kinematic CPA of the decoded states can never exceed the
        # configured horizontal miss distance (it may be smaller when
        # the straight-line CPA time differs from the parameter T for
        # slow geometries, never larger).
        own, intruder = decode_encounter(params)
        miss = cpa_horizontal_miss(own, intruder)
        assert miss <= params.cpa_horizontal_distance + 1e-6

    @settings(max_examples=60)
    @given(encounter_params)
    def test_time_to_cpa_nonnegative_and_finite(self, params):
        own, intruder = decode_encounter(params)
        tau = time_to_cpa(own, intruder)
        assert tau >= 0.0
        assert np.isfinite(tau)


class TestFitnessProperties:
    @given(
        st.lists(st.floats(0.0, 1e5), min_size=1, max_size=30),
        st.floats(0.1, 50.0),
    )
    def test_fitness_decreases_when_all_distances_grow(self, distances, shift):
        base = paper_fitness(np.array(distances))
        shifted = paper_fitness(np.array(distances) + shift)
        assert shifted < base

    @given(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=30))
    def test_fitness_of_subsets_brackets_mean(self, distances):
        values = np.array(distances)
        per_run = COLLISION_GAIN / (1.0 + values)
        total = paper_fitness(values)
        assert per_run.min() - 1e-9 <= total <= per_run.max() + 1e-9


@pytest.mark.parametrize("equipage", ["none", "both"])
class TestBatchSimulatorProperties:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(params=encounter_params, seed=st.integers(0, 2**16))
    def test_invariants_hold_for_any_encounter(
        self, test_table, equipage, params, seed
    ):
        config = EncounterSimConfig(
            disturbance=DisturbanceModel(vertical_rate_std=0.3),
            sensor=AdsBSensor(),
        )
        table = None if equipage == "none" else test_table
        simulator = BatchEncounterSimulator(table, config, equipage=equipage)
        result = simulator.run(params, 4, seed=seed)

        # Separations are positive and minima are consistent.
        assert np.all(result.min_separation >= 0.0)
        assert np.all(result.min_horizontal >= 0.0)
        assert np.all(result.min_separation >= result.min_horizontal - 1e-9)

        # Minimum separation can never exceed the initial separation.
        own, intruder = decode_encounter(params)
        initial = own.distance_to(intruder)
        assert np.all(result.min_separation <= initial + 1e-6)

        # Unequipped runs never alert.
        if equipage == "none":
            assert not result.own_alerted.any()

        # NMAC implies close approach in both dimensions at once, so
        # min 3-D separation must be below the NMAC diagonal.
        diagonal = math.hypot(152.4, 30.48)
        if result.nmac.any():
            assert result.min_separation[result.nmac].min() <= diagonal


RESULT_FIELDS = (
    "min_separation",
    "min_horizontal",
    "nmac",
    "own_alerted",
    "intruder_alerted",
)


def assert_runs_bitwise_equal(a, b):
    for name in RESULT_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def make_simulator(table, equipage):
    return BatchEncounterSimulator(
        None if equipage == "none" else table, equipage=equipage
    )


@pytest.mark.parametrize("equipage", ["both", "own-only", "none"])
class TestMegabatchContractProperties:
    """The per-scenario contract of ``BatchEncounterSimulator.run_many``.

    A scenario's bits derive only from its own parameters and seed, so
    its slice of any batch — whatever the other scenarios, their order
    or the chunk boundaries — equals running it alone.
    """

    # No shrink phase: any failing example already shows the broken
    # contract, and shrinking multi-scenario kernel runs takes minutes.
    @settings(
        max_examples=6,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_slice_equals_solo_run_under_any_order_and_chunking(
        self, test_table, equipage, data
    ):
        scenarios = data.draw(
            st.lists(encounter_params, min_size=2, max_size=5), "scenarios"
        )
        count = len(scenarios)
        seeds = data.draw(
            st.lists(
                st.integers(0, 2**32 - 1), min_size=count, max_size=count
            ),
            "seeds",
        )
        order = data.draw(st.permutations(range(count)), "order")
        cuts = data.draw(st.sets(st.integers(1, count - 1)), "cuts")
        simulator = make_simulator(test_table, equipage)
        solo = [
            simulator.run_many([params], 3, [seed])[0]
            for params, seed in zip(scenarios, seeds)
        ]
        bounds = [0, *sorted(cuts), count]
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = order[lo:hi]
            results = simulator.run_many(
                [scenarios[i] for i in chunk], 3, [seeds[i] for i in chunk]
            )
            for i, result in zip(chunk, results):
                assert_runs_bitwise_equal(result, solo[i])

    def test_generator_threaded_through_run_matches_reference(
        self, test_table, equipage
    ):
        """One ``Generator`` passed through successive ``run()`` calls
        (as the stratified estimator does) yields the frozen kernel's
        outputs and ends in the same state."""
        simulator = make_simulator(test_table, equipage)
        scenarios = [
            head_on_encounter(),
            tail_approach_encounter(time_to_cpa=25.0),
            head_on_encounter(time_to_cpa=12.0),
        ]
        threaded = np.random.default_rng(2016)
        reference = np.random.default_rng(2016)
        for params in scenarios:
            assert_runs_bitwise_equal(
                simulator.run(params, 4, seed=threaded),
                reference_run_many(simulator, [params], 4, [reference])[0],
            )
        assert threaded.bit_generator.state == reference.bit_generator.state
