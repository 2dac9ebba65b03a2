"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* encounter the scenario space can
produce — the kind of blanket guarantees unit tests on hand-picked
cases cannot give.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.acasx.advisories import COC, NUM_ADVISORIES
from repro.acasx.config import preset_config
from repro.acasx.logic_table import make_cube_grid
from repro.dynamics.aircraft import cpa_horizontal_miss, time_to_cpa
from repro.encounters.encoding import (
    EncounterParameters,
    decode_encounter,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.experiments import Campaign, make_backend
from repro.search.fitness import COLLISION_GAIN, paper_fitness
from repro.sim import BatchEncounterSimulator, EncounterSimConfig
from repro.sim.disturbance import DisturbanceModel
from repro.sim.encounter import EQUIPAGES
from repro.sim.sensors import AdsBSensor
from repro.store import ResultStore, results_digest

from batch_reference import _interp_table, reference_run_many

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


def near_or_anywhere(limit: float):
    """Floats within *limit* of zero, or any float but NaN."""
    return st.one_of(
        st.floats(-limit, limit), st.floats(allow_nan=False)
    )


def axis_coordinates(points: np.ndarray, nan: bool = True):
    """Coordinates that probe the placement on one axis: a grid point,
    one ulp to either side of one, anywhere between the ends, anywhere
    beyond either end (infinities included), or NaN unless *nan* is
    false."""
    low, high = float(points[0]), float(points[-1])
    nudged = st.tuples(
        st.sampled_from(points.tolist()), st.sampled_from([-1, 0, 1])
    ).map(lambda pair: float(np.nextafter(pair[0], pair[1] * np.inf))
          if pair[1] else pair[0])
    return st.one_of(
        nudged,
        st.floats(low, high),
        st.floats(max_value=low, allow_nan=False),
        st.floats(min_value=high, allow_nan=False),
        *([st.just(float("nan"))] if nan else []),
    )


class TestInterpolationProperties:
    @pytest.mark.parametrize("preset", ["test", "paper"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_placement_matches_the_searchsorted_oracle(self, preset, data):
        """``interp_table`` places every coordinate by arithmetic; its
        indices and weight bytes equal the frozen searchsorted
        placement's (``batch_reference._interp_table``) on both
        presets' cube grids, at and around every kind of coordinate."""
        grid = make_cube_grid(preset_config(preset))
        coords = np.array(data.draw(st.lists(
            st.tuples(*(axis_coordinates(ax.points) for ax in grid.axes)),
            min_size=1, max_size=60,
        ), "coords"))
        indices, weights = grid.interp_table(coords)
        expected_indices, expected_weights = _interp_table(grid, coords)
        np.testing.assert_array_equal(indices, expected_indices)
        np.testing.assert_array_equal(
            weights.view(np.uint64), expected_weights.view(np.uint64)
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_q_stays_within_its_corners(self, tiny_table, data):
        """Every interpolated Q lies between the min and max of the 16
        values it blends: 8 cube corners at each bracketing stage.
        Out-of-range tau and coordinates are clamped onto the table.

        The blend rounds in float64 and its weights, products of
        per-axis fractions, need not sum to exactly 1: a constant
        corner set (the terminal NMAC band at tau 0) can come back one
        ulp outside.  So the bounds allow 16 float64 eps of the largest
        corner magnitude."""
        config = tiny_table.config
        states = data.draw(st.lists(
            st.tuples(
                near_or_anywhere(config.horizon * config.dt + 5.0),
                st.integers(0, NUM_ADVISORIES - 1),
                near_or_anywhere(2 * config.h_max),
                near_or_anywhere(2 * config.rate_max),
                near_or_anywhere(2 * config.rate_max),
            ),
            min_size=1, max_size=40,
        ), "states")
        tau = np.array([state[0] for state in states])
        current = np.array([state[1] for state in states])
        coords = np.array([state[2:] for state in states])

        q = tiny_table.q_values_batch(tau, current, coords)

        k = np.clip(tau / config.dt, 0.0, config.horizon)
        k_lo = np.floor(k).astype(np.int64)
        stages = (k_lo, np.minimum(k_lo + 1, config.horizon))
        indices, _ = tiny_table.grid.interp_table(coords)
        actions = np.arange(NUM_ADVISORIES)[None, :, None]
        corners = np.concatenate([
            tiny_table.q[
                stage[:, None, None], current[:, None, None], actions,
                indices[:, None, :],
            ]
            for stage in stages
        ], axis=2).astype(float)  # (n, actions, 16)
        slack = 16 * np.finfo(float).eps * np.abs(corners).max(axis=2)
        assert np.all(q >= corners.min(axis=2) - slack)
        assert np.all(q <= corners.max(axis=2) + slack)


@pytest.fixture(scope="module")
def preset_tables(test_table, paper_table):
    return {"test": test_table, "paper": paper_table}


class TestDecidedIndexProperties:
    """``LogicTable.decided_advisories`` answers a lookup only where the
    answer is settled: it must be the argmax of ``q_values_batch``."""

    @pytest.mark.parametrize("preset", ["test", "paper"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_answers_equal_the_interpolated_argmax(
        self, preset_tables, preset, data
    ):
        """At and one ulp around grid points (cell faces) and stage
        boundaries (integer tau), anywhere inside, beyond either end
        (infinities included), for every current advisory."""
        table = preset_tables[preset]
        config = table.config
        states = data.draw(st.lists(
            st.tuples(
                axis_coordinates(
                    np.arange(config.horizon + 1) * config.dt, nan=False
                ),
                st.one_of(
                    st.just(COC.index), st.integers(0, NUM_ADVISORIES - 1)
                ),
                *(axis_coordinates(ax.points, nan=False)
                  for ax in table.grid.axes),
            ),
            min_size=1, max_size=80,
        ), "states")
        tau = np.array([state[0] for state in states])
        current = np.array([state[1] for state in states])
        coords = np.array([state[2:] for state in states])

        decided = table.decided_advisories(tau, current, coords)
        best = np.argmax(table.q_values_batch(tau, current, coords), axis=1)
        answered = decided >= 0
        np.testing.assert_array_equal(decided[answered], best[answered])
        assert not answered[current != COC.index].any()

    def test_index_matches_a_brute_force_rebuild(self, test_table):
        """Cell by cell: an advisory that beats every other by more
        than 2**-40 of the COC slab's largest |Q| at all 8 corners, or
        -1; cells whose base is on an axis's last point stay -1."""
        config = test_table.config
        coc = test_table.q[:, COC.index].astype(float)  # (k, a, cube)
        bound = 2.0 ** -40 * np.abs(coc).max()
        shape = test_table.grid.shape
        expected = np.full(
            (config.horizon + 1, config.cube_size), -1, dtype=np.int8
        )
        corners = list(itertools.product((0, 1), repeat=len(shape)))
        for cell in itertools.product(*(range(num - 1) for num in shape)):
            points = [
                np.ravel_multi_index(
                    tuple(c + d for c, d in zip(cell, corner)), shape
                )
                for corner in corners
            ]
            values = coc[:, :, points]  # (k, a, corner)
            best = values[:, :, 0].argmax(axis=1)  # (k,)
            others = np.where(
                np.arange(NUM_ADVISORIES)[None, :, None] == best[:, None, None],
                -np.inf, values,
            ).max(axis=1)  # (k, corner)
            leads = values[np.arange(len(best)), best] - others
            settled = np.all(leads > bound, axis=1)
            expected[:, np.ravel_multi_index(cell, shape)] = np.where(
                settled, best, -1
            )

        index = test_table._decided_index()
        assert index.dtype == np.int8 and index.shape == expected.shape
        assert index.tobytes() == expected.tobytes()


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
        (each call consumes it exactly as the kernel draws) yields the
        frozen kernel's outputs and ends in the same state."""
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


class TestStoreRoundTripProperties:
    """``ResultStore.ingest`` then ``resultset`` gives back the campaign
    it was handed, bit for bit: records, provenance and aggregates."""

    # The agent engine is slow: a few scenarios, at most 4 runs, and no
    # shrink phase (a failing example already shows a lost field).
    @settings(
        max_examples=15,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        backend=st.sampled_from(["agent", "vectorized-batch", "vectorized"]),
        equipage=st.sampled_from(EQUIPAGES),
        coordination=st.booleans(),
        ready=st.booleans(),
        scenarios=st.lists(encounter_params, min_size=1, max_size=3),
        runs=st.integers(1, 4),
        seed=st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**128)),
    )
    def test_ingest_then_resultset_is_the_same_campaign(
        self, tiny_table, backend, equipage, coordination, ready,
        scenarios, runs, seed,
    ):
        setup = dict(
            table=None if equipage == "none" else tiny_table,
            equipage=equipage,
            coordination=coordination,
        )
        if ready:
            campaign = Campaign(
                scenarios, backend=make_backend(backend, **setup),
                runs_per_scenario=runs,
            )
        else:
            campaign = Campaign(
                scenarios, backend=backend, runs_per_scenario=runs, **setup
            )
        original = campaign.run(seed=seed)
        with ResultStore(":memory:") as store:
            restored = store.resultset(store.ingest(original))

        assert results_digest(restored) == results_digest(original)
        assert [(r.name, r.params) for r in restored] == [
            (r.name, r.params) for r in original
        ]
        for field in (
            "backend", "equipage", "coordination", "runs_per_scenario",
            "seed_entropy", "workers",
        ):
            assert getattr(restored, field) == getattr(original, field)
        assert restored.aggregates() == original.aggregates()
