"""Tests for the vectorized batch simulator, including the statistical
equivalence check against the agent-based reference engine."""

import dataclasses

import numpy as np
import pytest

from repro.encounters import head_on_encounter, tail_approach_encounter
from repro.experiments import Campaign
from repro.sim import (
    BatchEncounterSimulator,
    EncounterSimConfig,
    run_encounter,
)
from repro.sim.disturbance import DisturbanceModel
from repro.sim.encounter import make_acas_pair
from repro.sim.sensors import AdsBSensor


@pytest.fixture
def quiet_config():
    return EncounterSimConfig(
        disturbance=DisturbanceModel(vertical_rate_std=0.0),
        sensor=AdsBSensor.noiseless(),
    )


class TestConstruction:
    def test_equipage_validated(self, test_table):
        with pytest.raises(ValueError):
            BatchEncounterSimulator(test_table, equipage="intruder-only")

    def test_equipped_needs_table(self):
        with pytest.raises(ValueError):
            BatchEncounterSimulator(None, equipage="both")

    def test_unequipped_without_table_ok(self):
        BatchEncounterSimulator(None, equipage="none")

    def test_run_count_validated(self, test_table):
        simulator = BatchEncounterSimulator(test_table)
        with pytest.raises(ValueError):
            simulator.run(head_on_encounter(), 0)

    def test_sensor_dropout_refused(self, test_table):
        """The kernel receives every ADS-B report, so a config with
        report loss is refused rather than simulated without it — by
        the kernel and by a campaign that would store it under a
        dropout config's id."""
        config = EncounterSimConfig(sensor=AdsBSensor(dropout_rate=0.9))
        refusal = r'sensor\.dropout_rate = 0\.9 .*backend="agent"'
        with pytest.raises(ValueError, match=refusal):
            BatchEncounterSimulator(test_table, config)
        with pytest.raises(ValueError, match=refusal):
            Campaign(["head_on"], table=test_table, sim_config=config)
        agent = Campaign(
            ["head_on"], backend="agent", table=test_table,
            sim_config=config, runs_per_scenario=2,
        )
        assert agent.run(seed=1).records[0].num_runs == 2


def config_perturbations(config, prefix=""):
    """``(field path, config)`` for every leaf field of *config* and of
    the dataclasses it nests, each config differing from *config* in
    that field alone: doubled, or 0.5 where it is 0.

    ``extra_duration`` is instead cut to end the run 10 s before the
    closest approach: any longer run only adds steps after it, where
    separations grow and no advisory is issued."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            for path, nested in config_perturbations(
                value, f"{prefix}{field.name}."
            ):
                yield path, dataclasses.replace(config, **{field.name: nested})
            continue
        if field.name == "extra_duration":
            changed = -10.0
        else:
            changed = type(value)(value * 2 if value else 0.5)
        yield prefix + field.name, dataclasses.replace(
            config, **{field.name: changed}
        )


class TestKernelReadsItsConfig:
    def test_every_config_field_changes_the_output_or_is_refused(
        self, test_table
    ):
        """A config field the kernel ignores would let it simulate
        another experiment than the one a campaign records.  Every
        field of ``EncounterSimConfig``, ``AdsBSensor`` and
        ``DisturbanceModel`` must either change the kernel's runs or
        make it refuse the config, naming the field."""
        def runs(config):
            result = BatchEncounterSimulator(test_table, config).run(
                head_on_encounter(), 200, seed=1
            )
            return [
                getattr(result, name).tobytes() for name in (
                    "min_separation", "min_horizontal", "nmac",
                    "own_alerted", "intruder_alerted",
                )
            ]

        default = runs(EncounterSimConfig())
        ignored = []
        paths = []
        for path, config in config_perturbations(EncounterSimConfig()):
            paths.append(path)
            try:
                changed = runs(config) != default
            except ValueError as refusal:
                changed = path in str(refusal)
            if not changed:
                ignored.append(path)
        assert "sensor.dropout_rate" in paths and "decision_dt" in paths
        assert not ignored, f"the kernel ignores {ignored}"


class TestDeterministicEquivalence:
    """With zero noise the batch simulator must match the agent engine
    run for run (identical deterministic trajectories)."""

    def test_unequipped_exact_match(self, quiet_config):
        params = head_on_encounter(miss_distance=120.0, vertical_offset=20.0)
        reference = run_encounter(params, config=quiet_config, seed=0)
        batch = BatchEncounterSimulator(None, quiet_config, equipage="none")
        result = batch.run(params, 3, seed=0)
        np.testing.assert_allclose(
            result.min_separation,
            reference.min_separation,
            rtol=1e-9,
        )
        assert bool(result.nmac[0]) == reference.nmac

    def test_equipped_exact_match(self, test_table, quiet_config):
        params = head_on_encounter()
        own, intruder = make_acas_pair(test_table)
        reference = run_encounter(params, own, intruder, quiet_config, seed=0)
        batch = BatchEncounterSimulator(test_table, quiet_config)
        result = batch.run(params, 2, seed=0)
        np.testing.assert_allclose(
            result.min_separation, reference.min_separation, rtol=1e-6
        )
        assert bool(result.own_alerted[0]) == reference.own_alerted
        assert bool(result.intruder_alerted[0]) == reference.intruder_alerted
        assert bool(result.nmac[0]) == reference.nmac


class TestStatisticalEquivalence:
    """With noise on, per-run randomness differs between the two
    implementations, but the distributions must agree."""

    @pytest.mark.parametrize(
        "params, coordination",
        [
            pytest.param(head_on_encounter(), True, id="head-on"),
            pytest.param(
                tail_approach_encounter(overtake_speed=2.0), True, id="tail"
            ),
            pytest.param(
                head_on_encounter(), False, id="head-on-uncoordinated"
            ),
        ],
    )
    def test_min_separation_distributions_agree(
        self, test_table, params, coordination
    ):
        config = EncounterSimConfig()
        runs = 60
        reference = []
        for seed in range(runs):
            own, intruder = make_acas_pair(test_table, coordination)
            result = run_encounter(params, own, intruder, config, seed=seed)
            reference.append(result.min_separation)
        reference = np.array(reference)

        batch = BatchEncounterSimulator(
            test_table, config, coordination=coordination
        )
        result = batch.run(params, runs, seed=123)

        ref_mean = reference.mean()
        batch_mean = result.min_separation.mean()
        pooled_se = np.sqrt(
            reference.var() / runs + result.min_separation.var() / runs
        )
        # Means within 4 standard errors (generous: this is a smoke
        # equivalence check, not a hypothesis test).
        assert abs(ref_mean - batch_mean) < 4.0 * pooled_se + 1e-9


class TestBatchBehaviour:
    def test_result_shapes(self, test_table):
        batch = BatchEncounterSimulator(test_table, EncounterSimConfig())
        result = batch.run(head_on_encounter(), 17, seed=0)
        assert result.num_runs == 17
        for array in (
            result.min_separation,
            result.min_horizontal,
            result.nmac,
            result.own_alerted,
            result.intruder_alerted,
        ):
            assert array.shape == (17,)

    def test_deterministic_given_seed(self, test_table):
        batch = BatchEncounterSimulator(test_table, EncounterSimConfig())
        a = batch.run(head_on_encounter(), 10, seed=5)
        b = batch.run(head_on_encounter(), 10, seed=5)
        np.testing.assert_array_equal(a.min_separation, b.min_separation)

    def test_equipage_ordering(self, test_table):
        # More protection -> larger typical separation on a collision
        # course: both >= own-only >= none (statistically).
        params = head_on_encounter()
        config = EncounterSimConfig()
        runs = 80
        none = BatchEncounterSimulator(None, config, equipage="none").run(
            params, runs, seed=1
        )
        own_only = BatchEncounterSimulator(
            test_table, config, equipage="own-only"
        ).run(params, runs, seed=1)
        both = BatchEncounterSimulator(test_table, config).run(
            params, runs, seed=1
        )
        assert own_only.min_separation.mean() > none.min_separation.mean()
        assert both.nmac_rate <= own_only.nmac_rate + 0.05

    def test_unequipped_never_alerts(self):
        batch = BatchEncounterSimulator(
            None, EncounterSimConfig(), equipage="none"
        )
        result = batch.run(head_on_encounter(), 10, seed=0)
        assert not result.own_alerted.any()
        assert not result.intruder_alerted.any()

    def test_coordination_toggle_runs(self, test_table):
        batch = BatchEncounterSimulator(
            test_table, EncounterSimConfig(), coordination=False
        )
        result = batch.run(head_on_encounter(), 10, seed=0)
        assert result.num_runs == 10

    def test_nmac_rate_property(self, test_table):
        batch = BatchEncounterSimulator(None, EncounterSimConfig(), equipage="none")
        result = batch.run(head_on_encounter(), 50, seed=3)
        assert result.nmac_rate == pytest.approx(result.nmac.mean())
