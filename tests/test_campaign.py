"""Tests for the unified `repro.experiments` campaign API.

Covers the scenario abstraction, the backend registry, deterministic
serial/parallel execution, agent-vs-vectorized equivalence at the
campaign level, the result exports, and the engine's minimum-duration
guarantee the campaign work surfaced.
"""

import json

import numpy as np
import pytest

from repro.dynamics.aircraft import AircraftState
from repro.encounters import (
    EncounterParameters,
    StatisticalEncounterModel,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.experiments import (
    Campaign,
    ExplicitSource,
    GenomeSource,
    PresetSource,
    SampledSource,
    Scenario,
    as_scenario_source,
    available_backends,
    make_backend,
    preset_scenario,
)
from repro.sim import EncounterSimConfig, SimulationEngine, UavAgent
from repro.sim.disturbance import DisturbanceModel
from repro.sim.sensors import AdsBSensor


@pytest.fixture
def quiet_config():
    return EncounterSimConfig(
        disturbance=DisturbanceModel(
            vertical_rate_std=0.0, horizontal_accel_std=0.0
        ),
        sensor=AdsBSensor.noiseless(),
    )


class TestScenarioSources:
    def test_preset_scenario_spellings(self):
        a = preset_scenario("head_on")
        b = preset_scenario("head-on")
        assert a.params == b.params
        with pytest.raises(ValueError):
            preset_scenario("spiral-of-death")

    def test_preset_source(self):
        scenarios = PresetSource("head_on", "tail_approach").scenarios()
        assert [s.name for s in scenarios] == ["head_on", "tail_approach"]

    def test_explicit_source_mixes_forms(self):
        params = head_on_encounter()
        source = ExplicitSource(
            [
                params,
                "tail_approach",
                params.as_array(),
                ("named", tail_approach_encounter()),
                Scenario("wrapped", params),
            ]
        )
        scenarios = source.scenarios()
        assert len(scenarios) == 5
        assert scenarios[3].name == "named"
        assert scenarios[4].name == "wrapped"
        np.testing.assert_allclose(
            scenarios[2].genome, params.as_array()
        )

    def test_explicit_source_rejects_empty(self):
        with pytest.raises(ValueError):
            ExplicitSource([])

    def test_genome_source(self):
        genomes = np.stack(
            [head_on_encounter().as_array(),
             tail_approach_encounter().as_array()]
        )
        scenarios = GenomeSource(genomes).scenarios()
        assert len(scenarios) == 2
        np.testing.assert_allclose(scenarios[1].genome, genomes[1])

    def test_sampled_source_deterministic_per_seed(self):
        source = SampledSource(StatisticalEncounterModel(), 5)
        a = source.scenarios(seed=3)
        b = source.scenarios(seed=3)
        c = source.scenarios(seed=4)
        assert [s.params for s in a] == [s.params for s in b]
        assert [s.params for s in a] != [s.params for s in c]

    def test_sampled_source_validation(self):
        with pytest.raises(ValueError):
            SampledSource(StatisticalEncounterModel(), 0)
        with pytest.raises(TypeError):
            SampledSource(object(), 3)

    def test_as_scenario_source_coercions(self):
        assert len(as_scenario_source("head_on").scenarios()) == 1
        assert len(as_scenario_source(head_on_encounter()).scenarios()) == 1
        assert len(
            as_scenario_source(head_on_encounter().as_array()).scenarios()
        ) == 1
        two = np.stack([head_on_encounter().as_array()] * 2)
        assert len(as_scenario_source(two).scenarios()) == 2
        assert len(
            as_scenario_source(["head_on", tail_approach_encounter()])
            .scenarios()
        ) == 2
        source = SampledSource(StatisticalEncounterModel(), 2)
        assert as_scenario_source(source) is source

    def test_as_scenario_source_rejects_bare_model(self):
        with pytest.raises(TypeError, match="SampledSource"):
            as_scenario_source(StatisticalEncounterModel())


def table_keys():
    """Registry keys that fly the ACAS logic table (all but SVO's)."""
    return [name for name in available_backends() if name != "agent-svo"]


class TestBackendRegistry:
    def test_registry_contents(self):
        assert "agent" in available_backends()
        assert "agent-svo" in available_backends()
        assert "vectorized" in available_backends()

    def test_unknown_backend_rejected(self, test_table):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum", table=test_table)

    def test_equipped_backend_needs_table(self, test_table):
        for name in table_keys():
            with pytest.raises(ValueError):
                make_backend(name, table=None, equipage="both")
        # SVO reads no table: it refuses one and flies without.
        with pytest.raises(ValueError, match="reads no logic table"):
            make_backend("agent-svo", table=test_table)
        assert make_backend("agent-svo", equipage="both").table is None

    def test_equipage_validated(self, test_table):
        with pytest.raises(ValueError, match="equipage"):
            make_backend("agent", table=test_table, equipage="intruder-only")
        with pytest.raises(ValueError, match="equipage"):
            make_backend("agent-svo", equipage="intruder-only")

    def test_instance_passthrough(self, test_table):
        backend = make_backend("vectorized", table=test_table)
        assert make_backend(backend) is backend

    def test_false_alarm_fitness_refuses_instance_backend(
        self, test_table
    ):
        # A ready backend owns one equipage and its own config, so it
        # cannot serve both arms; rebuilding the arms from its registry
        # key would drop that config without a word.
        from repro.search.fitness import FalseAlarmFitness

        backend = make_backend(
            "vectorized-batch",
            table=test_table,
            config=EncounterSimConfig(physics_substeps=2),
        )
        with pytest.raises(TypeError, match="registry key"):
            FalseAlarmFitness(test_table, num_runs=2, backend=backend)
        fitness = FalseAlarmFitness(
            test_table, num_runs=2, backend="vectorized"
        )
        assert fitness._alerts.backend is not fitness._misses.backend
        assert fitness._alerts.backend.equipage == "both"
        assert fitness._misses.backend.equipage == "none"

    def test_encounter_fitness_reuses_backend(self, test_table):
        from repro.search.fitness import EncounterFitness

        fitness = EncounterFitness(test_table, num_runs=2, seed=0)
        assert fitness.backend.name == "vectorized-batch"
        first = fitness.backend
        fitness(head_on_encounter().as_array())
        assert fitness.backend is first

    def test_backends_simulate_same_shape(self, test_table, tmp_path):
        for name in available_backends():
            # The fleet backend needs its queue/store paths; direct
            # run_many() calls on it execute in-process regardless.
            options = (
                {"queue": str(tmp_path / "q.sqlite"),
                 "store": str(tmp_path / "s.sqlite")}
                if name == "distributed"
                else {}
            )
            table = test_table if name in table_keys() else None
            backend = make_backend(name, table=table, **options)
            (result,) = backend.run_many([head_on_encounter()], 3, [0])
            assert result.num_runs == 3
            assert result.min_separation.shape == (3,)


class TestBackendOwnsSetup:
    """A campaign records what its backend simulates, never a copy."""

    def test_campaign_reads_equipage_from_a_ready_backend(self):
        from repro.store import ResultStore

        ready = Campaign(
            ["head_on"],
            backend=make_backend("vectorized-batch", equipage="none"),
            runs_per_scenario=3,
        )
        twin = Campaign(["head_on"], equipage="none", runs_per_scenario=3)
        with ResultStore(":memory:") as store:
            results = ready.run(seed=0, store=store)
            again = twin.run(seed=0, store=store)
        assert (results.equipage, results.coordination) == ("none", True)
        # The registry-key twin is the same campaign: it loads, not
        # simulates, the ready backend's stored record.
        assert again.metadata["campaign_id"] == results.metadata["campaign_id"]
        assert again.metadata["loaded"] == 1

    @pytest.mark.parametrize(
        "argument, named",
        [
            ("table", "table"),
            ("sim_config", "config"),
            ("equipage", "equipage"),
            ("coordination", "coordination"),
            ("backend_options", "queue"),
        ],
    )
    def test_ready_backend_refuses_a_second_setup(
        self, test_table, argument, named
    ):
        from repro.search.fitness import EncounterFitness

        ready = make_backend("vectorized-batch", table=test_table)
        value = {
            "table": test_table,
            "sim_config": EncounterSimConfig(),
            "equipage": "both",
            "coordination": True,
            "backend_options": {"queue": "q.sqlite"},
        }[argument]
        with pytest.raises(TypeError, match=named):
            Campaign(["head_on"], backend=ready, **{argument: value})
        fitness_argument = "config" if argument == "sim_config" else argument
        with pytest.raises(TypeError, match=named):
            EncounterFitness(backend=ready, **{fitness_argument: value})
        options = value if argument == "backend_options" else {named: value}
        with pytest.raises(TypeError, match=named):
            make_backend(ready, **options)

    def test_montecarlo_needs_a_registry_key(self, test_table):
        from repro.montecarlo import MonteCarloEstimator

        ready = make_backend("vectorized-batch", table=test_table)
        with pytest.raises(TypeError, match="registry key"):
            MonteCarloEstimator(
                test_table, StatisticalEncounterModel(), backend=ready
            )

    def test_encounter_fitness_needs_only_its_backend(self, test_table):
        from repro.search.fitness import EncounterFitness

        ready = make_backend(
            "vectorized-batch", table=test_table, equipage="own-only"
        )
        fitness = EncounterFitness(backend=ready, num_runs=2, seed=0)
        assert fitness.backend is ready
        fitness(head_on_encounter().as_array())
        assert fitness.evaluations == 1

    @pytest.mark.parametrize(
        "backend, pinned",
        [
            ("vectorized-batch", [
                ((1.0, 29.758375895512103), 23.19613711047088),
                ((1.0, 25.356402090295237), 13.496716206302866),
                ((0.75, 27.626629956938245), 6.924812618831552),
            ]),
            ("agent", [
                ((0.75, 46.67220756608991), 91.10656717361766),
            ]),
        ],
    )
    def test_false_alarm_fitness_values_are_pinned(
        self, test_table, backend, pinned
    ):
        """Each arm runs one campaign per evaluation, its root seed
        drawn from the generator both arms share, equipped arm first;
        these values fix that stream."""
        from repro.search.fitness import FalseAlarmFitness

        genomes = [
            head_on_encounter().as_array(),
            tail_approach_encounter(overtake_speed=2.0).as_array(),
            head_on_encounter(time_to_cpa=25.0).as_array(),
        ]
        fitness = FalseAlarmFitness(
            test_table, num_runs=4, seed=7, backend=backend
        )
        got = [
            (fitness.components(genome), fitness(genome))
            for genome in genomes[:len(pinned)]
        ]
        assert got == pinned


class TestCampaignExecution:
    def test_serial_reproducible(self, test_table):
        def run():
            return Campaign(
                ["head_on", "tail_approach"],
                table=test_table,
                runs_per_scenario=6,
            ).run(seed=17)

        a, b = run(), run()
        np.testing.assert_array_equal(a.min_separations(), b.min_separations())
        assert a.nmac_count == b.nmac_count

    def test_agent_backend_campaign(self, test_table):
        results = Campaign(
            "head_on",
            backend="agent",
            table=test_table,
            runs_per_scenario=2,
        ).run(seed=0)
        assert results[0].num_runs == 2
        assert results.backend == "agent"

    def test_sampled_scenarios_derive_from_root_seed(self, test_table):
        def run(seed):
            return Campaign(
                SampledSource(StatisticalEncounterModel(), 3),
                table=test_table,
                runs_per_scenario=2,
            ).run(seed=seed)

        a, b, c = run(5), run(5), run(6)
        assert [r.params for r in a] == [r.params for r in b]
        assert [r.params for r in a] != [r.params for r in c]

    def test_validation(self, test_table):
        with pytest.raises(ValueError):
            Campaign("head_on", table=test_table, runs_per_scenario=0)
        campaign = Campaign("head_on", table=test_table, runs_per_scenario=2)
        with pytest.raises(ValueError):
            campaign.run(seed=0, workers=0)

    def test_workers_clamped_to_scenario_count(self, test_table):
        # One scenario can use at most one worker; the ResultSet must
        # record the count actually used, not the one requested.
        results = Campaign(
            "head_on", table=test_table, runs_per_scenario=2
        ).run(seed=0, workers=4)
        assert results.workers == 1

    @pytest.mark.slow
    def test_parallel_matches_serial_bitwise(self, test_table):
        def run(workers):
            # chunk_size=1 so all four workers are usable (the clamp
            # records the parallelism actually available, by chunks).
            return Campaign(
                SampledSource(StatisticalEncounterModel(), 6),
                table=test_table,
                runs_per_scenario=4,
            ).run(seed=2016, workers=workers, chunk_size=1)

        serial = run(1)
        parallel = run(4)
        assert serial.workers == 1 and parallel.workers == 4
        np.testing.assert_array_equal(
            serial.min_separations(), parallel.min_separations()
        )
        for a, b in zip(serial, parallel):
            assert a.name == b.name
            np.testing.assert_array_equal(a.runs.nmac, b.runs.nmac)
            np.testing.assert_array_equal(
                a.runs.own_alerted, b.runs.own_alerted
            )

    def test_backends_agree_exactly_without_noise(
        self, test_table, quiet_config
    ):
        # With all stochastic elements disabled the two backends must
        # produce identical trajectories run for run.
        def run(backend):
            return Campaign(
                ["head_on", "tail_approach"],
                backend=backend,
                table=test_table,
                runs_per_scenario=2,
                sim_config=quiet_config,
            ).run(seed=0)

        agent, vectorized = run("agent"), run("vectorized")
        np.testing.assert_allclose(
            agent.min_separations(),
            vectorized.min_separations(),
            rtol=1e-6,
        )
        assert agent.nmac_count == vectorized.nmac_count

    @pytest.mark.slow
    def test_backends_statistically_equivalent(self, test_table):
        # With noise on, per-run randomness differs between backends but
        # the reference encounter's outcome distribution must agree.
        def run(backend):
            return Campaign(
                tail_approach_encounter(overtake_speed=2.0),
                backend=backend,
                table=test_table,
                runs_per_scenario=40,
            ).run(seed=0)

        agent, vectorized = run("agent"), run("vectorized")
        a = agent.min_separations()
        v = vectorized.min_separations()
        pooled = np.sqrt((a.std() ** 2 + v.std() ** 2) / 2)
        assert abs(a.mean() - v.mean()) < max(3 * pooled, 20.0)


class TestResultSetExport:
    @pytest.fixture(scope="class")
    def results(self, test_table):
        return Campaign(
            ["head_on", "tail_approach"],
            table=test_table,
            runs_per_scenario=4,
        ).run(seed=1)

    def test_aggregates_consistent(self, results):
        assert results.total_runs == 8
        assert 0.0 <= results.nmac_rate <= 1.0
        assert results.worst() in list(results)
        assert len(results) == 2
        aggregates = results.aggregates()
        assert aggregates["scenarios"] == 2
        assert aggregates["wall_time"] >= 0.0

    def test_summary_text(self, results):
        text = results.summary()
        assert "campaign: 2 scenarios x 4 runs" in text
        assert "backend=vectorized-batch" in text
        assert "NMAC:" in text

    def test_json_roundtrip(self, results, tmp_path):
        path = results.to_json(tmp_path / "campaign.json")
        payload = json.loads(path.read_text())
        assert payload["backend"] == "vectorized-batch"
        assert len(payload["scenarios"]) == 2
        genome = payload["scenarios"][0]["genome"]
        decoded = EncounterParameters.from_array(np.array(genome))
        assert decoded == results[0].params

    def test_csv_export(self, results, tmp_path):
        path = results.to_csv(tmp_path / "campaign.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("index,name,num_runs,nmac_rate")
        assert len(lines) == 3


class TestEngineMinimumDuration:
    def _agent(self):
        from repro.avoidance import NoAvoidance
        from repro.util.rng import RngStream

        return UavAgent(
            name="own",
            state=AircraftState(
                position=np.zeros(3), velocity=np.array([10.0, 0.0, 0.0])
            ),
            avoidance=NoAvoidance(),
            disturbance=DisturbanceModel(
                vertical_rate_std=0.0, horizontal_accel_std=0.0
            ),
            rng=RngStream(0),
        )

    def test_short_duration_still_simulates(self):
        # duration < decision_dt/2 used to round to zero decision steps.
        engine = SimulationEngine([self._agent()], decision_dt=1.0)
        decisions = []
        end = engine.run(0.2, lambda t, agents: decisions.append(t))
        assert len(decisions) == 1
        assert end == pytest.approx(1.0)

    def test_long_duration_rounding_unchanged(self):
        engine = SimulationEngine([self._agent()], decision_dt=1.0)
        engine.run(10.4, lambda t, agents: None)
        assert engine.time == pytest.approx(10.0)

    def test_nonpositive_duration_still_rejected(self):
        engine = SimulationEngine([self._agent()], decision_dt=1.0)
        with pytest.raises(ValueError):
            engine.run(0.0, lambda t, agents: None)
