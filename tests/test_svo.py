"""Tests for the Selective Velocity Obstacle baseline."""

import math

import numpy as np
import pytest

from repro.avoidance.base import NoAvoidance
from repro.avoidance.svo import SelectiveVelocityObstacle, _wrap_angle
from repro.dynamics.aircraft import AircraftState
from repro.encounters import head_on_encounter
from repro.experiments import Campaign, make_backend
from repro.experiments.backends import BackendSpec, SvoAgentBackend
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner
from repro.sim.encounter import EncounterSimConfig
from repro.store import ResultStore, results_digest


def state(x=0.0, y=0.0, z=1000.0, vx=0.0, vy=0.0, vz=0.0):
    return AircraftState(np.array([x, y, z]), np.array([vx, vy, vz]))


class TestWrapAngle:
    def test_wraps_into_pi(self):
        # ±π are the same heading; floating point may yield either sign.
        assert abs(_wrap_angle(3 * math.pi)) == pytest.approx(math.pi)
        assert abs(_wrap_angle(-3 * math.pi)) == pytest.approx(math.pi)
        assert _wrap_angle(0.3) == pytest.approx(0.3)
        assert _wrap_angle(2 * math.pi + 0.5) == pytest.approx(0.5)


class TestConflictDetection:
    def test_head_on_is_conflict(self):
        svo = SelectiveVelocityObstacle(protected_radius=100.0)
        rel_pos = np.array([1000.0, 0.0])
        rel_vel = np.array([20.0, 0.0])  # own moving toward intruder
        assert svo._in_conflict(rel_pos, rel_vel)

    def test_diverging_is_not_conflict(self):
        svo = SelectiveVelocityObstacle(protected_radius=100.0)
        assert not svo._in_conflict(
            np.array([1000.0, 0.0]), np.array([-20.0, 0.0])
        )

    def test_passing_wide_is_not_conflict(self):
        svo = SelectiveVelocityObstacle(protected_radius=50.0)
        # Relative velocity pointing well off the intruder bearing.
        assert not svo._in_conflict(
            np.array([1000.0, 0.0]), np.array([10.0, 15.0])
        )

    def test_inside_protected_zone_is_conflict(self):
        svo = SelectiveVelocityObstacle(protected_radius=100.0)
        assert svo._in_conflict(np.array([50.0, 0.0]), np.array([0.1, 0.0]))

    def test_beyond_lookahead_ignored(self):
        svo = SelectiveVelocityObstacle(protected_radius=50.0, lookahead=10.0)
        # 1000 m away closing at 1 m/s: 950 s out.
        assert not svo._in_conflict(
            np.array([1000.0, 0.0]), np.array([1.0, 0.0])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectiveVelocityObstacle(protected_radius=0.0)


class TestDecide:
    def test_no_conflict_no_maneuver(self):
        svo = SelectiveVelocityObstacle()
        maneuver = svo.decide(state(vx=20.0), state(x=-2000.0, vx=20.0))
        assert not maneuver.is_active
        assert not svo.ever_alerted

    def test_head_on_commands_turn(self):
        svo = SelectiveVelocityObstacle()
        maneuver = svo.decide(state(vx=20.0), state(x=2000.0, vx=-20.0))
        assert maneuver.heading is not None
        assert svo.ever_alerted

    def test_prefers_right_turn(self):
        # Symmetric head-on: the selective rule resolves to the right
        # (negative heading offset from a +x track).
        svo = SelectiveVelocityObstacle()
        maneuver = svo.decide(state(vx=20.0), state(x=2000.0, vx=-20.0))
        assert _wrap_angle(maneuver.heading.target_heading) < 0.0

    def test_commanded_heading_clears_cone(self):
        svo = SelectiveVelocityObstacle()
        own = state(vx=20.0)
        intruder = state(x=2000.0, vx=-20.0)
        maneuver = svo.decide(own, intruder)
        heading = maneuver.heading.target_heading
        new_vel = 20.0 * np.array([math.cos(heading), math.sin(heading)])
        rel_vel = new_vel - intruder.velocity[:2]
        rel_pos = intruder.position[:2] - own.position[:2]
        assert not svo._in_conflict(rel_pos, rel_vel)

    def test_hovering_ownship_cannot_steer(self):
        svo = SelectiveVelocityObstacle()
        maneuver = svo.decide(state(), state(x=500.0, vx=-20.0))
        assert maneuver.heading is None

    def test_reset_clears_alert_flag(self):
        svo = SelectiveVelocityObstacle()
        svo.decide(state(vx=20.0), state(x=2000.0, vx=-20.0))
        svo.reset()
        assert not svo.ever_alerted

    def test_name(self):
        assert SelectiveVelocityObstacle().name == "SVO"
        assert NoAvoidance().name == "NoAvoidance"


class TestSvoBackend:
    """``"agent-svo"``: the agent engine flying SVO, a registry key like
    any other (campaigns, search, store, fleet spec)."""

    def test_equipage_places_svo(self):
        pairs = {
            equipage: make_backend("agent-svo", equipage=equipage)._make_pair()
            for equipage in ("both", "own-only", "none")
        }
        assert all(
            isinstance(a, SelectiveVelocityObstacle) for a in pairs["both"]
        )
        own, intruder = pairs["own-only"]
        assert isinstance(own, SelectiveVelocityObstacle) and intruder is None
        assert pairs["none"] == (None, None)

    def test_campaign_id_differs_from_the_agent_twin(self):
        # Unequipped, the two keys simulate the same thing bit for bit,
        # yet the key enters the id, so the campaigns never collide.
        def stored(backend, equipage):
            with ResultStore(":memory:") as store:
                results = Campaign(
                    ["head_on"], backend=backend, equipage=equipage,
                    runs_per_scenario=2,
                ).run(seed=0, store=store)
                (info,) = store.campaigns()
            return results, info

        agent, agent_info = stored("agent", "none")
        svo_none, none_info = stored("agent-svo", "none")
        _, both_info = stored("agent-svo", "both")
        assert results_digest(svo_none) == results_digest(agent)
        ids = {agent_info.campaign_id, none_info.campaign_id,
               both_info.campaign_id}
        assert len(ids) == 3
        assert (none_info.backend, both_info.backend) == ("agent-svo",) * 2

    def test_spec_round_trip(self):
        backend = make_backend(
            "agent-svo", equipage="own-only", coordination=False,
            config=EncounterSimConfig(physics_substeps=2),
        )
        spec = BackendSpec.capture(backend)
        assert (spec.backend, spec.table_digest) == ("agent-svo", None)
        rebuilt = spec.build()
        assert type(rebuilt) is SvoAgentBackend
        assert BackendSpec.capture(rebuilt) == spec
        (a,), (b,) = (
            sim.run_many([head_on_encounter()], 2, [4])
            for sim in (backend, rebuilt)
        )
        assert a.min_separation.tobytes() == b.min_separation.tobytes()
        assert a.own_alerted.tobytes() == b.own_alerted.tobytes()

    def test_search_stores_each_generation(self):
        rng = np.random.default_rng(3)
        with ResultStore(":memory:") as store:
            outcome = SearchRunner(
                EncounterFitness(
                    backend="agent-svo", num_runs=2, seed=rng, store=store
                ),
                ga_config=GAConfig(population_size=4, generations=2),
            ).run(seed=rng, top_k=2)
            campaigns = store.campaigns()
        assert len(outcome.top_encounters) == 2
        assert len(campaigns) == 2  # one campaign per generation
        for info in campaigns:
            assert (info.backend, info.equipage) == ("agent-svo", "both")
            assert info.num_scenarios == 4 and info.complete
