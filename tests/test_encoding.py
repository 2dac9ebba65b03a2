"""Tests for the 9-parameter encounter encoding (Eqs. (2)–(3)).

The central property: decoding an encounter and flying both aircraft
straight for ``time_to_cpa`` seconds must land the intruder exactly at
the configured CPA offset (R, θ, Y) relative to the own-ship.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamics.aircraft import time_to_cpa
from repro.encounters.encoding import (
    DEFAULT_OWN_POSITION,
    PARAMETER_NAMES,
    EncounterParameters,
    cpa_states,
    decode_encounter,
    head_on_encounter,
    tail_approach_encounter,
)


def make_params(**overrides):
    defaults = dict(
        own_ground_speed=30.0,
        own_vertical_speed=0.0,
        time_to_cpa=30.0,
        cpa_horizontal_distance=50.0,
        cpa_angle=1.0,
        cpa_vertical_distance=-10.0,
        intruder_ground_speed=25.0,
        intruder_bearing=2.5,
        intruder_vertical_speed=1.5,
    )
    defaults.update(overrides)
    return EncounterParameters(**defaults)


class TestParameters:
    def test_nine_parameters(self):
        assert len(PARAMETER_NAMES) == 9

    def test_array_round_trip(self):
        params = make_params()
        recovered = EncounterParameters.from_array(params.as_array())
        assert recovered == params

    def test_from_array_validates_length(self):
        with pytest.raises(ValueError):
            EncounterParameters.from_array(np.zeros(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(own_ground_speed=-1.0)
        with pytest.raises(ValueError):
            make_params(time_to_cpa=0.0)
        with pytest.raises(ValueError):
            make_params(cpa_horizontal_distance=-5.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", PARAMETER_NAMES)
    def test_non_finite_field_rejected(self, field, value):
        # NaN passes every sign check (nan < 0 is False) and would
        # simulate into NaN separations with nmac=False: a silent
        # "safe" verdict.  The error names the offending field.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_params(**{field: value})

    def test_non_finite_genome_rejected(self):
        genome = make_params().as_array()
        genome[PARAMETER_NAMES.index("time_to_cpa")] = math.inf
        with pytest.raises(ValueError, match="time_to_cpa"):
            EncounterParameters.from_array(genome)


class TestDecode:
    def test_own_state_fixed(self):
        own, __ = decode_encounter(make_params())
        np.testing.assert_allclose(own.position, DEFAULT_OWN_POSITION)
        assert own.velocity[0] == pytest.approx(30.0)  # bearing 0
        assert own.velocity[1] == pytest.approx(0.0)

    def test_intruder_velocity_from_polar(self):
        params = make_params(
            intruder_ground_speed=10.0, intruder_bearing=math.pi / 2,
            intruder_vertical_speed=-2.0,
        )
        __, intruder = decode_encounter(params)
        np.testing.assert_allclose(
            intruder.velocity, [0.0, 10.0, -2.0], atol=1e-12
        )

    def test_cpa_offset_achieved(self):
        params = make_params()
        own_cpa, intruder_cpa = cpa_states(params)
        delta = intruder_cpa.position - own_cpa.position
        horizontal = math.hypot(delta[0], delta[1])
        assert horizontal == pytest.approx(params.cpa_horizontal_distance)
        assert delta[2] == pytest.approx(params.cpa_vertical_distance)
        angle = math.atan2(delta[1], delta[0])
        assert angle == pytest.approx(params.cpa_angle)

    @settings(max_examples=40)
    @given(
        st.floats(5.0, 50.0),
        st.floats(-5.0, 5.0),
        st.floats(5.0, 60.0),
        st.floats(0.1, 400.0),
        st.floats(-math.pi, math.pi),
        st.floats(-100.0, 100.0),
        st.floats(5.0, 50.0),
        st.floats(-math.pi, math.pi),
        st.floats(-5.0, 5.0),
    )
    def test_cpa_property_holds_generally(
        self, gso, vso, t, r, theta, y, gsi, psi, vsi
    ):
        params = EncounterParameters(gso, vso, t, r, theta, y, gsi, psi, vsi)
        own_cpa, intruder_cpa = cpa_states(params)
        delta = intruder_cpa.position - own_cpa.position
        assert math.hypot(delta[0], delta[1]) == pytest.approx(r, abs=1e-6)
        assert delta[2] == pytest.approx(y, abs=1e-6)

    def test_zero_miss_encounter_actually_meets(self):
        params = make_params(cpa_horizontal_distance=0.0,
                             cpa_vertical_distance=0.0)
        own, intruder = decode_encounter(params)
        t = params.time_to_cpa
        own_then = own.position + own.velocity * t
        intruder_then = intruder.position + intruder.velocity * t
        np.testing.assert_allclose(own_then, intruder_then, atol=1e-9)


class TestCanonicalEncounters:
    def test_head_on_geometry(self):
        params = head_on_encounter(ground_speed=20.0, time_to_cpa=25.0)
        own, intruder = decode_encounter(params)
        # Opposing tracks.
        assert intruder.velocity[0] == pytest.approx(-own.velocity[0])
        # The kinematic CPA time matches the encoding.
        assert time_to_cpa(own, intruder) == pytest.approx(25.0, abs=1e-6)

    def test_head_on_with_miss_distance(self):
        params = head_on_encounter(miss_distance=100.0)
        own_cpa, intruder_cpa = cpa_states(params)
        assert own_cpa.horizontal_distance_to(intruder_cpa) == pytest.approx(
            100.0
        )

    def test_tail_approach_has_small_relative_speed(self):
        params = tail_approach_encounter(overtake_speed=1.5)
        own, intruder = decode_encounter(params)
        rel = intruder.velocity[:2] - own.velocity[:2]
        assert math.hypot(rel[0], rel[1]) == pytest.approx(1.5)

    def test_tail_approach_vertical_crossing(self):
        params = tail_approach_encounter()
        assert params.own_vertical_speed < 0 < params.intruder_vertical_speed

    def test_tail_approach_starts_behind(self):
        params = tail_approach_encounter(overtake_speed=2.0, time_to_cpa=30.0)
        own, intruder = decode_encounter(params)
        assert intruder.position[0] < own.position[0]
