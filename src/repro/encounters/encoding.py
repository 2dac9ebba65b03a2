"""The 9-parameter encounter encoding (paper Section VI.A, Eqs. 1–3).

An encounter is described by the closest point of approach (CPA) it
*would* reach if neither aircraft maneuvered:

- ``own_ground_speed`` (Gs_o) and ``own_vertical_speed`` (Vs_o) — the
  own-ship's initial velocity (its position and bearing are fixed at
  convenient values, which the paper justifies by the logic only using
  relative state);
- ``time_to_cpa`` (T) — seconds until both aircraft reach the CPA;
- ``cpa_horizontal_distance`` (R), ``cpa_angle`` (θ) and
  ``cpa_vertical_distance`` (Y) — the intruder's position relative to
  the own-ship at the CPA;
- ``intruder_ground_speed`` (Gs_i), ``intruder_bearing`` (ψ_i) and
  ``intruder_vertical_speed`` (Vs_i) — the intruder's velocity.

Equation (2) converts the intruder's polar velocity to Cartesian;
Eq. (3) walks both aircraft back from the CPA to their initial
positions::

    p_i(0) = p_o(0) + v_o · T + [R cosθ, R sinθ, Y] − v_i · T
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.dynamics.aircraft import AircraftState
from repro.dynamics.vectors import polar_to_cartesian

#: Field order of the genome vector (fixed — the GA relies on it).
PARAMETER_NAMES: Tuple[str, ...] = (
    "own_ground_speed",
    "own_vertical_speed",
    "time_to_cpa",
    "cpa_horizontal_distance",
    "cpa_angle",
    "cpa_vertical_distance",
    "intruder_ground_speed",
    "intruder_bearing",
    "intruder_vertical_speed",
)

#: Fixed own-ship initial position (x, y, altitude) in metres.
DEFAULT_OWN_POSITION = (0.0, 0.0, 1000.0)

#: Fixed own-ship initial bearing, radians (+x axis).
DEFAULT_OWN_BEARING = 0.0

#: Physical envelopes of an encounter (SI units), far looser than the
#: search box of ``ParameterRanges`` (15–50 m/s, ±5 m/s, CPA offsets
#: inside the NMAC cylinder).  A finite but absurd value (a ground
#: speed of 1e200 m/s) would otherwise simulate into an astronomically
#: large miss distance: a "no NMAC" verdict about no physical
#: encounter.  ``time_to_cpa`` is bounded by the most noise one kernel
#: call may draw (``repro.sim.batch.MAX_TAPE_BYTES``) and the angles
#: are periodic.
MAX_GROUND_SPEED = 400.0  # above the speed of sound at sea level
MAX_VERTICAL_SPEED = 100.0  # about 20,000 ft/min
MAX_CPA_HORIZONTAL_DISTANCE = 50_000.0
MAX_CPA_VERTICAL_DISTANCE = 10_000.0

#: ``(low, high)`` envelope per bounded field, checked at construction.
ENVELOPES: Dict[str, Tuple[float, float]] = {
    "own_ground_speed": (0.0, MAX_GROUND_SPEED),
    "own_vertical_speed": (-MAX_VERTICAL_SPEED, MAX_VERTICAL_SPEED),
    "cpa_horizontal_distance": (0.0, MAX_CPA_HORIZONTAL_DISTANCE),
    "cpa_vertical_distance": (
        -MAX_CPA_VERTICAL_DISTANCE, MAX_CPA_VERTICAL_DISTANCE,
    ),
    "intruder_ground_speed": (0.0, MAX_GROUND_SPEED),
    "intruder_vertical_speed": (-MAX_VERTICAL_SPEED, MAX_VERTICAL_SPEED),
}


@dataclass(frozen=True)
class EncounterParameters:
    """The paper's 9-parameter encounter description (SI units)."""

    own_ground_speed: float
    own_vertical_speed: float
    time_to_cpa: float
    cpa_horizontal_distance: float
    cpa_angle: float
    cpa_vertical_distance: float
    intruder_ground_speed: float
    intruder_bearing: float
    intruder_vertical_speed: float

    def __post_init__(self) -> None:
        # NaN fails no sign check below (nan < 0 is False), and a NaN
        # encounter simulates into NaN separations with nmac=False: a
        # silent "safe" verdict.  Non-finite geometry is rejected here.
        for name in PARAMETER_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, (low, high) in ENVELOPES.items():
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(
                    f"{name} must lie in its physical envelope "
                    f"[{low:g}, {high:g}], got {value!r}"
                )
        if self.time_to_cpa <= 0:
            raise ValueError("time_to_cpa must be positive")

    def as_array(self) -> np.ndarray:
        """The parameters as a genome vector (order: PARAMETER_NAMES)."""
        return np.array([getattr(self, name) for name in PARAMETER_NAMES])

    @classmethod
    def from_array(cls, values: np.ndarray) -> "EncounterParameters":
        """Inverse of :meth:`as_array`."""
        values = np.asarray(values, dtype=float)
        if values.shape != (len(PARAMETER_NAMES),):
            raise ValueError(
                f"expected {len(PARAMETER_NAMES)} parameters, got {values.shape}"
            )
        return cls(**dict(zip(PARAMETER_NAMES, values.tolist())))

    @property
    def names(self) -> Tuple[str, ...]:
        """The genome field order."""
        return PARAMETER_NAMES


def decode_encounter(
    params: EncounterParameters,
    own_position: Tuple[float, float, float] = DEFAULT_OWN_POSITION,
    own_bearing: float = DEFAULT_OWN_BEARING,
) -> Tuple[AircraftState, AircraftState]:
    """Build initial aircraft states from *params* (Eqs. (2)–(3)).

    Returns ``(own, intruder)`` states such that, absent maneuvers and
    disturbance, the aircraft reach the configured CPA geometry after
    ``time_to_cpa`` seconds.
    """
    own_velocity = polar_to_cartesian(
        params.own_ground_speed, own_bearing, params.own_vertical_speed
    )
    own_pos = np.asarray(own_position, dtype=float)

    intruder_velocity = polar_to_cartesian(
        params.intruder_ground_speed,
        params.intruder_bearing,
        params.intruder_vertical_speed,
    )
    cpa_offset = np.array(
        [
            params.cpa_horizontal_distance * math.cos(params.cpa_angle),
            params.cpa_horizontal_distance * math.sin(params.cpa_angle),
            params.cpa_vertical_distance,
        ]
    )
    t = params.time_to_cpa
    intruder_pos = own_pos + own_velocity * t + cpa_offset - intruder_velocity * t
    return (
        AircraftState(position=own_pos, velocity=own_velocity),
        AircraftState(position=intruder_pos, velocity=intruder_velocity),
    )


def cpa_states(
    params: EncounterParameters,
    own_position: Tuple[float, float, float] = DEFAULT_OWN_POSITION,
    own_bearing: float = DEFAULT_OWN_BEARING,
) -> Tuple[AircraftState, AircraftState]:
    """The unmaneuvered states at the CPA itself (for verification)."""
    own, intruder = decode_encounter(params, own_position, own_bearing)
    t = params.time_to_cpa
    return (
        AircraftState(own.position + own.velocity * t, own.velocity),
        AircraftState(intruder.position + intruder.velocity * t, intruder.velocity),
    )


def head_on_encounter(
    ground_speed: float = 30.0,
    time_to_cpa: float = 30.0,
    miss_distance: float = 0.0,
    vertical_offset: float = 0.0,
) -> EncounterParameters:
    """A canonical head-on geometry (the paper's Fig. 5 demonstration).

    The intruder flies the reciprocal bearing at the same speed, meeting
    the own-ship after *time_to_cpa* seconds with the given horizontal
    miss distance and vertical offset at the CPA.
    """
    return EncounterParameters(
        own_ground_speed=ground_speed,
        own_vertical_speed=0.0,
        time_to_cpa=time_to_cpa,
        cpa_horizontal_distance=miss_distance,
        cpa_angle=math.pi / 2.0,
        cpa_vertical_distance=vertical_offset,
        intruder_ground_speed=ground_speed,
        intruder_bearing=math.pi,
        intruder_vertical_speed=0.0,
    )


def tail_approach_encounter(
    ground_speed: float = 30.0,
    overtake_speed: float = 3.0,
    time_to_cpa: float = 30.0,
    own_vertical_speed: float = -2.0,
    intruder_vertical_speed: float = 2.0,
    miss_distance: float = 0.0,
) -> EncounterParameters:
    """The paper's challenging geometry (Figs. 7–8): a slow tail chase.

    One UAV descends while the other climbs into it from astern with a
    small overtake speed, so the horizontal relative velocity — and with
    it the logic's τ estimate — is small and noisy.  The vertical offset
    at the (unmaneuvered) CPA is chosen so the climbing intruder crosses
    the descender's altitude right at the CPA.
    """
    return EncounterParameters(
        own_ground_speed=ground_speed,
        own_vertical_speed=own_vertical_speed,
        time_to_cpa=time_to_cpa,
        cpa_horizontal_distance=miss_distance,
        cpa_angle=math.pi / 2.0,
        cpa_vertical_distance=0.0,
        intruder_ground_speed=ground_speed + overtake_speed,
        intruder_bearing=0.0,
        intruder_vertical_speed=intruder_vertical_speed,
    )
