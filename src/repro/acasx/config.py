"""Configuration of the ACAS XU-like MDP model.

All quantities are SI.  Two presets are provided:

- :func:`test_config` — a coarse grid that solves in well under a
  second, used throughout the test suite;
- :func:`paper_config` — a finer grid comparable (in spirit) to the
  resolution the paper's Java implementation uses; the benchmark
  harness uses this one.  Footnote 2 of the paper reports that value
  iteration on the real model takes a few minutes on a laptop — the
  corresponding measurement here is ``benchmarks/bench_value_iteration.py``.

The cost structure mirrors the paper's Section III example scaled to a
40-step horizon: a mid-air-collision (NMAC) state costs 10000 (the value
the paper reuses in its fitness function), maneuvering carries a
per-step cost, level flight a small per-step reward, and sense reversals
and strengthenings carry one-off penalties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.util.units import NMAC_VERTICAL_M

#: Discrete disturbance samples: (vertical-rate change per step m/s, probability).
NoiseSamples = Tuple[Tuple[float, float], ...]

#: Five-point white noise mirroring the shape of the paper's toy intruder
#: distribution {0: 0.5, ±δ: 0.15, ±2δ: 0.1}, with δ = 0.5 m/s of
#: vertical-rate change per second — light-turbulence scale.
FIVE_POINT_NOISE: NoiseSamples = (
    (0.0, 0.5),
    (-0.5, 0.15),
    (0.5, 0.15),
    (-1.0, 0.1),
    (1.0, 0.1),
)

#: Three-point own-ship noise (the avoidance loop partially rejects
#: disturbance, so the own-ship sees less rate noise than the intruder).
THREE_POINT_NOISE: NoiseSamples = (
    (0.0, 0.6),
    (-0.5, 0.2),
    (0.5, 0.2),
)


def _validate_noise(noise: NoiseSamples, label: str) -> None:
    total = sum(p for _, p in noise)
    if not np.isclose(total, 1.0):
        raise ValueError(f"{label} noise probabilities sum to {total}, not 1")
    if any(p < 0 for _, p in noise):
        raise ValueError(f"{label} noise has a negative probability")


@dataclass(frozen=True)
class AcasConfig:
    """Parameters of the offline MDP and the online controller.

    Attributes
    ----------
    h_max:
        Relative-altitude grid spans ``[-h_max, h_max]`` metres.
    num_h:
        Number of relative-altitude grid points.
    rate_max:
        Vertical-rate grids span ``[-rate_max, rate_max]`` m/s (must
        cover the strongest advisory target, 2500 ft/min ≈ 12.7 m/s).
    num_rate:
        Number of vertical-rate grid points (per aircraft).
    horizon:
        Decision stages — seconds of time-to-CPA the logic looks ahead
        (the paper: ACAS XU addresses 20–40 s short-term risk).
    dt:
        Decision/integration step, seconds.
    own_noise / intruder_noise:
        Discrete vertical-rate disturbance distributions used when
        building the model.
    nmac_cost:
        Cost of ending the encounter inside the NMAC band (10000, the
        value the paper reuses in its GA fitness).
    nmac_vertical:
        Half-height of the NMAC band, metres.
    alert_cost:
        Per-step cost of an active advisory.
    strong_alert_extra:
        Additional per-step cost of a strengthened advisory.
    coc_reward:
        Per-step reward for staying clear-of-conflict (the paper's toy
        model rewards level-off by +50; scaled down for the 40-step
        horizon).
    reversal_cost:
        One-off cost of reversing advisory sense.
    strengthen_cost:
        One-off cost of strengthening an advisory.
    new_alert_cost:
        One-off cost of starting an alert (discourages alert chatter —
        the "false alarm" concern in the paper's preferences).
    conflict_horizontal_radius:
        Online: the projected horizontal miss distance below which the
        encounter counts as a conflict worth consulting the table for.
    """

    h_max: float = 300.0
    num_h: int = 31
    rate_max: float = 13.0
    num_rate: int = 9
    horizon: int = 40
    dt: float = 1.0
    own_noise: NoiseSamples = THREE_POINT_NOISE
    intruder_noise: NoiseSamples = FIVE_POINT_NOISE
    nmac_cost: float = 10_000.0
    nmac_vertical: float = NMAC_VERTICAL_M
    alert_cost: float = 10.0
    strong_alert_extra: float = 40.0
    coc_reward: float = 1.0
    reversal_cost: float = 300.0
    strengthen_cost: float = 50.0
    new_alert_cost: float = 50.0
    conflict_horizontal_radius: float = 500.0

    def __post_init__(self) -> None:
        if self.num_h < 3 or self.num_rate < 3:
            raise ValueError("grids need at least 3 points per axis")
        if self.h_max <= 0 or self.rate_max <= 0:
            raise ValueError("grid extents must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.rate_max < 12.7:
            raise ValueError(
                "rate grid must cover the strongest advisory (±12.7 m/s)"
            )
        _validate_noise(self.own_noise, "own")
        _validate_noise(self.intruder_noise, "intruder")

    @property
    def h_points(self) -> np.ndarray:
        """Relative-altitude grid points."""
        return np.linspace(-self.h_max, self.h_max, self.num_h)

    @property
    def rate_points(self) -> np.ndarray:
        """Vertical-rate grid points."""
        return np.linspace(-self.rate_max, self.rate_max, self.num_rate)

    @property
    def cube_size(self) -> int:
        """Grid points in one (h, ḣ₀, ḣ₁) cube."""
        return self.num_h * self.num_rate * self.num_rate


def test_config(**overrides) -> AcasConfig:
    """Coarse preset for fast tests (solves in < 1 s)."""
    defaults = dict(
        h_max=300.0,
        num_h=21,
        rate_max=13.0,
        num_rate=7,
        horizon=25,
    )
    defaults.update(overrides)
    return AcasConfig(**defaults)


def paper_config(**overrides) -> AcasConfig:
    """Fine preset used by the benchmark harness."""
    defaults = dict(
        h_max=300.0,
        num_h=41,
        rate_max=13.0,
        num_rate=13,
        horizon=40,
    )
    defaults.update(overrides)
    return AcasConfig(**defaults)


def preset_config(preset: str) -> AcasConfig:
    """The :class:`AcasConfig` of a table preset, ``"test"`` or ``"paper"``.

    Raises ``ValueError`` for any other name.
    """
    if preset == "test":
        return test_config()
    if preset == "paper":
        return paper_config()
    raise ValueError(
        f"unknown table preset {preset!r} (use 'test' or 'paper')"
    )
