"""Agent-based 3-D encounter simulation (the paper's MASON substitute).

The paper simulates encounters with MASON, an agent-based framework:
UAV agents fly their initial velocities, are disturbed by environment
noise, broadcast state over ADS-B (with explicit sensor noise), run
their avoidance logic, and coordinate maneuvers; a "Proximity Measurer"
records the minimum separation and an "Accident Detector" flags mid-air
collisions (Section VI.C).  This package reproduces each of those
pieces:

- :mod:`repro.sim.engine` — the step scheduler;
- :mod:`repro.sim.agents` — the UAV agent;
- :mod:`repro.sim.sensors` — ADS-B broadcast with white noise;
- :mod:`repro.sim.disturbance` — environment disturbance models;
- :mod:`repro.sim.monitors` — Proximity Measurer and Accident Detector;
- :mod:`repro.sim.trace` — trajectory recording and ASCII rendering;
- :mod:`repro.sim.encounter` — the high-level ``run_encounter`` entry
  point used by everything else (GA fitness, Monte-Carlo, examples);
- :mod:`repro.sim.batch` — the megabatch kernel, a vectorized fast
  path that simulates the noisy runs of many encounters as one lane
  array (with pre-drawn noise tapes and per-phase
  :class:`~repro.sim.batch.KernelProfile` timers);
- :mod:`repro.sim.batch_reference` — a frozen copy of the kernel's
  pre-refactor numerics, the oracle its bitwise tests compare against.
"""

from repro.sim.agents import UavAgent
from repro.sim.batch import BatchEncounterSimulator, BatchResult, KernelProfile
from repro.sim.disturbance import DisturbanceModel
from repro.sim.encounter import (
    EncounterResult,
    EncounterSimConfig,
    run_encounter,
)
from repro.sim.engine import SimulationEngine
from repro.sim.monitors import AccidentDetector, ProximityMeasurer
from repro.sim.sensors import AdsBSensor
from repro.sim.trace import TrajectoryTrace, render_vertical_profile

__all__ = [
    "AccidentDetector",
    "AdsBSensor",
    "BatchEncounterSimulator",
    "BatchResult",
    "DisturbanceModel",
    "EncounterResult",
    "EncounterSimConfig",
    "KernelProfile",
    "ProximityMeasurer",
    "SimulationEngine",
    "TrajectoryTrace",
    "UavAgent",
    "render_vertical_profile",
    "run_encounter",
]
