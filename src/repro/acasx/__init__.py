"""An ACAS XU-like collision avoidance system built by model-based optimization.

This subpackage is the paper's "primary system under test": a vertical
collision avoidance logic generated automatically from an MDP encounter
model, following the structure of the MIT/LL reports (ATC-360/371) the
paper re-implemented:

1. :mod:`repro.acasx.advisories` — the resolution advisory vocabulary
   (clear-of-conflict, climb/descend, strengthened climb/descend);
2. :mod:`repro.acasx.config` — model parameters with ``test`` and
   ``paper`` resolution presets;
3. :mod:`repro.acasx.dynamics` — discretized vertical-response dynamics
   with white-noise disturbance samples;
4. :mod:`repro.acasx.solver` — offline backward-induction value
   iteration over the (h, ḣ₀, ḣ₁, advisory) grid, producing a
   :class:`~repro.acasx.logic_table.LogicTable`;
5. :mod:`repro.acasx.controller` — the online logic: τ estimation from
   encounter geometry, interpolated table lookup, hysteresis through
   the advisory state, and pairwise maneuver coordination.
"""

from repro.acasx.advisories import (
    ADVISORIES,
    Advisory,
    AdvisorySense,
    COC,
    CLIMB,
    DESCEND,
    STRONG_CLIMB,
    STRONG_DESCEND,
)
from repro.acasx.config import (
    AcasConfig,
    paper_config,
    preset_config,
    test_config,
)
from repro.acasx.controller import AcasXuController, CoordinationChannel
from repro.acasx.logic_table import LogicTable
from repro.acasx.solver import build_logic_table

__all__ = [
    "ADVISORIES",
    "AcasConfig",
    "AcasXuController",
    "Advisory",
    "AdvisorySense",
    "COC",
    "CLIMB",
    "CoordinationChannel",
    "DESCEND",
    "LogicTable",
    "STRONG_CLIMB",
    "STRONG_DESCEND",
    "build_logic_table",
    "paper_config",
    "preset_config",
    "test_config",
]
