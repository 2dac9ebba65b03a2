"""High-level encounter runner: the entry point everything else uses.

Wires together the pieces of :mod:`repro.sim` for one two-UAV encounter:
decode the 9-parameter description into initial states, give each UAV
its avoidance algorithm (sharing a coordination channel when both run
the ACAS XU-like logic), step the engine with ADS-B sensing and
disturbance, and return the monitors' verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.acasx.controller import CoordinationChannel
from repro.acasx.logic_table import LogicTable
from repro.avoidance.acas import AcasXuAvoidance
from repro.avoidance.base import AvoidanceAlgorithm, NoAvoidance
from repro.encounters.encoding import EncounterParameters, decode_encounter
from repro.sim.agents import UavAgent
from repro.sim.disturbance import DisturbanceModel
from repro.sim.engine import SimulationEngine
from repro.sim.monitors import AccidentDetector, ProximityMeasurer
from repro.sim.sensors import AdsBSensor
from repro.sim.trace import TrajectoryTrace
from repro.util.rng import RngStream, SeedLike


@dataclass(frozen=True)
class EncounterSimConfig:
    """Simulation-level configuration (distinct from the MDP's).

    Attributes
    ----------
    decision_dt:
        Seconds between avoidance decisions (matches the logic table's
        step by convention).
    physics_substeps:
        Physics integrations per decision (finer proximity sampling).
    extra_duration:
        Seconds simulated beyond the nominal time to CPA.
    disturbance:
        Environment disturbance applied to both UAVs.
    sensor:
        ADS-B noise model applied to received states.
    """

    decision_dt: float = 1.0
    physics_substeps: int = 5
    extra_duration: float = 20.0
    disturbance: DisturbanceModel = field(default_factory=DisturbanceModel)
    sensor: AdsBSensor = field(default_factory=AdsBSensor)


#: Which aircraft carry the collision avoidance logic: both, the
#: own-ship only, or neither.  Shared by every backend and the CLI.
EQUIPAGES: Tuple[str, ...] = ("both", "own-only", "none")


def check_equipage(equipage: str, table: Optional[LogicTable]) -> None:
    """Raise ``ValueError`` unless *equipage* is known and has its table.

    Every equipage but ``"none"`` simulates the logic, so it needs one.
    """
    if equipage not in EQUIPAGES:
        raise ValueError(
            f"unknown equipage {equipage!r} (use one of {', '.join(EQUIPAGES)})"
        )
    if equipage != "none" and table is None:
        raise ValueError("equipped simulations need a logic table")


@dataclass
class EncounterResult:
    """Outcome of one simulated encounter."""

    nmac: bool
    min_separation: float
    min_horizontal: float
    min_vertical_at_min_horizontal: float
    time_of_accident: Optional[float]
    own_alerted: bool
    intruder_alerted: bool
    end_time: float
    trace: Optional[TrajectoryTrace] = None


def make_acas_pair(
    table: LogicTable, coordination: bool = True
) -> Tuple[AcasXuAvoidance, AcasXuAvoidance]:
    """Two ACAS XU-equipped endpoints, optionally coordinated.

    With *coordination* the pair shares a :class:`CoordinationChannel`,
    reproducing the paper's climb/descend pairing in Fig. 5.
    """
    channel = CoordinationChannel() if coordination else None
    own = AcasXuAvoidance(table, aircraft_id="ownship", channel=channel)
    intruder = AcasXuAvoidance(table, aircraft_id="intruder", channel=channel)
    return own, intruder


def _advisory_name(avoidance: AvoidanceAlgorithm) -> str:
    if isinstance(avoidance, AcasXuAvoidance):
        return avoidance.current_advisory_name
    return "ACTIVE" if getattr(avoidance, "current_maneuver", None) else ""


def run_encounter(
    params: EncounterParameters,
    own_avoidance: Optional[AvoidanceAlgorithm] = None,
    intruder_avoidance: Optional[AvoidanceAlgorithm] = None,
    config: EncounterSimConfig | None = None,
    seed: SeedLike = None,
    record_trace: bool = False,
) -> EncounterResult:
    """Simulate one encounter and report the monitors' verdict.

    Parameters
    ----------
    params:
        The 9-parameter encounter description.
    own_avoidance / intruder_avoidance:
        Avoidance algorithms (default: unequipped).  Pass the pair from
        :func:`make_acas_pair` for the coordinated two-ACAS setup.
    config:
        Simulation configuration.
    seed:
        Seed / RNG for all stochastic elements of this run.
    record_trace:
        Also return a full :class:`TrajectoryTrace`.
    """
    config = config or EncounterSimConfig()
    own_avoidance = own_avoidance or NoAvoidance()
    intruder_avoidance = intruder_avoidance or NoAvoidance()
    own_avoidance.reset()
    intruder_avoidance.reset()

    root = RngStream(seed, name="encounter")
    own_state, intruder_state = decode_encounter(params)
    own_agent = UavAgent(
        name="ownship",
        state=own_state,
        avoidance=own_avoidance,
        disturbance=config.disturbance,
        rng=root.spawn("own"),
    )
    intruder_agent = UavAgent(
        name="intruder",
        state=intruder_state,
        avoidance=intruder_avoidance,
        disturbance=config.disturbance,
        rng=root.spawn("intruder"),
    )
    sensor_rng = root.spawn("sensor")

    proximity = ProximityMeasurer()
    accident = AccidentDetector()
    trace = TrajectoryTrace() if record_trace else None

    def decide(time: float, agents: Sequence[UavAgent]) -> None:
        own, intruder = agents
        # Each UAV receives the other's broadcast with independent
        # noise; with a nonzero dropout rate a report may be lost.
        sensed_intruder = config.sensor.receive(
            intruder.state, sensor_rng.generator
        )
        sensed_own = config.sensor.receive(own.state, sensor_rng.generator)
        for agent, report in ((own, sensed_intruder), (intruder, sensed_own)):
            if report is not None or agent.avoidance.handles_dropout:
                agent.decide(report)
            # else: hold the previous maneuver through the gap.
        if trace is not None:
            trace.record(
                time,
                own.state,
                intruder.state,
                own_advisory=_advisory_name(own.avoidance),
                intruder_advisory=_advisory_name(intruder.avoidance),
            )

    def observe(time: float, agents: Sequence[UavAgent]) -> None:
        own, intruder = agents
        proximity.observe(time, own.state, intruder.state)
        accident.observe(time, own.state, intruder.state)

    engine = SimulationEngine(
        [own_agent, intruder_agent],
        decision_dt=config.decision_dt,
        physics_substeps=config.physics_substeps,
    )
    # Record initial separation before any motion.
    proximity.observe(0.0, own_agent.state, intruder_agent.state)
    accident.observe(0.0, own_agent.state, intruder_agent.state)
    duration = params.time_to_cpa + config.extra_duration
    end_time = engine.run(duration, decide, observers=[observe])

    return EncounterResult(
        nmac=accident.accident,
        min_separation=proximity.min_distance_3d,
        min_horizontal=proximity.min_horizontal,
        min_vertical_at_min_horizontal=proximity.min_vertical_at_min_horizontal,
        time_of_accident=accident.time_of_accident,
        own_alerted=own_avoidance.ever_alerted,
        intruder_alerted=intruder_avoidance.ever_alerted,
        end_time=end_time,
        trace=trace,
    )
