"""Monte-Carlo estimation of collision avoidance performance.

Draws encounters from a generative model (the synthetic
:class:`~repro.encounters.statistical.StatisticalEncounterModel`, or
any object with a compatible ``sample``), runs two paired
:class:`~repro.experiments.Campaign`\\ s — equipped and unequipped —
over the same encounters, and reports:

- the *equipped* and *unequipped* NMAC rates (with Wilson CIs);
- the *risk ratio* between them;
- the *alert rate* and the *false-alarm rate* (alerts in encounters
  whose unmitigated counterfactual was safe);
- *induced* NMACs: encounters safe without the system but not with it
  — the pathology validation most wants to rule out.

The campaigns inherit the experiment API's properties: the simulation
backend is registry-selected (``"vectorized-batch"`` default — the
megabatch path that flattens whole chunks of encounters into one lane
array per arm — ``"agent"`` for the faithful engine) and ``workers>1``
fans both arms' encounters out across one process pool without
changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Protocol

import numpy as np

if TYPE_CHECKING:
    from repro.store import ResultStore

from repro.acasx.logic_table import LogicTable
from repro.analysis.metrics import (
    RateEstimate,
    false_alarm_rate,
    risk_ratio,
    wilson_interval,
)
from repro.encounters.encoding import EncounterParameters
from repro.experiments.campaign import Campaign, ResultSet, WorkerPool
from repro.sim.encounter import EncounterSimConfig
from repro.util.rng import SeedLike, as_generator


class EncounterSource(Protocol):
    """Anything that can sample encounters (the statistical model)."""

    def sample(
        self, count: int, seed: SeedLike = None
    ) -> List[EncounterParameters]:
        """Draw *count* encounters."""
        ...


@dataclass
class MonteCarloReport:
    """Aggregate results of a Monte-Carlo validation campaign."""

    encounters: int
    runs_per_encounter: int
    equipped_nmac: RateEstimate
    unequipped_nmac: RateEstimate
    risk_ratio: float
    alert_rate: float
    false_alarm_rate: float
    induced_nmac_rate: float
    #: The underlying per-arm campaign results (per-scenario records,
    #: wall time, export) — ``None`` only on reports built by hand.
    equipped_results: Optional[ResultSet] = field(default=None, repr=False)
    unequipped_results: Optional[ResultSet] = field(default=None, repr=False)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"encounters: {self.encounters} x {self.runs_per_encounter} runs",
            f"equipped NMAC rate:   {self.equipped_nmac}",
            f"unequipped NMAC rate: {self.unequipped_nmac}",
            f"risk ratio: {self.risk_ratio:.4f}",
            f"alert rate: {self.alert_rate:.4f}",
            f"false alarm rate: {self.false_alarm_rate:.4f}",
            f"induced NMAC rate: {self.induced_nmac_rate:.6f}",
        ]
        return "\n".join(lines)


class MonteCarloEstimator:
    """Runs paired equipped/unequipped campaigns over sampled encounters.

    Parameters
    ----------
    table:
        Logic table of the system under test.
    source:
        Encounter generator (statistical model).
    sim_config:
        Simulation settings.
    runs_per_encounter:
        Stochastic runs per encounter per equipage arm.
    backend:
        Simulation backend registry key shared by both arms
        (``"distributed"`` submits both arms to a worker fleet; pass
        the queue/store paths via *backend_options*).  Each arm builds
        its own backend from the key, since the arms differ in
        equipage: a ready backend instance, pinned to one equipage,
        raises ``TypeError``.
    backend_options:
        Extra factory options forwarded to each arm's backend (see
        :class:`~repro.experiments.Campaign`).
    workers:
        Process-parallel fan-out of the arms' campaigns, which run one
        after the other on one :class:`~repro.experiments.WorkerPool`
        holding both arms' backends (1 = serial; the estimate is
        identical either way).
    store:
        Optional :class:`~repro.store.ResultStore` both arms' campaigns
        write through — each arm lands under its own provenance hash
        (equipage differs), so equipped-vs-unequipped comparisons can
        later be answered from the store alone, and re-estimating with
        the same seed resumes instead of re-simulating.
    """

    def __init__(
        self,
        table: LogicTable,
        source: EncounterSource,
        sim_config: EncounterSimConfig | None = None,
        runs_per_encounter: int = 20,
        backend: str = "vectorized-batch",
        workers: int = 1,
        store: Optional["ResultStore"] = None,
        backend_options: Optional[dict] = None,
    ):
        if runs_per_encounter < 1:
            raise ValueError("runs_per_encounter must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not isinstance(backend, str):
            raise TypeError(
                "MonteCarloEstimator needs a backend registry key: its "
                "equipped and unequipped arms cannot share the one "
                f"equipage of a ready {type(backend).__name__}"
            )
        self.table = table
        self.source = source
        self.sim_config = sim_config or EncounterSimConfig()
        self.runs_per_encounter = runs_per_encounter
        self.backend = backend
        self.backend_options = backend_options
        self.workers = workers
        self.store = store

    def estimate(
        self,
        num_encounters: int,
        seed: SeedLike = None,
        confidence: float = 0.95,
    ) -> MonteCarloReport:
        """Run the paired campaigns and aggregate the metrics."""
        if num_encounters < 1:
            raise ValueError("num_encounters must be >= 1")
        rng = as_generator(seed)
        encounters = self.source.sample(num_encounters, seed=rng)

        arms = [
            Campaign(
                encounters,
                backend=self.backend,
                table=None if equipage == "none" else self.table,
                equipage=equipage,
                runs_per_scenario=self.runs_per_encounter,
                sim_config=self.sim_config,
                backend_options=self.backend_options,
            )
            for equipage in ("both", "none")
        ]
        # min(workers, encounters) processes plan each arm exactly as
        # run(workers=self.workers) would; a fleet is its own pool.
        workers = min(self.workers, num_encounters)
        if workers > 1 and not hasattr(arms[0].backend, "run_campaign"):
            with WorkerPool([arm.backend for arm in arms], workers) as pool:
                equipped, unequipped = [
                    arm.run(seed=rng, store=self.store, pool=pool)
                    for arm in arms
                ]
        else:
            equipped, unequipped = [
                arm.run(seed=rng, workers=self.workers, store=self.store)
                for arm in arms
            ]

        equipped_nmacs = equipped.nmac_count
        unequipped_nmacs = unequipped.nmac_count
        trials = equipped.total_runs
        per_encounter_alert = np.array(
            [bool(record.runs.own_alerted.any()) for record in equipped]
        )
        per_encounter_unmitigated = np.array(
            [bool(record.runs.nmac.any()) for record in unequipped]
        )
        # Induced: equipped runs collide while the unmitigated
        # counterfactual rate for this encounter is zero.
        induced = sum(
            int(eq.runs.nmac.sum())
            for eq, uneq in zip(equipped, unequipped)
            if eq.runs.nmac.any() and not uneq.runs.nmac.any()
        )

        equipped_est = wilson_interval(equipped_nmacs, trials, confidence)
        unequipped_est = wilson_interval(unequipped_nmacs, trials, confidence)
        return MonteCarloReport(
            encounters=num_encounters,
            runs_per_encounter=self.runs_per_encounter,
            equipped_nmac=equipped_est,
            unequipped_nmac=unequipped_est,
            risk_ratio=risk_ratio(
                equipped_nmacs, trials, unequipped_nmacs, trials
            ),
            alert_rate=float(per_encounter_alert.mean()),
            false_alarm_rate=false_alarm_rate(
                per_encounter_alert, per_encounter_unmitigated
            ),
            induced_nmac_rate=induced / trials,
            equipped_results=equipped,
            unequipped_results=unequipped,
        )
