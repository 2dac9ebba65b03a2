"""The paper's fitness function (Section VII).

    fitness = (1/N) Σ_k  10000 / (1 + d_k)

where ``d_k`` is the minimum distance between the two UAVs in the k-th
of N stochastic simulation runs of the encounter.  A mid-air collision
(d → 0) gains the maximum 10000 — "10000 was chosen because in the MDP
model 10000 was assigned to mid-air collision states".  The worse the
avoidance logic behaves in an encounter, the higher the encounter's
fitness, so maximizing it steers the GA toward challenging situations.

Evaluation executes through :class:`repro.experiments.Campaign` with a
registry-selected backend (``"vectorized-batch"`` by default — the
megabatch fast path, which also lets a GA generation's whole population
be simulated as one flattened lane array via
:meth:`EncounterFitness.evaluate_population`; ``"agent"`` for the
faithful engine); an ablation variant
(:class:`CollisionRateFitness`) scores the raw NMAC rate instead, to
show why the paper's shaped fitness searches better (a pure indicator
gives the GA no gradient until a collision is found).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:
    from repro.store import ResultStore

from repro.acasx.logic_table import LogicTable
from repro.encounters.encoding import EncounterParameters
from repro.experiments.backends import SimulationBackend, make_backend
from repro.experiments.campaign import Campaign
from repro.sim.batch import BatchResult
from repro.sim.encounter import EncounterSimConfig
from repro.util.rng import SeedLike, as_generator

#: The paper's collision gain constant.
COLLISION_GAIN = 10_000.0


@dataclass
class FitnessReport:
    """Fitness plus the underlying simulation statistics."""

    fitness: float
    nmac_rate: float
    mean_min_separation: float
    alert_rate: float


def paper_fitness(min_separations: np.ndarray) -> float:
    """``mean(10000 / (1 + d_k))`` over per-run minimum distances."""
    min_separations = np.asarray(min_separations, dtype=float)
    return float(np.mean(COLLISION_GAIN / (1.0 + min_separations)))


class EncounterFitness:
    """Evaluates encounter genomes by campaigns of stochastic runs.

    Parameters
    ----------
    table:
        The logic table of the system under test.
    config:
        Simulation configuration.
    num_runs:
        Stochastic runs per evaluation (the paper uses 100).
    equipage / coordination:
        Passed through to the simulation backend.
    seed:
        Base seed; each evaluation derives an independent stream so
        repeated evaluations of the same genome differ (as in the
        paper, where fitness is a noisy estimate).
    backend:
        Simulation backend registry key (or a ready backend instance);
        see :func:`repro.experiments.available_backends`.
        ``"distributed"`` evaluates every generation's campaign on a
        worker fleet — pass queue/store paths via *backend_options*.
    backend_options:
        Extra factory options forwarded to the backend (see
        :class:`~repro.experiments.Campaign`).
    store:
        Optional :class:`~repro.store.ResultStore` the evaluation
        campaigns log through — every generation's population campaign
        is persisted with provenance, so a search's raw simulation
        evidence survives the run and can be queried afterwards.
    """

    def __init__(
        self,
        table: LogicTable,
        config: EncounterSimConfig | None = None,
        num_runs: int = 100,
        equipage: str = "both",
        coordination: bool = True,
        seed: SeedLike = None,
        backend: Union[str, SimulationBackend] = "vectorized-batch",
        store: Optional["ResultStore"] = None,
        backend_options: Optional[dict] = None,
    ):
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        self.table = table
        self.config = config or EncounterSimConfig()
        self.equipage = equipage
        self.coordination = coordination
        # Resolve once so an unknown backend or missing table fails at
        # construction and every evaluation reuses the same instance.
        self.backend = make_backend(
            backend, table=table, config=self.config,
            equipage=equipage, coordination=coordination,
            **(backend_options or {}),
        )
        self.num_runs = num_runs
        self.store = store
        self._rng = as_generator(seed)
        self.evaluations = 0

    def simulate(self, genome: np.ndarray) -> BatchResult:
        """Run one genome's campaign of stochastic simulation runs."""
        params = EncounterParameters.from_array(genome)
        campaign = Campaign(
            params,
            backend=self.backend,
            table=self.table,
            equipage=self.equipage,
            coordination=self.coordination,
            runs_per_scenario=self.num_runs,
            sim_config=self.config,
        )
        result_set = campaign.run(seed=self._rng, store=self.store)
        self.evaluations += 1
        return result_set[0].runs

    def evaluate_population(self, genomes: np.ndarray) -> np.ndarray:
        """Fitness of a whole population in one chunked campaign.

        The GA calls this once per generation instead of once per
        genome; with a megabatch backend the population's
        ``(pop × num_runs)`` simulation runs flatten into a handful of
        lane-array chunks, eliminating the per-genome campaign
        overhead.  Works with any backend (non-bulk backends simulate
        scenario by scenario inside the campaign).
        """
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        campaign = Campaign(
            genomes,
            backend=self.backend,
            table=self.table,
            equipage=self.equipage,
            coordination=self.coordination,
            runs_per_scenario=self.num_runs,
            sim_config=self.config,
        )
        result_set = campaign.run(seed=self._rng, store=self.store)
        self.evaluations += len(genomes)
        return np.array(
            [self.score(record.runs) for record in result_set], dtype=float
        )

    def report(self, genome: np.ndarray) -> FitnessReport:
        """Fitness together with the run statistics."""
        result = self.simulate(genome)
        return FitnessReport(
            fitness=self.score(result),
            nmac_rate=result.nmac_rate,
            mean_min_separation=float(result.min_separation.mean()),
            alert_rate=float(result.own_alerted.mean()),
        )

    def score(self, result: BatchResult) -> float:
        """Fitness of a completed batch result (the paper's formula)."""
        return paper_fitness(result.min_separation)

    def __call__(self, genome: np.ndarray) -> float:
        """Evaluate one genome (the GA's fitness callback)."""
        return self.score(self.simulate(genome))


class CollisionRateFitness(EncounterFitness):
    """Ablation: fitness = raw NMAC rate (no distance shaping).

    Provides no signal for near misses, so the search only improves
    once collisions are already being found — the comparison quantifies
    the value of the paper's shaped fitness.
    """

    def score(self, result: BatchResult) -> float:
        return result.nmac_rate


class FalseAlarmFitness:
    """Search objective for false-alarm-prone situations.

    The paper proposes the GA approach for "identifying situations
    where accident rate **or false alarm rate** is significantly
    higher" (Section V).  This fitness targets the second kind: it runs
    each genome through two arms — equipped (do alerts happen?) and
    unequipped (was the encounter actually safe?) — and scores

        fitness = alert_rate × mean(d_unmitigated) / scale

    so encounters that reliably trigger alerts despite comfortably
    missing on their own rank highest.

    Parameters
    ----------
    table:
        The logic table of the system under test.
    config:
        Simulation configuration shared by both arms.
    num_runs:
        Stochastic runs per arm per evaluation.
    scale:
        Distance normalizer (m); the default makes an always-alerting
        encounter with a 1 km unmitigated miss score 1000.
    seed:
        Base seed.
    backend:
        Simulation backend registry key shared by both arms.
    """

    def __init__(
        self,
        table: LogicTable,
        config: EncounterSimConfig | None = None,
        num_runs: int = 50,
        scale: float = 1.0,
        seed: SeedLike = None,
        backend: Union[str, SimulationBackend] = "vectorized-batch",
    ):
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if scale <= 0:
            raise ValueError("scale must be positive")
        config = config or EncounterSimConfig()
        # The two arms need different equipage, so a ready backend
        # instance cannot serve both: resolve its registry key and
        # construct each arm from that.  A fleet backend instance is
        # named "vectorized-batch" — per-genome two-arm evaluations are
        # direct simulate() calls, which execute in-process anyway.
        key = backend if isinstance(backend, str) else backend.name
        self._equipped = make_backend(
            key, table=table, config=config, equipage="both"
        )
        self._unequipped = make_backend(
            key, table=None, config=config, equipage="none"
        )
        self.num_runs = num_runs
        self.scale = scale
        self._rng = as_generator(seed)
        self.evaluations = 0

    def components(self, genome: np.ndarray) -> tuple[float, float]:
        """(alert rate, mean unmitigated miss distance) for one genome."""
        params = EncounterParameters.from_array(genome)
        equipped = self._equipped.simulate(params, self.num_runs, seed=self._rng)
        unmitigated = self._unequipped.simulate(
            params, self.num_runs, seed=self._rng
        )
        self.evaluations += 1
        alert_rate = float(equipped.own_alerted.mean())
        mean_miss = float(unmitigated.min_separation.mean())
        return alert_rate, mean_miss

    def __call__(self, genome: np.ndarray) -> float:
        """Higher for encounters that alert despite being safe."""
        alert_rate, mean_miss = self.components(genome)
        return alert_rate * mean_miss / self.scale
