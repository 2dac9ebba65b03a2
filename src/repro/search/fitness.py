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
faithful engine; ``"agent-svo"`` to search against the Selective
Velocity Obstacle baseline of the paper's ref [7]).  Inside a ``with
fitness:`` scope — which
:meth:`~repro.search.ga.GeneticAlgorithm.run` opens for a whole search —
every generation runs on one warm process pool that uses every CPU,
with bits identical to a serial search; an ablation variant
(:class:`CollisionRateFitness`) scores the raw NMAC rate instead, to
show why the paper's shaped fitness searches better (a pure indicator
gives the GA no gradient until a collision is found).

:class:`FalseAlarmFitness` searches for the paper's other kind of
situation, false alarms, from two such fitnesses: an equipped arm
scoring the alert rate and an unequipped arm scoring the mean miss
distance.  Every fitness here therefore evaluates through campaigns,
with the same pool, store and provenance; none simulates on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from repro.store import ResultStore

from repro.acasx.logic_table import LogicTable
from repro.encounters.encoding import EncounterParameters
from repro.experiments.backends import SimulationBackend, make_backend
from repro.experiments.campaign import Campaign, WorkerPool, default_pool_size
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


class _PoolScope:
    """A ``with`` scope that keeps one warm :class:`WorkerPool` open.

    The first :meth:`_scope_pool` call inside the scope starts a pool
    holding *backends* (``min(usable CPUs, chunks in the plan)``
    processes); later calls reuse it and the outermost exit closes
    it, also when the scope raises.  Scopes nest.  Outside any scope,
    on one CPU or on a fleet-bound backend (``"distributed"``, whose
    fleet is the parallelism) there is no pool.
    """

    num_runs: int

    def __init__(self, backends: Sequence[SimulationBackend]):
        self._backends = list(backends)
        self._scopes = 0
        self._pool: Optional[WorkerPool] = None

    def __enter__(self):
        self._scopes += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._scopes -= 1
        if self._scopes == 0 and self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close()

    def _scope_pool(self, num_genomes: int) -> Optional[WorkerPool]:
        """The open scope's pool, started by its first evaluation."""
        backends = self._backends
        if (
            self._pool is None
            and self._scopes
            and not hasattr(backends[0], "run_campaign")
        ):
            workers = default_pool_size(
                backends[0], self.num_runs, num_genomes
            )
            if workers > 1:
                self._pool = WorkerPool(backends, workers)
        return self._pool


class EncounterFitness(_PoolScope):
    """Evaluates encounter genomes by campaigns of stochastic runs.

    Parameters
    ----------
    table:
        The logic table of the ACAS keys' system under test (``None``
        for an unequipped search, a ready *backend*, or
        ``"agent-svo"``, whose SVO aircraft read no table and refuse
        one).
    config:
        Simulation configuration.
    num_runs:
        Stochastic runs per evaluation (the paper uses 100).
    equipage / coordination:
        Passed through to the simulation backend (default ``"both"``
        and ``True``).
    seed:
        Base seed; each evaluation derives an independent stream so
        repeated evaluations of the same genome differ (as in the
        paper, where fitness is a noisy estimate).
    backend:
        Simulation backend registry key (or a ready backend instance,
        which owns its table, config, equipage and coordination, so
        passing any of those too raises ``TypeError``); see
        :func:`repro.experiments.available_backends`.
        ``"distributed"`` evaluates every generation's campaign on a
        worker fleet — pass queue/store paths via *backend_options*;
        ``"agent-svo"`` searches against SVO with the same campaigns,
        pool and store.
    backend_options:
        Extra factory options forwarded to the backend (see
        :class:`~repro.experiments.Campaign`).
    store:
        Optional :class:`~repro.store.ResultStore` the evaluation
        campaigns log through — every generation's population campaign
        is persisted with provenance, so a search's raw simulation
        evidence survives the run and can be queried afterwards.

    The fitness is a context manager, and
    :meth:`~repro.search.ga.GeneticAlgorithm.run` enters it for the
    whole search.  Inside the scope, the first
    :meth:`evaluate_population` opens a :class:`WorkerPool` of
    ``min(usable CPUs, chunks in the generation's plan)`` processes,
    every later one reuses it, and the outermost exit closes it, also
    when the search raises.  Scopes nest: an inner ``with`` reuses the
    open pool.  Outside any scope, on one CPU, or on a fleet-bound
    backend (``"distributed"``, whose fleet is the parallelism)
    evaluation stays serial in-process.  Pooled or not, the
    fitnesses, stored records and campaign ids are bitwise identical.
    """

    def __init__(
        self,
        table: Optional[LogicTable] = None,
        config: EncounterSimConfig | None = None,
        num_runs: int = 100,
        equipage: Optional[str] = None,
        coordination: Optional[bool] = None,
        seed: SeedLike = None,
        backend: Union[str, SimulationBackend] = "vectorized-batch",
        store: Optional["ResultStore"] = None,
        backend_options: Optional[dict] = None,
    ):
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        # Resolve once so an unknown backend or missing table fails at
        # construction and every evaluation reuses the same instance,
        # which alone holds the setup each campaign simulates.
        self.backend = make_backend(
            backend, table=table, config=config,
            equipage=equipage, coordination=coordination,
            **(backend_options or {}),
        )
        self.num_runs = num_runs
        self.store = store
        self._rng = as_generator(seed)
        self.evaluations = 0
        super().__init__([self.backend])

    def simulate(self, genome: np.ndarray) -> BatchResult:
        """Run one genome's campaign of stochastic simulation runs."""
        params = EncounterParameters.from_array(genome)
        campaign = Campaign(
            params, backend=self.backend, runs_per_scenario=self.num_runs
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
        overhead.  Works with any backend (the agent engine simulates
        scenario by scenario inside the campaign).  Inside a ``with
        fitness:`` scope the chunks run on the scope's warm
        :class:`WorkerPool`.
        """
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        return self._evaluate(genomes, self._scope_pool(len(genomes)))

    def _evaluate(
        self, genomes: np.ndarray, pool: Optional[WorkerPool]
    ) -> np.ndarray:
        """Score *genomes* in one campaign, on *pool* when given."""
        campaign = Campaign(
            genomes, backend=self.backend, runs_per_scenario=self.num_runs
        )
        result_set = campaign.run(seed=self._rng, store=self.store, pool=pool)
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


class _AlertRate(EncounterFitness):
    """The equipped arm of :class:`FalseAlarmFitness`: the alert rate."""

    def score(self, result: BatchResult) -> float:
        return float(result.own_alerted.mean())


class _MeanMiss(EncounterFitness):
    """The unequipped arm of :class:`FalseAlarmFitness`: the mean
    unmitigated miss distance (m)."""

    def score(self, result: BatchResult) -> float:
        return float(result.min_separation.mean())


class FalseAlarmFitness(_PoolScope):
    """Search objective for false-alarm-prone situations.

    The paper proposes the GA approach for "identifying situations
    where accident rate **or false alarm rate** is significantly
    higher" (Section V).  This fitness targets the second kind: it runs
    each genome through two arms — equipped (do alerts happen?) and
    unequipped (was the encounter actually safe?) — and scores

        fitness = alert_rate × mean(d_unmitigated) / scale

    so encounters that reliably trigger alerts despite comfortably
    missing on their own rank highest.

    Each arm is an :class:`EncounterFitness`, so every evaluation is a
    campaign: :meth:`evaluate_population` scores a GA generation as one
    equipped and one unequipped campaign, and inside a ``with
    fitness:`` scope (which :meth:`~repro.search.ga.GeneticAlgorithm.run`
    opens) both arms run their campaigns on one warm
    :class:`~repro.experiments.WorkerPool` holding both arms'
    backends, with bits identical to a serial search.  Both arms draw
    their campaigns' root seeds from one generator, the equipped arm
    first, so successive evaluations are independent.

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
        Simulation backend registry key shared by both arms.  A ready
        backend owns one equipage and its own config, so it cannot
        serve both arms: it raises ``TypeError``.
    """

    def __init__(
        self,
        table: LogicTable,
        config: EncounterSimConfig | None = None,
        num_runs: int = 50,
        scale: float = 1.0,
        seed: SeedLike = None,
        backend: str = "vectorized-batch",
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if not isinstance(backend, str):
            raise TypeError(
                "FalseAlarmFitness needs a backend registry key: its "
                "equipped and unequipped arms cannot share the one "
                f"equipage of a ready {type(backend).__name__}"
            )
        rng = as_generator(seed)
        self._alerts = _AlertRate(
            table, config, num_runs, equipage="both", seed=rng,
            backend=backend,
        )
        self._misses = _MeanMiss(
            None, config, num_runs, equipage="none", seed=rng,
            backend=backend,
        )
        self.num_runs = num_runs
        self.scale = scale
        super().__init__([self._alerts.backend, self._misses.backend])

    @property
    def evaluations(self) -> int:
        """Genomes evaluated so far (each through both arms)."""
        return self._alerts.evaluations

    def components(self, genome: np.ndarray) -> tuple[float, float]:
        """(alert rate, mean unmitigated miss distance) for one genome."""
        return self._alerts(genome), self._misses(genome)

    def evaluate_population(self, genomes: np.ndarray) -> np.ndarray:
        """Fitness of a whole population: one campaign per arm, both on
        the scope's pool."""
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        pool = self._scope_pool(len(genomes))
        alert_rates = self._alerts._evaluate(genomes, pool)
        mean_misses = self._misses._evaluate(genomes, pool)
        return alert_rates * mean_misses / self.scale

    def __call__(self, genome: np.ndarray) -> float:
        """Higher for encounters that alert despite being safe."""
        alert_rate, mean_miss = self.components(genome)
        return alert_rate * mean_miss / self.scale
