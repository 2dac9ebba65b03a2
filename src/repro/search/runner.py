"""End-to-end search harness: GA + scenario space + fitness + analysis.

Ties the pieces of the paper's Fig. 3 together: the space of all
possible scenarios (:class:`ParameterRanges`), the scenario generator /
genome decoding, the simulation-backed fitness, and the GA.  Produces a
:class:`SearchOutcome` carrying everything the paper's Section VII
reports: per-generation fitness (Fig. 6), the top encounters
(Figs. 7–8) and their geometry classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.store import ResultStore

from repro.acasx.logic_table import LogicTable
from repro.analysis.geometry import classify_encounter
from repro.encounters.encoding import EncounterParameters
from repro.encounters.generator import ParameterRanges
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig, GAResult, GeneticAlgorithm
from repro.sim.encounter import EncounterSimConfig
from repro.util.rng import SeedLike, as_generator


@dataclass
class RankedEncounter:
    """One high-fitness encounter with its diagnosis."""

    genome: np.ndarray
    fitness: float
    generation: int
    geometry: str

    @property
    def parameters(self) -> EncounterParameters:
        """Decoded encounter parameters."""
        return EncounterParameters.from_array(self.genome)


@dataclass
class SearchOutcome:
    """Everything a search run produced."""

    ga_result: GAResult
    top_encounters: List[RankedEncounter]
    simulation_runs_per_evaluation: int

    def generation_summary(self) -> List[dict]:
        """Per-generation fitness statistics (the paper's Fig. 6)."""
        return self.ga_result.generation_summary()

    def geometry_counts(self) -> dict:
        """How many of the top encounters fall in each geometry class."""
        counts: dict = {}
        for encounter in self.top_encounters:
            counts[encounter.geometry] = counts.get(encounter.geometry, 0) + 1
        return counts


class SearchRunner:
    """Configures and runs one GA validation search.

    Parameters
    ----------
    table:
        Logic table of the system under test.
    ranges:
        The scenario space.
    ga_config:
        GA settings (paper scale: population 200, 5 generations).
    sim_config:
        Simulation settings shared by every evaluation.
    num_runs:
        Stochastic simulation runs per fitness evaluation (paper: 100).
    backend:
        Simulation backend registry key for the fitness campaigns
        (``"vectorized-batch"`` default — each GA generation simulates
        as megabatch chunks — ``"agent"`` for the faithful engine,
        ``"distributed"`` to evaluate generations on a worker fleet).
    backend_options:
        Extra factory options forwarded to the fitness backend (the
        ``"distributed"`` backend's queue/store paths).
    equipage / coordination:
        Equipage of the simulated encounters.
    store:
        Optional :class:`~repro.store.ResultStore`; every generation's
        fitness campaign is persisted with provenance, so the search's
        simulation evidence is queryable after the run.
    """

    def __init__(
        self,
        table: LogicTable,
        ranges: ParameterRanges | None = None,
        ga_config: GAConfig | None = None,
        sim_config: EncounterSimConfig | None = None,
        num_runs: int = 100,
        backend: str = "vectorized-batch",
        equipage: str = "both",
        coordination: bool = True,
        store: Optional["ResultStore"] = None,
        backend_options: Optional[dict] = None,
    ):
        self.table = table
        self.ranges = ranges or ParameterRanges()
        self.ga_config = ga_config or GAConfig()
        self.sim_config = sim_config or EncounterSimConfig()
        self.num_runs = num_runs
        self.backend = backend
        self.backend_options = backend_options
        self.equipage = equipage
        self.coordination = coordination
        self.store = store

    def run(
        self, seed: SeedLike = None, top_k: int = 10, verbose: bool = False
    ) -> SearchOutcome:
        """Run the search and rank the most challenging encounters."""
        rng = as_generator(seed)
        fitness = EncounterFitness(
            self.table,
            config=self.sim_config,
            num_runs=self.num_runs,
            equipage=self.equipage,
            coordination=self.coordination,
            seed=rng,
            backend=self.backend,
            store=self.store,
            backend_options=self.backend_options,
        )
        ga = GeneticAlgorithm(self.ranges, self.ga_config)

        def report(generation: int, genomes: np.ndarray, fits: np.ndarray) -> None:
            if verbose:
                print(
                    f"[search] generation {generation}: "
                    f"max={fits.max():.1f} mean={fits.mean():.1f}"
                )

        ga_result = ga.run(fitness, seed=rng, callback=report)

        top = self._rank_top(ga_result, top_k)
        return SearchOutcome(
            ga_result=ga_result,
            top_encounters=top,
            simulation_runs_per_evaluation=self.num_runs,
        )

    def _rank_top(self, ga_result: GAResult, top_k: int) -> List[RankedEncounter]:
        """The *top_k* distinct highest-fitness individuals."""
        entries = []
        for gen_index, (genomes, fits) in enumerate(
            zip(ga_result.generations, ga_result.fitness_history)
        ):
            for genome, fit in zip(genomes, fits):
                entries.append((float(fit), gen_index, genome))
        entries.sort(key=lambda e: e[0], reverse=True)

        ranked: List[RankedEncounter] = []
        seen: List[np.ndarray] = []
        for fit, gen_index, genome in entries:
            if any(np.allclose(genome, s) for s in seen):
                continue
            params = EncounterParameters.from_array(genome)
            ranked.append(
                RankedEncounter(
                    genome=genome.copy(),
                    fitness=fit,
                    generation=gen_index,
                    geometry=classify_encounter(params),
                )
            )
            seen.append(genome)
            if len(ranked) >= top_k:
                break
        return ranked
