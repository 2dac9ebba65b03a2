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
from typing import List

import numpy as np

from repro.analysis.geometry import classify_encounter
from repro.encounters.encoding import EncounterParameters
from repro.encounters.generator import ParameterRanges
from repro.search.ga import (
    FitnessFunction,
    GAConfig,
    GAResult,
    GeneticAlgorithm,
)
from repro.util.rng import SeedLike


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
    """Runs one GA validation search on a ready fitness and ranks it.

    The runner keeps only the scenario space, the GA config and the
    top-*k* ranking.  The fitness owns everything simulated: normally
    an :class:`~repro.search.fitness.EncounterFitness`, which builds
    its backend from a registry key (``"agent-svo"`` searches against
    SVO) or takes a ready one, and evaluates every generation on one
    warm process pool, bitwise identical to a serial search.  A
    one-seed search shares one generator between the GA and the
    fitness noise::

        rng = np.random.default_rng(seed)
        fitness = EncounterFitness(table, num_runs=100, seed=rng)
        outcome = SearchRunner(fitness).run(seed=rng)

    Parameters
    ----------
    fitness:
        Genome → scalar to maximize, with ``evaluate_population`` and
        a ``with`` scope where it has them.
    ranges:
        The scenario space.
    ga_config:
        GA settings (paper scale: population 200, 5 generations).
    """

    def __init__(
        self,
        fitness: FitnessFunction,
        ranges: ParameterRanges | None = None,
        ga_config: GAConfig | None = None,
    ):
        self.fitness = fitness
        self.ranges = ranges or ParameterRanges()
        self.ga_config = ga_config or GAConfig()

    def run(
        self, seed: SeedLike = None, top_k: int = 10, verbose: bool = False
    ) -> SearchOutcome:
        """Run the search (*seed* drives the GA only) and rank the
        *top_k* most challenging distinct encounters."""
        if top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {top_k}")
        ga = GeneticAlgorithm(self.ranges, self.ga_config)

        def report(generation: int, genomes: np.ndarray, fits: np.ndarray) -> None:
            if verbose:
                print(
                    f"[search] generation {generation}: "
                    f"max={fits.max():.1f} mean={fits.mean():.1f}"
                )

        ga_result = ga.run(self.fitness, seed=seed, callback=report)
        return SearchOutcome(
            ga_result=ga_result,
            top_encounters=self._rank_top(ga_result, top_k),
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
            if len(ranked) >= top_k:
                break
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
        return ranked
