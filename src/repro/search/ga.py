"""A real-coded generational genetic algorithm (the ECJ substitute).

The paper drives its search with ECJ, configured through a parameter
file (population size, generations, selection mechanism...).
:class:`GAConfig` plays the role of that parameter file;
:class:`GeneticAlgorithm` implements the corresponding generational
loop:

1. initialize the population uniformly inside the parameter ranges;
2. evaluate every individual (fitness = simulation, supplied by the
   caller);
3. select parents by tournament, recombine by blend (BLX-α) crossover,
   mutate per-gene with Gaussian noise, clip into range;
4. carry the elite through unchanged; repeat.

Everything is deterministic given the seed.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.encounters.generator import ParameterRanges
from repro.util.rng import SeedLike, as_generator

#: A fitness function maps a genome vector to a scalar (to maximize).
FitnessFunction = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class GAConfig:
    """GA settings (the ECJ "parameter file").

    Attributes
    ----------
    population_size:
        Individuals per generation (the paper uses 200).
    generations:
        Generations evolved (the paper uses 5).
    tournament_size:
        Tournament selection pressure.
    crossover_rate:
        Probability a pair is recombined (else cloned).
    blend_alpha:
        BLX-α expansion factor: children sample uniformly from the
        per-gene interval stretched by α on both sides.
    mutation_rate:
        Per-gene probability of Gaussian mutation.
    mutation_sigma_fraction:
        Mutation std as a fraction of each gene's range width.
    elitism:
        Best individuals copied unchanged into the next generation.
    """

    population_size: int = 200
    generations: int = 5
    tournament_size: int = 2
    crossover_rate: float = 0.9
    blend_alpha: float = 0.5
    mutation_rate: float = 0.15
    mutation_sigma_fraction: float = 0.1
    elitism: int = 2

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise ValueError("elitism must be in [0, population_size)")


@dataclass
class GAResult:
    """Everything the search recorded.

    Attributes
    ----------
    best_genome / best_fitness:
        The best individual ever evaluated.
    generations:
        Per-generation genome arrays, shape ``(pop, genes)`` each.
    fitness_history:
        Per-generation fitness arrays, aligned with ``generations`` —
        exactly the data behind the paper's Fig. 6 scatter.
    evaluations:
        Total fitness evaluations performed.
    """

    best_genome: np.ndarray
    best_fitness: float
    generations: List[np.ndarray]
    fitness_history: List[np.ndarray]
    evaluations: int

    def all_evaluated(self) -> tuple[np.ndarray, np.ndarray]:
        """All (genomes, fitnesses) across generations, concatenated in
        evaluation order (generation by generation) — the x-axis of the
        paper's Fig. 6."""
        genomes = np.concatenate(self.generations, axis=0)
        fitnesses = np.concatenate(self.fitness_history, axis=0)
        return genomes, fitnesses

    def generation_summary(self) -> List[dict]:
        """Min/mean/max fitness per generation."""
        return [
            {
                "generation": i,
                "min": float(f.min()),
                "mean": float(f.mean()),
                "max": float(f.max()),
            }
            for i, f in enumerate(self.fitness_history)
        ]


class GeneticAlgorithm:
    """Generational GA over a box-bounded real genome space."""

    def __init__(self, ranges: ParameterRanges, config: GAConfig | None = None):
        self.ranges = ranges
        self.config = config or GAConfig()
        self._lows = ranges.lows()
        self._highs = ranges.highs()
        self._widths = self._highs - self._lows

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _tournament(
        self, fitnesses: np.ndarray, rng: np.random.Generator
    ) -> int:
        """Index of a tournament winner."""
        contenders = rng.integers(0, len(fitnesses), size=self.config.tournament_size)
        return int(contenders[np.argmax(fitnesses[contenders])])

    def _crossover(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """BLX-α blend crossover producing one child."""
        low = np.minimum(parent_a, parent_b)
        high = np.maximum(parent_a, parent_b)
        span = high - low
        alpha = self.config.blend_alpha
        child = rng.uniform(low - alpha * span, high + alpha * span + 1e-300)
        return child

    def _mutate(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Per-gene Gaussian mutation."""
        mask = rng.uniform(size=genome.shape) < self.config.mutation_rate
        noise = rng.normal(
            0.0, self.config.mutation_sigma_fraction * self._widths
        )
        return np.where(mask, genome + noise, genome)

    def _clip(self, genome: np.ndarray) -> np.ndarray:
        return np.clip(genome, self._lows, self._highs)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        fitness: FitnessFunction,
        seed: SeedLike = None,
        callback: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
    ) -> GAResult:
        """Evolve and return the recorded search.

        Parameters
        ----------
        fitness:
            Genome → scalar to maximize (typically
            :class:`repro.search.fitness.EncounterFitness`).  A fitness
            that is a context manager is entered for the whole search
            and left when it returns or raises: an
            :class:`~repro.search.fitness.EncounterFitness` keeps one
            warm process pool across every generation that way, and
            none of its processes outlives the search.
        seed:
            RNG seed for the whole search.
        callback:
            Optional per-generation hook ``(index, genomes, fitnesses)``.
        """
        scope = (
            fitness if isinstance(fitness, AbstractContextManager)
            else nullcontext()
        )
        with scope:
            return self._evolve(fitness, seed, callback)

    def _evolve(
        self,
        fitness: FitnessFunction,
        seed: SeedLike,
        callback: Optional[Callable[[int, np.ndarray, np.ndarray], None]],
    ) -> GAResult:
        """The generational loop of :meth:`run`."""
        rng = as_generator(seed)
        config = self.config
        num_genes = len(self._lows)

        population = rng.uniform(
            self._lows, self._highs, size=(config.population_size, num_genes)
        )
        generations: List[np.ndarray] = []
        fitness_history: List[np.ndarray] = []
        best_genome: Optional[np.ndarray] = None
        best_fitness = -np.inf
        evaluations = 0

        # A fitness exposing evaluate_population (e.g. EncounterFitness
        # on a megabatch backend) scores each generation in one chunked
        # campaign instead of one campaign per genome.
        evaluate = getattr(fitness, "evaluate_population", None)

        for generation in range(config.generations):
            if evaluate is not None:
                fitnesses = np.asarray(evaluate(population), dtype=float)
            else:
                fitnesses = np.array([fitness(genome) for genome in population])
            evaluations += len(population)
            generations.append(population.copy())
            fitness_history.append(fitnesses.copy())

            gen_best = int(np.argmax(fitnesses))
            if fitnesses[gen_best] > best_fitness:
                best_fitness = float(fitnesses[gen_best])
                best_genome = population[gen_best].copy()
            if callback is not None:
                callback(generation, population, fitnesses)
            if generation == config.generations - 1:
                break

            # Breed the next generation.
            elite_order = np.argsort(fitnesses)[::-1]
            next_population = [
                population[i].copy() for i in elite_order[: config.elitism]
            ]
            while len(next_population) < config.population_size:
                a = population[self._tournament(fitnesses, rng)]
                b = population[self._tournament(fitnesses, rng)]
                if rng.uniform() < config.crossover_rate:
                    child = self._crossover(a, b, rng)
                else:
                    child = a.copy()
                child = self._clip(self._mutate(child, rng))
                next_population.append(child)
            population = np.array(next_population)

        assert best_genome is not None
        return GAResult(
            best_genome=best_genome,
            best_fitness=best_fitness,
            generations=generations,
            fitness_history=fitness_history,
            evaluations=evaluations,
        )
