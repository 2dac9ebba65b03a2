"""GA-based search for challenging encounter situations (paper Sec. V–VII).

The validation approach of the paper: parameterize encounters as
9-gene genomes, evaluate each genome with many noisy simulation runs,
use the paper's fitness (high when the UAVs get close or collide), and
let a genetic algorithm steer generation after generation toward
situations where the avoidance logic behaves poorly.

- :mod:`repro.search.ga` — a real-coded generational GA (the ECJ
  substitute): tournament selection, blend crossover, Gaussian
  mutation, elitism;
- :mod:`repro.search.fitness` — the paper's fitness function
  ``mean(10000 / (1 + d_min))`` over stochastic runs, simulated by any
  registry backend (``"agent-svo"`` searches against SVO);
- :mod:`repro.search.random_search` — the uniform-sampling baseline the
  authors compared against in their earlier work;
- :mod:`repro.search.runner` — end-to-end search harness: runs the GA
  on a ready fitness, which owns the simulation setup, and ranks the
  top encounters (the data of the paper's Figs. 6–8);
- :mod:`repro.search.clustering` — k-means grouping of high-fitness
  genomes into challenging *regions* (the paper's future-work idea).
"""

from repro.search.clustering import KMeansResult, cluster_genomes
from repro.search.fitness import EncounterFitness, FitnessReport
from repro.search.ga import GAConfig, GAResult, GeneticAlgorithm
from repro.search.random_search import RandomSearchResult, random_search
from repro.search.runner import SearchOutcome, SearchRunner

__all__ = [
    "EncounterFitness",
    "FitnessReport",
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
    "KMeansResult",
    "RandomSearchResult",
    "SearchOutcome",
    "SearchRunner",
    "cluster_genomes",
    "random_search",
]
