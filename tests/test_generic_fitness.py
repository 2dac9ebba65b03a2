"""Tests for the algorithm-agnostic fitness path.

Any avoidance pair the agent engine flies is searched through
:class:`EncounterFitness` with an agent-engine backend key; these cases
use ``"agent-svo"``, the Selective Velocity Obstacle pair.
"""

import numpy as np
import pytest

from repro.encounters import head_on_encounter
from repro.search.fitness import COLLISION_GAIN, EncounterFitness


class TestGenericEncounterFitness:
    def test_unequipped_headon_scores_high(self):
        fitness = EncounterFitness(
            backend="agent-svo", equipage="none", num_runs=5, seed=0
        )
        value = fitness(head_on_encounter().as_array())
        # Dead-on collision courses with no avoidance come very close.
        assert value > 50.0
        assert value <= COLLISION_GAIN

    def test_svo_reduces_fitness_on_headon(self):
        base = EncounterFitness(
            backend="agent-svo", equipage="none", num_runs=5, seed=1
        )
        svo = EncounterFitness(backend="agent-svo", num_runs=5, seed=1)
        genome = head_on_encounter().as_array()
        assert svo(genome) < base(genome)

    def test_evaluation_counter(self):
        fitness = EncounterFitness(backend="agent-svo", num_runs=2, seed=0)
        genome = head_on_encounter().as_array()
        fitness(genome)
        fitness(genome)
        assert fitness.evaluations == 2
        fitness.evaluate_population(np.stack([genome] * 3))
        assert fitness.evaluations == 5

    def test_num_runs_validated(self):
        with pytest.raises(ValueError, match="num_runs"):
            EncounterFitness(backend="agent-svo", num_runs=0)
