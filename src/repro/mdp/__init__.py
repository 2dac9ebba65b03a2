"""Generic Markov Decision Process machinery.

This subpackage provides the optimization substrate of the paper's
"model-based optimization" pipeline (Section II):

- :mod:`repro.mdp.model` — tabular MDP containers and an abstract
  interface for problem definitions;
- :mod:`repro.mdp.value_iteration` — infinite-horizon discounted value
  iteration and finite-horizon backward induction;
- :mod:`repro.mdp.policy_iteration` — policy iteration (Howard's
  algorithm) with exact policy evaluation;
- :mod:`repro.mdp.grid` — uniform grids over continuous state variables
  with multilinear interpolation, the "sampling and interpolation"
  machinery Section IV identifies as a challenge;
- :mod:`repro.mdp.policy` — lookup-table policies ("logic tables").
"""

from repro.mdp.grid import Grid, UniformAxis
from repro.mdp.model import TabularMDP, MDPDefinition
from repro.mdp.policy import TabularPolicy
from repro.mdp.policy_iteration import PolicyIterationResult, policy_iteration
from repro.mdp.value_iteration import (
    BackwardInductionResult,
    ValueIterationResult,
    backward_induction,
    value_iteration,
)

__all__ = [
    "BackwardInductionResult",
    "Grid",
    "MDPDefinition",
    "PolicyIterationResult",
    "TabularMDP",
    "TabularPolicy",
    "UniformAxis",
    "ValueIterationResult",
    "backward_induction",
    "policy_iteration",
    "value_iteration",
]
