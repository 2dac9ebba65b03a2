"""Unified experiment campaigns: one API over the validation workflow.

The paper's workflow (Secs. V–VII) is one pipeline — obtain scenarios,
simulate each under N stochastic runs, aggregate safety metrics.  This
package expresses it declaratively:

- :mod:`repro.experiments.scenario` — the :class:`Scenario` abstraction
  unifying explicit parameters, named presets and sampled sources;
- :mod:`repro.experiments.backends` — the :class:`SimulationBackend`
  protocol and string-keyed registry (``"agent"`` = faithful engine,
  one simulation per run; ``"vectorized-batch"`` = the megabatch
  kernel flattening whole chunks of scenarios into one lane array, the
  default; ``"vectorized"`` = its legacy alias; ``"distributed"`` =
  the megabatch kernel on a worker fleet), plus the picklable
  :class:`BackendSpec` workers rebuild their backend from;
- :mod:`repro.experiments.campaign` — the :class:`Campaign` object
  (scenarios × backend × equipage × runs) with deterministic serial,
  process-parallel or streaming (:meth:`Campaign.iter_records`)
  execution and :class:`ResultSet` export.

Everything downstream — GA fitness, Monte-Carlo estimation, the CLI —
executes through this API, so sharding, persistence and new workloads
attach here.
"""

from repro.experiments.backends import (
    EQUIPAGES,
    AgentBackend,
    BackendSpec,
    SimulationBackend,
    VectorizedBackend,
    VectorizedBatchBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.experiments.campaign import Campaign, ResultSet, RunRecord
from repro.experiments.scenario import (
    PRESETS,
    ExplicitSource,
    GenomeSource,
    PresetSource,
    SampledSource,
    Scenario,
    ScenarioSource,
    as_scenario_source,
    preset_scenario,
    source_from_spec,
)

__all__ = [
    "EQUIPAGES",
    "PRESETS",
    "AgentBackend",
    "BackendSpec",
    "Campaign",
    "ExplicitSource",
    "GenomeSource",
    "PresetSource",
    "ResultSet",
    "RunRecord",
    "SampledSource",
    "Scenario",
    "ScenarioSource",
    "SimulationBackend",
    "VectorizedBackend",
    "VectorizedBatchBackend",
    "as_scenario_source",
    "source_from_spec",
    "available_backends",
    "make_backend",
    "preset_scenario",
    "register_backend",
]
