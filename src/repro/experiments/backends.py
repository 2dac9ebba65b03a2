"""Pluggable simulation backends behind a string-keyed registry.

The library simulates the N stochastic runs of an encounter in one of
two ways: the faithful agent-based engine (:func:`repro.sim.encounter.
run_encounter`, one Python-level simulation per run) and the megabatch
kernel (:meth:`repro.sim.batch.BatchEncounterSimulator.run_many`, which
flattens whole *chunks of scenarios* into one lane array and produces
per-scenario results that do not depend on the chunking).  They trade
fidelity scrutiny for speed; dedicated tests keep them equivalent.

This module puts both behind one :class:`SimulationBackend` interface
so every consumer — campaigns, GA fitness, Monte-Carlo estimation, the
CLI — selects the trade-off with a single string (``"agent"``,
``"vectorized-batch"`` or ``"distributed"``) instead of importing a
different class.  ``"vectorized"`` is a legacy alias of
``"vectorized-batch"`` that keeps stored campaign ids naming it
resolvable.  New backends register under their own key and become
available everywhere at once.  The ``"distributed"`` key builds a
:class:`~repro.distributed.backend.DistributedBackend` (imported
lazily, so importing this module stays cheap): the megabatch backend,
under its own name, plus the queue and store paths that make
``Campaign.run(backend="distributed")`` execute on an external worker
fleet — drained in-process when no fleet member is alive.

:class:`BackendSpec` is the fleet's wire format for a backend —
registry key, table bytes/path, config, equipage — stored in each
queued job's row so a ``repro worker`` process, which shares nothing
with the submitter but the queue file, can rebuild the backend once.
Local process pools do not use it: their workers receive the
campaign's backend object itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.acasx.logic_table import LogicTable
from repro.avoidance.acas import AcasXuAvoidance
from repro.encounters.encoding import EncounterParameters
from repro.sim.batch import BatchEncounterSimulator, BatchResult, KernelProfile
from repro.sim.encounter import EncounterSimConfig, make_acas_pair, run_encounter
from repro.util.rng import SeedLike, as_seed_sequence

#: Equipage spellings shared by the library and the CLI.
EQUIPAGES: Tuple[str, ...] = ("both", "own-only", "none")


class SimulationBackend(Protocol):
    """Simulates the N stochastic runs of one encounter.

    A backend is constructed for a fixed (table, config, equipage,
    coordination) and then asked to simulate scenarios; per-run
    randomness derives from the :class:`~numpy.random.SeedSequence`
    passed to each :meth:`simulate` call, so results are independent of
    where (which process) the call executes.
    """

    #: Registry key of what the backend simulates, which campaign
    #: identity records (``"distributed"`` builds a megabatch backend).
    name: str

    def simulate(
        self,
        params: EncounterParameters,
        num_runs: int,
        seed: SeedLike = None,
    ) -> BatchResult:
        """Per-run outcome arrays for *num_runs* runs of *params*."""
        ...


BackendFactory = Callable[..., SimulationBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Class decorator registering a backend factory under *name*.

    The factory is called as ``factory(table=..., config=...,
    equipage=..., coordination=...)``.
    """

    def decorate(factory: BackendFactory) -> BackendFactory:
        if name in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorate


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_backend(
    spec: Union[str, SimulationBackend],
    table: Optional[LogicTable] = None,
    config: EncounterSimConfig | None = None,
    equipage: str = "both",
    coordination: bool = True,
    **options,
) -> SimulationBackend:
    """Resolve *spec* (a registry key or a ready backend) to a backend.

    Extra keyword *options* are forwarded to the backend factory —
    the channel backend-specific settings travel through (e.g. the
    ``"distributed"`` backend's ``queue=``/``store=`` paths, which
    :class:`~repro.experiments.Campaign` exposes as
    ``backend_options=``).
    """
    if not isinstance(spec, str):
        if options:
            raise TypeError(
                "backend options only apply when the backend is "
                "constructed from a registry key, not to a ready "
                f"instance of {type(spec).__name__}"
            )
        return spec
    if spec not in _REGISTRY:
        known = ", ".join(available_backends())
        raise ValueError(f"unknown backend {spec!r} (available: {known})")
    return _REGISTRY[spec](
        table=table,
        config=config,
        equipage=equipage,
        coordination=coordination,
        **options,
    )


def _validate_equipage(equipage: str, table: Optional[LogicTable]) -> None:
    if equipage not in EQUIPAGES:
        raise ValueError(
            f"unknown equipage {equipage!r} (use one of {', '.join(EQUIPAGES)})"
        )
    if equipage != "none" and table is None:
        raise ValueError("equipped simulations need a logic table")


@register_backend("agent")
class AgentBackend:
    """The faithful path: one agent-based simulation per stochastic run.

    Each run gets a fresh avoidance pair (stateful controllers never
    leak between runs) and an independent child of the call's seed
    sequence, so a campaign's results do not depend on which process
    executed which run.
    """

    name = "agent"

    def __init__(
        self,
        table: Optional[LogicTable] = None,
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
    ):
        _validate_equipage(equipage, table)
        self.table = table
        self.config = config or EncounterSimConfig()
        self.equipage = equipage
        self.coordination = coordination

    def _make_pair(self):
        if self.equipage == "both":
            return make_acas_pair(self.table, coordination=self.coordination)
        if self.equipage == "own-only":
            return AcasXuAvoidance(self.table, aircraft_id="ownship"), None
        return None, None

    def simulate(
        self,
        params: EncounterParameters,
        num_runs: int,
        seed: SeedLike = None,
    ) -> BatchResult:
        """Run *num_runs* independent agent-based simulations."""
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        children = as_seed_sequence(seed).spawn(num_runs)
        min_sep = np.empty(num_runs)
        min_horiz = np.empty(num_runs)
        nmac = np.empty(num_runs, dtype=bool)
        own_alerted = np.empty(num_runs, dtype=bool)
        intr_alerted = np.empty(num_runs, dtype=bool)
        for i, child in enumerate(children):
            own, intruder = self._make_pair()
            result = run_encounter(
                params,
                own,
                intruder,
                self.config,
                seed=np.random.default_rng(child),
            )
            min_sep[i] = result.min_separation
            min_horiz[i] = result.min_horizontal
            nmac[i] = result.nmac
            own_alerted[i] = result.own_alerted
            intr_alerted[i] = result.intruder_alerted
        return BatchResult(
            min_separation=min_sep,
            min_horizontal=min_horiz,
            nmac=nmac,
            own_alerted=own_alerted,
            intruder_alerted=intr_alerted,
        )


@register_backend("vectorized-batch")
class VectorizedBatchBackend:
    """The megabatch path: whole chunks of scenarios advance together.

    :meth:`simulate_many` flattens a chunk of scenarios into a single
    ``(scenarios * runs)``-lane array simulation
    (:meth:`repro.sim.batch.BatchEncounterSimulator.run_many`).
    Per-scenario randomness derives from each scenario's own seed, so
    results are independent of how scenarios are chunked — only the
    wall clock changes.
    """

    name = "vectorized-batch"

    #: Accumulating per-phase timings, set by :meth:`enable_profiling`.
    kernel_profile: Optional[KernelProfile] = None

    def __init__(
        self,
        table: Optional[LogicTable] = None,
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
    ):
        _validate_equipage(equipage, table)
        self.table = table
        self.config = config or EncounterSimConfig()
        self.equipage = equipage
        self.coordination = coordination
        self._simulator = BatchEncounterSimulator(
            table,
            self.config,
            equipage=equipage,
            coordination=coordination,
        )

    def enable_profiling(self) -> KernelProfile:
        """Attach a :class:`~repro.sim.batch.KernelProfile` to the kernel.

        Every subsequent :meth:`simulate`/:meth:`simulate_many` call
        accumulates its per-phase timings (tape draw, decision, physics,
        observe) into the returned profile, so one profile object covers
        a whole chunked campaign.
        """
        self.kernel_profile = KernelProfile()
        return self.kernel_profile

    def simulate(
        self,
        params: EncounterParameters,
        num_runs: int,
        seed: SeedLike = None,
    ) -> BatchResult:
        """Run one scenario through the megabatch machinery."""
        return self.simulate_many([params], num_runs, [seed])[0]

    def simulate_many(
        self,
        params_list: Sequence[EncounterParameters],
        num_runs: int,
        seeds: Sequence[SeedLike],
    ) -> List[BatchResult]:
        """Per-scenario outcome arrays for a whole chunk of scenarios.

        An empty chunk returns an empty list rather than reaching the
        kernel (which rejects zero-scenario batches): a campaign resumed
        from a store that already holds every record hands its backend
        an empty tail.
        """
        if not params_list:
            return []
        rngs = [
            np.random.default_rng(as_seed_sequence(seed)) for seed in seeds
        ]
        return self._simulator.run_many(
            params_list, num_runs, rngs, profile=self.kernel_profile
        )


@register_backend("vectorized")
class VectorizedBackend(VectorizedBatchBackend):
    """Legacy alias of ``"vectorized-batch"``, bitwise identical.

    Kept so stored campaign ids that name ``"vectorized"`` keep
    resolving; the key is part of a campaign's provenance, so it is
    not rewritten to ``"vectorized-batch"``.
    """

    name = "vectorized"


@register_backend("distributed")
def _distributed_factory(**kwargs) -> SimulationBackend:
    """Factory for the ``"distributed"`` key (lazy import).

    The fleet backend lives in :mod:`repro.distributed.backend` —
    importing it pulls in the whole coordinator stack, so the registry
    holds this thin factory instead of the class and defers the import
    to first construction.
    """
    from repro.distributed.backend import DistributedBackend

    return DistributedBackend(**kwargs)


@dataclass(frozen=True)
class BackendSpec:
    """The fleet's wire format for a backend: a picklable description.

    A queued job stores one pickled spec in its row.  It carries the
    registry key, the table (as compressed npz bytes, or a path to load
    it from), and the plain-dataclass config/equipage settings; each
    fleet worker rebuilds its backend **once** per distinct spec and
    reuses it for every chunk it executes.  (``Campaign.run(workers=N)``
    does not go through a spec: its pool workers receive the backend
    object itself.)

    A spec names the backend by its ``name``, so capturing the
    ``"distributed"`` backend describes the plain megabatch backend its
    workers run — never the queue and store it dispatches through.
    """

    backend: str
    equipage: str = "both"
    coordination: bool = True
    config: Optional[EncounterSimConfig] = None
    table_bytes: Optional[bytes] = None
    table_path: Optional[str] = None

    @classmethod
    def capture(cls, backend: SimulationBackend) -> "BackendSpec":
        """Describe a registry-built backend so workers can rebuild it.

        Raises ``TypeError`` for backend instances that did not come
        from the registry (no ``name``/``table``/``config`` surface):
        such a backend cannot be described to another host, so it
        cannot be submitted to a fleet.
        """
        name = getattr(backend, "name", None)
        if name not in _REGISTRY:
            raise TypeError(
                f"cannot capture a spec for {type(backend).__name__}: "
                "not a registered backend"
            )
        missing = [
            attr
            for attr in ("equipage", "coordination", "config")
            if not hasattr(backend, attr)
        ]
        if missing:
            raise TypeError(
                f"cannot capture a spec for {type(backend).__name__}: "
                f"missing construction attributes {missing}"
            )
        table = getattr(backend, "table", None)
        return cls(
            backend=name,
            equipage=backend.equipage,
            coordination=backend.coordination,
            config=backend.config,
            table_bytes=table.to_bytes() if table is not None else None,
        )

    def build(self) -> SimulationBackend:
        """Construct the described backend (in the current process)."""
        if self.table_path is not None:
            table = LogicTable.load(Path(self.table_path))
        elif self.table_bytes is not None:
            table = LogicTable.from_bytes(self.table_bytes)
        else:
            table = None
        return make_backend(
            self.backend,
            table=table,
            config=self.config,
            equipage=self.equipage,
            coordination=self.coordination,
        )
