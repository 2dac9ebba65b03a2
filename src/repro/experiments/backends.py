"""Pluggable simulation backends behind a string-keyed registry.

The library simulates the N stochastic runs of an encounter in one of
two ways: the faithful agent-based engine (:func:`repro.sim.encounter.
run_encounter`, one Python-level simulation per run) and the megabatch
kernel (:class:`repro.sim.batch.BatchEncounterSimulator`, which
flattens whole *chunks of scenarios* into one lane array and produces
per-scenario results that do not depend on the chunking).  They trade
fidelity scrutiny for speed; dedicated tests keep them equivalent.

Each is one class that owns its whole setup (logic table, config,
equipage, coordination) and answers one call,
``run_many(params_list, num_runs, seeds)`` (:class:`SimulationBackend`).
Every consumer — campaigns, GA fitness, Monte-Carlo estimation, the
CLI — selects the trade-off with a single string (``"agent"``,
``"vectorized-batch"`` or ``"distributed"``) and reads what was
simulated from the backend it built.  ``"agent-svo"`` flies the
paper's other system under test, Selective Velocity Obstacle
avoidance, on the agent engine and takes no logic table.
``"vectorized"`` is a legacy alias of ``"vectorized-batch"`` that
keeps stored campaign ids naming it resolvable.  New backends register
under their own key and become available everywhere at once.  The
``"distributed"`` key builds a
:class:`~repro.distributed.backend.DistributedBackend` (imported
lazily, so importing this module stays cheap): the megabatch backend,
under its own name, plus the queue and store paths that make
``Campaign.run(backend="distributed")`` execute on an external worker
fleet — drained in-process when no fleet member is alive.

:class:`BackendSpec` is the fleet's wire format for a backend —
registry key, config, equipage, and the *digest* of its logic table —
stored in each queued job's row so a ``repro worker`` process, which
shares nothing with the submitter but the queue file, can rebuild the
backend once.  The table itself travels beside the spec: the queue
keeps one raw copy per digest, and a worker loads and checks it once
however many jobs name it.  Local process pools do not use a spec:
their workers receive the campaign's backend object itself.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.avoidance.svo import SelectiveVelocityObstacle
from repro.encounters.encoding import EncounterParameters
from repro.sim.batch import BatchEncounterSimulator, BatchResult
from repro.sim.encounter import (
    EQUIPAGES,
    EncounterSimConfig,
    check_equipage,
    make_acas_pair,
    run_encounter,
)
from repro.util.rng import SeedLike, as_seed_sequence


class SimulationBackend(Protocol):
    """Simulates the N stochastic runs of each of a chunk of encounters.

    A backend is constructed for a fixed setup — the attributes below,
    which is everything a campaign records about what it simulated —
    and then asked to simulate scenarios.  Per-run randomness derives
    from each scenario's own seed, so a scenario's result does not
    depend on which process runs it or which scenarios share its call.
    """

    #: Registry key of what the backend simulates, which campaign
    #: identity records (``"distributed"`` builds a megabatch backend).
    name: str
    table: Optional[LogicTable]
    config: EncounterSimConfig
    equipage: str
    coordination: bool

    def run_many(
        self,
        params_list: Sequence[EncounterParameters],
        num_runs: int,
        seeds: Sequence[SeedLike],
    ) -> List[BatchResult]:
        """*num_runs* runs of each scenario, ``params_list[s]`` seeded
        from ``seeds[s]``: one outcome per scenario, in input order."""
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
    equipage: Optional[str] = None,
    coordination: Optional[bool] = None,
    **options,
) -> SimulationBackend:
    """Resolve *spec* (a registry key or a ready backend) to a backend.

    A registry key is built with the given setup: *equipage* ``None``
    means ``"both"`` and *coordination* ``None`` means ``True``.  Extra
    keyword *options* are forwarded to the backend factory — the
    channel backend-specific settings travel through (e.g. the
    ``"distributed"`` backend's ``queue=``/``store=`` paths, which
    :class:`~repro.experiments.Campaign` exposes as
    ``backend_options=``).

    A ready backend owns its setup and is returned as is; a setup
    argument or option passed with it raises ``TypeError`` naming it.
    """
    if not isinstance(spec, str):
        setup = dict(
            table=table, config=config, equipage=equipage,
            coordination=coordination,
        )
        given = [name for name, value in setup.items() if value is not None]
        if given or options:
            raise TypeError(
                f"a ready {type(spec).__name__} owns its setup, so "
                f"{', '.join(given + sorted(options))} would be ignored; "
                "pass a registry key to build a backend with them"
            )
        return spec
    if spec not in _REGISTRY:
        known = ", ".join(available_backends())
        raise ValueError(f"unknown backend {spec!r} (available: {known})")
    return _REGISTRY[spec](
        table=table,
        config=config,
        equipage="both" if equipage is None else equipage,
        coordination=True if coordination is None else coordination,
        **options,
    )


@register_backend("agent")
class AgentBackend:
    """The faithful path: one agent-based simulation per stochastic run.

    Each run gets a fresh avoidance pair (stateful controllers never
    leak between runs) and an independent child of its scenario's seed
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
        check_equipage(equipage, table)
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

    def run_many(
        self,
        params_list: Sequence[EncounterParameters],
        num_runs: int,
        seeds: Sequence[SeedLike],
    ) -> List[BatchResult]:
        """Simulate the scenarios one after another, run by run.

        Run ``i`` of scenario ``s`` is seeded from the ``i``-th child
        that ``seeds[s]`` spawns.
        """
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        return [
            self._scenario_runs(params, num_runs, seed)
            for params, seed in zip(params_list, seeds, strict=True)
        ]

    def _scenario_runs(
        self, params: EncounterParameters, num_runs: int, seed: SeedLike
    ) -> BatchResult:
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


@register_backend("agent-svo")
class SvoAgentBackend(AgentBackend):
    """The agent engine flying Selective Velocity Obstacle avoidance.

    The paper's precursor study (its ref [7]) ran the same GA search
    against SVO.  Each equipped aircraft gets a fresh
    :class:`~repro.avoidance.svo.SelectiveVelocityObstacle` per run.
    SVO is geometric and reads no logic table, so passing one raises
    ``ValueError``.  *coordination* enters the campaign id but changes
    no bit: SVO aircraft pick compatible turns by convention, without
    exchanging senses.
    """

    name = "agent-svo"

    def __init__(
        self,
        table: Optional[LogicTable] = None,
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
    ):
        if table is not None:
            raise ValueError(
                f"backend {self.name!r} flies Selective Velocity Obstacle "
                "avoidance, which reads no logic table; pass none"
            )
        if equipage not in EQUIPAGES:
            raise ValueError(
                f"unknown equipage {equipage!r} "
                f"(use one of {', '.join(EQUIPAGES)})"
            )
        self.table = None
        self.config = config or EncounterSimConfig()
        self.equipage = equipage
        self.coordination = coordination

    def _make_pair(self):
        own = None if self.equipage == "none" else SelectiveVelocityObstacle()
        intruder = (
            SelectiveVelocityObstacle() if self.equipage == "both" else None
        )
        return own, intruder


# The megabatch kernel is the "vectorized-batch" backend itself.
register_backend("vectorized-batch")(BatchEncounterSimulator)


@register_backend("vectorized")
class VectorizedBackend(BatchEncounterSimulator):
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
    registry key, the plain-dataclass config/equipage settings, and
    names the table by its :func:`~repro.store.spec.table_digest` —
    the digest every campaign id already hashes.  The spec never holds
    the table's bytes: the queue stores
    each table once per digest, so a pickled spec is about a kilobyte
    and equal for every campaign on one table.  Each fleet worker
    rebuilds its backend **once** per distinct spec and reuses it for
    every chunk it executes.  (``Campaign.run(workers=N)`` does not go
    through a spec: its pool workers receive the backend object
    itself.)

    A spec names the backend by its ``name``, so capturing the
    ``"distributed"`` backend describes the plain megabatch backend its
    workers run — never the queue and store it dispatches through.
    """

    backend: str
    equipage: str = "both"
    coordination: bool = True
    config: Optional[EncounterSimConfig] = None
    table_digest: Optional[str] = None

    @staticmethod
    def validate(backend: SimulationBackend) -> None:
        """Raise ``TypeError`` unless :meth:`capture` can describe *backend*.

        A backend instance that did not come from the registry (no
        ``name``/``table``/``config`` surface) cannot be described to
        another host, so it cannot be submitted to a fleet.
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

    @classmethod
    def capture(cls, backend: SimulationBackend) -> "BackendSpec":
        """Describe a registry-built backend so workers can rebuild it.

        The table's digest is :func:`~repro.store.spec.table_digest`,
        which hashes each table once (a campaign's plan has usually
        hashed it already, for the campaign id).  Raises ``TypeError``
        as :meth:`validate` does.
        """
        from repro.store.spec import table_digest

        cls.validate(backend)
        return cls(
            backend=backend.name,
            equipage=backend.equipage,
            coordination=backend.coordination,
            config=backend.config,
            table_digest=table_digest(getattr(backend, "table", None)),
        )

    def build(self, table: Optional[LogicTable] = None) -> SimulationBackend:
        """Construct the described backend (in the current process).

        *table* is the table the spec's ``table_digest`` names, already
        resolved by the caller (a fleet worker reads it from its queue
        and checks its digest).
        """
        if table is None and self.table_digest is not None:
            raise ValueError(
                f"this spec names logic table {self.table_digest[:12]}; "
                "pass that table to build()"
            )
        return make_backend(
            self.backend,
            table=table,
            config=self.config,
            equipage=self.equipage,
            coordination=self.coordination,
        )
