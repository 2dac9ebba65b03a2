"""Declarative simulation campaigns with deterministic parallel fan-out.

A :class:`Campaign` is the paper's validation workflow as one object:
*scenarios* (any :mod:`~repro.experiments.scenario` source) × a
*backend* (registry key) × *equipage/coordination* × *runs per
scenario*.  Running it produces a :class:`ResultSet` of per-scenario
:class:`RunRecord`s carrying the NMAC / separation / alert aggregates
every pipeline in the library reports, with JSON and CSV export.

Determinism is the load-bearing property: the campaign's root seed is
expanded with ``SeedSequence.spawn`` into one child per scenario before
any simulation starts, so the result is bitwise identical whether the
scenarios execute serially (``workers=1``), fan out across a
:class:`WorkerPool` of processes, run as megabatch chunks (the
``"vectorized-batch"`` backend flattens whole chunks of scenarios into
one lane array), or stream incrementally through
:meth:`Campaign.iter_records`.

:class:`WorkerPool` is the one process-pool path.  Each worker
receives the pool's backends once, through the pool initializer:
fork-started workers inherit them, logic table and all, without copying
or encoding anything, and spawn-started ones unpickle them once.
``run(workers=N)`` opens a one-shot pool for the call; a caller that
runs many campaigns keeps a pool warm across them with
``run(pool=...)``, which is how a GA search runs every generation on
every CPU (:class:`~repro.search.fitness.EncounterFitness`).  One pool
may hold several backends, each task naming its own, so paired
campaigns (equipped and unequipped arms) share one pool.

Every campaign is planned once and streamed one way.  The planner
(:meth:`Campaign._plan`) fixes the scenario list, the per-scenario
seeds and the chunks, holds every chunk to the noise-tape budget, and,
given a result store, registers the campaign under its
content-addressed provenance hash (:mod:`repro.store`) and leaves out
the scenarios already stored.  The one record stream simulates the
missing chunks, merges the stored records in by index, and writes the
fresh records and the campaign's timing provenance to the store.
``run`` collects that stream and ``iter_records`` returns it; the fleet
coordinator and the campaign service plan through the same planner, so
every entry point agrees on a campaign's id and bits.
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import telemetry
from repro.acasx.logic_table import LogicTable
from repro.encounters.encoding import EncounterParameters
from repro.experiments.backends import SimulationBackend, make_backend
from repro.experiments.scenario import (
    Scenario,
    as_scenario_source,
    source_from_spec,
)
from repro.sim.batch import (
    BatchEncounterSimulator,
    BatchResult,
    check_tape_budget,
)
from repro.sim.encounter import EncounterSimConfig
from repro.util.rng import SeedLike, as_seed_sequence

if TYPE_CHECKING:  # import cycle: repro.store persists these classes
    from repro.store import ResultStore

#: CSV column order of :meth:`ResultSet.to_csv`.
CSV_FIELDS: Tuple[str, ...] = (
    "index",
    "name",
    "num_runs",
    "nmac_rate",
    "mean_min_separation",
    "min_separation",
    "min_horizontal",
    "own_alert_rate",
    "intruder_alert_rate",
)


@dataclass
class RunRecord:
    """One scenario's simulated outcome: per-run arrays + aggregates."""

    index: int
    name: str
    params: EncounterParameters
    runs: BatchResult

    @property
    def num_runs(self) -> int:
        """Stochastic runs simulated for this scenario."""
        return self.runs.num_runs

    @property
    def nmac_rate(self) -> float:
        """Fraction of runs that entered the NMAC cylinder."""
        return self.runs.nmac_rate

    @property
    def mean_min_separation(self) -> float:
        """Mean over runs of the per-run minimum 3-D separation (m)."""
        return float(self.runs.min_separation.mean())

    @property
    def min_separation(self) -> float:
        """Worst (smallest) minimum separation across runs (m)."""
        return float(self.runs.min_separation.min())

    @property
    def min_horizontal(self) -> float:
        """Worst minimum horizontal separation across runs (m)."""
        return float(self.runs.min_horizontal.min())

    @property
    def own_alert_rate(self) -> float:
        """Fraction of runs in which the own-ship alerted."""
        return float(self.runs.own_alerted.mean())

    @property
    def intruder_alert_rate(self) -> float:
        """Fraction of runs in which the intruder alerted."""
        return float(self.runs.intruder_alerted.mean())

    def to_dict(self, include_genome: bool = True) -> Dict[str, object]:
        """Aggregates (and optionally the genome) as plain JSON types."""
        row: Dict[str, object] = {f: getattr(self, f) for f in CSV_FIELDS}
        if include_genome:
            row["genome"] = self.params.as_array().tolist()
        return row


@dataclass
class ResultSet:
    """Everything one campaign run produced, plus its provenance."""

    records: List[RunRecord]
    backend: str
    equipage: str
    coordination: bool
    runs_per_scenario: int
    seed_entropy: Optional[int] = None
    workers: int = 1
    wall_time: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RunRecord:
        return self.records[index]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_runs(self) -> int:
        """Simulated runs across all scenarios."""
        return sum(record.num_runs for record in self.records)

    @property
    def nmac_count(self) -> int:
        """Runs that ended in an NMAC, across all scenarios."""
        return int(sum(record.runs.nmac.sum() for record in self.records))

    @property
    def nmac_rate(self) -> float:
        """Overall fraction of runs ending in an NMAC."""
        return self.nmac_count / self.total_runs

    @property
    def alert_rate(self) -> float:
        """Overall fraction of runs in which the own-ship alerted."""
        alerts = sum(record.runs.own_alerted.sum() for record in self.records)
        return float(alerts) / self.total_runs

    def min_separations(self) -> np.ndarray:
        """Per-run minimum separations across all scenarios, concatenated."""
        return np.concatenate(
            [record.runs.min_separation for record in self.records]
        )

    def worst(self) -> RunRecord:
        """The scenario with the smallest minimum separation."""
        return min(self.records, key=lambda record: record.min_separation)

    def aggregates(self) -> Dict[str, object]:
        """Campaign-level aggregate metrics as plain JSON types."""
        return {
            "scenarios": len(self.records),
            "total_runs": self.total_runs,
            "nmac_count": self.nmac_count,
            "nmac_rate": self.nmac_rate,
            "alert_rate": self.alert_rate,
            "mean_min_separation": float(self.min_separations().mean()),
            "worst_min_separation": self.worst().min_separation,
            "wall_time": self.wall_time,
        }

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        worst = self.worst()
        lines = [
            f"campaign: {len(self.records)} scenarios x "
            f"{self.runs_per_scenario} runs "
            f"[backend={self.backend} equipage={self.equipage} "
            f"coordination={self.coordination} workers={self.workers}]",
            f"NMAC: {self.nmac_count}/{self.total_runs} "
            f"(rate {self.nmac_rate:.4f})",
            f"alert rate: {self.alert_rate:.4f}",
            f"mean min separation: {self.min_separations().mean():.1f} m",
            f"worst scenario: {worst.name} "
            f"(min separation {worst.min_separation:.1f} m, "
            f"NMAC rate {worst.nmac_rate:.2f})",
            f"wall time: {self.wall_time:.2f}s",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(
        self, path: Union[str, Path], include_genomes: bool = True
    ) -> Path:
        """Write provenance, aggregates, and per-scenario rows as JSON.

        ``seed_entropy`` is written as a decimal *string*:
        ``SeedSequence`` entropy is typically a 128-bit int, far beyond
        the 2^53 float precision any non-Python JSON reader (or a
        float-coercing round trip) would silently truncate it to — and
        a truncated entropy can no longer reproduce the campaign.  Use
        :meth:`parse_seed_entropy` to read it back.
        """
        path = Path(path)
        payload = {
            "backend": self.backend,
            "equipage": self.equipage,
            "coordination": self.coordination,
            "runs_per_scenario": self.runs_per_scenario,
            "seed_entropy": (
                None if self.seed_entropy is None else str(self.seed_entropy)
            ),
            "workers": self.workers,
            "metadata": self.metadata,
            "aggregates": self.aggregates(),
            "scenarios": [
                record.to_dict(include_genome=include_genomes)
                for record in self.records
            ],
        }
        path.write_text(json.dumps(payload, indent=2))
        return path

    @staticmethod
    def parse_seed_entropy(value: Union[str, int, None]) -> Optional[int]:
        """Read an exported ``seed_entropy`` back to an exact int.

        Accepts the current decimal-string encoding, legacy int
        exports, and ``None``.  Floats are rejected rather than
        rounded: a float-coerced entropy is already corrupt.
        """
        if value is None:
            return None
        if isinstance(value, float):
            raise TypeError(
                "seed_entropy went through float and may have lost "
                "precision; re-export from the store"
            )
        return int(value)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write one aggregate row per scenario as CSV."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
            writer.writeheader()
            for record in self.records:
                writer.writerow(record.to_dict(include_genome=False))
        return path


#: Target lanes (scenarios × runs) per megabatch chunk: large enough to
#: amortize Python stepping overhead, small enough to keep the flattened
#: state and noise arrays comfortably in memory (an equipped chunk of
#: this width peaks at about 20 MB, 11.5 MB of it the noise window; the
#: window is 22 MB with horizontal disturbance on).
DEFAULT_CHUNK_LANES = 8192

#: Wire-format caps (:meth:`Campaign.from_spec` and the service): runs
#: per scenario, and lanes (``chunk_size × runs``) in one kernel call.
#: Library callers building a :class:`Campaign` directly are not capped.
MAX_WIRE_RUNS = 10_000
MAX_WIRE_LANES = 4 * DEFAULT_CHUNK_LANES

#: One task chunk: (scenario index, parameters, per-scenario seed).
WorkChunk = List[Tuple[int, EncounterParameters, np.random.SeedSequence]]


def _execute_chunk(
    backend: SimulationBackend,
    num_runs: int,
    chunk: WorkChunk,
) -> List[Tuple[int, BatchResult]]:
    """Simulate one chunk of (index, params, seed) on *backend*.

    The whole chunk is one ``run_many`` call, whatever the backend.
    Each scenario's result derives only from its own seed, so chunk
    boundaries cannot change any output bit.

    An empty chunk (a fully-stored resume's missing tail) short-circuits
    to no outcomes instead of reaching a backend that rejects empty
    batches.
    """
    if not chunk:
        return []
    indices, params_list, seeds = zip(*chunk)
    return list(zip(indices, backend.run_many(params_list, num_runs, seeds)))


def _default_chunk_size(
    backend: SimulationBackend, num_runs: int, num_scenarios: int, workers: int
) -> int:
    """Scenarios per chunk when the caller does not pin a size.

    The megabatch kernel (:class:`BatchEncounterSimulator` and the
    backends built on it) wants wide chunks, bounded by
    :data:`DEFAULT_CHUNK_LANES` lanes and split so every worker gets
    work.  The agent engine simulates scenario by scenario anyway, so
    it gets single-scenario chunks, which give the pool fine-grained
    load balancing.
    """
    if not isinstance(backend, BatchEncounterSimulator):
        return 1
    by_lanes = max(1, DEFAULT_CHUNK_LANES // max(1, num_runs))
    by_workers = -(-num_scenarios // workers)  # ceil div
    return max(1, min(by_lanes, by_workers))


def _run_chunk(
    backend: SimulationBackend,
    num_runs: int,
    chunk_index: int,
    chunk: WorkChunk,
) -> List[Tuple[int, BatchResult]]:
    """:func:`_execute_chunk` inside its ``campaign.chunk`` span.

    The one chunk step of the serial loop and of pool workers alike, so
    a traced campaign has the same span shape on both paths (the
    kernel's ``kernel.*`` phase spans nest under the chunk span).
    """
    with telemetry.span(
        "campaign.chunk", chunk_index=chunk_index, scenarios=len(chunk)
    ):
        return _execute_chunk(backend, num_runs, chunk)


# Per-process backends set by the pool initializer: each worker receives
# the pool's backends once, not once per task.
_WORKER_BACKENDS: Tuple[SimulationBackend, ...] = ()


def _init_worker(backends: Tuple[SimulationBackend, ...]) -> None:
    """Pool initializer: keep the pool's backends for every task.

    Under ``fork`` (the Linux default before Python 3.14) *backends*
    are the parent's own objects, inherited with the process; under
    ``spawn``/``forkserver`` they arrive pickled once per worker
    (numpy's raw array pickling for the logic table).
    """
    global _WORKER_BACKENDS
    _WORKER_BACKENDS = backends


def _task_trace() -> Optional[Dict[str, str]]:
    """The trace context a pool task carries (``None`` when untraced).

    Its parent is the span open at submission (a ``campaign.run``), not
    the trace's root, so a pooled chunk sits where the serial loop would
    put it.
    """
    context = telemetry.trace_context()
    current = telemetry.current_span()
    if context is not None and current is not None:
        context["parent_id"] = current.span_id
    return context


def _worker_execute_chunk(
    backend_index: int,
    num_runs: int,
    chunk_index: int,
    chunk: WorkChunk,
    trace: Optional[Dict[str, str]],
) -> List[Tuple[int, BatchResult]]:
    """Worker task entry point: run one chunk on the per-process backend
    at *backend_index* of the pool's backends.

    *trace* is the submitter's :func:`_task_trace`.  The worker joins
    that trace as a ``pool:<pid>`` process and seats this chunk's span
    under the parent the task names: a warm pool serves many campaigns,
    so the parent must come with each task, never from whichever task
    armed the worker first.  A task without a context records nothing.
    """
    assert _WORKER_BACKENDS, "worker pool not initialized"
    if trace is None:
        if telemetry.armed():
            telemetry.disarm()
    else:
        telemetry.ensure(
            trace["db"], trace["trace_id"], process=f"pool:{os.getpid()}"
        ).remote_parent = trace["parent_id"]
    return _run_chunk(
        _WORKER_BACKENDS[backend_index], num_runs, chunk_index, chunk
    )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (so ``taskset`` and cpusets count), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_pool_size(
    backend: SimulationBackend, num_runs: int, num_scenarios: int
) -> int:
    """Processes worth starting for campaigns of *num_scenarios*.

    ``min(usable CPUs, chunks in the default plan at that width)``:
    every chunk gets a process and no process idles.  ``1`` means run
    serially, in-process.
    """
    cpus = usable_cpus()
    chunk = _default_chunk_size(backend, num_runs, num_scenarios, cpus)
    return min(cpus, -(-num_scenarios // chunk))


class WorkerPool:
    """A process pool whose workers each hold the same simulation backends.

    The one process-parallel path of :class:`Campaign`:
    ``run(workers=N)`` opens a one-shot pool for its call, and a caller
    that runs many campaigns keeps a pool open across them
    (``run(pool=...)``), so only the first campaign pays for process
    start-up and each worker's first touch of the logic table.  The
    pool holds every backend its campaigns simulate with (*backends*,
    a sequence of ready backends) and each task names its own, so the
    equipped and unequipped arms of a paired estimate share one pool.
    Results are bitwise identical to a serial run whichever way.

    Use it as a context manager (or call :meth:`close`): leaving the
    block shuts the pool down and reaps its processes.  A pool whose
    process died is broken: the next campaign on it raises
    ``concurrent.futures.process.BrokenProcessPool`` at once.
    """

    def __init__(self, backends: Sequence[SimulationBackend], workers: int):
        self.backends = tuple(backends)
        self.workers = workers
        # The backends travel once per process, through the initializer;
        # processes start with the first task.
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.backends,),
        )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Cancel queued chunks, stop the processes and reap them."""
        self._executor.shutdown(wait=True, cancel_futures=True)

    def run_chunks(
        self, backend: SimulationBackend, num_runs: int,
        chunks: List[WorkChunk],
    ) -> Iterator[List[Tuple[int, BatchResult]]]:
        """Simulate *chunks* on the pool's *backend*, yielding outcomes
        in order.

        Only a bounded window of chunks is in flight, so a slow consumer
        of the stream does not accumulate every finished chunk's results
        in memory.
        """
        index = next(
            i for i, held in enumerate(self.backends) if held is backend
        )
        trace = _task_trace()

        def submit(chunk_index, chunk):
            return self._executor.submit(
                _worker_execute_chunk, index, num_runs, chunk_index, chunk,
                trace,
            )

        chunk_iter = enumerate(chunks)
        pending = deque(
            submit(*item) for item in islice(chunk_iter, self.workers + 1)
        )
        try:
            while pending:
                outcomes = pending.popleft().result()
                pending.extend(submit(*item) for item in islice(chunk_iter, 1))
                yield outcomes
        finally:
            # An abandoned stream must not leave its chunks queued ahead
            # of the next campaign's.
            for future in pending:
                future.cancel()


class Campaign:
    """A declarative validation campaign: scenarios × backend × runs.

    Parameters
    ----------
    scenarios:
        Anything :func:`~repro.experiments.scenario.as_scenario_source`
        accepts — a source object, preset name(s), parameters, genomes.
    backend:
        Registry key (``"agent"``, ``"vectorized-batch"`` or
        ``"distributed"``) or a ready :class:`SimulationBackend`
        instance.  The backend owns the simulation's setup: a ready
        one brings its own, and passing *table*, *equipage*,
        *coordination*, *sim_config* or *backend_options* with it
        raises ``TypeError``.
    table:
        Logic table for equipped aircraft (``None`` only with
        ``equipage='none'``).
    equipage:
        ``'both'`` (the default), ``'own-only'`` or ``'none'``.
    coordination:
        Whether two equipped aircraft exchange maneuver senses
        (default ``True``).
    runs_per_scenario:
        Stochastic simulation runs per scenario (the paper uses 100).
    sim_config:
        Simulation configuration shared by every run.
    backend_options:
        Extra keyword arguments for the backend factory — how
        backend-specific settings travel through the registry.  The
        ``"distributed"`` backend takes its ``queue``/``store`` paths
        here (``backend="distributed",
        backend_options={"queue": "q.sqlite", "store": "s.sqlite"}``).

    :attr:`equipage` and :attr:`coordination` are read from the
    backend, so a campaign's id and its :class:`ResultSet` always name
    what was simulated.

    A campaign has one planner and one record stream: :meth:`run`
    collects the stream :meth:`iter_records` returns, with or without
    a store, serially or on a pool, and :meth:`submit` (the fleet
    coordinator) and the campaign service enqueue or run the same
    plan.
    """

    def __init__(
        self,
        scenarios,
        backend: Union[str, SimulationBackend] = "vectorized-batch",
        table: Optional[LogicTable] = None,
        equipage: Optional[str] = None,
        coordination: Optional[bool] = None,
        runs_per_scenario: int = 100,
        sim_config: EncounterSimConfig | None = None,
        backend_options: Optional[Dict[str, object]] = None,
    ):
        if runs_per_scenario < 1:
            raise ValueError("runs_per_scenario must be >= 1")
        self.source = as_scenario_source(scenarios)
        self.backend = make_backend(
            backend,
            table=table,
            config=sim_config,
            equipage=equipage,
            coordination=coordination,
            **(backend_options or {}),
        )
        # The fleet backend keeps the megabatch name, so a distributed
        # campaign shares its identity with the in-process twin.
        self.backend_name = getattr(
            self.backend, "name", type(self.backend).__name__
        )
        self.runs_per_scenario = runs_per_scenario

    @property
    def equipage(self) -> str:
        """The backend's equipage: ``'both'``, ``'own-only'`` or ``'none'``."""
        return self.backend.equipage

    @property
    def coordination(self) -> bool:
        """Whether the backend's equipped aircraft exchange senses."""
        return self.backend.coordination

    #: Keys a plain-JSON campaign spec may carry (:meth:`from_spec`).
    SPEC_KEYS = frozenset(
        {"scenarios", "backend", "equipage", "coordination", "runs"}
    )

    @classmethod
    def from_spec(
        cls,
        spec: Dict[str, object],
        table: Optional[LogicTable] = None,
        sim_config: EncounterSimConfig | None = None,
        ignore: frozenset = frozenset(),
    ) -> "Campaign":
        """Build a campaign from a plain-JSON specification.

        The wire format of the campaign service (``POST /campaigns``)
        and of scripted submissions: ``{"scenarios": ..., "backend":
        ..., "equipage": ..., "coordination": ..., "runs": ...}`` with
        every key optional except ``scenarios`` (see
        :func:`~repro.experiments.scenario.source_from_spec` for the
        scenario forms).  Unknown keys are rejected (typos must not
        silently run a different campaign than the one described);
        callers that wrap the spec in a larger envelope list their own
        keys in *ignore*.  Malformed specs raise ``ValueError`` with a
        one-line diagnosis, as do specs over the wire-format caps
        (:data:`MAX_WIRE_RUNS`, and
        :data:`~repro.experiments.scenario.MAX_WIRE_SAMPLE` on
        ``{"sample": N}``).
        """
        if not isinstance(spec, dict):
            raise ValueError(
                f"campaign spec must be an object, got {type(spec).__name__}"
            )
        unknown = set(spec) - cls.SPEC_KEYS - ignore
        if unknown:
            raise ValueError(
                f"unknown campaign-spec keys {sorted(unknown)} "
                f"(expected {sorted(cls.SPEC_KEYS)})"
            )
        if "scenarios" not in spec:
            raise ValueError('campaign spec needs a "scenarios" entry')
        runs = spec.get("runs", 100)
        if not isinstance(runs, int) or isinstance(runs, bool) or runs < 1:
            raise ValueError(f'"runs" must be a positive integer, got {runs!r}')
        if runs > MAX_WIRE_RUNS:
            raise ValueError(
                f'"runs" must be at most MAX_WIRE_RUNS = {MAX_WIRE_RUNS}, '
                f"got {runs}"
            )
        backend = spec.get("backend", "vectorized-batch")
        if not isinstance(backend, str):
            raise ValueError(f'"backend" must be a registry key, got {backend!r}')
        coordination = spec.get("coordination", True)
        if not isinstance(coordination, bool):
            raise ValueError(
                f'"coordination" must be a boolean, got {coordination!r}'
            )
        try:
            return cls(
                source_from_spec(spec["scenarios"]),
                backend=backend,
                table=table,
                equipage=spec.get("equipage", "both" if table else "none"),
                coordination=coordination,
                runs_per_scenario=runs,
                sim_config=sim_config,
            )
        except (TypeError, ValueError) as error:
            raise ValueError(str(error)) from None

    def iter_records(
        self,
        seed: SeedLike = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        store: Optional["ResultStore"] = None,
    ) -> Iterator[RunRecord]:
        """Stream :class:`RunRecord`\\ s chunk by chunk, in index order.

        The campaign's one record stream, which :meth:`run` collects:
        the plan is fixed at the call (so invalid arguments and an
        over-budget chunk fail here, not at first iteration), then
        scenario chunks are simulated one after another (or fanned out
        across a worker pool with a bounded number of chunks in
        flight) and their records yielded as they complete, without
        materializing the full list — the shape very large campaigns
        need.  Seeds are spawned per scenario before any simulation
        starts, so the records are bitwise identical to :meth:`run`'s
        for the same root seed, whatever the chunking or worker count.

        Parameters
        ----------
        seed:
            Root seed; everything (scenario sampling and every
            simulation run) derives from it deterministically.
        workers:
            ``1`` simulates in-process; ``>1`` fans chunks out across a
            one-shot :class:`WorkerPool` whose workers each receive the
            campaign's backend once, at start-up.
        chunk_size:
            Scenarios per execution chunk, each simulated by one
            ``run_many`` call.  Default: a megabatch-sized chunk on the
            megabatch kernel, one scenario per chunk on the agent
            engine.
        store:
            Optional :class:`~repro.store.ResultStore` to write
            through, exactly as :meth:`run` does: the campaign is
            registered under its content-addressed provenance hash;
            scenarios the store already holds for that hash are
            *loaded instead of simulated* (resume), every fresh record
            is persisted before it is yielded (so an interrupted stream
            keeps its progress), and a stream that simulated anything
            records its wall time, ``cpu_count`` and ``workers`` once
            it is exhausted.  The yielded sequence — stored and fresh
            records merged in index order — is bitwise identical to a
            storeless run of the same seed.

        A campaign built with ``backend="distributed"`` executes on its
        fleet and iterates the *collected* result — the full campaign
        completes (and is held in memory) before the first record is
        yielded.  For bounded-memory streaming of very large campaigns,
        use an in-process backend.
        """
        if hasattr(self.backend, "run_campaign"):  # "distributed" backend
            return iter(self.run(seed, chunk_size=chunk_size, store=store))
        return self._stream(self._plan(seed, workers, chunk_size, store))

    def _plan(
        self,
        seed: SeedLike,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        store: Optional["ResultStore"] = None,
    ) -> "CampaignPlan":
        """Validate arguments and fix the campaign's work, eagerly.

        The one planner: :meth:`run`, :meth:`iter_records`, the fleet
        coordinator and the service all plan here, so every entry
        point spawns the same per-scenario seeds, chunks alike and
        derives the same content-addressed campaign id.  Every chunk
        is held to the kernel's noise-tape budget
        (:data:`~repro.sim.batch.MAX_TAPE_BYTES`, whatever the backend)
        before anything reaches a store or a queue, so an absurd
        request is a ``ValueError`` here rather than a chunk that fails
        wherever it runs.

        With *store*, the campaign is registered under its id — the
        root seed sequence is fingerprinted *before* anything spawns
        from it — and the scenarios the store already holds leave the
        chunks.  The plan's worker count is *workers* clamped to the
        chunk count (the parallelism actually usable).
        """
        from repro.store import CampaignSpec, seed_fingerprint

        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        root = as_seed_sequence(seed)
        # The full sequence, not just its entropy: spawned children
        # share entropy and differ only in spawn_key, and each must be
        # its own campaign.
        seed_fp = None if store is None else seed_fingerprint(root)
        sample_seq, run_seq = root.spawn(2)
        scenario_list = self.source.scenarios(
            seed=np.random.default_rng(sample_seq)
        )
        if not scenario_list:
            raise ValueError("scenario source produced no scenarios")
        children = run_seq.spawn(len(scenario_list))

        work = [
            (i, scenario.params, child)
            for i, (scenario, child) in enumerate(zip(scenario_list, children))
        ]
        if chunk_size is None:
            chunk_size = _default_chunk_size(
                self.backend, self.runs_per_scenario, len(work), workers
            )
        chunks = [
            work[start:start + chunk_size]
            for start in range(0, len(work), chunk_size)
        ]
        for chunk in chunks:
            check_tape_budget(
                self.backend.config,
                self.equipage,
                [params for _, params, _ in chunk],
                self.runs_per_scenario,
            )
        campaign_id, done = None, set()
        if store is not None:
            spec = CampaignSpec.capture(
                self, scenario_list, root, seed_fp=seed_fp
            )
            campaign_id = store.open_campaign(spec)
            done = store.completed_indices(campaign_id)
        missing = [
            remaining
            for chunk in chunks
            if (remaining := [item for item in chunk if item[0] not in done])
        ]
        return CampaignPlan(
            seed=root,
            scenarios=scenario_list,
            chunks=missing,
            workers=min(workers, len(chunks)),
            store=store,
            campaign_id=campaign_id,
            done=tuple(sorted(done)),
        )

    def _stream(
        self, plan: "CampaignPlan", pool: Optional[WorkerPool] = None
    ) -> Iterator[RunRecord]:
        """Simulate *plan*'s chunks; yield every record in index order.

        One usable worker simulates in-process; more run the chunks on
        *pool*, or on a one-shot :class:`WorkerPool` when there is
        none.  Against a store, the stored records merge in by index
        (both sides ascend, so a two-way merge keeps index order; they
        are fetched by point lookup, never a cursor held across our own
        inserts), and every fresh record is persisted before it is
        yielded.  Once exhausted, a stream that simulated anything adds
        its wall time and ``cpu_count`` to the campaign's timing
        provenance and records its ``workers``; a pure-load resume
        must not inflate the stored timing, so it adds nothing.
        """
        workers = min(plan.workers, len(plan.chunks))
        if workers > 1 and pool is None:
            with WorkerPool([self.backend], workers) as one_shot:
                yield from self._stream(plan, one_shot)
            return
        start = time.perf_counter()
        if workers > 1:
            outcomes = pool.run_chunks(
                self.backend, self.runs_per_scenario, plan.chunks
            )
        else:
            outcomes = (
                _run_chunk(self.backend, self.runs_per_scenario, index, chunk)
                for index, chunk in enumerate(plan.chunks)
            )
        store, done = plan.store, deque(plan.done)

        def stored_upto(bound: Optional[int]) -> Iterator[RunRecord]:
            while done and (bound is None or done[0] < bound):
                record = store.get_record(plan.campaign_id, done.popleft())
                assert record is not None, "stored record vanished mid-run"
                yield record

        for outcome in outcomes:
            for index, result in outcome:
                yield from stored_upto(index)
                scenario = plan.scenarios[index]
                record = RunRecord(
                    index=index,
                    name=scenario.name,
                    params=scenario.params,
                    runs=result,
                )
                if store is not None:
                    store.add_record(plan.campaign_id, record)
                yield record
        yield from stored_upto(None)
        if store is not None and plan.chunks:
            store.add_wall_time(
                plan.campaign_id,
                time.perf_counter() - start,
                cpu_count=usable_cpus(),
            )
            store.merge_metadata(plan.campaign_id, {"workers": workers})

    def run(
        self,
        seed: SeedLike = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        store: Optional["ResultStore"] = None,
        pool: Optional[WorkerPool] = None,
    ) -> ResultSet:
        """Execute the campaign and aggregate a :class:`ResultSet`.

        Collects the record stream :meth:`iter_records` returns — same
        parameters, same plan, same determinism guarantee (the result
        is bitwise identical for any ``workers``/``chunk_size`` given
        the same root seed), and with a *store* the same resume and
        the same timing provenance.

        *pool* runs the plan on an open :class:`WorkerPool` instead of
        starting one, with or without a *store*; the plan is sized for
        ``pool.workers``.  The pool must hold this campaign's backend
        object among its backends (its processes simulate with the
        backends they were given, so any other would return wrong bits
        without an error), and ``workers`` must stay 1: both are
        ``ValueError``.

        With a *store*, the campaign resumes: scenarios already
        persisted under the same provenance hash load from the store
        and only the missing tail simulates (a completed campaign
        re-runs with **zero** new simulations).  The returned result
        merges both, bitwise identical to an uninterrupted storeless
        run; its metadata records ``campaign_id`` and how many
        scenarios were ``loaded`` vs freshly ``simulated``.  Every
        result's metadata carries ``cpu_count``, the CPUs the process
        may use (:func:`usable_cpus`).

        With ``backend="distributed"`` the campaign runs on a worker
        fleet instead (``workers`` and ``pool`` are ignored — the fleet
        is the parallelism) and is collected from the fleet's store,
        bitwise identical to the in-process run.

        Where the time went is a trace question: run with tracing armed
        (``telemetry.collect(db)``, or ``repro campaign --trace``) and
        every chunk span carries the megabatch kernel's phase split as
        ``kernel.tape_draw`` / ``kernel.decision`` / ``kernel.physics``
        / ``kernel.observe`` children — serially, in a worker pool, or
        on a fleet — with results bitwise identical to an untraced run.
        """
        if pool is not None:
            if not any(held is self.backend for held in pool.backends):
                raise ValueError(
                    "pool= was built for a different backend: its "
                    "processes would simulate with that backend's table"
                )
            if workers != 1:
                raise ValueError("pass workers= or pool=, not both")
            workers = pool.workers
        if hasattr(self.backend, "run_campaign"):  # "distributed" backend
            # A fleet-native backend owns the whole submit → wait →
            # collect cycle (its queue/store paths were fixed at
            # construction); workers= and pool= are ignored — the
            # external fleet is the parallelism.
            self._check_backend_store(store)
            return self.backend.run_campaign(
                self, seed=seed, chunk_size=chunk_size
            )
        plan = self._plan(seed, workers, chunk_size, store)
        return self._run_plan(plan, pool)

    def _run_plan(
        self, plan: "CampaignPlan", pool: Optional[WorkerPool] = None
    ) -> ResultSet:
        """Collect *plan*'s stream into a :class:`ResultSet`.

        The stream runs inside one ``campaign.run`` span, opened with
        the campaign id (when stored) so every chunk span inherits it.
        """
        start = time.perf_counter()
        with telemetry.span(
            "campaign.run", backend=self.backend_name,
            scenarios=len(plan.scenarios), workers=plan.workers,
            **plan.provenance,
        ):
            records = list(self._stream(plan, pool))
        return ResultSet(
            records=records,
            backend=self.backend_name,
            equipage=self.equipage,
            coordination=self.coordination,
            runs_per_scenario=self.runs_per_scenario,
            seed_entropy=_entropy_of(plan.seed),
            workers=plan.workers,
            wall_time=time.perf_counter() - start,
            metadata={"cpu_count": usable_cpus(), **plan.provenance},
        )

    def _check_backend_store(self, store) -> None:
        """Reject a ``store=`` that conflicts with a fleet backend.

        A fleet-native backend binds its own result store; a plain
        :class:`~repro.store.ResultStore` pointed at the *same* file is
        harmless (the results land there regardless), but a different
        path would silently split the campaign across two stores.
        """
        if store is None:
            return
        path = getattr(store, "path", None)
        if path is not None and path != ":memory:" and (
            os.path.abspath(path) == self.backend.store_path
        ):
            return
        raise ValueError(
            "backend='distributed' already binds its result store "
            f"({self.backend.store_path}); drop store= or point it at "
            "the same path"
        )

    def submit(
        self,
        seed: SeedLike = None,
        *,
        queue=None,
        store=None,
        chunk_size: Optional[int] = None,
        metadata: Optional[Dict[str, object]] = None,
    ):
        """Submit this campaign to a distributed work queue.

        The distributed twin of :meth:`run`: the same planner spawns
        the same per-scenario seeds, but instead of executing, the
        chunks are enqueued into a shared
        :class:`~repro.distributed.WorkQueue` for ``repro worker``
        processes (on any host reaching the queue file) to execute into
        *store*.  Returns a :class:`~repro.distributed.DistributedRun`
        handle — ``wait()`` / ``iter_progress()`` track the fleet and
        ``collect()`` reconstructs a :class:`ResultSet` bitwise
        identical to :meth:`run` with the same seed.  Scenarios *store*
        already holds are not enqueued, so re-submitting a completed
        campaign performs zero new simulations, and a chunk over the
        noise-tape budget raises ``ValueError`` before the campaign
        reaches the store or the queue, as :meth:`run` does.

        With ``backend="distributed"`` the queue and store default to
        the backend's own paths, so ``campaign.submit(seed)`` alone
        enqueues onto the fleet the campaign would run on.
        """
        from repro.distributed import submit as submit_distributed

        if queue is None:
            queue = getattr(self.backend, "queue_path", None)
        if store is None:
            store = getattr(self.backend, "store_path", None)
        if queue is None or store is None:
            raise TypeError(
                "submit() needs queue= and store= paths (only the "
                "'distributed' backend supplies defaults)"
            )
        return submit_distributed(
            self,
            seed,
            queue=queue,
            store=store,
            chunk_size=chunk_size,
            metadata=metadata,
        )


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign's fixed work, as :meth:`Campaign._plan` decided it.

    ``seed`` is the root seed sequence, ``scenarios`` the resolved
    scenario list and ``chunks`` the work still to simulate, each item
    carrying its scenario's pre-spawned seed; ``workers`` is the worker
    count clamped to the campaign's chunk count.  Planned against a store,
    ``campaign_id`` names the campaign there and ``done`` the scenario
    indices ``store`` already held, which ``chunks`` leave out.
    """

    seed: np.random.SeedSequence
    scenarios: List[Scenario]
    chunks: List[WorkChunk]
    workers: int
    store: Optional["ResultStore"] = None
    campaign_id: Optional[str] = None
    done: Tuple[int, ...] = ()

    @property
    def provenance(self) -> Dict[str, object]:
        """``campaign_id`` and the ``loaded``/``simulated`` scenario
        counts of a stored plan; empty without a store."""
        if self.campaign_id is None:
            return {}
        return {
            "campaign_id": self.campaign_id,
            "loaded": len(self.done),
            "simulated": len(self.scenarios) - len(self.done),
        }


def _entropy_of(seq: np.random.SeedSequence) -> Optional[int]:
    """The root entropy as a plain int (for provenance), when small."""
    entropy = seq.entropy
    if isinstance(entropy, (int, np.integer)):
        return int(entropy)
    return None
