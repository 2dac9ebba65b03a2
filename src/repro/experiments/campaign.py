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
``ProcessPoolExecutor`` (``workers>1``, each worker receiving the
campaign's backend once, through the pool initializer: fork-started
workers inherit it, logic table and all, without copying or encoding
anything, and spawn-started ones unpickle it once), run as megabatch
chunks (the ``"vectorized-batch"`` backend flattens whole chunks of
scenarios into one lane array), or stream incrementally through
:meth:`Campaign.iter_records`.  That is the seam sharded or multi-host
execution attaches to, and the seam the result store already uses:
``run(store=...)`` / ``iter_records(store=...)`` persist every record
under a content-addressed provenance hash (:mod:`repro.store`),
resuming interrupted campaigns and skipping already-stored scenarios
entirely.
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
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

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
from repro.sim.batch import BatchResult
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
#: state and noise arrays comfortably in memory (a chunk's working set
#: is a few MB at this width).
DEFAULT_CHUNK_LANES = 8192

#: One task chunk: (scenario index, parameters, per-scenario seed).
WorkChunk = List[Tuple[int, EncounterParameters, np.random.SeedSequence]]


def _execute_chunk(
    backend: SimulationBackend,
    num_runs: int,
    chunk: WorkChunk,
) -> List[Tuple[int, BatchResult]]:
    """Simulate one chunk of (index, params, seed) on *backend*.

    Backends exposing ``simulate_many`` (the megabatch path) get the
    whole chunk in one call; everything else is driven scenario by
    scenario.  Either way each scenario's result derives only from its
    own seed, so chunk boundaries cannot change any output bit.

    An empty chunk (a fully-stored resume's missing tail) short-circuits
    to no outcomes instead of reaching a backend that rejects empty
    batches.
    """
    if not chunk:
        return []
    bulk = getattr(backend, "simulate_many", None)
    if bulk is not None and len(chunk) > 1:
        results = bulk(
            [params for _, params, _ in chunk],
            num_runs,
            [seed for _, _, seed in chunk],
        )
        return [
            (index, result)
            for (index, _, _), result in zip(chunk, results)
        ]
    return [
        (index, backend.simulate(params, num_runs, seed=seed))
        for index, params, seed in chunk
    ]


def _default_chunk_size(
    backend: SimulationBackend, num_runs: int, num_scenarios: int, workers: int
) -> int:
    """Scenarios per chunk when the caller does not pin a size.

    Megabatch backends want wide chunks (bounded by
    :data:`DEFAULT_CHUNK_LANES` lanes, and split so every worker gets
    work); per-scenario backends get single-scenario chunks, which
    keeps serial behavior unchanged and gives the pool fine-grained
    load balancing.
    """
    if not hasattr(backend, "simulate_many"):
        return 1
    by_lanes = max(1, DEFAULT_CHUNK_LANES // max(1, num_runs))
    by_workers = -(-num_scenarios // workers)  # ceil div
    return max(1, min(by_lanes, by_workers))


# Per-process backend set by the pool initializer: each worker receives
# the campaign's backend once, not once per task.
_WORKER_BACKEND: Optional[SimulationBackend] = None


def _init_worker(backend: SimulationBackend) -> None:
    """Pool initializer: keep the campaign's backend for every task.

    Under ``fork`` (the Linux default before Python 3.14) *backend* is
    the parent's own object, inherited with the process; under
    ``spawn``/``forkserver`` it arrives pickled once per worker
    (numpy's raw array pickling for the logic table).
    """
    global _WORKER_BACKEND
    _WORKER_BACKEND = backend


def _worker_execute_chunk(
    num_runs: int, chunk: WorkChunk
) -> List[Tuple[int, BatchResult]]:
    """Worker task entry point: run one chunk on the per-process backend."""
    assert _WORKER_BACKEND is not None, "worker pool not initialized"
    return _execute_chunk(_WORKER_BACKEND, num_runs, chunk)


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
        instance.
    table:
        Logic table for equipped aircraft (``None`` only with
        ``equipage='none'``).
    equipage:
        ``'both'``, ``'own-only'`` or ``'none'``.
    coordination:
        Whether two equipped aircraft exchange maneuver senses.
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
    """

    def __init__(
        self,
        scenarios,
        backend: Union[str, SimulationBackend] = "vectorized-batch",
        table: Optional[LogicTable] = None,
        equipage: str = "both",
        coordination: bool = True,
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
        self.equipage = equipage
        self.coordination = coordination
        self.runs_per_scenario = runs_per_scenario

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
        one-line diagnosis.
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

        The streaming twin of :meth:`run`: scenario chunks are
        simulated one after another (or fanned out across a worker
        pool with a bounded number of chunks in flight) and their
        records yielded as they complete, without materializing the
        full list — the shape very large campaigns need.  Seeds are
        spawned per scenario before any simulation starts, so the
        records are bitwise identical to :meth:`run`'s for the same
        root seed, whatever the chunking or worker count.

        Parameters
        ----------
        seed:
            Root seed; everything (scenario sampling and every
            simulation run) derives from it deterministically.
        workers:
            ``1`` simulates in-process; ``>1`` fans chunks out across a
            ``ProcessPoolExecutor`` whose workers each receive the
            campaign's backend once, at start-up.
        chunk_size:
            Scenarios per execution chunk.  Default: a megabatch-sized
            chunk for backends with ``simulate_many``, else one
            scenario per chunk.
        store:
            Optional :class:`~repro.store.ResultStore` to write
            through.  The campaign is registered under its
            content-addressed provenance hash; scenarios the store
            already holds for that hash are *loaded instead of
            simulated* (resume), every fresh record is persisted
            before it is yielded (so an interrupted stream keeps its
            progress), and the yielded sequence — stored and fresh
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
        root = as_seed_sequence(seed)
        seed_fp = None if store is None else _fingerprint_of(root)
        scenario_list, chunks, workers = self._plan(root, workers, chunk_size)
        if store is None:
            return self._iter_planned(scenario_list, chunks, workers)
        plan = self._store_plan(store, scenario_list, chunks, root, seed_fp)
        return self._iter_stored(store, plan, scenario_list, workers)

    def _store_plan(
        self,
        store: "ResultStore",
        scenario_list: List,
        chunks: List[WorkChunk],
        root: np.random.SeedSequence,
        seed_fp: Optional[str],
    ) -> "_StorePlan":
        """Register the campaign and split work into done vs missing."""
        from repro.store import CampaignSpec

        # The full sequence (fingerprinted at entry), not just its
        # entropy: spawned children share entropy and differ only in
        # spawn_key, and each must be its own campaign.
        spec = CampaignSpec.capture(self, scenario_list, root, seed_fp=seed_fp)
        campaign_id = store.open_campaign(spec)
        done = store.completed_indices(campaign_id)
        missing = [
            remaining
            for chunk in chunks
            if (remaining := [item for item in chunk if item[0] not in done])
        ]
        return _StorePlan(
            campaign_id=campaign_id,
            done=sorted(done),
            missing_chunks=missing,
        )

    def _iter_stored(
        self,
        store: "ResultStore",
        plan: "_StorePlan",
        scenario_list: List,
        workers: int,
    ) -> Iterator[RunRecord]:
        """Merge stored records with the fresh simulation stream.

        Both sides ascend in scenario index, so a two-way merge yields
        the complete campaign in index order; fresh records are
        persisted before being yielded.  Stored records are fetched by
        point lookup (never a cursor held across our own inserts).
        """
        done = deque(plan.done)

        def stored_upto(bound: Optional[int]) -> Iterator[RunRecord]:
            while done and (bound is None or done[0] < bound):
                record = store.get_record(plan.campaign_id, done.popleft())
                assert record is not None, "stored record vanished mid-run"
                yield record

        if plan.missing_chunks:
            fresh = self._iter_planned(
                scenario_list,
                plan.missing_chunks,
                min(workers, len(plan.missing_chunks)),
            )
            for record in fresh:
                yield from stored_upto(record.index)
                store.add_record(plan.campaign_id, record)
                yield record
        yield from stored_upto(None)

    def _plan(
        self,
        seed: SeedLike,
        workers: int,
        chunk_size: Optional[int],
    ) -> Tuple[List, List[WorkChunk], int]:
        """Validate arguments and fix the execution plan, eagerly.

        Returns ``(scenario_list, chunks, workers)`` with the worker
        count clamped to the chunk count (the parallelism actually
        usable).  Shared by :meth:`run` and :meth:`iter_records` so the
        chunking decision is made exactly once, and so invalid
        arguments fail at the call site rather than at first iteration
        of a generator.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        root = as_seed_sequence(seed)
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
        return scenario_list, chunks, min(workers, len(chunks))

    def _iter_planned(
        self,
        scenario_list: List,
        chunks: List[WorkChunk],
        workers: int,
    ) -> Iterator[RunRecord]:
        """Execute a fixed plan, yielding records in index order."""

        def to_records(outcomes) -> Iterator[RunRecord]:
            for index, result in outcomes:
                scenario = scenario_list[index]
                yield RunRecord(
                    index=index,
                    name=scenario.name,
                    params=scenario.params,
                    runs=result,
                )

        if workers == 1:
            for chunk_index, chunk in enumerate(chunks):
                with telemetry.span(
                    "campaign.chunk",
                    chunk_index=chunk_index,
                    scenarios=len(chunk),
                ):
                    outcomes = _execute_chunk(
                        self.backend, self.runs_per_scenario, chunk
                    )
                yield from to_records(outcomes)
            return

        # The backend travels once per worker, through the initializer.
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.backend,),
        ) as pool:
            # Keep only a bounded window of chunks in flight so a slow
            # consumer of the stream does not accumulate every finished
            # chunk's results in memory.
            def submit(chunk):
                return pool.submit(
                    _worker_execute_chunk, self.runs_per_scenario, chunk
                )

            chunk_iter = iter(chunks)
            pending = deque(
                submit(chunk) for chunk in islice(chunk_iter, workers + 1)
            )
            while pending:
                outcomes = pending.popleft().result()
                pending.extend(submit(chunk) for chunk in islice(chunk_iter, 1))
                yield from to_records(outcomes)

    def run(
        self,
        seed: SeedLike = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        store: Optional["ResultStore"] = None,
        profile: bool = False,
    ) -> ResultSet:
        """Execute the campaign and aggregate a :class:`ResultSet`.

        A thin collector over the same plan :meth:`iter_records`
        streams — same parameters, same determinism guarantee (the
        result is bitwise identical for any ``workers``/``chunk_size``
        given the same root seed).

        With a *store*, the campaign resumes: scenarios already
        persisted under the same provenance hash load from the store
        and only the missing tail simulates (a completed campaign
        re-runs with **zero** new simulations).  The returned result
        merges both, bitwise identical to an uninterrupted storeless
        run; its metadata records ``campaign_id``, how many scenarios
        were ``loaded`` vs freshly ``simulated``, plus the machine's
        ``cpu_count`` — so persisted timing records are
        self-describing.

        With ``backend="distributed"`` the campaign runs on a worker
        fleet instead (``workers`` is ignored — the fleet is the
        parallelism) and is collected from the fleet's store, bitwise
        identical to the in-process run.

        With ``profile=True`` and a megabatch backend, the kernel's
        per-phase wall-clock breakdown (tape draw / decision / physics /
        observe) lands in ``metadata["kernel_profile"]`` — and from
        there into every store record the result set flows through.
        Profiling is in-process only: with ``workers > 1`` (or a
        backend without kernel timers) the metadata instead carries an
        honest ``{"unsupported": reason}`` note.  Fleet runs ignore the
        flag.
        """
        if hasattr(self.backend, "run_campaign"):  # "distributed" backend
            # A fleet-native backend owns the whole submit → wait →
            # collect cycle (its queue/store paths were fixed at
            # construction); workers= is ignored — the external fleet
            # is the parallelism.
            self._check_backend_store(store)
            return self.backend.run_campaign(
                self, seed=seed, chunk_size=chunk_size
            )
        start = time.perf_counter()
        run_span = telemetry.span(
            "campaign.run", backend=self.backend_name, workers=workers
        )
        with run_span:
            root = as_seed_sequence(seed)
            seed_fp = None if store is None else _fingerprint_of(root)
            scenario_list, chunks, workers = self._plan(
                root, workers, chunk_size
            )
            run_span.set(scenarios=len(scenario_list), workers=workers)
            metadata: Dict[str, object] = {"cpu_count": os.cpu_count()}
            if (os.cpu_count() or 1) <= 1:
                # Timings recorded on a single-core host cannot show
                # parallel speedup; downstream records carry the caveat
                # so nobody reads a 1x workers-scaling number as a
                # regression.
                metadata["single_cpu_caveat"] = True
            kernel_profile = self._start_profile(profile, workers, metadata)
            if store is None:
                records = list(
                    self._iter_planned(scenario_list, chunks, workers)
                )
            else:
                plan = self._store_plan(
                    store, scenario_list, chunks, root, seed_fp
                )
                run_span.set(
                    campaign_id=plan.campaign_id, loaded=len(plan.done)
                )
                records = list(
                    self._iter_stored(store, plan, scenario_list, workers)
                )
                if plan.missing_chunks:
                    # Only runs that simulated contribute wall time (and
                    # their worker count): a pure-load resume must not
                    # inflate the stored timing record.
                    store.add_wall_time(
                        plan.campaign_id,
                        time.perf_counter() - start,
                        cpu_count=os.cpu_count(),
                    )
                    store.merge_metadata(
                        plan.campaign_id,
                        {"workers": min(workers, len(plan.missing_chunks))},
                    )
                metadata.update(
                    campaign_id=plan.campaign_id,
                    loaded=len(plan.done),
                    simulated=len(scenario_list) - len(plan.done),
                )
            if kernel_profile is not None:
                metadata["kernel_profile"] = kernel_profile.to_dict()
        return ResultSet(
            records=records,
            backend=self.backend_name,
            equipage=self.equipage,
            coordination=self.coordination,
            runs_per_scenario=self.runs_per_scenario,
            seed_entropy=_entropy_of(root),
            workers=workers,
            wall_time=time.perf_counter() - start,
            metadata=metadata,
        )

    def _start_profile(
        self, profile: bool, workers: int, metadata: Dict[str, object]
    ):
        """Attach kernel phase timers to the backend, or explain why not.

        Returns the live :class:`~repro.sim.batch.KernelProfile` when
        profiling is possible (megabatch backend, in-process execution);
        otherwise stamps ``metadata["kernel_profile"]`` with an
        ``unsupported`` note and returns ``None`` — a silent no-op would
        let callers mistake "not measured" for "zero cost".
        """
        if not profile:
            return None
        enable = getattr(self.backend, "enable_profiling", None)
        if enable is None:
            metadata["kernel_profile"] = {
                "unsupported": f"backend {self.backend_name!r} has no "
                "kernel phase timers"
            }
            return None
        if workers > 1:
            metadata["kernel_profile"] = {
                "unsupported": "kernel profiling is in-process only; "
                "subprocess workers cannot report phase timings "
                "(re-run with workers=1)"
            }
            return None
        return enable()

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
        campaign performs zero new simulations.

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
class _StorePlan:
    """A campaign's work split against a store: done vs still missing."""

    campaign_id: str
    done: List[int]
    missing_chunks: List[WorkChunk]


def _entropy_of(seq: np.random.SeedSequence) -> Optional[int]:
    """The root entropy as a plain int (for provenance), when small."""
    entropy = seq.entropy
    if isinstance(entropy, (int, np.integer)):
        return int(entropy)
    return None


def _fingerprint_of(seq: np.random.SeedSequence) -> str:
    """Snapshot the root sequence's store identity before spawning."""
    from repro.store import seed_fingerprint

    return seed_fingerprint(seq)
