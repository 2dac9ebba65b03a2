"""repro — reproduction of Zou, Alexander & McDermid (DSN 2016).

*On the Validation of a UAV Collision Avoidance System Developed by
Model-Based Optimization: Challenges and a Tentative Partial Solution.*

The library has two halves, mirroring the paper:

1. **The system under test** — an ACAS XU-like collision avoidance
   system generated by model-based optimization: an MDP encounter model
   solved by dynamic programming into a logic table, plus the online
   controller that drives it (:mod:`repro.acasx`, on top of
   :mod:`repro.mdp` and :mod:`repro.dynamics`).  The paper's Section III
   walkthrough example is :mod:`repro.simple2d`.
2. **The validation tooling** — the GA-based search for challenging
   encounters (:mod:`repro.search`), the 9-parameter encounter encoding
   and scenario generator (:mod:`repro.encounters`), the agent-based
   3-D simulation with ADS-B sensing, coordination and monitors
   (:mod:`repro.sim`), the SVO baseline (:mod:`repro.avoidance`), and
   Monte-Carlo rate estimation (:mod:`repro.montecarlo`).

Both halves meet in :mod:`repro.experiments`: declarative *campaigns*
(scenarios × backend × equipage × runs per scenario) that every
pipeline — GA fitness, Monte-Carlo estimation, the CLI — executes
through, with registry-selected simulation backends and deterministic
serial, process-parallel or streaming execution.

Quickstart::

    from repro import Campaign, build_logic_table, test_config

    table = build_logic_table(test_config())
    results = Campaign(
        ["head_on", "tail_approach"],      # named presets; also accepts
        backend="vectorized-batch",        # EncounterParameters, genome
        table=table,                       # arrays, or sampled sources
        runs_per_scenario=50,
    ).run(seed=0, workers=1)               # workers=4 gives the same bits
    print(results.summary())
    print(results.worst().name, results.worst().min_separation)

**Choosing a backend.**  Two simulation behaviours trade fidelity
scrutiny for speed.  Each is one backend class that owns the whole
setup (logic table, config, equipage, coordination) and answers one
call, ``run_many(params_list, num_runs, seeds)``:

- ``agent`` — the faithful engine: one Python-level agent simulation
  per run, every advisory and sensor report inspectable;
- ``vectorized-batch`` (the default everywhere) — the megabatch kernel,
  :class:`~repro.sim.batch.BatchEncounterSimulator` itself: whole
  chunks of scenarios advance as one flattened lane array, and each
  scenario's bits depend only on its own seed, never on the chunking.

``agent-svo`` flies the paper's other system under test, Selective
Velocity Obstacle avoidance (its ref [7]), on the agent engine; it
reads no logic table and refuses one.

A campaign reads its equipage and coordination from its backend, so
``Campaign(..., backend=make_backend("vectorized-batch",
equipage="none"))`` is stored as the unequipped campaign it simulates;
a ready backend passed with a table, config, equipage, coordination or
options raises ``TypeError``.  The two agree statistically (tests
enforce it).  ``vectorized`` is a
legacy alias of ``vectorized-batch``, bitwise identical, kept so stored
campaigns that name it keep resolving.  For timings on your host, run
the repository benchmark (``python3 perfbench/run.py --workload
ga_paper``: the paper's 50-encounter × 100-run GA generations).  For
campaigns too large to hold in memory, ``Campaign.iter_records``
streams the same records chunk by chunk.

**Searches use every CPU.**  ``GeneticAlgorithm.run`` — and through it
``SearchRunner``, ``repro search`` and ``compare_ga_and_random`` —
keeps one warm process pool (:class:`~repro.experiments.WorkerPool`)
over every CPU the process may use for the whole search, and closes
it when the search ends.  The bits are a serial search's; ``taskset
-c 0`` runs one serially.  ``SearchRunner`` takes a ready fitness,
which owns the whole simulation setup; one generator shared by the
fitness and the GA makes a one-seed search::

    rng = np.random.default_rng(0)
    fitness = EncounterFitness(table, num_runs=100, seed=rng)
    outcome = SearchRunner(fitness).run(seed=rng)
    # backend="agent-svo" (and no table) searches against SVO

**Persisting campaigns.**  Pass a :class:`ResultStore` and the campaign
writes through a sqlite store under a content-addressed provenance hash
(seed entropy, backend, equipage, runs, table/config/scenario
digests)::

    from repro import ResultStore

    store = ResultStore("results.sqlite")
    results = Campaign(..., table=table).run(seed=0, store=store)
    results.metadata        # {'campaign_id': ..., 'loaded': 0,
                            #  'simulated': N, 'cpu_count': ...}

Re-running the same spec *resumes*: scenarios already stored are loaded
instead of simulated (an interrupted campaign finishes only its missing
tail; a completed one re-runs with zero new simulations), and records
are never stored twice.  The store answers cross-campaign questions
without re-simulating — ``store.campaigns()``, ``store.records(where=
"nmac_rate > 0")``, ``store.resultset(campaign_id)`` (bitwise-exact
reconstruction), ``store.diff(a, b)`` — and exports the same JSON/CSV
as ``ResultSet``.  On the command line: ``repro campaign --store
PATH`` and ``repro store list|show|export|records|diff``.

**Distributed execution.**  Campaigns fan out across processes and
hosts through :mod:`repro.distributed`: ``submit`` plans the campaign
into chunk tasks (per-scenario seeds pre-spawned, so placement cannot
change a bit) in a sqlite work queue any number of workers share over
a filesystem; workers claim chunks under heartbeated leases (dead
workers' chunks are reclaimed on expiry), build their backend once
from the submitted spec, and drain records into the result store,
whose ``(campaign, scenario)`` key dedups at-least-once delivery.
Submit now, run workers anywhere, collect later::

    from repro.distributed import FleetSupervisor

    run = Campaign(..., table=table).submit(
        seed=0, queue="queue.sqlite", store="results.sqlite")
    FleetSupervisor("queue.sqlite", workers=4,   # or `repro worker`
                    campaign_id=run.campaign_id).run()  # on any host
    run.wait(); results = run.collect()   # == serial run, bit for bit

Fleets are also a first-class **backend**: with ``repro worker``
processes already running anywhere the queue file is reachable, a
single campaign call targets them through the ``"distributed"``
registry key — and so do ``MonteCarloEstimator`` and
``EncounterFitness`` (so a ``SearchRunner`` search), which forward
``backend``/``backend_options`` unchanged::

    results = Campaign(
        ..., table=table,
        backend="distributed",            # or $REPRO_QUEUE/$REPRO_STORE
        backend_options={"queue": "queue.sqlite",
                         "store": "results.sqlite"},
    ).run(seed=0)
    # bitwise identical to the serial run; if no live worker is
    # polling the queue, the wait drains the campaign in-process
    # instead of hanging (metadata["distributed_fallback"]).

The ``"distributed"`` backend is the megabatch backend plus a queue
and a store path, under the megabatch name: campaign identity and the
``ResultSet`` say ``"vectorized-batch"``, because where chunks execute
cannot change a bit.  Lease decisions use a single clock per decision
with a configurable skew margin (``repro worker --skew-margin``) so
multi-host fleets survive clock skew, and a worker that loses its
lease mid-chunk abandons the result instead of racing its rival.

On the command line: ``repro submit`` / ``repro worker`` (one per
host or core) / ``repro status`` / ``repro queue gc`` (drop finished
chunks and orphaned job and table rows; ``--dry-run``/``--max-age``),
``repro campaign --backend distributed --queue ... --store ...``, and
``repro store list --queue`` shows in-flight chunk counts.
Re-submitting a completed campaign enqueues nothing and simulates
nothing.

**The campaign service.**  Everything above also runs behind a
long-lived stdlib-only HTTP front door (:mod:`repro.service`)::

    repro serve --store results.sqlite --queue queue.sqlite --port 8000

    curl -X POST localhost:8000/campaigns -d '{
        "scenarios": {"sample": 200}, "runs": 100, "seed": 0}'
    curl localhost:8000/campaigns/<id>            # live progress
    curl 'localhost:8000/campaigns/<id>/records?where=nmac_rate>0&limit=10'
    curl localhost:8000/campaigns/<a>/diff/<b>
    curl localhost:8000/workers                   # fleet liveness

``POST /campaigns`` accepts the plain-JSON spec form of
:meth:`Campaign.from_spec`, executes on the worker fleet (with the
usual fallback) or in-process, and stores the campaign under the same
content-addressed id — bitwise identical — as ``Campaign.run`` of the
same spec and seed.  A background *watchlist* thread continuously
ranks the worst stored encounters (``GET /watchlist``), checks every
comparable campaign (same scenario digest) for NMAC/false-alarm
regressions against a pinned baseline (``POST /watchlist/baseline``,
``GET /alerts``), and emits a text digest (``GET /brief``).  The same
scan runs one-shot — and gates CI — via ``repro watchlist
results.sqlite --baseline <id> --fail-on-alert``; ``repro status
--format json`` and ``repro store list --format json`` expose the
service's machine-readable views to scripts without HTTP.

**Contracts & lint.**  The guarantees above are *contracts* — and
:mod:`repro.lint` (``repro lint``) checks them statically on every
file instead of hoping a digest test stumbles over a regression:

==== ===================== ===========================================
rule name                  invariant it guards
==== ===================== ===========================================
R1   seeded-rng            randomness flows in as an explicit
                           ``Generator``/``SeedSequence``
                           (:mod:`repro.util.rng`); no global
                           ``numpy.random.*`` / stdlib ``random.*``
                           state, ``os.urandom`` only in telemetry
R2   monotonic-durations   ``time.time()`` is a timestamp, never a
                           duration or deadline — subtracting or
                           ordering wall clocks is flagged
R3   fault-seam-hygiene    no bare ``except:``/``except
                           BaseException:`` in distributed/store/
                           service — ``InjectedWorkerCrash`` must sail
                           through like SIGKILL
R4   lock-discipline       ``self._conn`` in the store/queue only
                           under ``self._lock`` or the ``_write``
                           transaction wrapper
R5   identity-purity       no ``os.environ``/wall-clock/pid reads
                           while constructing ``CampaignSpec`` or
                           provenance digests
==== ===================== ===========================================

Documented exceptions carry ``# repro-lint: ok[R3] reason`` inline
(the reason is mandatory); pre-existing debt lives in the committed
``lint-baseline.json``, which may only shrink.  ``repro lint
--baseline lint-baseline.json`` is the CI gate: exit 1 on any new
finding, exit 3 until fixed debt is crossed off the baseline.

For a single fully-inspectable run (trajectory trace, advisories), use
the agent engine directly::

    from repro import head_on_encounter, make_acas_pair, run_encounter

    own, intruder = make_acas_pair(table)
    result = run_encounter(head_on_encounter(), own, intruder, seed=0)
    print(result.nmac, result.min_separation)
"""

from repro.acasx import (
    AcasConfig,
    AcasXuController,
    LogicTable,
    build_logic_table,
    paper_config,
    test_config,
)
from repro.acasx.cache import build_or_load
from repro.acasx.verification import verify_table
from repro.avoidance import (
    AcasXuAvoidance,
    NoAvoidance,
    SelectiveVelocityObstacle,
)
from repro.encounters import (
    EncounterParameters,
    ParameterRanges,
    ScenarioGenerator,
    StatisticalEncounterModel,
    decode_encounter,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.experiments import (
    Campaign,
    ExplicitSource,
    GenomeSource,
    PresetSource,
    ResultSet,
    RunRecord,
    SampledSource,
    Scenario,
    as_scenario_source,
    available_backends,
    make_backend,
    register_backend,
)
from repro.distributed import (
    DistributedBackend,
    DistributedRun,
    Worker,
    WorkQueue,
)
from repro.montecarlo import MonteCarloEstimator
from repro.store import CampaignSpec, ResultStore
from repro.search import (
    EncounterFitness,
    GAConfig,
    GeneticAlgorithm,
    SearchRunner,
    cluster_genomes,
    random_search,
)
from repro.sim import (
    BatchEncounterSimulator,
    EncounterSimConfig,
    run_encounter,
)
from repro.avoidance.tracked import TrackedAvoidance
from repro.sim.airspace import AirspaceSimulation, TrafficConfig
from repro.sim.encounter import make_acas_pair
from repro.simple2d import Simple2DModel

__version__ = "1.0.0"

__all__ = [
    "AcasConfig",
    "AcasXuAvoidance",
    "AcasXuController",
    "AirspaceSimulation",
    "BatchEncounterSimulator",
    "Campaign",
    "CampaignSpec",
    "DistributedBackend",
    "DistributedRun",
    "EncounterFitness",
    "EncounterParameters",
    "EncounterSimConfig",
    "ExplicitSource",
    "GAConfig",
    "GeneticAlgorithm",
    "GenomeSource",
    "LogicTable",
    "MonteCarloEstimator",
    "NoAvoidance",
    "ParameterRanges",
    "PresetSource",
    "ResultSet",
    "ResultStore",
    "RunRecord",
    "SampledSource",
    "Scenario",
    "ScenarioGenerator",
    "SearchRunner",
    "SelectiveVelocityObstacle",
    "Simple2DModel",
    "StatisticalEncounterModel",
    "TrackedAvoidance",
    "TrafficConfig",
    "Worker",
    "WorkQueue",
    "as_scenario_source",
    "available_backends",
    "build_logic_table",
    "build_or_load",
    "cluster_genomes",
    "decode_encounter",
    "head_on_encounter",
    "make_acas_pair",
    "make_backend",
    "paper_config",
    "random_search",
    "register_backend",
    "run_encounter",
    "tail_approach_encounter",
    "test_config",
    "verify_table",
]
