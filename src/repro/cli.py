"""Command-line interface: the library's pipelines as shell commands.

Mirrors the workflows of the paper's tooling (which ran headless for
search and interactively for analysis):

- ``repro solve``      — build (and cache) a logic table, optionally
  running the verification checks;
- ``repro simulate``   — run one encounter and print the outcome/trace;
- ``repro campaign``   — a declarative simulation campaign (scenarios ×
  backend × equipage × runs) with JSON/CSV export; ``--backend
  vectorized-batch`` (the default) simulates whole chunks of scenarios
  as one flattened lane array;
- ``repro search``     — GA search for challenging encounters, with a
  JSON report of generations and top encounters;
- ``repro montecarlo`` — Monte-Carlo rate estimation;
- ``repro airspace``   — a multi-aircraft stress run;
- ``repro store``      — query a persistent campaign result store
  (``list``, ``show``, ``export``, ``records``, ``diff``);
- ``repro submit`` / ``repro worker`` / ``repro status`` / ``repro
  queue gc`` — distributed campaign execution over a shared work
  queue, and its maintenance.

``campaign``, ``montecarlo`` and ``search`` also accept ``--backend
distributed`` with ``--queue``/``--store``: the whole workload then
executes on an already-running ``repro worker`` fleet (any host
sharing the queue file), falling back to an in-process worker when no
fleet is live — results are bitwise identical either way.

Simulation-heavy commands take ``--backend``/``--equipage``/
``--coordination`` with the same spellings the library's experiment
registry accepts (``--backend agent-svo`` flies SVO avoidance and
solves no logic table).  Every command takes ``--seed`` and is fully
deterministic given it (including ``campaign --workers N``).

``campaign``, ``montecarlo`` and ``search`` also take ``--store PATH``:
results persist into a sqlite :class:`~repro.store.ResultStore` under a
content-addressed provenance hash, so re-running the same command
resumes (an interrupted campaign simulates only its missing tail; a
completed one performs zero new simulations) and ``repro store diff``
compares campaigns — e.g. unequipped vs equipped NMAC rates — without
re-simulating anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.acasx import build_logic_table, preset_config
from repro.acasx.cache import build_or_load
from repro.acasx.verification import verify_table
from repro.analysis.geometry import relative_horizontal_speed_of
from repro.encounters import (
    StatisticalEncounterModel,
    head_on_encounter,
    tail_approach_encounter,
)
from repro.encounters.generator import ScenarioGenerator
from repro.experiments import (
    PRESETS,
    Campaign,
    PresetSource,
    SampledSource,
    available_backends,
)
from repro.experiments.backends import SvoAgentBackend
from repro.lint.cli import add_lint_arguments, cmd_lint
from repro.montecarlo import MonteCarloEstimator
from repro.search.fitness import EncounterFitness
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner
from repro.sim import EncounterSimConfig, run_encounter
from repro.sim.airspace import AirspaceSimulation
from repro.sim.encounter import EQUIPAGES, make_acas_pair
from repro.sim.trace import render_vertical_profile
from repro.store import ResultStore


def _open_store(args) -> Optional[ResultStore]:
    """The ``--store PATH`` result store, if requested."""
    path = getattr(args, "store", None)
    return None if path is None else ResultStore(path)


def _print_store_outcome(results, label: str = "store") -> None:
    """One line saying what the store run did (resume/dedup evidence)."""
    meta = results.metadata
    print(
        f"{label}: campaign {meta['campaign_id'][:12]} "
        f"(loaded {meta['loaded']}, simulated {meta['simulated']})"
    )


def _load_table(args) -> "LogicTable":
    config = preset_config(args.preset)
    if getattr(args, "no_cache", False):
        return build_logic_table(config, verbose=args.verbose)
    return build_or_load(config, verbose=args.verbose)


def _table_for(args) -> Optional["LogicTable"]:
    """The logic table a simulating command flies, loaded only if one
    is flown: not for ``--equipage none``, nor for ``--backend
    agent-svo``, whose SVO aircraft read no table."""
    if (
        getattr(args, "equipage", "both") == "none"
        or getattr(args, "backend", None) == SvoAgentBackend.name
    ):
        return None
    return _load_table(args)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
def cmd_solve(args) -> int:
    table = _load_table(args)
    print(f"solved: {table}")
    print(f"metadata: {table.metadata}")
    if args.out:
        table.save(args.out)
        print(f"saved to {args.out}")
    if args.verify:
        report = verify_table(table, include_dense_cross_check=args.deep_verify)
        print(report.summary())
        if not report.all_passed:
            return 1
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def _encounter_for(args):
    if args.geometry == "head-on":
        return head_on_encounter()
    if args.geometry == "tail":
        return tail_approach_encounter(
            overtake_speed=3.0,
            time_to_cpa=40.0,
            own_vertical_speed=-5.0,
            intruder_vertical_speed=5.0,
        )
    if args.geometry == "random":
        return ScenarioGenerator().random_encounter(seed=args.seed)
    raise SystemExit(f"unknown geometry {args.geometry!r}")


def cmd_simulate(args) -> int:
    params = _encounter_for(args)
    config = EncounterSimConfig()
    if args.equipage == "none":
        own = intruder = None
        result = run_encounter(
            params, config=config, seed=args.seed, record_trace=args.trace
        )
    else:
        table = _load_table(args)
        own, intruder = make_acas_pair(table)
        if args.equipage == "own-only":
            intruder = None
        result = run_encounter(
            params, own, intruder, config, seed=args.seed,
            record_trace=args.trace,
        )
    print(f"geometry: {args.geometry}")
    print(f"NMAC: {result.nmac}")
    print(f"min separation: {result.min_separation:.1f} m "
          f"(horizontal {result.min_horizontal:.1f} m)")
    print(f"own alerted: {result.own_alerted}, "
          f"intruder alerted: {result.intruder_alerted}")
    if args.trace and result.trace is not None:
        print(render_vertical_profile(result.trace, height=12, width=60))
    return 0


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def _backend_options(args):
    """Fleet options for ``--backend distributed`` (else ``None``).

    The distributed backend takes its queue/store paths through the
    registry's options channel; the shared ``--queue``/``--store``
    flags supply them (with ``$REPRO_QUEUE``/``$REPRO_STORE`` as the
    fallback the backend itself resolves).
    """
    if getattr(args, "backend", None) != "distributed":
        return None
    options = {}
    if getattr(args, "queue", None):
        options["queue"] = args.queue
    if getattr(args, "store", None):
        options["store"] = args.store
    return options


def _campaign_from_args(args) -> Campaign:
    """Build the Campaign both ``campaign`` and ``submit`` describe."""
    if args.sample < 0:
        raise SystemExit("--sample must be >= 1")
    if args.sample and args.scenarios is not None:
        raise SystemExit("--sample and --scenarios are mutually exclusive")
    if args.chunk_size is not None and args.chunk_size < 1:
        raise SystemExit("--chunk-size must be >= 1")
    if args.sample:
        scenarios = SampledSource(StatisticalEncounterModel(), args.sample)
    else:
        listing = args.scenarios or ",".join(sorted(PRESETS))
        names = [n.strip() for n in listing.split(",") if n.strip()]
        try:
            scenarios = PresetSource(*names)
        except ValueError as error:
            raise SystemExit(str(error))
    table = _table_for(args)
    try:
        return Campaign(
            scenarios,
            backend=args.backend,
            table=table,
            equipage=args.equipage,
            coordination=args.coordination == "on",
            runs_per_scenario=args.runs,
            sim_config=EncounterSimConfig(),
            backend_options=_backend_options(args),
        )
    except ValueError as error:  # e.g. distributed without queue/store
        raise SystemExit(str(error))


def _arm_trace_cli(args, process: str) -> bool:
    """Arm telemetry on ``--store`` when ``--trace`` was requested.

    Spans live in the store's sqlite file, so tracing without a store
    has nowhere to write — that's a usage error, not a silent no-op.
    """
    if not getattr(args, "trace", False):
        return False
    if not getattr(args, "store", None):
        raise SystemExit("--trace requires --store (spans live there)")
    telemetry.arm(args.store, process=process)
    return True


def cmd_campaign(args) -> int:
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    campaign = _campaign_from_args(args)
    store = _open_store(args)
    traced = _arm_trace_cli(args, process="cli:campaign")
    try:
        results = campaign.run(
            seed=args.seed, workers=args.workers, chunk_size=args.chunk_size,
            store=store,
        )
    finally:
        if traced:
            telemetry.disarm()  # flushes buffered spans
    if traced:
        campaign_id = results.metadata.get("campaign_id")
        if campaign_id:
            print(f"trace recorded: repro trace {campaign_id[:12]} "
                  f"--store {args.store}")
    print(results.summary())
    if store is not None:
        _print_store_outcome(results)
        store.close()
    if args.out:
        print(f"JSON written to {results.to_json(args.out)}")
    if args.csv:
        print(f"CSV written to {results.to_csv(args.csv)}")
    return 0


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
def cmd_search(args) -> int:
    if args.top < 0:
        raise SystemExit("--top must be >= 0")
    table = _table_for(args)
    store = _open_store(args)
    # One generator drives the GA and the fitness noise: the search is
    # a function of --seed alone.
    rng = np.random.default_rng(args.seed)
    try:
        fitness = EncounterFitness(
            table, num_runs=args.runs, equipage=args.equipage,
            coordination=args.coordination == "on", seed=rng,
            backend=args.backend, store=store,
            backend_options=_backend_options(args),
        )
        outcome = SearchRunner(fitness, ga_config=GAConfig(
            population_size=args.population, generations=args.generations,
        )).run(seed=rng, top_k=args.top, verbose=args.verbose)
    except ValueError as error:  # e.g. distributed without queue/store
        raise SystemExit(str(error))
    if store is not None:
        print(f"store: {len(store.campaigns())} campaigns in {args.store}")
        store.close()

    print("fitness by generation:")
    for row in outcome.generation_summary():
        print(
            f"  gen {row['generation']}: min={row['min']:.1f} "
            f"mean={row['mean']:.1f} max={row['max']:.1f}"
        )
    print("top encounters:")
    for i, encounter in enumerate(outcome.top_encounters):
        print(
            f"  #{i + 1}: fitness={encounter.fitness:.1f} "
            f"geometry={encounter.geometry} "
            f"rel-speed={relative_horizontal_speed_of(encounter.parameters):.1f}"
        )
    print(f"geometry counts: {outcome.geometry_counts()}")

    if args.out:
        payload = {
            "seed": args.seed,
            "population": args.population,
            "generations": args.generations,
            "runs_per_evaluation": args.runs,
            "backend": fitness.backend.name,
            "equipage": fitness.backend.equipage,
            "coordination": fitness.backend.coordination,
            "table_preset": None if table is None else args.preset,
            "generation_summary": outcome.generation_summary(),
            "top_encounters": [
                {
                    "fitness": encounter.fitness,
                    "generation": encounter.generation,
                    "geometry": encounter.geometry,
                    "genome": encounter.genome.tolist(),
                }
                for encounter in outcome.top_encounters
            ],
        }
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"report written to {args.out}")
    return 0


# ----------------------------------------------------------------------
# montecarlo
# ----------------------------------------------------------------------
def cmd_montecarlo(args) -> int:
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    table = _table_for(args)
    store = _open_store(args)
    estimator = MonteCarloEstimator(
        table,
        StatisticalEncounterModel(),
        runs_per_encounter=args.runs,
        backend=args.backend,
        workers=args.workers,
        store=store,
        backend_options=_backend_options(args),
    )
    try:
        report = estimator.estimate(args.encounters, seed=args.seed)
    except ValueError as error:  # e.g. distributed without queue/store
        raise SystemExit(str(error))
    print(report.summary())
    if store is not None:
        for label, arm in (
            ("equipped", report.equipped_results),
            ("unequipped", report.unequipped_results),
        ):
            _print_store_outcome(arm, label=f"store [{label}]")
        store.close()
    return 0


# ----------------------------------------------------------------------
# inspect
# ----------------------------------------------------------------------
def cmd_inspect(args) -> int:
    from repro.acasx.policy_analysis import action_map, alert_boundary

    table = _load_table(args)
    print(f"table: {table}")
    print()
    print("greedy action over (relative altitude h, tau), level rates,")
    print("from COC ('.'=COC c/C=climb/strong d/D=descend/strong):")
    print(action_map(table))
    print()
    print("alerting envelope (largest tau already alerting, per h):")
    for h, tau in alert_boundary(table):
        bar = "#" * int(tau or 0)
        print(f"  h={h:+7.1f} m: {tau if tau is not None else '-':>5} {bar}")
    return 0


# ----------------------------------------------------------------------
# airspace
# ----------------------------------------------------------------------
def cmd_airspace(args) -> int:
    table = _table_for(args)
    simulation = AirspaceSimulation(table)
    result = simulation.run(
        args.aircraft, duration=args.duration, seed=args.seed
    )
    print(f"aircraft: {result.num_aircraft}, duration: {result.duration:.0f}s")
    print(f"NMAC pairs: {result.nmac_count} {result.nmac_pairs}")
    print(
        f"closest pair: {result.closest_pair} at "
        f"{result.min_pair_separation:.1f} m"
    )
    print(f"fraction of aircraft that alerted: {result.alert_fraction:.2f}")
    return 0


# ----------------------------------------------------------------------
# distributed: submit / worker / status
# ----------------------------------------------------------------------
def cmd_submit(args) -> int:
    campaign = _campaign_from_args(args)
    traced = _arm_trace_cli(args, process="cli:submit")
    try:
        run = campaign.submit(
            seed=args.seed,
            queue=args.queue,
            store=args.store,
            chunk_size=args.chunk_size,
        )
    finally:
        if traced:
            telemetry.disarm()  # flushes the submit/enqueue spans
    print(f"campaign {run.campaign_id[:12]}: "
          f"{run.num_scenarios} scenarios x {args.runs} runs")
    if traced:
        print(f"trace armed: workers will add spans; view with "
              f"repro trace {run.campaign_id[:12]} --store {args.store}")
    print(f"enqueued {run.chunks_enqueued} chunk(s) "
          f"({run.already_stored} scenario(s) already stored, "
          f"{run.simulated} to simulate)")
    print(f"queue: {args.queue}")
    print(f"store: {args.store}")
    if run.simulated:
        print(f"run workers with: repro worker --queue {args.queue}")
    else:
        print("campaign is already complete; nothing to do")
    return 0


def cmd_worker(args) -> int:
    from repro.distributed import (
        EXIT_HEARTBEAT_DEAD,
        HeartbeatFailure,
        Worker,
    )

    if args.lease <= 0:
        raise SystemExit("--lease must be > 0")
    if args.skew_margin < 0:
        raise SystemExit("--skew-margin must be >= 0")
    worker = Worker(
        args.queue,
        worker_id=args.worker_id,
        lease_seconds=args.lease,
        poll_interval=args.poll,
        campaign_id=args.campaign,
        skew_margin=args.skew_margin,
    )
    try:
        stats = worker.run(
            max_chunks=args.max_chunks,
            idle_timeout=args.idle_timeout,
            forever=args.forever,
        )
    except HeartbeatFailure as failure:
        # The lease heartbeat thread died: the lease will lapse and a
        # rival may reclaim our chunk, so racing it is unsafe.  Exit
        # with a status a supervisor can tell apart from a drain.
        print(f"worker: {failure}", file=sys.stderr)
        return EXIT_HEARTBEAT_DEAD
    print(stats.summary())
    return 0


def cmd_fleet(args) -> int:
    from repro.distributed import FleetSupervisor

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.lease <= 0:
        raise SystemExit("--lease must be > 0")
    supervisor = FleetSupervisor(
        args.queue,
        workers=args.workers,
        campaign_id=args.campaign,
        lease_seconds=args.lease,
        poll_interval=args.poll,
        skew_margin=args.skew_margin,
        restart_backoff=args.backoff,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        stall_timeout=args.stall_timeout,
    )
    try:
        report = supervisor.run(timeout=args.timeout)
    except (RuntimeError, TimeoutError) as error:
        raise SystemExit(str(error))
    if args.verbose:
        for event in report.events:
            print(event.describe())
    else:
        # Restarts/give-ups/stall-kills are incident evidence — always
        # show the recent tail, not only under --verbose.
        tail = report.tail()
        if tail:
            print(f"recent events (last {len(tail)} of "
                  f"{len(report.events)}):")
            for line in tail:
                print(f"  {line}")
    print(report.summary())
    return 0 if report.drained else 1


def cmd_status(args) -> int:
    from repro.distributed import ChunkCounts, Progress

    with _open_queue(args.queue) as queue:
        jobs = queue.jobs()
        if not jobs:
            if args.format == "json":
                print(json.dumps({"queue": str(args.queue), "jobs": []}))
            else:
                print("queue is empty")
            return 0
        counts = queue.counts()
        # One store handle per distinct path — and never *create* a
        # store here: status is read-only, and a job whose store path
        # does not exist from this host/cwd must be reported, not
        # papered over with a fresh empty database.
        stores: dict = {}
        rows = []
        try:
            for job in jobs:
                tally = counts.get(job.campaign_id, ChunkCounts())
                if job.store_path not in stores:
                    stores[job.store_path] = (
                        ResultStore(job.store_path)
                        if Path(job.store_path).exists()
                        else None
                    )
                store = stores[job.store_path]
                done = (
                    None if store is None
                    else len(store.completed_indices(job.campaign_id))
                )
                rows.append({
                    "campaign_id": job.campaign_id,
                    "num_scenarios": job.num_scenarios,
                    "store_path": job.store_path,
                    "store_missing": store is None,
                    "records_done": done,
                    "complete": done is not None and Progress(
                        job.campaign_id, tally, done, job.num_scenarios
                    ).complete,
                    "chunks": tally.to_dict(),
                })
        finally:
            for store in stores.values():
                if store is not None:
                    store.close()
    incomplete = sum(1 for row in rows if not row["complete"])
    if args.format == "json":
        print(json.dumps(
            {"queue": str(args.queue), "jobs": rows,
             "incomplete": incomplete},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{'id':<13} {'scenarios':>9} {'chunks':>7} "
          f"{'pending':>8} {'claimed':>8} {'done':>6} "
          f"{'failed':>7} records")
    for row in rows:
        tally = row["chunks"]
        records = (
            "store missing" if row["store_missing"]
            else f"{row['records_done']}/{row['num_scenarios']}"
        )
        print(f"{row['campaign_id'][:12]:<13} "
              f"{row['num_scenarios']:>9} {tally['total']:>7} "
              f"{tally['pending']:>8} {tally['claimed']:>8} "
              f"{tally['done']:>6} {tally['failed']:>7} {records}")
    print(f"{len(rows)} campaign(s), {incomplete} incomplete")
    return 0


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    from repro.service import (
        CampaignService,
        Watchlist,
        WatchlistThread,
        make_app,
        make_http_server,
    )

    if args.watch_interval < 0:
        raise SystemExit("--watch-interval must be >= 0 (0 disables)")
    service = CampaignService(
        args.store,
        queue=args.queue,
        preset=args.preset,
        verbose=args.verbose,
    )
    if args.store != ":memory:":
        # The serve daemon is always traced: request/submit spans land
        # in the store it serves, and submissions propagate the trace
        # to the worker fleet through job metadata.
        telemetry.arm(args.store, process="service")
    try:
        watchlist = Watchlist(
            service.store, baseline=args.baseline, top=args.top
        )
    except KeyError as error:
        service.close()
        raise SystemExit(str(error.args[0]))
    server = make_http_server(
        make_app(service, watchlist), host=args.host, port=args.port
    )
    watcher = (
        WatchlistThread(watchlist, interval=args.watch_interval)
        if args.watch_interval else None
    )
    host, port = server.server_address[:2]
    print(
        f"repro service listening on http://{host}:{port} "
        f"(store={args.store}, queue={args.queue or '-'}, "
        f"watch={'off' if watcher is None else f'{args.watch_interval}s'})",
        flush=True,
    )
    if watcher is not None:
        watcher.start()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if watcher is not None:
            watcher.stop()
        service.close()
        telemetry.disarm()  # flush any buffered spans
    return 0


def cmd_trace(args) -> int:
    """Render one campaign's span tree (``repro trace``)."""
    if not Path(args.store).exists():
        raise SystemExit(f"store not found: {args.store}")
    with ResultStore(args.store) as store:
        try:
            campaign_id = store.resolve(args.campaign)
        except KeyError:
            # Spans can outlive (or precede) the campaign row; fall
            # back to prefix-matching the spans table directly.
            campaign_id = args.campaign
    spans = telemetry.load_spans(args.store, campaign_id=campaign_id)
    if not spans:
        print(f"no spans recorded for campaign {args.campaign} "
              f"(run with --trace, or serve/submit through a traced "
              f"service)", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(telemetry.trace_payload(spans), indent=2,
                         sort_keys=True))
    else:
        print(telemetry.render_trace(spans), end="")
    return 0


def cmd_metrics(args) -> int:
    """Headless Prometheus scrape from store/queue state (no HTTP)."""
    if args.store is None and args.queue is None:
        raise SystemExit("nothing to scrape: pass --store and/or --queue")
    text = telemetry.scrape(queue_path=args.queue, store_path=args.store)
    print(text, end="")
    return 0


def cmd_watchlist(args) -> int:
    from repro.service import Watchlist

    if not Path(args.store).exists():
        raise SystemExit(f"store not found: {args.store}")
    with ResultStore(args.store) as store:
        try:
            watchlist = Watchlist(store, baseline=args.baseline,
                                  top=args.top)
        except KeyError as error:
            raise SystemExit(str(error.args[0]))
        snapshot = watchlist.snapshot(refresh=True)
        if args.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(watchlist.brief(), end="")
    if args.fail_on_alert and snapshot["alerts"]:
        return 3
    return 0


# ----------------------------------------------------------------------
# queue maintenance
# ----------------------------------------------------------------------
def cmd_queue(args) -> int:
    with _open_queue(args.path) as queue:
        if args.queue_command == "gc":
            if args.max_age is not None and args.max_age < 0:
                raise SystemExit("--max-age must be >= 0")
            report = queue.gc(
                campaign_id=args.campaign,
                max_age=args.max_age,
                dry_run=args.dry_run,
            )
            print(report.describe())
    return 0


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def cmd_store(args) -> int:
    with ResultStore(args.path) as store:
        try:
            return _STORE_COMMANDS[args.store_command](store, args)
        except KeyError as error:
            raise SystemExit(str(error.args[0]))
        except ValueError as error:
            # Malformed/forbidden --where filters arrive here: one
            # clean line, not a sqlite traceback.
            raise SystemExit(str(error))


def _open_queue(queue_path):
    """Open an *existing* work queue, or exit with a clear error.

    Read-side commands must report a wrong queue path, not mask the
    typo by creating a fresh empty database there (``WorkQueue``
    creates on open, like ``ResultStore``).
    """
    from repro.distributed import WorkQueue

    if not Path(queue_path).exists():
        raise SystemExit(f"queue not found: {queue_path}")
    return WorkQueue(queue_path)


def _queue_counts(args):
    """Per-campaign chunk tallies from ``--queue``, or ``None``."""
    queue_path = getattr(args, "queue", None)
    if queue_path is None:
        return None
    with _open_queue(queue_path) as queue:
        return queue.counts()


def _store_list(store: ResultStore, args) -> int:
    campaigns = store.campaigns(limit=args.limit, offset=args.offset)
    if args.format == "json":
        # CampaignInfo.to_dict is the same machine-readable shape the
        # service's GET /campaigns serves — scripts parse one schema.
        print(json.dumps([info.to_dict() for info in campaigns],
                         indent=2, sort_keys=True))
        return 0
    if not campaigns:
        print("store is empty")
        return 0
    counts = _queue_counts(args)
    header = (f"{'id':<13} {'label':<24} {'scn x runs':>12} "
              f"{'backend':<16} {'equipage':<8} status")
    if counts is not None:
        header += "    queue"
    print(header)
    for info in campaigns:
        line = info.describe()
        if counts is not None:
            tally = counts.get(info.campaign_id)
            line += f"    {tally.describe() if tally else '-'}"
        print(line)
    return 0


def _store_show(store: ResultStore, args) -> int:
    info = store.get_campaign(args.campaign)
    results = store.resultset(info.campaign_id)
    print(f"campaign:  {info.campaign_id}")
    print(f"label:     {info.label}")
    print(f"created:   {info.created_at}")
    print(f"status:    {info.completed}/{info.num_scenarios} scenarios"
          f" ({'complete' if info.complete else 'partial'})")
    counts = _queue_counts(args)
    if counts is not None:
        tally = counts.get(info.campaign_id)
        print(f"queue:     "
              f"{tally.describe() if tally else 'not in this queue'}")
    print(f"cpu count: {info.cpu_count}")
    seed = "-" if info.seed_entropy is None else str(info.seed_entropy)
    print(f"seed entropy: {seed}")
    print(results.summary())
    return 0


def _store_records(store: ResultStore, args) -> int:
    from repro.experiments.campaign import CSV_FIELDS

    rows = store.records(
        campaign_id=args.campaign,
        where=args.where,
        params=tuple(args.params or ()),
        limit=args.limit,
        offset=args.offset,
    )
    payload = [
        {"campaign_id": stored.campaign_id,
         **stored.record.to_dict(include_genome=not args.no_genomes)}
        for stored in rows
    ]
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        import csv as csv_module
        import io

        fields = ["campaign_id", *CSV_FIELDS]
        buffer = io.StringIO()
        writer = csv_module.DictWriter(
            buffer, fieldnames=fields, extrasaction="ignore"
        )
        writer.writeheader()
        for row in payload:
            writer.writerow(row)
        text = buffer.getvalue().rstrip("\n")
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"{len(payload)} record(s) written to {args.out}")
    else:
        print(text)
    return 0


def _store_export(store: ResultStore, args) -> int:
    if not args.out and not args.csv:
        raise SystemExit("store export needs --out and/or --csv")
    campaign_id = store.resolve(args.campaign)
    if args.out:
        path = store.export_json(
            campaign_id, args.out, include_genomes=not args.no_genomes
        )
        print(f"JSON written to {path}")
    if args.csv:
        print(f"CSV written to {store.export_csv(campaign_id, args.csv)}")
    return 0


def _store_diff(store: ResultStore, args) -> int:
    print(store.diff(args.campaign_a, args.campaign_b).summary())
    return 0


def _store_verify(store: ResultStore, args) -> int:
    campaign_id = (
        store.resolve(args.campaign) if args.campaign else None
    )
    report = store.verify(campaign_id=campaign_id, repair=args.repair)
    print(report.describe())
    if report.corrupt and not args.repair:
        return 2
    return 0


_STORE_COMMANDS = {
    "list": _store_list,
    "show": _store_show,
    "export": _store_export,
    "diff": _store_diff,
    "records": _store_records,
    "verify": _store_verify,
}


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "UAV collision avoidance validation toolkit "
            "(reproduction of Zou et al., DSN 2016)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--preset", default="test",
                         choices=("test", "paper"),
                         help="model resolution preset")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--verbose", action="store_true")
        sub.add_argument("--no-cache", action="store_true",
                         help="always re-solve the logic table")

    def add_backend_args(sub, equipage_choices=EQUIPAGES):
        # Same spellings as the library's experiment registry, so CLI
        # invocations translate 1:1 into Campaign(...) calls.
        sub.add_argument("--backend", default="vectorized-batch",
                         choices=available_backends(),
                         help="simulation backend (fidelity vs. speed)")
        sub.add_argument("--equipage", default="both",
                         choices=equipage_choices)
        sub.add_argument("--coordination", default="on",
                         choices=("on", "off"),
                         help="maneuver-sense exchange between equipped "
                              "aircraft")

    def add_campaign_shape_args(sub):
        # The campaign-shape flags _campaign_from_args consumes, shared
        # by `campaign` (run now) and `submit` (enqueue for workers).
        sub.add_argument(
            "--scenarios", default=None,
            help="comma-separated preset names "
                 f"(available: {', '.join(sorted(PRESETS))}; "
                 "default: all presets)",
        )
        sub.add_argument(
            "--sample", type=int, default=0, metavar="N",
            help="instead of presets, draw N encounters from the "
                 "statistical model",
        )
        sub.add_argument("--runs", type=int, default=20,
                         help="stochastic runs per scenario")
        sub.add_argument("--chunk-size", type=int, default=None,
                         help="scenarios per execution chunk (default: "
                              "backend-sized; results are identical for "
                              "any chunking)")

    solve = subparsers.add_parser("solve", help="build a logic table")
    add_common(solve)
    solve.add_argument("--out", help="also save the table to this .npz path")
    solve.add_argument("--verify", action="store_true",
                       help="run verification checks")
    solve.add_argument("--deep-verify", action="store_true",
                       help="include the dense-solver cross-check")
    solve.set_defaults(func=cmd_solve)

    simulate = subparsers.add_parser("simulate", help="run one encounter")
    add_common(simulate)
    simulate.add_argument("--geometry", default="head-on",
                          choices=("head-on", "tail", "random"))
    simulate.add_argument("--equipage", default="both", choices=EQUIPAGES)
    simulate.add_argument("--trace", action="store_true",
                          help="print an ASCII vertical profile")
    simulate.set_defaults(func=cmd_simulate)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a declarative simulation campaign",
    )
    add_common(campaign)
    add_backend_args(campaign)
    add_campaign_shape_args(campaign)
    campaign.add_argument("--workers", type=int, default=1,
                          help="process-parallel scenario fan-out")
    campaign.add_argument("--out", help="write the full JSON export here")
    campaign.add_argument("--csv", help="write per-scenario CSV here")
    campaign.add_argument(
        "--store", metavar="PATH",
        help="persist results into this sqlite result store (re-running "
             "the same campaign resumes: only missing scenarios "
             "simulate); with --backend distributed this is the store "
             "the worker fleet drains into",
    )
    campaign.add_argument(
        "--queue", metavar="PATH",
        help="shared work-queue path for --backend distributed "
             "(default: $REPRO_QUEUE)",
    )
    campaign.add_argument(
        "--trace", action="store_true",
        help="record a span trace into --store (results stay bitwise "
             "identical); 'repro trace' shows it, with the kernel's "
             "tape-draw/decision/physics/observe split as kernel.* spans",
    )
    campaign.set_defaults(func=cmd_campaign)

    submit = subparsers.add_parser(
        "submit",
        help="enqueue a campaign for distributed workers",
        description=(
            "Plan a campaign into chunk tasks (seeds pre-spawned, so "
            "worker placement cannot change results) and enqueue them "
            "into a shared sqlite work queue.  Run 'repro worker "
            "--queue PATH' anywhere the queue file is reachable to "
            "execute them into the result store; 'repro status' tracks "
            "progress.  Scenarios the store already holds are not "
            "enqueued — re-submitting a completed campaign performs "
            "zero new simulations."
        ),
    )
    add_common(submit)
    add_backend_args(submit)
    add_campaign_shape_args(submit)
    submit.add_argument("--queue", metavar="PATH", required=True,
                        help="shared work-queue sqlite path")
    submit.add_argument("--store", metavar="PATH", required=True,
                        help="result store the workers drain into")
    submit.add_argument(
        "--trace", action="store_true",
        help="open a trace the worker fleet joins (span context rides "
             "the job metadata); view with 'repro trace'",
    )
    submit.set_defaults(func=cmd_submit)

    worker = subparsers.add_parser(
        "worker",
        help="run a distributed campaign worker",
        description=(
            "Claim chunks from the shared queue under a heartbeated "
            "lease, simulate them (building the backend once from the "
            "submitted spec) and write records into the job's result "
            "store.  By default the worker drains the queue and exits; "
            "--forever keeps it polling as a service.  Chunks held by "
            "workers that die are reclaimed when their lease expires; "
            "duplicate deliveries dedup in the store."
        ),
    )
    worker.add_argument("--queue", metavar="PATH", required=True,
                        help="shared work-queue sqlite path")
    worker.add_argument("--worker-id", default=None,
                        help="lease identity (default: host:pid)")
    worker.add_argument("--campaign", default=None, metavar="ID",
                        help="only claim this campaign's chunks (full "
                             "id; default: any campaign in the queue)")
    worker.add_argument("--lease", type=float, default=60.0,
                        help="lease seconds per claim (heartbeat renews "
                             "at a third of this)")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between claim attempts when idle")
    worker.add_argument("--skew-margin", type=float, default=0.0,
                        help="extra seconds past a lease's expiry before "
                             "reclaiming it — set to a bound on "
                             "cross-host clock skew when the queue "
                             "spans machines (default: 0)")
    worker.add_argument("--max-chunks", type=int, default=None,
                        help="stop after this many chunks")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        help="stop after this long without claiming "
                             "anything")
    worker.add_argument("--forever", action="store_true",
                        help="keep polling an empty queue (service mode)")
    worker.set_defaults(func=cmd_worker)

    fleet = subparsers.add_parser(
        "fleet",
        help="run a self-healing local worker fleet",
        description=(
            "Spawn N `repro worker` subprocesses in drain mode and "
            "supervise them: crashed workers are restarted with "
            "exponential backoff (a SIGKILLed worker's chunk is "
            "reclaimed on lease expiry), a slot that crash-loops "
            "--max-restarts times within --restart-window gives up "
            "(the fleet degrades to the survivors), and only if every "
            "slot gives up with work still queued does the command "
            "fail, printing the last worker's stderr.  Exits 0 when "
            "the queue drained, 1 otherwise."
        ),
    )
    fleet.add_argument("--queue", metavar="PATH", required=True,
                       help="shared work-queue sqlite path")
    fleet.add_argument("--workers", type=int, default=2,
                       help="worker slots to keep live (default: 2)")
    fleet.add_argument("--campaign", default=None, metavar="ID",
                       help="pin workers to this campaign (full id)")
    fleet.add_argument("--lease", type=float, default=15.0,
                       help="lease seconds per claim (short leases "
                            "reclaim a killed worker's chunk sooner)")
    fleet.add_argument("--poll", type=float, default=0.1,
                       help="worker seconds between claim attempts")
    fleet.add_argument("--skew-margin", type=float, default=0.0,
                       help="extra seconds past lease expiry before "
                            "reclaiming (cross-host clock-skew bound)")
    fleet.add_argument("--backoff", type=float, default=0.25,
                       help="seconds before a crashed worker's first "
                            "restart (doubles per crash, capped)")
    fleet.add_argument("--max-restarts", type=int, default=5,
                       help="crashes within --restart-window before a "
                            "slot gives up")
    fleet.add_argument("--restart-window", type=float, default=60.0,
                       help="crash-loop detection window, seconds")
    fleet.add_argument("--stall-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill-and-restart a live worker whose queue "
                            "heartbeat is older than this (default: "
                            "disabled)")
    fleet.add_argument("--timeout", type=float, default=None,
                       help="give up entirely after this long")
    fleet.add_argument("--verbose", action="store_true",
                       help="print every worker exit/restart event")
    fleet.set_defaults(func=cmd_fleet)

    status = subparsers.add_parser(
        "status",
        help="chunk and record progress of queued campaigns",
    )
    status.add_argument("queue", help="shared work-queue sqlite path")
    status.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="output format (json matches the service's machine view)",
    )
    status.set_defaults(func=cmd_status)

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign HTTP service + risk watchlist",
        description=(
            "Long-running stdlib-only HTTP front door over a result "
            "store (and optionally a work queue): POST /campaigns "
            "submits plain-JSON campaign specs, GET /campaigns[/{id}"
            "[/records|/diff/{b}]] introspects them, GET /workers "
            "reports fleet liveness, and a background watchlist "
            "thread keeps GET /watchlist, /alerts and /brief fresh."
        ),
    )
    serve.add_argument("--store", required=True,
                       help="result-store sqlite path (created if missing)")
    serve.add_argument("--queue", default=None, metavar="PATH",
                       help="shared work-queue path: submissions are "
                            "enqueued for the worker fleet (with a "
                            "fallback drainer when no worker is live) "
                            "instead of running in-process")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 picks an ephemeral one)")
    serve.add_argument("--preset", default="test",
                       choices=("test", "paper"),
                       help="default logic-table preset for equipped "
                            "submissions")
    serve.add_argument("--watch-interval", type=float, default=30.0,
                       metavar="SECONDS",
                       help="watchlist re-scan interval (0 disables the "
                            "background thread; ?refresh=1 still works)")
    serve.add_argument("--baseline", default=None, metavar="ID",
                       help="pin this stored campaign (prefix ok) as the "
                            "regression baseline at startup")
    serve.add_argument("--top", type=int, default=10,
                       help="encounters kept on the watchlist ranking")
    serve.add_argument("--verbose", action="store_true")
    serve.set_defaults(func=cmd_serve)

    watchlist = subparsers.add_parser(
        "watchlist",
        help="one-shot risk watchlist scan of a result store",
        description=(
            "The service's scan → rank → alert pass as a one-shot: "
            "rank the store's worst encounters and, with --baseline, "
            "check every comparable campaign for NMAC/false-alarm "
            "regressions.  --fail-on-alert exits 3 when any alert "
            "fires (CI gate shape)."
        ),
    )
    watchlist.add_argument("store", help="result-store sqlite path")
    watchlist.add_argument("--baseline", default=None, metavar="ID",
                           help="baseline campaign id (prefix ok)")
    watchlist.add_argument("--top", type=int, default=10)
    watchlist.add_argument("--format", default="text",
                           choices=("text", "json"))
    watchlist.add_argument("--fail-on-alert", action="store_true",
                           help="exit 3 if any regression alert fires")
    watchlist.set_defaults(func=cmd_watchlist)

    trace_cmd = subparsers.add_parser(
        "trace",
        help="render one campaign's span trace as a waterfall",
        description=(
            "Load the spans a traced run recorded into the result "
            "store (campaign --trace, submit --trace, or any campaign "
            "submitted through a 'repro serve' daemon) and render them "
            "as an indented waterfall with the critical path marked — "
            "one connected tree even when the work crossed a "
            "coordinator, a supervisor, and a fleet of worker "
            "processes — followed by totals per span name, the "
            "kernel.* phase split included."
        ),
    )
    trace_cmd.add_argument("campaign", help="campaign id (prefix ok)")
    trace_cmd.add_argument("--store", metavar="PATH", required=True,
                           help="result store holding the spans")
    trace_cmd.add_argument("--format", default="text",
                           choices=("text", "json"),
                           help="json emits the same payload as "
                                "GET /campaigns/{id}/trace")
    trace_cmd.set_defaults(func=cmd_trace)

    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="print a Prometheus scrape without running the service",
        description=(
            "Assemble the same Prometheus text exposition GET /metrics "
            "serves — worker-published counters aggregated through the "
            "queue plus queue/store state gauges — directly from the "
            "sqlite files, for fleets running without an HTTP front "
            "door."
        ),
    )
    metrics_cmd.add_argument("--store", metavar="PATH", default=None,
                             help="result store to gauge")
    metrics_cmd.add_argument("--queue", metavar="PATH", default=None,
                             help="work queue to aggregate")
    metrics_cmd.set_defaults(func=cmd_metrics)

    queue_cmd = subparsers.add_parser(
        "queue", help="work-queue maintenance"
    )
    queue_sub = queue_cmd.add_subparsers(dest="queue_command",
                                         required=True)
    queue_gc = queue_sub.add_parser(
        "gc",
        help="drop finished chunks and orphaned job and table rows",
        description=(
            "Garbage-collect the work queue: delete done/failed chunk "
            "rows (their payloads are the bulk of the file) of "
            "campaigns with no actionable work left — or, with "
            "--max-age, of campaigns older than that many seconds — "
            "plus job rows left without chunks, logic-table rows no "
            "job names, and stale worker liveness rows.  Pending and "
            "claimed chunks always survive: gc never cancels work.  "
            "--dry-run reports what would be dropped without touching "
            "anything."
        ),
    )
    queue_gc.add_argument("path", help="shared work-queue sqlite path")
    queue_gc.add_argument("--dry-run", action="store_true",
                          help="report, don't delete")
    queue_gc.add_argument("--campaign", default=None, metavar="ID",
                          help="only collect this campaign (full id)")
    queue_gc.add_argument("--max-age", type=float, default=None,
                          metavar="SECONDS",
                          help="also collect campaigns submitted more "
                               "than this many seconds ago, even with "
                               "work outstanding")
    queue_gc.set_defaults(func=cmd_queue)

    search = subparsers.add_parser(
        "search", help="GA search for challenging encounters"
    )
    add_common(search)
    add_backend_args(search, equipage_choices=("both", "own-only"))
    search.add_argument("--population", type=int, default=30)
    search.add_argument("--generations", type=int, default=4)
    search.add_argument("--runs", type=int, default=20,
                        help="simulation runs per fitness evaluation")
    search.add_argument("--top", type=int, default=10)
    search.add_argument("--out", help="write a JSON report here")
    search.add_argument(
        "--store", metavar="PATH",
        help="log every generation's fitness campaign into this store",
    )
    search.add_argument(
        "--queue", metavar="PATH",
        help="shared work-queue path for --backend distributed "
             "(default: $REPRO_QUEUE)",
    )
    search.set_defaults(func=cmd_search)

    montecarlo = subparsers.add_parser(
        "montecarlo", help="Monte-Carlo rate estimation"
    )
    add_common(montecarlo)
    montecarlo.add_argument("--backend", default="vectorized-batch",
                            choices=available_backends(),
                            help="simulation backend for both arms")
    montecarlo.add_argument("--encounters", type=int, default=100)
    montecarlo.add_argument("--runs", type=int, default=10,
                            help="runs per encounter per arm")
    montecarlo.add_argument("--workers", type=int, default=1,
                            help="process-parallel encounter fan-out")
    montecarlo.add_argument(
        "--store", metavar="PATH",
        help="persist both arms' campaigns into this result store",
    )
    montecarlo.add_argument(
        "--queue", metavar="PATH",
        help="shared work-queue path for --backend distributed "
             "(default: $REPRO_QUEUE)",
    )
    montecarlo.set_defaults(func=cmd_montecarlo)

    store = subparsers.add_parser(
        "store", help="query a persistent campaign result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_list = store_sub.add_parser("list", help="list stored campaigns")
    store_list.add_argument("path", help="store sqlite path")
    store_list.add_argument(
        "--queue", metavar="PATH",
        help="also show each campaign's work-queue chunk counts "
             "(pending/claimed/done) from this queue",
    )
    store_list.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="json emits the same campaign dicts as GET /campaigns",
    )
    store_list.add_argument("--limit", type=int, default=None,
                            help="return at most this many campaigns")
    store_list.add_argument("--offset", type=int, default=0,
                            help="skip this many campaigns first")

    store_show = store_sub.add_parser(
        "show", help="one campaign's provenance and summary"
    )
    store_show.add_argument("path", help="store sqlite path")
    store_show.add_argument("campaign", help="campaign id (prefix ok)")
    store_show.add_argument(
        "--queue", metavar="PATH",
        help="also show the campaign's work-queue chunk counts",
    )

    store_records = store_sub.add_parser(
        "records",
        help="query stored per-scenario records across campaigns",
        description=(
            "Rows of per-scenario aggregates (optionally filtered with "
            "a SQL --where over the records columns, e.g. "
            "\"nmac_rate > 0\"), as JSON or CSV — the cross-campaign "
            "query shape loose export files cannot answer."
        ),
    )
    store_records.add_argument("path", help="store sqlite path")
    store_records.add_argument(
        "--campaign", default=None,
        help="restrict to one campaign id (prefix ok; default: all)",
    )
    store_records.add_argument(
        "--where", default=None,
        help="SQL filter over the records columns "
             "(e.g. \"nmac_rate > 0.5\")",
    )
    store_records.add_argument(
        "--params", nargs="*", default=None, metavar="VALUE",
        help="positional parameters for ? placeholders in --where",
    )
    store_records.add_argument(
        "--format", default="json", choices=("json", "csv"),
        help="output format (default: json)",
    )
    store_records.add_argument("--out", help="write here instead of stdout")
    store_records.add_argument("--no-genomes", action="store_true",
                               help="omit genome vectors from the JSON")
    store_records.add_argument("--limit", type=int, default=None,
                               help="return at most this many records")
    store_records.add_argument("--offset", type=int, default=0,
                               help="skip this many records first")

    store_export = store_sub.add_parser(
        "export", help="export a campaign as JSON/CSV"
    )
    store_export.add_argument("path", help="store sqlite path")
    store_export.add_argument("campaign", help="campaign id (prefix ok)")
    store_export.add_argument("--out", help="JSON output path")
    store_export.add_argument("--csv", help="CSV output path")
    store_export.add_argument("--no-genomes", action="store_true",
                              help="omit genome vectors from the JSON")

    store_diff = store_sub.add_parser(
        "diff", help="compare two stored campaigns"
    )
    store_diff.add_argument("path", help="store sqlite path")
    store_diff.add_argument("campaign_a", help="campaign id (prefix ok)")
    store_diff.add_argument("campaign_b", help="campaign id (prefix ok)")

    store_verify = store_sub.add_parser(
        "verify",
        help="check per-record checksums; --repair quarantines",
        description=(
            "Re-hash every stored record blob against its recorded "
            "sha256 (and re-decode it) to catch torn writes and "
            "bit-rot.  Without --repair, corrupt rows are reported "
            "and the command exits 2.  With --repair they are moved "
            "to a quarantine table and deleted from the live records, "
            "so resubmitting the campaign re-simulates exactly the "
            "damaged scenarios.  Legacy rows without a checksum are "
            "backfilled during --repair."
        ),
    )
    store_verify.add_argument("path", help="store sqlite path")
    store_verify.add_argument(
        "--campaign", default=None,
        help="restrict to one campaign id (prefix ok; default: all)",
    )
    store_verify.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt rows and backfill legacy checksums",
    )

    store.set_defaults(func=cmd_store)

    inspect = subparsers.add_parser(
        "inspect", help="print the logic table's action map and envelope"
    )
    add_common(inspect)
    inspect.set_defaults(func=cmd_inspect)

    airspace = subparsers.add_parser(
        "airspace", help="multi-aircraft stress run"
    )
    add_common(airspace)
    airspace.add_argument("--aircraft", type=int, default=6)
    airspace.add_argument("--duration", type=float, default=120.0)
    airspace.add_argument("--equipage", default="both",
                          choices=("both", "none"))
    airspace.set_defaults(func=cmd_airspace)

    lint = subparsers.add_parser(
        "lint",
        help="check the repo's determinism/clock/fault/lock contracts",
        description=(
            "AST contract linter (repro.lint): R1 seeded-rng, R2 "
            "monotonic-durations, R3 fault-seam hygiene, R4 store/"
            "queue lock discipline, R5 identity purity.  Exit codes: "
            "0 clean, 1 findings, 2 config error, 3 stale baseline."
        ),
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
