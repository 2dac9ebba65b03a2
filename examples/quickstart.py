"""Quickstart: build the logic, run a validation campaign, inspect it.

Runs the full pipeline of the paper in miniature through the unified
campaign API:

1. solve the ACAS XU-like MDP into a logic table (model-based
   optimization, Sections II-III);
2. declare a campaign over the canonical geometries — equipped and
   coordinated — and run it with the megabatch backend (Section VI),
   persisting into a sqlite result store;
3. compare against the unequipped counterfactual campaign with a
   cross-campaign store diff;
4. demonstrate resume: re-running the stored campaign performs zero
   new simulations (after an interruption, only the missing tail
   would simulate);
5. demonstrate distributed execution: submit the campaign to a shared
   work queue (nothing enqueues — the store already holds it), then
   submit a fresh campaign, drain it with a 2-process worker fleet
   (``run_workers``), collect it, and check it matches the in-process
   run bit for bit;
6. demonstrate the fleet as a *backend*: ``backend="distributed"``
   makes a single ``Campaign.run`` target an already-running external
   worker fleet — and when none is live (as here), the run's own wait
   drains the queue in-process instead of hanging;
7. replay the worst scenario through the faithful agent engine to see
   its trajectory and advisories;
8. stand up the campaign *service* over the same store — submit a
   campaign as plain JSON through the in-process WSGI app (the exact
   application ``repro serve`` binds to a socket), read live progress
   and records over the REST surface, pin the equipped campaign as
   the watchlist baseline, and watch the unequipped one fire an NMAC
   regression alert in the text brief;
9. demonstrate the robustness layer: plant a torn record write with
   the deterministic fault injector (``repro.faults``), catch it with
   the store's per-record checksums (``repro store verify``),
   quarantine it (``--repair``) so resume re-simulates exactly the
   damaged scenario, and run a **self-healing fleet**
   (``repro fleet``) that restarts crashed workers with backoff and
   gives up cleanly on crash loops;
10. make the whole pipeline observable: re-run a campaign with tracing
    armed (spans persist into the result store; the traced run stays
    bitwise identical to its untraced twin), render the span-tree
    waterfall with its critical path, and scrape the fleet-wide
    Prometheus metrics snapshot.

**Choosing a backend.**  ``Campaign(backend=...)`` selects one of two
simulation behaviours:

- ``"agent"``            — one faithful agent-based simulation per run.
  Full scrutiny: traces, advisory timelines.  Slow.
- ``"vectorized-batch"`` — the megabatch kernel, default everywhere:
  whole chunks of scenarios flattened into a single lane array, with
  every scenario's disturbance/sensor noise pre-drawn into tapes, so a
  scenario's bits never depend on which scenarios share its chunk.

``"vectorized"`` is a legacy alias of ``"vectorized-batch"`` (bitwise
identical), kept so stored campaigns naming it keep resolving; the
agent engine agrees with the kernel statistically (under test).  For
timings on your host run the repository benchmark:
``python3 perfbench/run.py --workload ga_paper``.  Very large campaigns
can stream records without materializing the list via
``Campaign.iter_records(seed=...)``.

``Campaign.run(profile=True)`` (CLI: ``repro campaign --profile``)
additionally collects the megabatch kernel's per-phase wall-clock
breakdown — tape draw / decision / physics / observe — into
``results.metadata["kernel_profile"]``.

**Persisting into a result store.**  ``run(store=ResultStore(path))``
writes every record into a sqlite store keyed by the campaign's
content-addressed provenance hash.  Re-running the same campaign
*resumes* from the store: scenarios it already holds load instead of
simulating (kill a long campaign halfway and the re-run finishes only
the missing tail; a completed campaign re-runs with **zero** new
simulations), and ``store.diff(a, b)`` compares stored campaigns —
e.g. unequipped vs equipped NMAC rates — without re-simulating.  The
same store is scriptable from the shell::

    repro campaign --sample 200 --runs 100 --store results.sqlite
    repro store list results.sqlite
    repro store diff results.sqlite <id-a> <id-b>

**Distributed execution.**  ``Campaign.submit(queue=..., store=...)``
plans the campaign into chunk tasks — per-scenario seeds pre-spawned,
so which worker (or host) runs a scenario cannot change a single bit —
and enqueues them in a sqlite work queue shareable over a filesystem.
Workers claim chunks under heartbeated leases (a dead worker's chunk is
reclaimed when its lease expires), build their backend once from the
submitted spec, and drain records into the result store, whose
``(campaign, scenario)`` key makes at-least-once delivery harmless.
Scripts drive the cycle as ``submit`` → ``run_workers`` (or ``repro
worker`` on any host) → ``collect``; the ``"distributed"`` backend key
wraps it in one call: ``Campaign(backend="distributed",
backend_options={"queue": ..., "store": ...})`` (or the
``$REPRO_QUEUE``/``$REPRO_STORE`` environment variables) targets an
already-running external fleet from a single ``run()`` call, draining
the campaign in-process when no fleet member is live — and so do
``MonteCarloEstimator`` / ``SearchRunner``, which forward
``backend``/``backend_options`` unchanged.  From the shell::

    repro submit --sample 200 --runs 100 \\
        --queue queue.sqlite --store results.sqlite
    repro worker --queue queue.sqlite   # one per host/core, anywhere
    repro status queue.sqlite
    repro campaign --sample 200 --runs 100 --backend distributed \\
        --queue queue.sqlite --store results.sqlite
    repro store list results.sqlite --queue queue.sqlite
    repro queue gc queue.sqlite --dry-run   # collect finished chunks

**Self-healing fleets and store integrity.**  ``repro fleet`` is a
one-shot supervised fleet: it spawns ``repro worker`` subprocesses,
restarts any that crash (exponential backoff; a SIGKILLed worker's
chunk is reclaimed on lease expiry), and refuses to crash-loop — a
slot that dies repeatedly gives up, and only if *every* slot gives up
with work still queued does the command fail, printing the dead
worker's stderr.  Every stored record carries a sha256 checksum;
``repro store verify`` audits them (torn writes, bit-rot) and
``--repair`` quarantines corrupt rows so the next resume re-simulates
exactly the damaged scenarios — zero extra simulations::

    repro fleet --queue queue.sqlite --workers 4   # supervised drain
    repro store verify results.sqlite              # checksum audit
    repro store verify results.sqlite --repair     # quarantine, then
    repro submit ... && repro fleet ...            # heal on resume

**The campaign service.**  The same store (and optionally the same
queue) serve a long-running HTTP front door — stdlib-only, started
with ``repro serve``::

    repro serve --store results.sqlite --queue queue.sqlite --port 8000

    # submit a campaign spec as plain JSON (the Campaign.from_spec
    # wire format); with "wait": true the response carries the final
    # progress snapshot, otherwise poll GET /campaigns/<id>
    curl -X POST localhost:8000/campaigns \\
        -d '{"scenarios": ["head_on", "tail_approach"], "runs": 100,
             "seed": 42, "label": "equipped"}'
    curl localhost:8000/campaigns                      # list
    curl localhost:8000/campaigns/<id>                 # live progress
    curl 'localhost:8000/campaigns/<id>/records?limit=10&offset=0'
    curl localhost:8000/campaigns/<a>/diff/<b>
    curl localhost:8000/workers                        # fleet liveness

    # the standing risk watchlist: pin a baseline, read alerts/brief
    curl -X POST localhost:8000/watchlist/baseline \\
        -d '{"campaign_id": "<id>"}'
    curl localhost:8000/watchlist                      # worst encounters
    curl localhost:8000/alerts                         # fired regressions
    curl localhost:8000/brief                          # text digest

Step 8 below drives the identical WSGI application in-process (no
socket) through ``repro.service.testing.ServiceClient``.

**Telemetry.**  ``repro campaign --trace --store ...`` (or the
``telemetry.collect(db)`` context manager) records a cross-process
span tree into the result store: submit/wait spans from the
coordinator, claim/simulate/drain spans from every worker — the trace
context rides the queue job's metadata and ``$REPRO_TRACE``, never the
campaign spec, so a traced run keeps the bitwise-identical campaign id
and results digest of its untraced twin — plus kernel phase spans,
store writes, and service requests.  Disarmed (the default) every hook
returns a shared no-op object.  Metrics aggregate across the fleet
through the queue and render as Prometheus text::

    repro campaign --sample 50 --runs 100 \\
        --store results.sqlite --trace
    repro trace <campaign-id> --store results.sqlite   # waterfall
    repro metrics --store results.sqlite --queue queue.sqlite
    curl localhost:8000/metrics                    # Prometheus scrape
    curl localhost:8000/healthz                    # compact snapshot
    curl localhost:8000/campaigns/<id>/trace       # span tree JSON

Usage::

    python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import (
    Campaign,
    ResultStore,
    build_logic_table,
    make_acas_pair,
    run_encounter,
    test_config,
)
from repro.distributed import run_workers
from repro.sim import EncounterSimConfig
from repro.sim.trace import render_vertical_profile

SCENARIOS = ["head_on", "tail_approach"]
RUNS = 50


def main() -> None:
    print("=== 1. Generating the collision avoidance logic ===")
    table = build_logic_table(test_config(), verbose=True)
    print(f"solved: {table}")
    print()

    store = ResultStore(Path(tempfile.mkdtemp()) / "quickstart.sqlite")

    print(f"=== 2. Campaign: {SCENARIOS} x {RUNS} runs, equipped ===")
    equipped = Campaign(
        SCENARIOS,
        backend="vectorized-batch",  # "agent" trades speed for
        table=table,                 # scrutiny (see the module
        runs_per_scenario=RUNS,      # docstring)
    ).run(seed=42, store=store)      # workers=4 gives identical bits
    print(equipped.summary())
    print()

    print("=== 3. Unequipped counterfactual, via a store diff ===")
    baseline = Campaign(
        SCENARIOS,
        equipage="none",
        runs_per_scenario=RUNS,
    ).run(seed=42, store=store)
    diff = store.diff(
        baseline.metadata["campaign_id"], equipped.metadata["campaign_id"]
    )
    print(diff.summary())
    print()

    print("=== 4. Resume: an identical re-run simulates nothing ===")
    # The spec hashes to the same campaign id, so every scenario loads
    # from the store.  After an interruption (e.g. a killed
    # iter_records stream) the same call would finish only the
    # missing tail — bitwise identical to an uninterrupted run.
    rerun = Campaign(
        SCENARIOS, table=table, runs_per_scenario=RUNS
    ).run(seed=42, store=store)
    print(f"loaded {rerun.metadata['loaded']} scenarios from the store, "
          f"simulated {rerun.metadata['simulated']} "
          f"(campaign {rerun.metadata['campaign_id'][:12]})")
    print()

    print("=== 5. Distributed: submit -> worker fleet -> collect ===")
    queue_path = Path(store.path).parent / "queue.sqlite"
    # Submitting the campaign from step 2 enqueues nothing: the store
    # already holds every record under the same provenance hash.
    already_done = Campaign(
        SCENARIOS, table=table, runs_per_scenario=RUNS
    ).submit(seed=42, queue=queue_path, store=store)
    print(f"re-submit of step 2: enqueued {already_done.chunks_enqueued} "
          f"chunks ({already_done.already_stored} scenarios already "
          f"stored) — zero new simulations")
    # A fresh seed exercises the fleet for real: enqueue, drain with two
    # local worker processes pinned to this campaign (`repro worker` on
    # any host sharing the queue file does the same), then collect.
    run = Campaign(
        SCENARIOS, table=table, runs_per_scenario=RUNS
    ).submit(seed=7, queue=queue_path, store=store)
    run_workers(queue_path, num_workers=2, campaign_id=run.campaign_id)
    run.wait()
    fleet = run.collect()
    local = Campaign(
        SCENARIOS, table=table, runs_per_scenario=RUNS
    ).run(seed=7)
    identical = (
        fleet.min_separations() == local.min_separations()
    ).all()
    print(f"2-process fleet vs in-process run: "
          f"bitwise identical = {identical}")
    print()

    print("=== 6. Fleets as a backend: backend='distributed' ===")
    # One run() call: submit, wait, collect.  No worker is running
    # here, so the wait drains the campaign in-process, one chunk per
    # poll — the call completes instead of hanging on an empty fleet.
    fleet_native = Campaign(
        SCENARIOS,
        table=table,
        runs_per_scenario=RUNS,
        backend="distributed",
        backend_options={"queue": str(queue_path), "store": store.path},
    ).run(seed=9)
    local9 = Campaign(
        SCENARIOS, table=table, runs_per_scenario=RUNS
    ).run(seed=9)
    identical = (
        fleet_native.min_separations() == local9.min_separations()
    ).all()
    print(f"backend='distributed' vs in-process: "
          f"bitwise identical = {identical} "
          f"(drained in-process: "
          f"{fleet_native.metadata['distributed_fallback']})")
    print()

    print("=== 7. Replay the worst scenario through the agent engine ===")
    worst = equipped.worst()
    own, intruder = make_acas_pair(table, coordination=True)
    replay = run_encounter(
        worst.params, own, intruder, EncounterSimConfig(),
        seed=42, record_trace=True,
    )
    print(f"worst scenario: {worst.name} "
          f"(campaign NMAC rate {worst.nmac_rate:.2f})")
    print(f"replay min separation: {replay.min_separation:.1f} m")
    print(f"own-ship advisories:  {replay.trace.advisories_issued('own')}")
    print(f"intruder advisories:  {replay.trace.advisories_issued('intruder')}")
    print()
    print(render_vertical_profile(replay.trace, height=12, width=60))
    print()

    print("=== 8. The campaign service: REST submit + risk watchlist ===")
    # The exact WSGI application `repro serve` binds to a socket,
    # driven in-process here.  The service shares the store from the
    # earlier steps, so the campaigns above are already visible.
    from repro.service import CampaignService, Watchlist, make_app
    from repro.service.testing import ServiceClient

    service = CampaignService(store, tables={"test": table})
    watchlist = Watchlist(store)
    client = ServiceClient(make_app(service, watchlist))

    receipt = client.post("/campaigns", json_body={
        "scenarios": SCENARIOS, "runs": RUNS, "seed": 42,
        "label": "via-http", "wait": True,
    }).json()
    print(f"POST /campaigns -> campaign {receipt['campaign_id'][:12]} "
          f"(mode={receipt['mode']}: the spec from step 2, so "
          f"{receipt['already_stored']} scenarios loaded, "
          f"{receipt['simulated']} simulated)")
    rows = client.get(
        f"/campaigns/{receipt['campaign_id']}/records?limit=1"
    ).json()
    print(f"GET  /campaigns/<id>/records?limit=1 -> "
          f"{rows['records'][0]['name']} "
          f"(min separation {rows['records'][0]['min_separation']:.1f} m)")

    # Pin the equipped campaign as the trust anchor; the unequipped
    # counterfactual ran the same scenario list (same scenarios
    # digest), so its far higher NMAC rate fires a regression alert.
    client.post("/watchlist/baseline",
                json_body={"campaign_id": receipt["campaign_id"]})
    print()
    print(client.get("/brief?refresh=1").text)
    service.close()

    print("=== 9. Robustness: fault injection, verify/repair, fleet ===")
    # Plant a torn write with the deterministic chaos layer: the next
    # store write is truncated mid-blob, as a crash or bit-rot would.
    from repro import faults
    from repro.distributed import FleetSupervisor
    from repro.faults import FaultPlan, FaultRule

    victim = baseline.records[0]
    store._conn.execute(
        "DELETE FROM records WHERE campaign_id = ? AND scenario_index = ?",
        (baseline.metadata["campaign_id"], victim.index),
    )
    store._conn.commit()
    torn = FaultPlan(
        seed=1, rules=[FaultRule("store.write.torn", times=(1,))]
    )
    with faults.inject(torn):
        store.add_record(baseline.metadata["campaign_id"], victim)
    report = store.verify()
    print(f"store verify: {len(report.corrupt)} corrupt record(s) "
          f"out of {report.checked}")
    store.verify(repair=True)  # -> quarantine (repro store verify --repair)
    healed = Campaign(
        SCENARIOS, equipage="none", runs_per_scenario=RUNS
    ).run(seed=42, store=store)
    print(f"after --repair, resume re-simulated exactly "
          f"{healed.metadata['simulated']} scenario(s); "
          f"store verify ok = {store.verify().ok}")
    # The supervised fleet (`repro fleet --workers 2`): here the queue
    # is already drained, so the workers start, find nothing, and exit
    # cleanly — crashed workers would be restarted with backoff.
    fleet_report = FleetSupervisor(queue_path, workers=2).run(timeout=120)
    print(fleet_report.summary())
    print()

    print("=== 10. Telemetry: traced campaign, waterfall, metrics ===")
    from repro import telemetry

    # Arm tracing for one run; spans land in the result store.  The
    # trace context never touches the campaign spec, so the traced run
    # is bitwise identical to an untraced twin of the same seed.
    with telemetry.collect(store.path):
        traced = Campaign(
            SCENARIOS, table=table, runs_per_scenario=RUNS
        ).run(seed=13, store=store)
    twin = Campaign(
        SCENARIOS, table=table, runs_per_scenario=RUNS
    ).run(seed=13)
    identical = (traced.min_separations() == twin.min_separations()).all()
    print(f"traced vs untraced twin: bitwise identical = {identical}")
    spans = telemetry.load_spans(
        store.path, campaign_id=traced.metadata["campaign_id"]
    )
    print(telemetry.render_trace(spans))  # waterfall + critical path
    # The same text `repro metrics` / GET /metrics serve — local
    # counters merged with queue- and store-derived gauges.
    scrape = telemetry.scrape(queue_path=queue_path, store_path=store.path)
    wanted = ("repro_store_", "repro_queue_chunks", "repro_fleet_workers")
    print("\n".join(
        line for line in scrape.splitlines() if line.startswith(wanted)
    ))


if __name__ == "__main__":
    main()
