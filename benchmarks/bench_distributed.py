"""Benchmark: distributed campaign execution vs the serial path.

Runs the paper's GA-evaluation shape (50 scenarios × 100 runs) serially
in-process, then through ``repro.distributed``: submit the campaign's
chunks to a shared sqlite work queue and drain it with a 2-process
worker fleet writing through a shared result store, and through the
fleet-native ``backend="distributed"`` path.  Records the runs via
:func:`record_campaign` and asserts every collected result is bitwise
identical to the serial run.  Fleet timings live in the repository
benchmark (``perfbench/``'s ``fleet_service`` workload), not here.

Under ``--smoke`` the workload shrinks to CI size and nothing persists.
"""

import tempfile
from pathlib import Path

from conftest import record_campaign

from repro.distributed import run_workers, submit
from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, SampledSource

SCENARIOS = 50
RUNS = 100
WORKERS = 2


def _campaign(table, smoke):
    return Campaign(
        SampledSource(
            StatisticalEncounterModel(), 6 if smoke else SCENARIOS
        ),
        table=table,
        runs_per_scenario=10 if smoke else RUNS,
    )


def test_bench_distributed_vs_serial(fast_table, smoke):
    serial = _campaign(fast_table, smoke).run(seed=2)
    record_campaign("campaign_distributed_serial", serial)

    scratch = Path(tempfile.mkdtemp(prefix="bench_distributed_"))
    queue_path = scratch / "queue.sqlite"
    store_path = scratch / "store.sqlite"

    run = submit(
        _campaign(fast_table, smoke), 2,
        queue=queue_path, store=store_path,
        # One chunk per eventual worker so both fleet members get work.
        chunk_size=max(1, len(serial) // WORKERS),
    )
    run_workers(queue_path, num_workers=WORKERS, lease_seconds=60,
                poll_interval=0.05)
    final = run.wait(timeout=600, poll=0.1)
    distributed = run.collect()
    assert final.complete

    record_campaign("campaign_distributed_2workers", distributed)
    assert (serial.min_separations() == distributed.min_separations()).all()

    # Re-submitting the completed campaign enqueues (and simulates)
    # nothing: the acceptance criterion's zero-resimulation half.
    resubmit = submit(
        _campaign(fast_table, smoke), 2,
        queue=queue_path, store=store_path,
    )
    assert resubmit.chunks_enqueued == 0
    assert resubmit.simulated == 0


def _fleet_campaign(table, smoke, scratch):
    return Campaign(
        SampledSource(
            StatisticalEncounterModel(), 6 if smoke else SCENARIOS
        ),
        table=table,
        runs_per_scenario=10 if smoke else RUNS,
        backend="distributed",
        backend_options={
            "queue": str(scratch / "backend-queue.sqlite"),
            "store": str(scratch / "backend-store.sqlite"),
        },
    )


def test_bench_distributed_backend(fast_table, smoke):
    """The fleet-native ``backend="distributed"`` path vs serial.

    No external worker is running, so the run's wait drains the
    campaign in-process through the full submit → queue → drain →
    collect cycle (sqlite queue, lease bookkeeping, store round trip).
    Bits must match serial exactly.
    """
    serial = _campaign(fast_table, smoke).run(seed=4)
    scratch = Path(tempfile.mkdtemp(prefix="bench_dist_backend_"))
    fleet = _fleet_campaign(fast_table, smoke, scratch).run(seed=4)
    record_campaign("campaign_distributed_backend", fleet)

    assert (serial.min_separations() == fleet.min_separations()).all()
    assert fleet.metadata["distributed_fallback"] is True

    # A re-run resolves to the same campaign and simulates nothing.
    rerun = _fleet_campaign(fast_table, smoke, scratch).run(seed=4)
    assert rerun.metadata["simulated"] == 0
    assert rerun.metadata["loaded"] == len(serial)
