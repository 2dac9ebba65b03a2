"""Benchmark: the campaign API's backend fidelity/speed trade-off.

Runs the same reference campaign — the paper's two canonical geometries
plus sampled encounters from the statistical model — through the two
in-process simulation behaviours (``agent``, ``vectorized-batch``) and
through the process-parallel path, recording each run's
:class:`~repro.experiments.ResultSet` (aggregates plus wall-clock
timing) under ``benchmarks/results/``, and asserting the parallel path
is bitwise identical to serial.

Timing comparisons live in the repository benchmark (``perfbench/``:
``sim.kernel_s`` on ``ga_paper``, and the ``pool_workers`` and
``fleet_service`` workloads), not here.

Under ``--smoke`` every workload shrinks to CI size and nothing is
persisted (the wiring is exercised, recorded results are untouched).
"""

from conftest import record_campaign

from repro.encounters import StatisticalEncounterModel
from repro.experiments import Campaign, ExplicitSource, SampledSource

RUNS_PER_SCENARIO = 30
#: The paper's GA-evaluation shape: every GA individual is evaluated
#: with 100 stochastic runs; 50 scenarios is one generation's chunk.
MEGABATCH_SCENARIOS = 50
MEGABATCH_RUNS = 100


def _reference_campaign(table, backend):
    return Campaign(
        ExplicitSource(["head_on", "tail_approach"]),
        backend=backend,
        table=table,
        runs_per_scenario=RUNS_PER_SCENARIO,
    )


def _megabatch_campaign(table, backend, smoke):
    return Campaign(
        SampledSource(
            StatisticalEncounterModel(),
            6 if smoke else MEGABATCH_SCENARIOS,
        ),
        backend=backend,
        table=table,
        runs_per_scenario=10 if smoke else MEGABATCH_RUNS,
    )


def test_bench_campaign_vectorized_batch(benchmark, fast_table):
    campaign = _reference_campaign(fast_table, "vectorized-batch")
    results = benchmark.pedantic(
        lambda: campaign.run(seed=0), rounds=1, iterations=1
    )
    record_campaign("campaign_vectorized_batch", results)
    # "vectorized" is a legacy alias of the same kernel: identical bits.
    reference = _reference_campaign(fast_table, "vectorized").run(seed=0)
    assert (
        results.min_separations() == reference.min_separations()
    ).all()


def test_bench_campaign_agent(benchmark, fast_table):
    campaign = _reference_campaign(fast_table, "agent")
    results = benchmark.pedantic(
        lambda: campaign.run(seed=0), rounds=1, iterations=1
    )
    record_campaign("campaign_agent", results)
    assert results.total_runs == 2 * RUNS_PER_SCENARIO


def test_bench_campaign_parallel(fast_table, smoke):
    campaign = _megabatch_campaign(fast_table, "vectorized-batch", smoke)
    workers = 4
    # Chunks sized so every worker in the fixed pool gets work.
    chunk_size = max(1, len(campaign.source) // workers)
    serial = campaign.run(seed=1, workers=1, chunk_size=chunk_size)
    parallel = campaign.run(seed=1, workers=workers, chunk_size=chunk_size)
    record_campaign("campaign_parallel", parallel)
    assert (serial.min_separations() == parallel.min_separations()).all()
