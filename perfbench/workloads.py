"""The four benchmark workloads.

Every workload is a closed loop driven by one client process through
public entry points: an operation starts only after the previous one
completed.  A run repeats *rounds*; each round sets up from scratch
(table solve without any disk cache, fresh store/queue files, a fresh
fleet), performs the same fixed sequence of operations, and tears down.
All inputs derive from the workload seed, so every round of one seed
does identical work and must produce identical digests.

Why these four (each open ROADMAP item has one workload that exercises
its layer and one that bypasses it):

- ``ga_paper`` -- the paper's unit of work: GA generations of 50
  encounters x 100 noisy runs at paper resolution.  About half the time
  is the decision lookup in a 28 MB table; store, queue and service idle.
- ``montecarlo_store`` -- many small scenarios through a file-backed
  result store: the first estimate writes 4000 records, the second,
  identical estimate resumes all of them.  Test-resolution table, and
  half the kernel work is the unequipped arm with no lookups at all.
- ``fleet_service`` -- campaigns POSTed to the REST service (WSGI app,
  no sockets) and executed by two ``repro worker --forever`` processes
  through the work queue.  The only workload on the service,
  coordinator, queue and concurrent-writer path.
- ``pool_workers`` -- the same campaigns and seeds through
  ``Campaign.run(workers=2)``, the ProcessPoolExecutor path.  It shares
  inputs and digests with ``fleet_service``.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

#: Workload sizes.  ``full`` is what BENCHMARK.json measures; ``smoke``
#: only exercises the wiring (self-tests).
SIZES: Dict[str, Dict[str, dict]] = {
    "ga_paper": {
        "full": dict(preset="paper", searches=2, population=50, runs=100,
                     generations=8),
        "smoke": dict(preset="test", searches=2, population=6, runs=4,
                      generations=2),
    },
    "montecarlo_store": {
        "full": dict(preset="test", encounters=2000, runs=10),
        "smoke": dict(preset="test", encounters=30, runs=3),
    },
    "fleet_service": {
        "full": dict(preset="paper", campaigns=3, sample=100, runs=100,
                     chunk=25),
        "smoke": dict(preset="test", campaigns=2, sample=6, runs=4, chunk=3),
    },
}
SIZES["pool_workers"] = SIZES["fleet_service"]

#: Seconds between a fleet worker's claim attempts, and between the
#: client's progress polls.
POLL_S = 0.05
#: Bounds that turn a stuck fleet into a failure instead of a hang.
LIVE_TIMEOUT_S = 60.0
CAMPAIGN_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
#: Exit codes of a ``--forever`` worker stopped by SIGINT.
CLEAN_STOP = (0, -signal.SIGINT, 128 + signal.SIGINT)


class Ledger:
    """Attempted and failed operations; a failure also goes to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: FAIL {what}", file=sys.stderr)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Round:
    """What one round's timed phase did."""

    #: Wall time of the timed phase, s.
    wall: float = 0.0
    #: The part of the timed phase ``runs_per_s`` divides by, s.
    sim_wall: float = 0.0
    #: Stochastic runs simulated during ``sim_wall``.
    runs: int = 0
    #: Wall time of each completed operation, s.
    ops: List[float] = field(default_factory=list)
    digests: object = None
    #: Workload-specific timings (generation, resume, submit, drain).
    extras: Dict[str, List[float]] = field(default_factory=dict)
    #: Counts observed outside spans (queue state, requests, file size).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Largest peak RSS of the client and its workers over set-up and
    #: this round, MB.
    peak_rss_mb: float = 0.0


def sha256_of(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).hexdigest()


def file_bytes(path: Path) -> int:
    """Size of an sqlite file plus its write-ahead log."""
    return sum(
        os.path.getsize(p) for p in (str(path), f"{path}-wal")
        if os.path.exists(p)
    )


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set of a live process, MB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_peak_rss() -> None:
    """Start a new peak-RSS window for this process (Linux clear_refs).

    Without it the client's peak would grow with the number of rounds
    (allocator fragmentation), so runs with more rounds would read
    higher.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def release_memory() -> None:
    """Collect garbage and hand freed heap back to the OS (glibc), so
    every round starts from the same resident baseline."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any reaped child process so far, MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Workload:
    """Round structure shared by the workloads.

    ``setup`` runs before every round (and is what ``setup_s`` times),
    ``run_round`` is the timed phase, ``teardown`` releases everything
    ``setup`` made.  ``serial_reference`` -- only on the two parallel
    workloads -- re-runs one round's campaigns serially in-process.
    """

    name = ""
    #: Key of the pinned digests in golden.json (shared inputs share it).
    inputs = ""

    def __init__(self, size: dict, seed: int, workdir: Path,
                 ledger: Ledger, tracer=None):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.tracer = tracer
        self.table = None
        self.table_info = None
        self.solve_times: List[float] = []
        self.fleet_live_times: List[float] = []
        self.worker_rss_mb = 0.0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def build_table(self):
        """Solve the workload's logic table (never from the disk cache)."""
        from repro.acasx import build_logic_table, paper_config, test_config

        return build_logic_table(
            paper_config() if self.size["preset"] == "paper" else test_config()
        )

    def solve(self):
        """:meth:`build_table`, timed and traced as part of set-up."""
        start = time.perf_counter()
        with self.span("acasx.solve"):
            table = self.build_table()
        self.solve_times.append(time.perf_counter() - start)
        config = table.config
        self.table_info = {
            "preset": self.size["preset"],
            "grid": [config.num_h, config.num_rate, config.num_rate],
            "horizon": config.horizon,
            "q_bytes": int(table.q.nbytes),
        }
        return table

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what set-up made; the table goes too, so the next
        set-up never holds two tables at once (peak RSS stays flat)."""
        self.table = None

    def workers_peak_rss_mb(self) -> float:
        """Largest peak RSS of the workload's live worker processes, MB."""
        return 0.0

    serial_reference = None


class GaPaper(Workload):
    """``GeneticAlgorithm.run`` over ``EncounterFitness`` (megabatch)."""

    name = inputs = "ga_paper"

    def setup(self) -> None:
        from repro.encounters.generator import ParameterRanges
        from repro.search.fitness import EncounterFitness

        self.table = self.solve()
        ranges = ParameterRanges()
        middle = (ranges.lows() + ranges.highs()) / 2.0
        EncounterFitness(self.table, num_runs=2, seed=0).evaluate_population(
            np.stack([middle, middle])
        )

    def run_round(self) -> Round:
        from repro.encounters.generator import ParameterRanges
        from repro.search.fitness import EncounterFitness
        from repro.search.ga import GAConfig, GeneticAlgorithm

        size = self.size
        searches: List[float] = []
        generations: List[float] = []
        digests: List[str] = []
        start = time.perf_counter()
        # Independent searches average out how much work one seed's
        # populations happen to need.
        for child in np.random.SeedSequence(self.seed).spawn(size["searches"]):
            # One generator drives both the GA and the fitness noise, as
            # SearchRunner does.
            rng = np.random.default_rng(child)
            fitness = EncounterFitness(
                self.table, num_runs=size["runs"], equipage="both",
                coordination=True, seed=rng,
            )
            ga = GeneticAlgorithm(ParameterRanges(), GAConfig(
                population_size=size["population"],
                generations=size["generations"],
            ))
            stamps = [time.perf_counter()]

            def on_generation(index, genomes, fitnesses) -> None:
                stamps.append(time.perf_counter())
                digests.append(sha256_of(fitnesses))

            ga.run(fitness, seed=rng, callback=on_generation)
            searches.append(time.perf_counter() - stamps[0])
            generations.extend(np.diff(stamps).tolist())
        wall = time.perf_counter() - start
        expected = size["searches"] * size["generations"]
        self.ledger.check(len(generations) == expected,
                          f"{len(generations)} of {expected} generations ran")
        return Round(
            wall=wall, sim_wall=wall,
            runs=size["population"] * size["runs"] * len(generations),
            ops=searches, digests=digests,
            extras={"gen_s": generations, "search_s": [wall]},
        )


class MonteCarloStore(Workload):
    """``MonteCarloEstimator.estimate`` twice against one fresh store."""

    name = inputs = "montecarlo_store"

    def setup(self) -> None:
        from repro.encounters.statistical import StatisticalEncounterModel
        from repro.montecarlo.estimator import MonteCarloEstimator
        from repro.store import ResultStore

        self.store = self.dir = None
        self.table = self.solve()
        self.dir = Path(tempfile.mkdtemp(dir=self.workdir))
        self.store_path = self.dir / "store.sqlite"
        self.store = ResultStore(self.store_path)
        # Warm the write and the resume path on a throwaway store.
        with ResultStore(":memory:") as scratch:
            warmup = MonteCarloEstimator(
                self.table, StatisticalEncounterModel(),
                runs_per_encounter=2, store=scratch,
            )
            for _ in range(2):
                warmup.estimate(20, seed=0)

    def run_round(self) -> Round:
        from repro.encounters.statistical import StatisticalEncounterModel
        from repro.montecarlo.estimator import MonteCarloEstimator
        from repro.store import results_digest

        size = self.size
        estimator = MonteCarloEstimator(
            self.table, StatisticalEncounterModel(),
            runs_per_encounter=size["runs"], store=self.store,
        )
        start = time.perf_counter()
        first = estimator.estimate(size["encounters"], seed=self.seed)
        simulated = time.perf_counter()
        resumed = estimator.estimate(size["encounters"], seed=self.seed)
        end = time.perf_counter()

        def digests(report) -> Dict[str, str]:
            return {
                "equipped": results_digest(report.equipped_results),
                "unequipped": results_digest(report.unequipped_results),
            }

        first_digests = digests(first)
        self.ledger.check(digests(resumed) == first_digests,
                          "resumed estimate differs from the first")
        for arm in (resumed.equipped_results, resumed.unequipped_results):
            self.ledger.check(arm.metadata.get("simulated") == 0,
                              f"resume simulated {arm.metadata.get('simulated')}"
                              " scenarios again")
        return Round(
            wall=end - start, sim_wall=simulated - start,
            runs=2 * size["encounters"] * size["runs"],
            ops=[end - start], digests=first_digests,
            extras={"resume_s": [end - simulated]},
            counts={"store.bytes": file_bytes(self.store_path)},
        )

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.table = self.store = None


class _Campaigns(Workload):
    """The campaign sequence ``fleet_service`` and ``pool_workers`` share."""

    inputs = "campaigns"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        state = np.random.SeedSequence(self.seed).generate_state(
            self.size["campaigns"]
        )
        self.seeds = [int(value) for value in state]
        self.spec = {
            "scenarios": {"sample": self.size["sample"]},
            "runs": self.size["runs"],
        }

    def serial_reference(self) -> List[str]:
        """One round's campaigns through ``Campaign.run(workers=1)``."""
        from repro.experiments.campaign import Campaign
        from repro.store import results_digest

        campaign = Campaign.from_spec(self.spec, table=self.build_table())
        return [
            results_digest(
                campaign.run(seed=seed, chunk_size=self.size["chunk"])
            )
            for seed in self.seeds
        ]


class PoolWorkers(_Campaigns):
    """``Campaign.run(workers=2)`` on the ProcessPoolExecutor path."""

    name = "pool_workers"

    def setup(self) -> None:
        from repro.experiments.campaign import Campaign

        self.table = self.solve()
        self.campaign = Campaign.from_spec(self.spec, table=self.table)
        Campaign.from_spec(
            {"scenarios": {"sample": 2}, "runs": 2}, table=self.table
        ).run(seed=0)

    def run_round(self) -> Round:
        from repro.store import results_digest

        result = Round()
        digests = []
        for seed in self.seeds:
            start = time.perf_counter()
            results = self.campaign.run(
                seed=seed, workers=2, chunk_size=self.size["chunk"]
            )
            result.ops.append(time.perf_counter() - start)
            result.runs += results.total_runs
            digests.append(results_digest(results))
        result.wall = result.sim_wall = sum(result.ops)
        result.digests = digests
        return result

    def teardown(self) -> None:
        self.table = self.campaign = None


class FleetService(_Campaigns):
    """``CampaignService`` over a queue served by two worker processes."""

    name = "fleet_service"

    def setup(self) -> None:
        from repro.distributed.queue import WorkQueue
        from repro.service import CampaignService, make_app
        from repro.service.testing import ServiceClient

        self.workers: List[subprocess.Popen] = []
        self.logs = []
        self.service = self.dir = None
        self.table = self.solve()
        self.dir = Path(tempfile.mkdtemp(dir=self.workdir))
        self.queue_path = str(self.dir / "queue.sqlite")
        self.store_path = str(self.dir / "store.sqlite")
        WorkQueue(self.queue_path).close()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        spawned = time.perf_counter()
        for index in range(2):
            log = open(self.dir / f"worker-{index}.log", "wb")
            self.logs.append(log)
            self.workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--queue", self.queue_path, "--forever",
                 "--poll", str(POLL_S), "--worker-id", f"bench-{index}"],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            ))
        deadline = time.monotonic() + LIVE_TIMEOUT_S
        while True:
            with WorkQueue(self.queue_path) as queue:
                live = len(queue.live_workers())
            if live >= len(self.workers):
                break
            if time.monotonic() > deadline or any(
                worker.poll() is not None for worker in self.workers
            ):
                self.ledger.check(False, f"fleet not live: {live} of "
                                  f"{len(self.workers)} workers")
                raise RuntimeError("fleet did not become live")
            time.sleep(0.01)
        self.fleet_live_times.append(time.perf_counter() - spawned)
        preset = self.size["preset"]
        self.service = CampaignService(
            self.store_path, queue=self.queue_path, preset=preset,
            tables={preset: self.table},
        )
        self.client = ServiceClient(make_app(self.service))
        health = self.client.get("/healthz")
        self.ledger.check(health.status == 200,
                          f"GET /healthz -> {health.status}")

    def run_round(self) -> Round:
        from repro.distributed.queue import WorkQueue
        from repro.store import ResultStore, results_digest

        result = Round(extras={"submit_ms": [], "drain_s": []})
        tally = {"requests": 0, "non2xx": 0, "polls": 0}

        def call(method: str, path: str, body=None, poll=False):
            response = self.client.request(method, path, json_body=body)
            tally["polls" if poll else "requests"] += 1
            if not 200 <= response.status < 300:
                tally["non2xx"] += 1
            return response

        campaign_ids = []
        for seed in self.seeds:
            start = time.perf_counter()
            posted = call("POST", "/campaigns", dict(
                self.spec, seed=seed, chunk_size=self.size["chunk"],
                preset=self.size["preset"],
            ))
            received = time.perf_counter()
            receipt = posted.json()
            if not self.ledger.check(
                posted.status == 202 and receipt.get("mode") == "queued",
                f"POST /campaigns -> {posted.status} {receipt}",
            ):
                continue
            campaign_id = receipt["campaign_id"]
            deadline = time.monotonic() + CAMPAIGN_TIMEOUT_S
            while True:
                polled = call("GET", f"/campaigns/{campaign_id}", poll=True)
                progress = polled.json()
                if polled.status != 200 or progress.get("complete") or (
                    progress.get("state") == "failed"
                ) or time.monotonic() > deadline:
                    break
                time.sleep(POLL_S)
            drained = time.perf_counter()
            if not self.ledger.check(
                progress.get("complete") is True,
                f"campaign {campaign_id[:12]} incomplete: {progress}",
            ):
                continue
            records = call("GET", f"/campaigns/{campaign_id}/records")
            done = time.perf_counter()
            if not self.ledger.check(
                records.status == 200
                and records.json().get("count") == self.size["sample"],
                f"GET records of {campaign_id[:12]} -> {records.status}",
            ):
                continue
            result.ops.append(done - start)
            result.extras["submit_ms"].append(1000.0 * (received - start))
            result.extras["drain_s"].append(drained - received)
            result.runs += self.size["sample"] * self.size["runs"]
            campaign_ids.append(campaign_id)
        result.wall = result.sim_wall = sum(result.ops)

        with WorkQueue(self.queue_path) as queue:
            states = [
                state for campaign_id in campaign_ids
                for state in queue.chunk_states(campaign_id)
            ]
        for state in states:
            self.ledger.check(
                state.status == "done" and state.attempts == 1,
                f"chunk {state.chunk_index} of {state.campaign_id[:12]}: "
                f"{state.status} after {state.attempts} attempts "
                f"({state.last_error})",
            )
        with ResultStore(self.store_path) as store:
            result.digests = [
                results_digest(store.resultset(campaign_id))
                for campaign_id in campaign_ids
            ]
        result.counts = {
            "distributed.chunks": len(states),
            "distributed.attempts": sum(s.attempts for s in states),
            "service.requests": tally["requests"],
            "service.non2xx": tally["non2xx"],
            "service.polls": tally["polls"],
            "store.bytes": file_bytes(Path(self.store_path)),
        }
        return result

    def workers_peak_rss_mb(self) -> float:
        return max((vm_hwm_mb(worker.pid) for worker in self.workers
                    if worker.poll() is None), default=0.0)

    def teardown(self) -> None:
        workers = self.workers
        self.worker_rss_mb = max(self.worker_rss_mb,
                                 self.workers_peak_rss_mb())
        for worker in workers:
            if self.ledger.check(worker.poll() is None,
                                 f"worker {worker.pid} exited early "
                                 f"with {worker.returncode}"):
                worker.send_signal(signal.SIGINT)
        for worker in workers:
            try:
                worker.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            if not self.ledger.check(worker.returncode in CLEAN_STOP,
                                     f"worker {worker.pid} exited with "
                                     f"{worker.returncode}"):
                sys.stderr.write(Path(self.logs[workers.index(worker)].name)
                                 .read_text(errors="replace")[-2000:])
        if self.service is not None:
            self.service.close()
        for log in self.logs:
            log.close()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.table = self.service = self.client = None


WORKLOADS = {
    cls.name: cls
    for cls in (GaPaper, MonteCarloStore, FleetService, PoolWorkers)
}
