"""Benchmark harness: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ga_paper --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds plus the tracing overhead; the
spans are written to ``.perfbench/traces/`` for ``perfbench/compare.py``.

Every metric is printed as ``metric <name> <value> <unit>``, followed by
a provenance line and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The result is correct only
if every digest matches the pinned one in ``golden.json`` (or, for an
unpinned seed, the other rounds and the serial in-process reference),
every exact work count repeats, and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import traceback
from hashlib import sha256
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

#: End-to-end metrics (untraced rounds): name -> unit.  BENCHMARK.json
#: mirrors this table (the self-tests check that it does).
END_TO_END = {
    "runs_per_s": "runs/s",
    "complete_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Workload-specific end-to-end figures printed alongside (not in the
#: JSON: the result carries every metric on every workload).
WORKLOAD_FIGURES = {
    "ga_paper": {"gen_p50_s": ("gen_s", "s")},
    "montecarlo_store": {"resume_s": ("resume_s", "s")},
    "fleet_service": {"submit_p50_ms": ("submit_ms", "ms")},
    "pool_workers": {},
}
#: Per-layer metrics (traced rounds): name -> unit.
PER_LAYER = {
    "acasx.solve_s": "s",
    "acasx.lookup_calls": "count",
    "acasx.lookup_rows": "count",
    "acasx.lookup_s": "s",
    "acasx.to_bytes_s": "s",
    "sim.kernel_calls": "count",
    "sim.lane_decisions": "count",
    "sim.kernel_s": "s",
    "sim.kernel_other_s": "s",
    "experiments.campaign_calls": "count",
    "experiments.campaign_s": "s",
    "experiments.overhead_s": "s",
    "experiments.serial_s": "s",
    "store.writes": "count",
    "store.write_s": "s",
    "store.bytes": "bytes",
    "store.reads": "count",
    "store.read_s": "s",
    "store.spec_s": "s",
    "distributed.submit_s": "s",
    "distributed.chunks": "count",
    "distributed.attempts": "count",
    "distributed.useful_frac": "ratio",
    "distributed.fleet_live_s": "s",
    "distributed.drain_s": "s",
    "distributed.worker_rss_mb": "MB",
    "service.requests": "count",
    "service.non2xx": "count",
    "service.submit_s": "s",
    "service.polls": "count",
    "service.progress_s": "s",
    "search.generations": "count",
    "search.evaluate_s": "s",
    "search.ga_s": "s",
    "trace.overhead_frac": "ratio",
}
#: Work counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "acasx.lookup_rows", "sim.lane_decisions", "store.writes",
    "store.reads", "distributed.chunks", "service.requests",
)
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 4  # untraced, traced, untraced, traced
MIN_SETUPS = 5
MAX_ROUNDS = 50


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ga_paper", "montecarlo_store",
                                 "fleet_service", "pool_workers"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds to fill with rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs that only test the wiring")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="pinned digests to check against")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def layer_targets():
    """The public calls the traced rounds wrap, one span name each."""
    import repro.distributed.coordinator as coordinator
    from repro.acasx.logic_table import LogicTable
    from repro.experiments.campaign import Campaign
    from repro.search.fitness import EncounterFitness
    from repro.service.service import CampaignService
    from repro.sim.batch import BatchEncounterSimulator
    from repro.store.spec import CampaignSpec
    from repro.store.store import ResultStore

    def lookup_rows(table, tau, *args, **kwargs):
        return {"rows": len(tau)}

    def lane_decisions(simulator, params_list, num_runs, *args, **kwargs):
        # The kernel's own duration rule: round(duration / dt), >= 1.
        config = simulator.config
        decisions = sum(
            max(1, int(round(
                (params.time_to_cpa + config.extra_duration)
                / config.decision_dt
            )))
            for params in params_list
        )
        return {"lane_decisions": decisions * num_runs}

    def campaign_workers(campaign, seed=None, workers=1, *args, **kwargs):
        return {"workers": workers}

    return [
        (LogicTable, "q_values_batch", "acasx.lookup", lookup_rows),
        (LogicTable, "to_bytes", "acasx.to_bytes", None),
        (BatchEncounterSimulator, "run_many", "sim.kernel", lane_decisions),
        (Campaign, "run", "experiments.campaign", campaign_workers),
        (ResultStore, "add_record", "store.write", None),
        (ResultStore, "get_record", "store.read", None),
        (CampaignSpec, "capture", "store.spec", None),
        (coordinator, "submit", "distributed.submit", None),
        (CampaignService, "submit", "service.submit", None),
        (CampaignService, "progress", "service.progress", None),
        (EncounterFitness, "evaluate_population", "search.evaluate", None),
    ]


def round_layers(spans: List[dict], result) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    from tracer import attr_sum, busy, count, within

    in_campaign = within(spans, "experiments.campaign")
    lookup = busy(spans, "acasx.lookup")
    kernel = busy(spans, "sim.kernel")
    campaign = busy(spans, "experiments.campaign")
    evaluate = busy(spans, "search.evaluate")
    search = sum(result.extras.get("search_s", []))
    layers = {
        "acasx.lookup_calls": count(spans, "acasx.lookup"),
        "acasx.lookup_rows": attr_sum(spans, "acasx.lookup", "rows"),
        "acasx.lookup_s": lookup,
        "acasx.to_bytes_s": busy(spans, "acasx.to_bytes"),
        "sim.kernel_calls": count(spans, "sim.kernel"),
        "sim.lane_decisions": attr_sum(spans, "sim.kernel", "lane_decisions"),
        "sim.kernel_s": kernel,
        "sim.kernel_other_s": kernel - lookup,
        "experiments.campaign_calls": count(spans, "experiments.campaign"),
        "experiments.campaign_s": campaign,
        "experiments.overhead_s": campaign - sum(
            busy(in_campaign, name)
            for name in ("sim.kernel", "store.write", "store.read",
                         "store.spec")
        ),
        "store.writes": count(spans, "store.write"),
        "store.write_s": busy(spans, "store.write"),
        "store.reads": count(spans, "store.read"),
        "store.read_s": busy(spans, "store.read"),
        "store.spec_s": busy(spans, "store.spec"),
        "distributed.submit_s": busy(spans, "distributed.submit"),
        "service.submit_s": busy(spans, "service.submit"),
        "service.progress_s": busy(spans, "service.progress"),
        "search.generations": count(spans, "search.evaluate"),
        "search.evaluate_s": evaluate,
        "search.ga_s": search - evaluate if search else 0.0,
        "store.bytes": 0,
        "distributed.chunks": 0,
        "distributed.attempts": 0,
        "service.requests": 0,
        "service.non2xx": 0,
        "service.polls": 0,
    }
    layers.update(result.counts)
    return layers


def serial_s(spans: List[dict]) -> float:
    return sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "experiments.campaign" and s["attrs"].get("workers") == 1
    )


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> Dict[str, str]:
    """L2/L3 sizes of cpu0, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
        "index*"
    )):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def provenance(args, workload) -> dict:
    import numpy as np

    src = sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "table": workload.table_info,
    }


def pinned_digests(args, workload):
    try:
        golden = json.loads(args.golden.read_text())
    except (OSError, ValueError):
        return None
    return golden.get(workload.inputs, {}).get(args.size, {}).get(
        str(args.seed)
    )


def measure(args, workload, tracer):
    """Run rounds until the timed seconds are filled; return them."""
    rounds, traced, setups = [], [], []
    min_rounds = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    timed = 0.0
    # Importing the layers up front keeps one-off import time out of
    # the first set-up.
    from workloads import (
        children_peak_rss_mb, release_memory, reset_peak_rss, vm_hwm_mb,
    )

    targets = layer_targets()
    import repro.encounters.statistical  # noqa: F401
    import repro.montecarlo.estimator  # noqa: F401
    import repro.search.ga  # noqa: F401
    import repro.service.testing  # noqa: F401
    while len(rounds) < min_rounds or timed < args.seconds:
        index = len(rounds)
        is_traced = tracer is not None and index % 2 == 1
        if tracer:
            tracer.phase, tracer.round = "setup", index
        reset_peak_rss()
        start = time.perf_counter()
        try:
            workload.setup()
            setups.append(time.perf_counter() - start)
            if is_traced:
                tracer.phase = "round"
                with tracer.installed(targets):
                    result = workload.run_round()
            else:
                result = workload.run_round()
            result.peak_rss_mb = max(vm_hwm_mb(), children_peak_rss_mb(),
                                     workload.workers_peak_rss_mb())
        finally:
            workload.teardown()
            release_memory()
        rounds.append(result)
        traced.append(is_traced)
        timed += result.wall
        print(f"round {index} traced={int(is_traced)} setup_s={setups[-1]:.4f}"
              f" wall_s={result.wall:.4f} sim_wall_s={result.sim_wall:.4f}"
              f" runs={result.runs} peak_rss_mb={result.peak_rss_mb:.1f}"
              f" ops_s={json.dumps([round(op, 4) for op in result.ops])}",
              flush=True)
        if len(rounds) >= MAX_ROUNDS:
            break
    while len(setups) < MIN_SETUPS:
        start = time.perf_counter()
        try:
            workload.setup()
            setups.append(time.perf_counter() - start)
        finally:
            workload.teardown()
            release_memory()
    return rounds, traced, setups


def check_digests(args, workload, ledger, rounds, reference):
    expected = pinned_digests(args, workload)
    label = f"{workload.inputs}/{args.size}/seed {args.seed}"
    if expected is None:
        expected = reference if reference is not None else rounds[0].digests
        label += " (unpinned: serial reference / first round)"
    for index, result in enumerate(rounds):
        ledger.check(result.digests == expected,
                     f"round {index} digests differ from {label}")
    if reference is not None:
        ledger.check(reference == expected,
                     f"serial reference digests differ from {label}")
    print(f"digests {json.dumps(rounds[0].digests)}")


def end_to_end(workload, rounds, traced, setups) -> Dict[str, float]:
    plain = [r for r, t in zip(rounds, traced) if not t]
    sim_wall = sum(r.sim_wall for r in plain)
    ops = [op for r in plain for op in r.ops]
    metrics = {
        "runs_per_s": sum(r.runs for r in plain) / sim_wall if sim_wall else 0.0,
        "complete_p50_s": median(ops) if ops else 0.0,
        "setup_s": median(setups),
        "peak_rss_mb": median(r.peak_rss_mb for r in plain),
    }
    for name, (key, _unit) in WORKLOAD_FIGURES[workload.name].items():
        values = [v for r in plain for v in r.extras.get(key, [])]
        metrics[name] = median(values) if values else 0.0
    return metrics


def per_layer(workload, ledger, rounds, traced, tracer) -> Dict[str, float]:
    indices = [i for i, t in enumerate(traced) if t]
    per_round = []
    for index in indices:
        spans = [s for s in tracer.spans
                 if s["phase"] == "round" and s["round"] == index]
        per_round.append(round_layers(spans, rounds[index]))
    for name in EXACT_COUNTS:
        values = {layers[name] for layers in per_round}
        ledger.check(len(values) == 1,
                     f"{name} differs between traced rounds: {values}")
    layers = {
        name: sum(layers[name] for layers in per_round) / len(per_round)
        for name in per_round[0]
    }
    baseline = [s for s in tracer.spans if s["phase"] == "baseline"]
    layers["experiments.serial_s"] = (
        serial_s(baseline) if baseline
        else sum(serial_s([s for s in tracer.spans if s["phase"] == "round"
                           and s["round"] == i]) for i in indices)
        / len(indices)
    )
    layers["acasx.solve_s"] = median(workload.solve_times)
    attempts = layers["distributed.attempts"]
    layers["distributed.useful_frac"] = (
        layers["distributed.chunks"] / attempts if attempts else 0.0
    )
    layers["distributed.fleet_live_s"] = (
        median(workload.fleet_live_times) if workload.fleet_live_times
        else 0.0
    )
    drains = [v for i in indices for v in rounds[i].extras.get("drain_s", [])]
    layers["distributed.drain_s"] = median(drains) if drains else 0.0
    layers["distributed.worker_rss_mb"] = workload.worker_rss_mb
    traced_walls = [rounds[i].wall for i in indices]
    plain_walls = [r.wall for r, t in zip(rounds, traced) if not t]
    layers["trace.overhead_frac"] = (
        median(traced_walls) / median(plain_walls) - 1.0
    )
    return layers


def write_trace(args, tracer, layers, prov) -> Path:
    from tracer import self_times

    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{args.workload}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    round_spans = [s for s in tracer.spans if s["phase"] == "round"]
    path.write_text(json.dumps({
        "provenance": prov,
        "layers": layers,
        "self_times": self_times(round_spans),
        "spans": tracer.spans,
    }))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS, Ledger

    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    workload = WORKLOADS[args.workload](
        SIZES[args.workload][args.size], args.seed, workdir, ledger, tracer
    )
    rounds, traced, setups = [], [], []
    try:
        rounds, traced, setups = measure(args, workload, tracer)
        reference = None
        if workload.serial_reference is not None and (
            tracer or pinned_digests(args, workload) is None
        ):
            if tracer:
                tracer.phase, tracer.round = "baseline", None
                with tracer.installed(layer_targets()):
                    reference = workload.serial_reference()
            else:
                reference = workload.serial_reference()
        check_digests(args, workload, ledger, rounds, reference)
        metrics = end_to_end(workload, rounds, traced, setups)
        units = dict(END_TO_END)
        for name, (_key, unit) in WORKLOAD_FIGURES[args.workload].items():
            units[name] = unit
        if tracer:
            layers = per_layer(workload, ledger, rounds, traced, tracer)
            metrics.update(layers)
            units.update(PER_LAYER)
    except Exception:
        ledger.check(False, traceback.format_exc())
        metrics, units = {}, dict(PER_LAYER if tracer else END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["failed_ops_frac"] = ledger.failed / max(1, ledger.attempted)
    units["failed_ops_frac"] = "ratio"
    for name, unit in units.items():
        print(f"metric {name} {metrics.get(name, 0.0)!r} {unit}")
    prov = provenance(args, workload)
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    if tracer and rounds and any(traced):
        print(f"trace {write_trace(args, tracer, metrics, prov)}")
    reported = PER_LAYER if tracer else END_TO_END
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
