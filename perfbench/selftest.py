"""Self-tests of the benchmark at smoke size.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest perfbench/selftest.py -q

They check that every workload runs end to end and traced, that every
metric prints with its name and unit, that BENCHMARK.json mirrors the
harness's metric tables, that an altered golden digest is reported as a
failure, that the exact work counts repeat between two runs of one
seed, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the harness, imported for its metric tables)

WORKLOADS = ("ga_paper", "montecarlo_store", "fleet_service", "pool_workers")


def bench(*args: str, cwd: Path = ROOT):
    """Run the harness at smoke size; return (exit code, lines, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke",
         "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


@pytest.fixture
def scratch():
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def printed_metrics(lines):
    """``{name: unit}`` of the human-readable ``metric`` lines."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            float(value)
            out[name] = unit
    return out


def test_benchmark_json_mirrors_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end(workload):
    code, lines, result = bench("--workload", workload, "--seed", "0",
                                "--trace", "0")
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == (
        run.END_TO_END
    )
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = printed_metrics(lines)
    for name, unit in run.END_TO_END.items():
        assert printed[name] == unit
    assert printed["failed_ops_frac"] == "ratio"
    provenance = next(l for l in lines if l.startswith("provenance "))
    prov = json.loads(provenance[len("provenance "):])
    for key in ("cpu_count", "caches", "python", "numpy", "git_sha",
                "src_sha256", "seed", "table"):
        assert key in prov


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts_and_compare(workload):
    traces = []
    for _ in range(2):
        code, lines, result = bench("--workload", workload, "--seed", "3",
                                    "--trace", "1")
        assert code == 0, lines
        assert result["correct"], lines
        assert {n: m["unit"] for n, m in result["metrics"].items()} == (
            run.PER_LAYER
        )
        traces.append(next(l for l in lines if l.startswith("trace "))[6:])
        counts = {name: result["metrics"][name]["value"]
                  for name in run.EXACT_COUNTS}
        if len(traces) == 2:
            assert counts == first_counts
        first_counts = counts
    compared = subprocess.run(
        [sys.executable, "perfbench/compare.py", *traces],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stderr
    assert "per-layer metric" in compared.stdout
    for path in traces:
        Path(path).unlink()


def test_altered_golden_digest_is_a_failure(scratch):
    golden = json.loads((HERE / "golden.json").read_text())
    digests = golden["montecarlo_store"]["smoke"]["0"]
    digests["equipped"] = "0" * 64
    altered = scratch / "golden.json"
    altered.write_text(json.dumps(golden))
    code, lines, result = bench("--workload", "montecarlo_store", "--seed",
                                "0", "--trace", "0", "--golden", str(altered))
    assert code == 0, lines
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, result = bench("--workload", "ga_paper", "--seed", "0",
                                "--trace", "0", cwd=scratch)
    assert code != 0
    assert result is None
