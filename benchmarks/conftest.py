"""Shared benchmark fixtures and result recording.

Every benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index).  Timing goes through pytest-benchmark;
the regenerated rows/series are printed and also written to
``benchmarks/results/<name>.txt`` so they survive pytest's output
capture.  EXPERIMENTS.md records paper-vs-measured for each.

Campaign-shaped benches persist through :func:`record_campaign`, which
writes into the shared result store
(``benchmarks/results/campaigns.sqlite`` — content-addressed
provenance, dedup, cross-campaign queries) and regenerates the
human-readable ``<name>.campaign.json`` *from the store's export path*,
so the JSON files are downstream views of the store rather than loose
primary records.  The sqlite file itself is a local accumulating cache
(git-ignored); the JSON exports are the committed record.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.acasx import build_logic_table, paper_config, test_config
from repro.store import ResultStore

RESULTS_DIR = Path(__file__).parent / "results"

#: The shared result store every campaign-shaped bench writes through.
STORE_PATH = RESULTS_DIR / "campaigns.sqlite"


def pytest_addoption(parser):
    try:
        parser.addoption(
            "--smoke",
            action="store_true",
            default=False,
            help="smoke mode: shrink benchmark workloads to CI size "
            "(exercises the wiring, does not overwrite recorded "
            "results)",
        )
    except ValueError:
        # Already registered by tests/conftest.py when both trees are
        # collected in one pytest invocation.
        pass


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    """Whether this run is a CI smoke pass (tiny workloads, no records)."""
    return bool(request.config.getoption("--smoke"))


_SMOKE_RUN = False


def pytest_configure(config):
    global _SMOKE_RUN
    _SMOKE_RUN = bool(config.getoption("--smoke", default=False))


def record_result(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/.

    Smoke runs print but do not persist: shrunken workloads must not
    overwrite the recorded full-size results.
    """
    print(f"\n----- {name} -----")
    print(text)
    if _SMOKE_RUN:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)


def record_campaign(name: str, result_set) -> None:
    """Persist a campaign :class:`~repro.experiments.ResultSet`.

    Writes through the shared :class:`~repro.store.ResultStore`
    (``campaigns.sqlite``): the result set is ingested under its
    content-addressed provenance hash (re-recording identical results
    dedups to the same campaign; changed workloads land as new
    campaigns, so history accumulates queryably), then the
    ``<name>.campaign.json`` timing record is regenerated from the
    store's export — it carries wall-clock timing, backend name and
    ``cpu_count`` metadata, so every persisted timing is
    self-describing.  Smoke runs print the summary but do not persist.
    """
    print(f"\n----- {name} ({result_set.wall_time:.2f}s wall) -----")
    print(result_set.summary())
    if _SMOKE_RUN:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    with ResultStore(STORE_PATH) as store:
        campaign_id = store.ingest(result_set, label=name)
        store.export_json(campaign_id, RESULTS_DIR / f"{name}.campaign.json")


@pytest.fixture(scope="session")
def fast_table():
    """Logic table at test resolution (for search-heavy benches)."""
    return build_logic_table(test_config())


@pytest.fixture(scope="session")
def paper_table():
    """Logic table at paper resolution (for behaviour benches)."""
    return build_logic_table(paper_config())
