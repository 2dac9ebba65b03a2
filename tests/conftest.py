"""Shared fixtures.

The logic-table solve is the only expensive setup, so tables are built
once per session: ``tiny_table`` for controller and lookup mechanics,
``test_table`` (the library's ``test_config``) for behavioural and
integration tests, and ``paper_table`` (``paper_config``, 28 MB of Q)
only where a contract must hold at paper resolution.
"""

from __future__ import annotations

import pytest

from repro.acasx import AcasConfig, build_logic_table, paper_config, test_config


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="smoke mode: skip tests marked slow (multi-worker / "
        "long-running) so the tier-1 loop stays fast",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: multi-worker or long-running test (skipped under --smoke)",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--smoke"):
        return
    skip_slow = pytest.mark.skip(reason="skipped in --smoke mode")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def tiny_config() -> AcasConfig:
    """A minimal-resolution model configuration."""
    return AcasConfig(
        h_max=300.0,
        num_h=13,
        rate_max=13.0,
        num_rate=5,
        horizon=15,
    )


@pytest.fixture(scope="session")
def tiny_table(tiny_config):
    """A logic table solved on the minimal grid (fast)."""
    return build_logic_table(tiny_config)


@pytest.fixture(scope="session")
def test_table():
    """A logic table solved at the library's test preset."""
    return build_logic_table(test_config())


@pytest.fixture(scope="session")
def paper_table():
    """A logic table solved at the paper's resolution."""
    return build_logic_table(paper_config())
