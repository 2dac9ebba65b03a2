"""Tests for the logic-table verification checks."""

import numpy as np
import pytest

from repro.acasx.advisories import CLIMB, COC
from repro.acasx.config import AcasConfig
from repro.acasx.logic_table import LogicTable
from repro.acasx.verification import (
    check_decided_index,
    check_symmetry,
    check_terminal_consistency,
    check_value_monotonicity,
    cross_check_with_dense_solver,
    verify_table,
)


class TestChecksOnSolvedTable:
    def test_all_checks_pass(self, tiny_table):
        report = verify_table(tiny_table, include_dense_cross_check=False)
        assert report.all_passed, report.summary()

    def test_paper_table_passes(self, paper_table):
        report = verify_table(paper_table, include_dense_cross_check=False)
        assert report.all_passed, report.summary()
        assert "[PASS] decided-advisory index" in report.summary()

    def test_dense_cross_check_passes(self):
        finding = cross_check_with_dense_solver(
            AcasConfig(num_h=7, num_rate=3, horizon=4)
        )
        assert finding.passed, finding.detail

    def test_summary_format(self, tiny_table):
        report = verify_table(tiny_table, include_dense_cross_check=False)
        text = report.summary()
        assert "[PASS]" in text
        assert "symmetry" in text


class TestChecksCatchCorruption:
    """Each check must fail on a deliberately corrupted table —
    verification that cannot fail verifies nothing."""

    def corrupt(self, table, mutate):
        q = table.q.copy()
        mutate(q)
        return LogicTable(table.config, q, metadata=dict(table.metadata))

    def test_symmetry_catches_asymmetric_q(self, tiny_table):
        def mutate(q):
            # Break the mirror at a stage the check samples (step =
            # horizon // 5, so stage 3 is always sampled for horizon 15).
            q[3, 1, 1, 0] += 50.0

        corrupted = self.corrupt(tiny_table, mutate)
        assert not check_symmetry(corrupted).passed

    def test_terminal_check_catches_bad_stage0(self, tiny_table):
        def mutate(q):
            q[0, 0, 0, :] += 1.0

        corrupted = self.corrupt(tiny_table, mutate)
        assert not check_terminal_consistency(corrupted).passed

    def test_monotonicity_catches_value_dip(self, tiny_table):
        config = tiny_table.config
        mid_h = config.num_h // 2
        mid_rate = config.num_rate // 2
        state = (mid_h * config.num_rate + mid_rate) * config.num_rate + mid_rate

        def mutate(q):
            # Make a later stage drastically worse than an earlier one.
            q[config.horizon, :, :, state] = -1e6

        corrupted = self.corrupt(tiny_table, mutate)
        assert not check_value_monotonicity(corrupted).passed

    def test_decided_index_check_catches_a_wrong_answer(self, tiny_table):
        # A fresh table, so the shared fixture's index stays intact.
        table = LogicTable(tiny_table.config, tiny_table.q)
        index = table._decided_index()
        assert (index == COC.index).any()
        assert check_decided_index(table).passed
        table._decided = np.where(index == COC.index, CLIMB.index, index)
        assert not check_decided_index(table).passed

    def test_report_flags_failure(self, tiny_table):
        def mutate(q):
            q[0, 0, 0, :] += 1.0

        corrupted = self.corrupt(tiny_table, mutate)
        report = verify_table(corrupted, include_dense_cross_check=False)
        assert not report.all_passed
        assert "[FAIL]" in report.summary()
